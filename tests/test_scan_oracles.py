"""The triple, quadruple and geometric chord scans against their one-loop forms.

The production scans skip work (a value mask for the last point, one
cached side row per first image, a shared-endpoint shortcut).  The
reference oracles below are the plain loops over ``combinations`` they
replaced; each quadruple scan must report the same first quadruple (as
the chord property's counterexample), or none, and each triple test the
same verdict, on every map.
"""

import itertools
import random
from functools import partial

from cyclorient import (
    Mapping,
    classify,
    enumerate_all,
    has_chord_property,
    quad_test,
    triple_test,
)
from cyclorient.chords import METHODS, _place
from oracles import chord_pair, segments_intersect


def reference_keeps_triples(imgs):
    """The preserve triple test; the reverse test is this on negated images."""
    for w, x, y in itertools.combinations(imgs, 3):
        if (w > x) + (x > y) + (y > w) >= 2:
            return False
    return True


def reference_first_unoriented(m):
    imgs = m.images
    for a, b, c, d in itertools.combinations(range(m.n), 4):
        w, x, y, z = imgs[a], imgs[b], imgs[c], imgs[d]
        if (w > x) + (x > y) + (y > z) + (z > w) >= 2 and (w < x) + (x < y) + (
            y < z
        ) + (z < w) >= 2:
            return a, b, c, d
    return None


def reference_first_disjoint(m):
    placed = [_place(v) for v in m.images]
    for a, b, c, d in itertools.combinations(range(m.n), 4):
        if not segments_intersect(placed[a], placed[c], placed[b], placed[d]):
            return a, b, c, d
    return None


def assert_scans_match(m):
    unoriented = reference_first_unoriented(m)
    assert quad_test(m) == (unoriented is None), m
    comb = has_chord_property(m, "combinatorial").counterexample
    assert comb == chord_pair(m.n, unoriented), m
    geom = has_chord_property(m, "geometric").counterexample
    assert geom == chord_pair(m.n, reference_first_disjoint(m)), m
    assert triple_test(m, "preserve") == reference_keeps_triples(m.images), m
    assert triple_test(m, "reverse") == reference_keeps_triples([-v for v in m.images]), m


def assert_triple_tests_refine_membership(m):
    d = classify(m)
    low_rank = d.image_size <= 2
    assert triple_test(m, "preserve") == (d.in_op or low_rank), m
    assert triple_test(m, "reverse") == (d.in_or or low_rank), m


def test_scans_match_reference_on_every_map_up_to_n6():
    for n in range(1, 7):
        for m in enumerate_all(n):
            assert_scans_match(m)


def member_images(rng, n):
    """A rotated non-decreasing list (cyclic), reversed half the time."""
    values = sorted(rng.randrange(n) for _ in range(n))
    k = rng.randrange(n)
    images = values[k:] + values[:k]
    return images if rng.random() < 0.5 else images[::-1]


def near_member_images(rng, n):
    """A member's images with one entry changed."""
    images = member_images(rng, n)
    j = rng.randrange(n)
    images[j] = rng.choice([v for v in range(n) if v != images[j]])
    return images


def seeded_maps(seed=2022):
    rng = random.Random(seed)
    for n in range(7, 25):
        for _ in range(3):
            yield Mapping(n, member_images(rng, n))
            yield Mapping(n, near_member_images(rng, n))
            yield Mapping(n, [rng.randrange(n) for _ in range(n)])
            # Few values: repeated images, shared endpoints and point chords.
            pool = rng.sample(range(n), rng.randrange(2, 4))
            yield Mapping(n, [rng.choice(pool) for _ in range(n)])


def test_scans_match_reference_on_seeded_maps_n7_to_n24():
    members = point_chords = 0
    for m in seeded_maps():
        assert_scans_match(m)
        first = reference_first_disjoint(m)
        if first is None:
            members += 1
        else:
            a, b, c, d = first
            imgs = m.images
            point_chords += imgs[a] == imgs[c] or imgs[b] == imgs[d]
    # Every generated member reaches the full scan; many non-members reach
    # the zero-sign (point chord) path.
    assert members >= 18 * 3
    assert point_chords >= 10


def test_scans_agree_above_the_reference_range():
    # The one-loop references stop at n = 24, but classify accepts up to
    # n = 128: there the two production scans check each other, and the
    # triple tests are checked against membership refined by rank.
    rng = random.Random(2024)
    near_failing = 0
    for n in (48, 96, 128):
        for _ in range(3):
            m = Mapping(n, member_images(rng, n))
            assert has_chord_property(m, "geometric"), m
            assert quad_test(m), m
            assert_triple_tests_refine_membership(m)
            near = Mapping(n, near_member_images(rng, n))
            near_failing += not quad_test(near)
            for m in (near, Mapping(n, [rng.randrange(n) for _ in range(n)])):
                geom = has_chord_property(m, "geometric")
                assert geom == has_chord_property(m, "combinatorial"), m
                assert geom.holds == quad_test(m), m
                assert_triple_tests_refine_membership(m)
    # Every near-member here leaves the class, so the scans agree on a hit.
    assert near_failing == 9


def test_point_chord_images_are_disjoint_unless_they_share_a_point():
    # 0,1,0,2: the image chords of (0, 1, 2, 3) are the point 0 and 1-2.
    m = Mapping.parse("0,1,0,2")
    for method in METHODS:
        assert has_chord_property(m, method).counterexample == chord_pair(4, (0, 1, 2, 3))
    assert not quad_test(m)
    # 0,1,0,0: the point 0 is an endpoint of 1-0, so the images meet.
    m = Mapping.parse("0,1,0,0")
    for method in METHODS:
        assert has_chord_property(m, method).counterexample is None
    assert quad_test(m)


def test_reference_segment_test_off_the_parabola():
    # An endpoint of the second segment lies on the first, at either end.
    assert segments_intersect((0, 0), (4, 0), (2, 0), (2, 5))
    assert segments_intersect((0, 0), (4, 0), (2, 5), (2, 0))
    # Collinear and apart.
    assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))


def test_scans_keep_no_per_call_table():
    import tracemalloc

    from cyclorient import identity

    m = identity(24)
    reversal = Mapping(24, range(23, -1, -1))
    # Each scan runs in full: a member, and the reverse test on a reversal.
    for scan, arg in (
        (quad_test, m),
        (lambda m: has_chord_property(m, "geometric").holds, m),
        (partial(triple_test, mode="preserve"), m),
        (partial(triple_test, mode="reverse"), reversal),
    ):
        tracemalloc.start()
        try:
            assert scan(arg) is True, scan
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A table over all n^2 chords of n values each would take ~380 KiB.
        assert peak < 50 * 1024, (scan, peak)
