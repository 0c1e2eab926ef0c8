"""Chord intersection: combinatorial predicate vs exact-geometry oracle."""

import itertools
import random

import pytest

from cyclorient import (
    Chord,
    Mapping,
    chords_intersect,
    classify,
    enumerate_all,
    has_chord_property,
    image_chord,
    quad_test,
)
from cyclorient.chords import METHODS


def test_chord_normalization_and_parse():
    c = Chord(5, 4, 1)
    assert (c.p, c.q) == (1, 4)
    assert str(c) == "1-4"
    assert Chord.parse("3-0", 4) == Chord(4, 0, 3)
    assert Chord(4, 2, 2).p == Chord(4, 2, 2).q == 2
    with pytest.raises(ValueError):
        Chord(4, 0, 4)
    with pytest.raises(ValueError):
        Chord(0, 0, 0)
    assert str(Chord(4, 3, 1)) == "1-3"
    with pytest.raises(ValueError, match=r"endpoints \(0, 2\.0\) must be integers"):
        Chord(4, 0, 2.0)
    with pytest.raises(ValueError, match=r"endpoints \('0', 1\) must be integers"):
        Chord(4, "0", 1)
    with pytest.raises(ValueError, match=r"endpoints \(None, 1\) must be integers"):
        Chord(4, None, 1)
    with pytest.raises(ValueError, match=r"cycle size 3\.0 and endpoints"):
        Chord(3.0, 0, 1)

    class Index:
        def __index__(self):
            return 3

    c = Chord(4, Index(), True)
    assert (c.p, c.q) == (1, 3) and type(c.p) is type(c.q) is int
    with pytest.raises(ValueError):
        Chord.parse("1:3", 4)


def test_intersection_examples_both_methods():
    cases = [
        (4, (1, 3), (0, 2), True),
        (4, (0, 2), (0, 3), True),
        (4, (0, 1), (2, 3), False),
        (5, (2, 2), (0, 3), False),
    ]
    for n, (a, c), (b, d), expected in cases:
        first, second = Chord(n, a, c), Chord(n, b, d)
        assert chords_intersect(first, second) == expected
        assert chords_intersect(first, second, "geometric") == expected
    with pytest.raises(ValueError):
        chords_intersect(Chord(4, 0, 1), Chord(5, 0, 1))
    with pytest.raises(ValueError):
        chords_intersect(Chord(4, 0, 1), Chord(4, 2, 3), "psychic")


def test_one_point_chords():
    # A point meets itself and any chord ending at it; a circle point is
    # never on a chord between two other circle points.
    for method in ("combinatorial", "geometric"):
        assert chords_intersect(Chord(6, 2, 2), Chord(6, 2, 2), method)
        assert not chords_intersect(Chord(6, 2, 2), Chord(6, 5, 5), method)
        assert chords_intersect(Chord(6, 2, 2), Chord(6, 2, 5), method)
        assert not chords_intersect(Chord(6, 2, 2), Chord(6, 0, 4), method)


def test_common_endpoint_always_intersects():
    for n in (3, 4, 5):
        for a, b, c in itertools.product(range(n), repeat=3):
            assert chords_intersect(Chord(n, a, b), Chord(n, a, c))
            assert chords_intersect(Chord(n, a, b), Chord(n, a, c), "geometric")
    # ... and stays intersecting under every map, via the common image point.
    for m in enumerate_all(4):
        for a, b, c in itertools.product(range(4), repeat=3):
            first = image_chord(m, Chord(4, a, b))
            second = image_chord(m, Chord(4, a, c))
            assert chords_intersect(first, second)


def test_symmetry_invariance():
    # Swapping endpoints within a chord or swapping the chords never changes
    # the verdict, for either method.
    for n in (2, 3, 4, 5):
        for a, b, c, d in itertools.product(range(n), repeat=4):
            for method in ("combinatorial", "geometric"):
                base = chords_intersect(Chord(n, a, c), Chord(n, b, d), method)
                assert base == chords_intersect(Chord(n, c, a), Chord(n, b, d), method)
                assert base == chords_intersect(Chord(n, a, c), Chord(n, d, b), method)
                assert base == chords_intersect(Chord(n, b, d), Chord(n, a, c), method)


def test_methods_agree_up_to_n8():
    # The acceptance suite extends this differential check to n = 12.
    for n in range(1, 9):
        for a, b, c, d in itertools.product(range(n), repeat=4):
            first, second = Chord(n, a, c), Chord(n, b, d)
            assert chords_intersect(first, second) == chords_intersect(
                first, second, "geometric"
            ), (n, a, b, c, d)


def test_image_chord():
    m = Mapping.parse("0,1,3,2")
    assert image_chord(m, Chord(4, 1, 3)) == Chord(4, 1, 2)
    assert image_chord(m, Chord(4, 0, 2)) == Chord(4, 0, 3)
    with pytest.raises(ValueError):
        image_chord(m, Chord(5, 0, 2))


def test_has_chord_property_examples():
    res = has_chord_property(Mapping.parse("0,1,3,2"))
    assert not res.holds and not bool(res)
    first, second = res.counterexample
    assert {(first.p, first.q), (second.p, second.q)} == {(0, 2), (1, 3)}
    m = Mapping.parse("0,1,3,2")
    assert not chords_intersect(image_chord(m, first), image_chord(m, second))

    assert has_chord_property(Mapping.parse("0,0,3,2")).holds
    assert has_chord_property(Mapping(4, tuple(range(4)))).holds
    assert has_chord_property(Mapping(4, tuple(range(4)))).counterexample is None
    with pytest.raises(ValueError, match=r"^method must be one of \('combinatorial', "):
        has_chord_property(m, "bogus")


def test_has_chord_property_first_violation_is_lexicographic():
    # For the swap map the first violating (a,b,c,d) is (0,1,2,3).
    res = has_chord_property(Mapping.parse("0,1,3,2"))
    first, second = res.counterexample
    assert (first.p, second.p, first.q, second.q) == (0, 1, 2, 3)


def test_chord_property_matches_quad_test():
    for n in (1, 2, 3, 4):
        for m in enumerate_all(n):
            assert has_chord_property(m).holds == quad_test(m), m
            assert has_chord_property(m, "geometric").holds == quad_test(m), m
    rng = random.Random(31337)
    for _ in range(150):
        m = Mapping(5, tuple(rng.randrange(5) for _ in range(5)))
        assert has_chord_property(m).holds == quad_test(m) == classify(m).in_p


def first_failing_pair_oracle(n, method):
    """Brute force over [n]^4, repeats included: returns a function giving
    the source chords {a, c}, {b, d} of the lexicographically first
    intersecting (a, b, c, d) whose image chords are disjoint, or None."""
    meets = {
        quad: chords_intersect(Chord(n, quad[0], quad[2]), Chord(n, quad[1], quad[3]), method)
        for quad in itertools.product(range(n), repeat=4)
    }
    sources = [quad for quad, ok in meets.items() if ok]

    def first_failure(m):
        imgs = m.images
        for a, b, c, d in sources:
            if not meets[imgs[a], imgs[b], imgs[c], imgs[d]]:
                return Chord(n, a, c), Chord(n, b, d)
        return None

    return first_failure


def test_chord_property_matches_brute_force_up_to_n6():
    for n in range(1, 7):
        for method in METHODS:
            oracle = first_failing_pair_oracle(n, method)
            for m in enumerate_all(n):
                res = has_chord_property(m, method)
                assert res.counterexample == oracle(m), (m, method)
                assert res.holds == (res.counterexample is None), (m, method)


def test_sorted_quadruples_cover_every_intersecting_pair():
    # The premise of the reduced chord scan, decided by exact geometry: the
    # chords {a, c}, {b, d} of distinct a, b, c, d intersect exactly when
    # (a, b, c, d) is one of the 8 dihedral arrangements of its sorted form;
    # with a repeated entry they intersect only through a shared endpoint,
    # whose image every map shares too.
    for n in range(1, 13):
        for quad in itertools.product(range(n), repeat=4):
            a, b, c, d = quad
            meets = chords_intersect(Chord(n, a, c), Chord(n, b, d), "geometric")
            if len(set(quad)) < 4:
                assert meets == bool({a, c} & {b, d}), quad
                continue
            s = sorted(quad)
            arrangements = {tuple(r[i:] + r[:i]) for r in (s, s[::-1]) for i in range(4)}
            assert meets == (quad in arrangements), quad


def test_geometric_rule_matches_the_closed_segment_oracle():
    # The one rule (a shared label, or strict separation by one line) against
    # the general closed-segment routine on the placed points: every pair of
    # chords for n <= 12, then seeded pairs at n far past any side table,
    # with shared endpoints and one-point chords forced in.
    from cyclorient.chords import _place, _placed_sides
    from oracles import segments_intersect

    def check(n, a, b, c, d):
        want = segments_intersect(_place(a), _place(b), _place(c), _place(d))
        got = chords_intersect(Chord(n, a, b), Chord(n, c, d), "geometric")
        assert got == want, (n, a, b, c, d)
        return got

    tables = _placed_sides.cache_info()
    for n in range(1, 13):
        for quad in itertools.product(range(n), repeat=4):
            check(n, *quad)
    rng = random.Random(35)
    for n in (10**6, 10**18):
        seen = set()
        for _ in range(2000):
            a, b, c, d = (rng.randrange(n) for _ in range(4))
            for quad in ((a, b, c, d), (a, b, a, d), (a, b, c, b), (a, a, c, d), (a, b, d, d)):
                seen.add(check(n, *quad))
            assert not check(n, a, a, c, c) or a == c
        assert seen == {True, False}, n
    # No side table was built or read: none exists past n = 512.
    assert _placed_sides.cache_info() == tables


def test_chord_parse_names_bad_endpoints():
    with pytest.raises(ValueError, match="chord endpoints must be integers, got '1-x'"):
        Chord.parse("1-x", 4)


def test_chord_parse_reads_only_ascii_digits():
    for text in ("1_0-2", "\uff11-2", "1-\u00b2"):
        with pytest.raises(ValueError, match=f"chord endpoints must be integers, got '{text}'"):
            Chord.parse(text, 12)
    assert Chord.parse(" +3 - 1 ", 4) == Chord(4, 1, 3)


def test_placement_is_in_strictly_convex_position():
    # The precondition of the geometric scan's one-line rule: every sorted
    # triple of placed points turns left, so the points lie in strictly
    # convex position in the circular order, for every n the CLI accepts.
    from cyclorient.chords import _cross_sign, _place
    from cyclorient.cli import CLASSIFY_MAX_N

    points = [_place(j) for j in range(CLASSIFY_MAX_N)]
    for p, q, r in itertools.combinations(points, 3):
        assert _cross_sign(p, q, r) > 0, (p, q, r)


def test_geometric_and_order_side_tables_agree():
    # The chord scan's sides come from exact cross products, the quadruple
    # scan's from the circular order; the shared scan needs them equal,
    # diagonal included, at every n up to the SIDES_MAX_N points the scans
    # accept.  A 512-point table is ~24 MB, so both caches are emptied after.
    from cyclorient.chords import _placed_sides
    from cyclorient.membership import SIDES_MAX_N, _order_sides

    try:
        for n in (*range(1, 65), 96, 128, 256, SIDES_MAX_N):
            assert _placed_sides(n) == _order_sides(n), n
    finally:
        _placed_sides.cache_clear()
        _order_sides.cache_clear()


@pytest.fixture
def placement(monkeypatch):
    """Swap the point placement for one test; the per-n side table is
    cleared around it, since it caches cross products of the placement."""
    from cyclorient import chords

    def use(points):
        monkeypatch.setattr(chords, "_place", points.__getitem__)
        chords._placed_sides.cache_clear()

    yield use
    chords._placed_sides.cache_clear()


def test_geometric_scan_refuses_collinear_points(placement):
    placement([(j, 2 * j) for j in range(5)])
    with pytest.raises(RuntimeError, match="collinear"):
        has_chord_property(Mapping.parse("0,1,2,3,4"), "geometric")


def test_geometric_scan_refuses_a_point_inside_the_hull(placement):
    # No three of these points are collinear, but (2, 1) lies inside the
    # hull of the others: no angular order at it is strict, so the table
    # refuses the placement instead of scanning with wrong sides.
    placement([(0, 0), (4, 0), (2, 1), (4, 4), (0, 4)])
    with pytest.raises(RuntimeError, match="placed point 2 is not in strictly convex position"):
        has_chord_property(Mapping.parse("0,1,2,3,4"), "geometric")
