"""The four membership routes and their agreement surface.

Brute-force oracles here re-quantify over every raw triple and quadruple
(with repeats, no symmetry shortcuts) so the library's reduced scans are
checked against a straight transcription of the conditions.
"""

import itertools
import random

import pytest

from cyclorient import (
    Mapping,
    Orientation,
    Seq,
    classify,
    cross_check,
    enumerate_all,
    has_chord_property,
    orientation,
    quad_test,
    reversal,
    triple_test,
)
from oracles import chord_pair, order_sides, oriented_quadruples


def oracle_triple_test(m, mode):
    """Every pairwise-distinct cyclic triple, no rotation shortcut."""
    for triple in itertools.product(range(m.n), repeat=3):
        if len(set(triple)) != 3:
            continue
        if not orientation(Seq(m.n, triple)).admits_cyclic:
            continue
        image = Seq(m.n, tuple(m.images[p] for p in triple))
        tag = orientation(image)
        if mode == "preserve" and not tag.admits_cyclic:
            return False
        if mode == "reverse" and not tag.admits_anti_cyclic:
            return False
    return True


def oracle_quad_test(m):
    """Every quadruple in [n]^4, repeats included."""
    for quad in itertools.product(range(m.n), repeat=4):
        if not orientation(Seq(m.n, quad)).oriented:
            continue
        image = Seq(m.n, tuple(m.images[p] for p in quad))
        if not orientation(image).oriented:
            return False
    return True


def test_classify_examples():
    gamma5 = classify(reversal(5))
    assert gamma5.in_or and not gamma5.in_op and gamma5.in_p

    r = classify(Mapping.parse("0,0,3,2"))
    assert r.in_or and not r.in_op
    assert r.image_orientation is Orientation.ANTI_CYCLIC_ONLY

    r = classify(Mapping.parse("0,1,0,1"))
    assert not r.in_op and not r.in_or and not r.in_p
    assert r.image_size == 2
    assert r.image_orientation is Orientation.NEITHER

    r = classify(Mapping(5, (2, 2, 2, 2, 2)))
    assert r.in_op and r.in_or and r.image_size == 1


def test_membership_report_invariants():
    for m in enumerate_all(4):
        r = classify(m)
        assert r.in_p == (r.in_op or r.in_or)
        assert r.in_op == r.image_orientation.admits_cyclic
        assert r.in_or == r.image_orientation.admits_anti_cyclic
        if r.in_op and r.in_or:
            assert r.image_size <= 2


def test_triple_test_examples():
    assert triple_test(Mapping(5, tuple(range(5))), "preserve")
    assert not triple_test(Mapping.parse("0,1,3,2"), "preserve")
    # The documented rank <= 2 gap: the alternating map passes the triple
    # test without being orientation-preserving.
    alternating = Mapping.parse("0,1,0,1")
    assert triple_test(alternating, "preserve")
    assert triple_test(alternating, "reverse")
    assert not classify(alternating).in_op
    with pytest.raises(ValueError):
        triple_test(alternating, "sideways")


def test_triple_test_specific_violation():
    # The cyclic triple (2,3,0) maps to (3,2,0), which is anti-cyclic only.
    m = Mapping.parse("0,1,3,2")
    source = Seq(4, (2, 3, 0))
    assert orientation(source) is Orientation.CYCLIC_ONLY
    image = Seq(4, tuple(m.images[p] for p in source.items))
    assert orientation(image) is Orientation.ANTI_CYCLIC_ONLY


def test_triple_test_matches_raw_oracle():
    for n in (1, 2, 3, 4):
        for m in enumerate_all(n):
            for mode in ("preserve", "reverse"):
                assert triple_test(m, mode) == oracle_triple_test(m, mode), (m, mode)
    rng = random.Random(4242)
    for n in (5, 6):
        for _ in range(150):
            m = Mapping(n, tuple(rng.randrange(n) for _ in range(n)))
            for mode in ("preserve", "reverse"):
                assert triple_test(m, mode) == oracle_triple_test(m, mode), (m, mode)


def test_oriented_quadruples_cache():
    quads = oriented_quadruples(3)
    assert quads == tuple(
        q
        for q in itertools.product(range(3), repeat=4)
        if orientation(Seq(3, q)).oriented
    )
    assert (0, 1, 2, 0) in quads
    assert (0, 1, 0, 1) not in quads


def test_quad_test_examples():
    assert quad_test(Mapping(4, tuple(range(4))))
    assert not quad_test(Mapping.parse("0,1,0,1"))
    assert quad_test(Mapping.parse("0,0,3,2"))
    # The violation the alternating map exhibits at (0,1,2,3).
    image = Seq(4, (0, 1, 0, 1))
    assert orientation(Seq(4, (0, 1, 2, 3))).oriented
    assert not orientation(image).oriented


def test_quad_test_matches_raw_oracle():
    for n in (1, 2, 3, 4):
        for m in enumerate_all(n):
            assert quad_test(m) == oracle_quad_test(m), m
    rng = random.Random(999)
    for _ in range(120):
        m = Mapping(5, tuple(rng.randrange(5) for _ in range(5)))
        assert quad_test(m) == oracle_quad_test(m), m


def test_refined_triple_equivalence_exhaustive():
    # For every map: triple test passes iff member or rank <= 2; and the
    # literal statement holds whenever the rank is at least 3.
    for n in range(1, 6):
        for m in enumerate_all(n):
            r = classify(m)
            tp = triple_test(m, "preserve")
            tr = triple_test(m, "reverse")
            assert tp == (r.in_op or r.image_size <= 2), m
            assert tr == (r.in_or or r.image_size <= 2), m
            if r.image_size >= 3:
                assert tp == r.in_op and tr == r.in_or, m


def test_quad_equivalence_exhaustive():
    for n in range(1, 6):
        for m in enumerate_all(n):
            assert quad_test(m) == classify(m).in_p, m


def test_cross_check_examples():
    clean = cross_check(Mapping(4, tuple(range(4))))
    assert clean.consistent and not clean.discrepancies

    gapped = cross_check(Mapping.parse("0,1,0,1"))
    assert gapped.consistent  # only sanctioned entries
    claims = {d.claim for d in gapped.discrepancies}
    assert "triple-preserve-literal" in claims
    assert "triple-reverse-literal" in claims
    assert all(d.sanctioned for d in gapped.discrepancies)
    assert any("image size 2" in d.detail for d in gapped.discrepancies)

    gamma6 = cross_check(reversal(6))
    assert gamma6.triple_or and gamma6.quad_p and gamma6.chord_p
    assert not gamma6.discrepancies


def test_cross_check_exhaustive_small():
    for n in range(1, 5):
        for m in enumerate_all(n):
            report = cross_check(m)
            assert report.consistent, m
            # Sanctioned entries appear exactly for rank <= 2 triple gaps.
            expects_gap = report.definitional.image_size <= 2 and (
                report.triple_op != report.definitional.in_op
                or report.triple_or != report.definitional.in_or
            )
            assert bool(report.discrepancies) == expects_gap, m


def test_cross_check_definitional_report_is_classify():
    # cross_check takes its MembershipReport from membership.classify(m),
    # the one builder of that report, beside the claim table's own verdicts.
    for n in range(1, 6):
        for m in enumerate_all(n):
            assert cross_check(m).definitional == classify(m), m


def test_reversal_flips_an_oriented_sequence():
    s = Seq(5, (0, 2, 4))
    assert orientation(s) is Orientation.CYCLIC_ONLY
    image = Seq(5, tuple(map(reversal(5), s)))
    assert image.items == (4, 2, 0)
    assert orientation(image) is Orientation.ANTI_CYCLIC_ONLY
    assert orientation(image) is orientation(Seq(5, s.items[::-1]))


def test_members_preserve_oriented_sequences():
    # Members map oriented sequences to matching-orientation sequences
    # whenever three distinct image values survive; exhaustive at n=3,4
    # over oriented sequences of length 3 and 4.
    for n in (3, 4):
        pool = [
            Seq(n, items)
            for length in (3, 4)
            for items in itertools.product(range(n), repeat=length)
            if orientation(Seq(n, items)).oriented
        ]
        for m in enumerate_all(n):
            r = classify(m)
            if not r.in_p or r.image_size < 3:
                continue
            for s in pool:
                image = Seq(n, tuple(m.images[v] for v in s.items))
                if len(set(image.items)) < 3:
                    continue
                tag = orientation(s)
                want = tag if r.in_op else tag.swapped()
                assert orientation(image) is want, (m, s)


def first_failing_quad_oracle(n):
    """Brute force over [n]^4, repeats included: returns a function giving
    the lexicographically first oriented quadruple with a neither-oriented
    image, or None."""
    oriented = {
        quad: orientation(Seq(n, quad)).oriented
        for quad in itertools.product(range(n), repeat=4)
    }
    sources = [quad for quad, ok in oriented.items() if ok]

    def first_failure(m):
        imgs = m.images
        for a, b, c, d in sources:
            if not oriented[imgs[a], imgs[b], imgs[c], imgs[d]]:
                return a, b, c, d
        return None

    return first_failure


def test_quad_test_matches_brute_force_up_to_n6():
    for n in range(1, 7):
        oracle = first_failing_quad_oracle(n)
        for m in enumerate_all(n):
            first = oracle(m)
            assert quad_test(m) == (first is None), m
            # The reduced scan's first sorted failure is the first in [n]^4.
            assert has_chord_property(m).counterexample == chord_pair(n, first), m


def test_cross_check_claim_table_and_gaps():
    clean = cross_check(Mapping.parse("0,1,3,2"))
    assert dict(clean.claims) == {
        "triple-preserve-refined": True,
        "triple-reverse-refined": True,
        "quad-vs-definitional": True,
        "chord-vs-definitional": True,
        "witness-triple-preserve": True,
        "witness-triple-reverse": True,
        "witness-quad": True,
    }
    assert clean.discrepancies == ()
    gapped = cross_check(Mapping.parse("0,1,0,1"))
    assert [(d.claim, d.sanctioned) for d in gapped.discrepancies] == [
        ("triple-preserve-literal", True),
        ("triple-reverse-literal", True),
    ]
    # Rank 2: no triple witness exists, so none is claimed.
    assert [claim for claim, _ in gapped.claims] == [
        "triple-preserve-refined",
        "triple-reverse-refined",
        "quad-vs-definitional",
        "chord-vs-definitional",
        "witness-quad",
    ]
    assert all(ok for _, ok in gapped.claims)


def test_cross_check_flags_a_low_rank_triple_failure(monkeypatch):
    # A rank <= 2 non-member must pass the triple tests; one that fails them
    # breaks the refined statement even though it agrees with in_op.
    from cyclorient import membership

    monkeypatch.setattr(membership, "_keeps_triples", lambda imgs, after, reverse: False)
    report = cross_check(Mapping.parse("0,1,0,1"))
    assert not report.consistent
    assert not [d.claim for d in report.discrepancies if d.sanctioned]
    assert {d.claim for d in report.unsanctioned} == {
        "triple-preserve-refined",
        "triple-reverse-refined",
    }
    assert ("triple-preserve-refined", False) in report.claims


def test_chord_claim_does_not_go_through_the_quadruple_scan(monkeypatch):
    # With the geometric scan blind, only the chord claim may notice that
    # 0,1,3,2,4,5 is outside P_6; the quadruple test still catches it.
    from cyclorient import chords

    monkeypatch.setattr(chords, "_first_disjoint", lambda imgs, after: None)
    report = cross_check(Mapping.parse("0,1,3,2,4,5"))
    assert [d.claim for d in report.unsanctioned] == ["chord-vs-definitional"]
    assert ("quad-vs-definitional", True) in report.claims
    assert not report.quad_p and report.chord_p


def test_cross_check_reports_a_witness_that_fails_validation(monkeypatch):
    from cyclorient import witnesses

    # (0, 1, 2) maps to the cyclic (0, 1, 3) under 0,1,3,2: not a witness.
    monkeypatch.setattr(witnesses, "_preserve_triple", lambda imgs: ((0, 1, 2), "1"))
    report = cross_check(Mapping.parse("0,1,3,2"))
    [failure] = report.unsanctioned
    assert failure.claim == "witness-triple-preserve"
    assert failure.detail.startswith("extraction failed: witness image (0, 1, 3)")
    assert ("witness-triple-preserve", False) in report.claims


def test_route_verdicts_are_symmetric_under_rotation_and_reversal():
    # V(m) = (in_op, in_or, in_p, triple_op, triple_or, quad_p, chord_p).
    # Composing with the rotation on either side keeps V; composing with the
    # reversal on either side swaps OP with OR and the two triple tests.
    from cyclorient import compose, rotation

    def verdicts(m):
        r = cross_check(m)
        d = r.definitional
        return (d.in_op, d.in_or, d.in_p, r.triple_op, r.triple_or, r.quad_p, r.chord_p)

    for n in range(1, 6):
        table = {m.images: verdicts(m) for m in enumerate_all(n)}
        g, h = rotation(n), reversal(n)
        for m in enumerate_all(n):
            op, or_, p, t_op, t_or, quad, chord = table[m.images]
            swapped = (or_, op, p, t_or, t_op, quad, chord)
            for composite, want in (
                (compose(g, m), table[m.images]),
                (compose(m, g), table[m.images]),
                (compose(h, m), swapped),
                (compose(m, h), swapped),
            ):
                assert table[composite.images] == want, (m, composite)


def test_claim_table_is_symmetric_under_rotation_and_reversal():
    # The whole claim table, not only the verdicts.  Composing with the
    # rotation on either side leaves it identical.  Composing with the
    # reversal on either side swaps OP with OR, the two triple verdicts, and
    # "preserve" with "reverse" in every checked claim, failing claim and
    # sanctioned gap; claims compare as sets, since the table lists them in a
    # fixed order.
    from cyclorient import compose, rotation
    from cyclorient.sequences import _tag
    from cyclorient.verification import _claims

    swap = {"preserve": "reverse", "reverse": "preserve"}

    def mirrored(name):
        return "-".join(swap.get(part, part) for part in name.split("-"))

    def row_of(imgs):
        # The definitional flags and rank beside the claim table's row.
        tag = _tag(imgs)
        return tag.admits_cyclic, tag.admits_anti_cyclic, len(set(imgs)), _claims(imgs)

    def as_sets(row, rename=lambda name: name):
        in_op, in_or, rank, (verdicts, checked, findings) = row
        failed = frozenset(rename(claim) for claim, _, sanctioned in findings if not sanctioned)
        gaps = frozenset(rename(claim) for claim, _, sanctioned in findings if sanctioned)
        return in_op, in_or, rank, verdicts, frozenset(map(rename, checked)), failed, gaps

    for n in range(1, 7):
        table = {imgs: row_of(imgs) for imgs in itertools.product(range(n), repeat=n)}
        g, h = rotation(n), reversal(n)
        for m in enumerate_all(n):
            row = table[m.images]
            in_op, in_or, rank, (t_op, t_or, quad, chord), *named = as_sets(row, mirrored)
            swapped = (in_or, in_op, rank, (t_or, t_op, quad, chord), *named)
            assert table[compose(g, m).images] == row, m
            assert table[compose(m, g).images] == row, m
            assert as_sets(table[compose(h, m).images]) == swapped, m
            assert as_sets(table[compose(m, h).images]) == swapped, m


def test_scans_refuse_maps_longer_than_their_side_tables(monkeypatch):
    # Each side table holds n² masks of n bits, so every route that reads
    # one refuses a longer map before building it.
    from cyclorient import chords, has_chord_property, membership

    assert membership.SIDES_MAX_N == 512
    m = Mapping(513, (0,) * 513)
    routes = (
        lambda: triple_test(m, "preserve"),
        lambda: triple_test(m, "reverse"),
        lambda: quad_test(m),
        lambda: has_chord_property(m, "combinatorial"),
        lambda: has_chord_property(m, "geometric"),
        lambda: cross_check(m),
    )
    for route in routes:
        with pytest.raises(ValueError, match=r"scanned map length must be within 1\.\.512, got 513$"):
            route()
    # Both builders read the one bound, and a map at the bound is accepted.
    monkeypatch.setattr(membership, "SIDES_MAX_N", 4)
    for build in (membership._order_sides.__wrapped__, chords._placed_sides.__wrapped__):
        assert len(build(4)) == 4
        with pytest.raises(ValueError, match=r"within 1\.\.4, got 5$"):
            build(5)


def test_side_table_builder_matches_the_closed_form():
    # The one mask builder, given the circular order by _order_sides and the
    # cross-product sort by _placed_sides, against the order's closed form.
    # A 512-point table is ~24 MB, so both caches are emptied after.
    from cyclorient import chords, membership

    try:
        for n in (*range(1, 129), 256, membership.SIDES_MAX_N):
            expected = order_sides(n)
            assert membership._order_sides(n) == expected, n
            assert chords._placed_sides(n) == expected, n
    finally:
        membership._order_sides.cache_clear()
        chords._placed_sides.cache_clear()
