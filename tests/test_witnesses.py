"""Witness extraction: pinned traces plus exhaustive totality sweeps."""

import hashlib
import itertools

import pytest

from cyclorient import (
    Mapping,
    Orientation,
    Seq,
    classify,
    enumerate_all,
    identity,
    orientation,
    reversal,
    witness_quad,
    witness_triple,
)
from cyclorient.witnesses import (
    QUAD_CASE_LABELS,
    TRIPLE_CASE_LABELS,
    _plateau_after_minimum,
    _preserve_triple,
    _witness_triple,
)


def image_of(m, points):
    return Seq(m.n, tuple(m.images[p] for p in points))


def check_triple(m, w, mode):
    assert len(set(w.points)) == 3
    assert orientation(Seq(m.n, w.points)) is Orientation.CYCLIC_ONLY
    expected = (
        Orientation.ANTI_CYCLIC_ONLY if mode == "preserve" else Orientation.CYCLIC_ONLY
    )
    assert orientation(image_of(m, w.points)) is expected


def check_quad(m, w):
    assert len(set(w.points)) == 4
    assert orientation(Seq(m.n, w.points)) is Orientation.CYCLIC_ONLY
    assert orientation(image_of(m, w.points)) is Orientation.NEITHER


def test_triple_witness_pinned_swap_map():
    w = witness_triple(Mapping.parse("0,1,3,2"), "preserve")
    assert w.points == (2, 3, 0)
    assert w.case_label == "1"
    assert image_of(Mapping.parse("0,1,3,2"), w.points).items == (3, 2, 0)
    check_triple(Mapping.parse("0,1,3,2"), w, "preserve")


def test_triple_witness_pinned_reversal():
    gamma = reversal(4)
    w = witness_triple(gamma, "preserve")
    assert w.points == (0, 1, 2)
    assert image_of(gamma, w.points).items == (3, 2, 1)
    check_triple(gamma, w, "preserve")


def test_triple_witness_validated_not_pinned():
    m = Mapping.parse("2,1,0,3")
    w = witness_triple(m, "preserve")
    check_triple(m, w, "preserve")


def test_triple_witness_reverse_mode():
    m = Mapping.parse("0,1,3,2")
    w = witness_triple(m, "reverse")
    assert w.case_label == "gamma-composed"
    assert w.points == (0, 1, 2)
    check_triple(m, w, "reverse")


def test_triple_witness_preconditions():
    with pytest.raises(ValueError):
        witness_triple(identity(4), "preserve")
    with pytest.raises(ValueError):
        witness_triple(reversal(5), "reverse")
    # Rank <= 2 non-members have no witness; the call must refuse.
    with pytest.raises(ValueError):
        witness_triple(Mapping.parse("0,1,0,1"), "preserve")
    with pytest.raises(ValueError):
        witness_triple(Mapping.parse("0,1,0,1"), "reverse")
    with pytest.raises(ValueError):
        witness_triple(Mapping.parse("2,1,0,3"), "diagonal")
    # The construction itself refuses a map with fewer than two descents.
    for imgs in ((0, 1, 2, 3), (1, 2, 3, 0), (0, 0, 0)):
        with pytest.raises(ValueError, match="fewer than two circular descents"):
            _preserve_triple(imgs)
    # In reverse mode it scans the negated images, so a reversing map is
    # refused as one inside its mode's class, not as a preserving one.
    for imgs, mode in (((0, 1, 2), "preserve"), ((2, 1, 0), "reverse")):
        with pytest.raises(ValueError, match="fewer than two circular descents") as refusal:
            _witness_triple(imgs, mode)
        assert "the map is in its mode's class" in str(refusal.value)
        assert "preserves orientation" not in str(refusal.value)


@pytest.mark.parametrize(
    "points, refusal",
    [((0, 0, 1), "not pairwise distinct"), ((2, 1, 0), "should be cyclic-only")],
)
def test_triple_witness_validator_refuses_a_bad_construction(monkeypatch, points, refusal):
    from cyclorient import witnesses

    monkeypatch.setattr(witnesses, "_preserve_triple", lambda imgs: (points, "1"))
    with pytest.raises(RuntimeError, match=refusal):
        witness_triple(Mapping.parse("0,1,3,2"), "preserve")


def test_quad_witness_pinned_alternating():
    w = witness_quad(Mapping.parse("0,1,0,1"))
    assert w.points == (0, 1, 2, 3)
    assert w.case_label == "case1-min"
    check_quad(Mapping.parse("0,1,0,1"), w)


def test_quad_witness_pinned_swap_map():
    w = witness_quad(Mapping.parse("0,1,3,2"))
    assert w.points == (0, 1, 2, 3)
    assert w.case_label == "case2"
    check_quad(Mapping.parse("0,1,3,2"), w)


def test_quad_witness_preconditions():
    with pytest.raises(ValueError):
        witness_quad(identity(4))
    with pytest.raises(ValueError):
        witness_quad(reversal(6))
    with pytest.raises(ValueError):
        witness_quad(Mapping(4, (1, 1, 1, 1)))


def test_case1_min_image_pattern():
    # Emitted case1-min witnesses must realize the rise / plateau-top /
    # fall / rise pattern around the minimum image value.
    found = 0
    for n in (4, 5):
        for m in enumerate_all(n):
            if classify(m).in_p:
                continue
            w = witness_quad(m)
            if w.case_label != "case1-min":
                continue
            found += 1
            i, i1, k, k1 = w.points
            imgs = m.images
            lo = min(imgs)
            assert imgs[i] == lo
            assert imgs[i] < imgs[i1]
            assert imgs[i1] > imgs[k]
            assert imgs[k] < imgs[k1]
            assert imgs[k1] > imgs[i]
    assert found > 0


def test_witness_totality_exhaustive_small():
    # Every eligible map yields a valid witness; n <= 5 here, n = 6 is
    # covered by the verification suite.
    for n in (3, 4, 5):
        for m in enumerate_all(n):
            r = classify(m)
            if r.image_size >= 3:
                if not r.in_op:
                    w = witness_triple(m, "preserve")
                    check_triple(m, w, "preserve")
                    assert w.case_label in TRIPLE_CASE_LABELS
                if not r.in_or:
                    w = witness_triple(m, "reverse")
                    check_triple(m, w, "reverse")
                    assert w.case_label == "gamma-composed"
            if not r.in_p:
                w = witness_quad(m)
                check_quad(m, w)
                assert w.case_label in QUAD_CASE_LABELS


def test_all_triple_cases_reachable():
    # The three main cases (and at least one subcase of case 3) all occur in
    # an exhaustive n = 5 sweep.
    seen = set()
    for m in enumerate_all(5):
        r = classify(m)
        if not r.in_op and r.image_size >= 3:
            seen.add(witness_triple(m, "preserve").case_label.split("-")[0])
    assert {"1", "2"} <= seen
    assert any(label.startswith("3.") for label in seen)


def test_triple_labels_are_exactly_the_labels_emitted():
    # Both modes over every map with n <= 5 emit each listed label, and no
    # other: unswapped case 3 is always "3.2".
    seen = set()
    for n in range(1, 6):
        for m in enumerate_all(n):
            r = classify(m)
            if r.image_size >= 3:
                for mode, member in (("preserve", r.in_op), ("reverse", r.in_or)):
                    if not member:
                        seen.add(witness_triple(m, mode).case_label)
    assert seen == set(TRIPLE_CASE_LABELS)


def test_all_quad_cases_reachable():
    seen = set()
    for m in enumerate_all(5):
        if not classify(m).in_p:
            seen.add(witness_quad(m).case_label)
    assert seen == set(QUAD_CASE_LABELS)


def test_witnesses_move_with_rotation_and_reversal():
    # Conjugating m by a symmetry s of the cycle gives the map sending s(j)
    # to s(m(j)); it keeps OP, OR and P.  A witness of m moved through s
    # (read backwards when s is the reversal, so its source stays
    # cyclic-only) must then validate against the conjugated map.
    from cyclorient.witnesses import _validate

    for n in range(1, 6):
        symmetries = (
            (tuple((j + 1) % n for j in range(n)), False),
            (tuple(n - 1 - j for j in range(n)), True),
        )
        for m in enumerate_all(n):
            r = classify(m)
            found = []
            if not r.in_p:
                found.append((witness_quad(m).points, Orientation.NEITHER))
            if r.image_size >= 3 and not r.in_op:
                found.append((witness_triple(m, "preserve").points, Orientation.ANTI_CYCLIC_ONLY))
            if r.image_size >= 3 and not r.in_or:
                found.append((witness_triple(m, "reverse").points, Orientation.CYCLIC_ONLY))
            for s, backwards in symmetries:
                conjugated = [0] * n
                for j, v in enumerate(m.images):
                    conjugated[s[j]] = s[v]
                for points, expected in found:
                    moved = tuple(s[p] for p in points)
                    _validate(tuple(conjugated), moved[::-1] if backwards else moved, expected)


def test_quad_case_order_pinned_by_label_counts():
    # Reachability alone would let the maximum pattern be tried first; the
    # label counts over every non-member pin the order: the plateau after
    # the rising minimum, then after the falling maximum, then the pair.
    expected = {
        4: {"case1-min": 52, "case1-max": 0, "case2": 24},
        5: {"case1-min": 1310, "case1-max": 270, "case2": 530},
        6: {"case1-min": 24562, "case1-max": 8504, "case2": 8562},
    }
    for n, want in expected.items():
        counts = dict.fromkeys(QUAD_CASE_LABELS, 0)
        for m in enumerate_all(n):
            if not classify(m).in_p:
                counts[witness_quad(m).case_label] += 1
        assert counts == want, n


def check_witness_digest(sizes, digest):
    """Every witness the extractors return for the maps of each n in
    ``sizes``, in enumeration order, hashes to ``digest`` (sha256 over each
    witness's points and case label): no report prints witness points."""
    sha = hashlib.sha256()
    for n in sizes:
        for images in itertools.product(range(n), repeat=n):
            m = Mapping(n, images)
            r = classify(m)
            found = []
            if r.image_size >= 3 and not r.in_op:
                found.append(witness_triple(m, "preserve"))
            if r.image_size >= 3 and not r.in_or:
                found.append(witness_triple(m, "reverse"))
            if not r.in_p:
                found.append(witness_quad(m))
            for w in found:
                sha.update(repr((w.points, w.case_label)).encode())
    assert sha.hexdigest() == digest, list(sizes)


def test_every_witness_up_to_n6_pinned_by_digest():
    # CI runs check_witness_digest at n = 7.
    check_witness_digest(
        range(1, 7), "a930329c52609dc2484ef9ac41726195d5925d969929bfec4ffc34bc589b64b6"
    )


@pytest.mark.parametrize(
    "imgs, refusal",
    [
        ((0, 0, 0), "no rising minimum position"),
        ((0, 1), "no descent after the rising minimum"),
        ((0, 2, 2, 1), "no ascent after the plateau"),
    ],
)
def test_plateau_after_minimum_guards(imgs, refusal):
    # Tuples outside the helper's precondition reach each of its guards.
    with pytest.raises(RuntimeError, match=refusal):
        _plateau_after_minimum(imgs)
