"""Constructive counterexamples for maps outside the orientation classes.

Given a map that is not orientation-preserving (and has rank >= 3), there
is a cyclic triple whose image is anti-cyclic; given a map in neither
class, there is a cyclic quadruple whose image is neither cyclic nor
anti-cyclic.  The constructions below extract one such witness by a
deterministic case analysis: smallest indices win, scans take their first
hit, and every "without loss" swap is performed explicitly and recorded in
the case label.  Witnesses are re-validated with the orientation predicates
before being returned, never trusted from construction.

Rank <= 2 maps outside the preserving class have no counterexample triple
(all their triple images are both-oriented), so the triple extractor
requires rank >= 3.  The quadruple extractor works for every rank.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mappings import Mapping, compose, reversal
from .membership import TRIPLE_MODES, classify
from .sequences import Orientation, Seq, orientation

TRIPLE_CASE_LABELS = (
    "1",
    "1-swapped",
    "2",
    "2-swapped",
    "3.1",
    "3.1-swapped",
    "3.2",
    "3.2-swapped",
    "3.3",
    "3.3-swapped",
    "gamma-composed",
)

QUAD_CASE_LABELS = ("case1-min", "case1-max", "case2")


@dataclass(frozen=True)
class TripleWitness:
    """A cyclic triple of distinct points whose image breaks the triple condition."""

    points: tuple[int, int, int]
    case_label: str


@dataclass(frozen=True)
class QuadWitness:
    """A cyclic quadruple of distinct points whose image is neither-oriented."""

    points: tuple[int, int, int, int]
    case_label: str


def _validate_triple(m: Mapping, w: TripleWitness, expected_image: Orientation) -> None:
    if len(set(w.points)) != 3:
        raise RuntimeError(f"witness points {w.points} are not pairwise distinct")
    source_tag = orientation(Seq(m.n, w.points))
    if source_tag is not Orientation.CYCLIC_ONLY:
        raise RuntimeError(
            f"witness source {w.points} should be cyclic-only, got {source_tag.value}"
        )
    image = tuple(m.images[p] for p in w.points)
    image_tag = orientation(Seq(m.n, image))
    if image_tag is not expected_image:
        raise RuntimeError(
            f"witness image {image} should be {expected_image.value}, got {image_tag.value}"
        )


def _validate_quad(m: Mapping, w: QuadWitness) -> None:
    if len(set(w.points)) != 4:
        raise RuntimeError(f"witness points {w.points} are not pairwise distinct")
    source_tag = orientation(Seq(m.n, w.points))
    if source_tag is not Orientation.CYCLIC_ONLY:
        raise RuntimeError(
            f"witness source {w.points} should be cyclic-only, got {source_tag.value}"
        )
    image = tuple(m.images[p] for p in w.points)
    image_tag = orientation(Seq(m.n, image))
    if image_tag is not Orientation.NEITHER:
        raise RuntimeError(
            f"witness image {image} should be neither-oriented, got {image_tag.value}"
        )


def witness_triple(m: Mapping, mode: str) -> TripleWitness:
    """Extract a cyclic triple whose image is anti-cyclic (mode "preserve")
    or cyclic (mode "reverse").

    Preconditions: the map must fail the corresponding definitional test and
    have rank >= 3 (below that no witness exists).
    """
    if mode not in TRIPLE_MODES:
        raise ValueError(f"mode must be one of {TRIPLE_MODES}, got {mode!r}")
    report = classify(m)
    if report.image_size < 3:
        raise ValueError(
            f"image size {report.image_size} <= 2: the triple condition holds"
            " vacuously, no witness exists"
        )

    if mode == "reverse":
        if report.in_or:
            raise ValueError("map is orientation-reversing; no witness exists")
        # Composing with the order reversal turns the problem into the
        # preserve case; reversing twice is the identity, so the original
        # images form a cyclic-only triple.
        base = witness_triple(compose(m, reversal(m.n)), "preserve")
        witness = TripleWitness(base.points, "gamma-composed")
        _validate_triple(m, witness, Orientation.CYCLIC_ONLY)
        return witness

    if report.in_op:
        raise ValueError("map is orientation-preserving; no witness exists")

    n = m.n
    imgs = m.images
    descents = [t for t in range(n) if imgs[t] > imgs[(t + 1) % n]]
    # Non-membership guarantees at least two descents; the first pair always
    # admits one of the three cases below.
    i, j = descents[0], descents[1]
    swapped = False

    if imgs[i] != imgs[j]:
        # Case 1: compare the descent tops; the larger one plays i.
        if imgs[i] < imgs[j]:
            i, j = j, i
            swapped = True
        points = (i, j, (j + 1) % n)
        label = "1"
    elif imgs[(i + 1) % n] != imgs[(j + 1) % n]:
        # Case 2: compare the descent bottoms; the larger one plays i.
        if imgs[(i + 1) % n] < imgs[(j + 1) % n]:
            i, j = j, i
            swapped = True
        points = (i, (i + 1) % n, (j + 1) % n)
        label = "2"
    else:
        # Case 3: both descents have equal tops and equal bottoms; rank >= 3
        # supplies a point k with a third image value.  Orient the five
        # points (i, i+1, k, j, j+1) cyclically, swapping i and j if needed.
        top, bottom = imgs[i], imgs[(i + 1) % n]
        k = min(v for v in range(n) if imgs[v] != top and imgs[v] != bottom)
        five = (i, (i + 1) % n, k, j, (j + 1) % n)
        if not orientation(Seq(n, five)).admits_cyclic:
            i, j = j, i
            swapped = True
            five = (i, (i + 1) % n, k, j, (j + 1) % n)
            if not orientation(Seq(n, five)).admits_cyclic:
                raise RuntimeError(
                    f"neither ordering of {five} is cyclic; construction is broken"
                )
        if imgs[k] > top:
            points = (k, i, (i + 1) % n)
            label = "3.1"
        elif imgs[k] > bottom:
            points = (i, k, (j + 1) % n)
            label = "3.2"
        else:
            points = (i, (i + 1) % n, k)
            label = "3.3"

    if swapped:
        label += "-swapped"
    witness = TripleWitness(points, label)
    _validate_triple(m, witness, Orientation.ANTI_CYCLIC_ONLY)
    return witness


def _first(positions: list[int], predicate) -> int | None:
    for p in positions:
        if predicate(p):
            return p
    return None


def witness_quad(m: Mapping) -> QuadWitness:
    """Extract a cyclic quadruple of distinct points whose image is
    neither-oriented.

    Precondition: the map is neither orientation-preserving nor
    orientation-reversing.  Works for every rank.
    """
    report = classify(m)
    if report.in_p:
        raise ValueError(
            "map preserves or reverses orientation; no counterexample quadruple exists"
        )
    n = m.n
    imgs = m.images
    lo, hi = min(imgs), max(imgs)

    i = _first(list(range(n)), lambda p: imgs[p] == lo and imgs[p] < imgs[(p + 1) % n])
    if i is None:
        # Every minimum position would have a non-rising successor, forcing a
        # constant map, which the precondition excludes.
        raise RuntimeError("no rising minimum position; construction is broken")
    span = [(i + 1 + t) % n for t in range(n - 2)]
    j = _first(span, lambda p: imgs[p] > imgs[(p + 1) % n])
    if j is None:
        raise RuntimeError("no descent after the rising minimum; construction is broken")

    i2 = _first(list(range(n)), lambda p: imgs[p] == hi and imgs[p] > imgs[(p + 1) % n])
    if i2 is None:
        raise RuntimeError("no falling maximum position; construction is broken")
    span2 = [(i2 + 1 + t) % n for t in range(n - 2)]
    j2 = _first(span2, lambda p: imgs[p] < imgs[(p + 1) % n])
    if j2 is None:
        raise RuntimeError("no ascent after the falling maximum; construction is broken")

    if imgs[(i + 1) % n] == imgs[j]:
        # The stretch from i+1 to j is flat on top; the next ascent closes a
        # rise-fall-rise pattern around the minimum.
        tail = span[span.index(j) + 1 :]
        k = _first(tail, lambda p: imgs[p] < imgs[(p + 1) % n])
        if k is None:
            raise RuntimeError("no ascent after the plateau; construction is broken")
        points = (i, (i + 1) % n, k, (k + 1) % n)
        label = "case1-min"
    elif imgs[(i2 + 1) % n] == imgs[j2]:
        # Dual pattern around the maximum.
        tail2 = span2[span2.index(j2) + 1 :]
        k2 = _first(tail2, lambda p: imgs[p] > imgs[(p + 1) % n])
        if k2 is None:
            raise RuntimeError("no descent after the plateau; construction is broken")
        points = (i2, (i2 + 1) % n, k2, (k2 + 1) % n)
        label = "case1-max"
    else:
        points = (i, (i + 1) % n, i2, (i2 + 1) % n)
        label = "case2"

    witness = QuadWitness(points, label)
    _validate_quad(m, witness)
    return witness
