"""Constructive counterexamples for maps outside the orientation classes.

Given a map that is not orientation-preserving (and has rank >= 3), there
is a cyclic triple whose image is anti-cyclic; given a map in neither
class, there is a cyclic quadruple whose image is neither cyclic nor
anti-cyclic.  The constructions below extract one such witness by a
deterministic case analysis: smallest indices win, scans take their first
hit, and every "without loss" swap is performed explicitly and recorded in
the case label.  Each witness is classified once and checked by one
validator, on the orientation kernel, before it is returned: it is never
trusted from construction.  Negating the images swaps ascents with
descents, so one construction serves each dual: the reverse-mode triple
runs the preserve construction on the negated images (the map composed
with the reversal), and the quadruple's maximum cases are its minimum
cases on the negated images.  Both are validated against the original map.

Rank <= 2 maps outside the preserving class have no counterexample triple
(all their triple images are both-oriented), so the triple extractor
requires rank >= 3.  The quadruple extractor works for every rank.
"""

from __future__ import annotations

from operator import itemgetter, neg

from .mappings import Mapping
from .membership import TRIPLE_MODES, classify
from .sequences import (
    _ANTI_CYCLIC_ONLY,
    _CYCLIC_ONLY,
    _NEITHER,
    Orientation,
    _Record,
    _tag,
)

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


class TripleWitness(_Record):
    """A cyclic triple of distinct points whose image breaks the triple condition."""

    points: tuple[int, int, int]
    case_label: str


class QuadWitness(_Record):
    """A cyclic quadruple of distinct points whose image is neither-oriented."""

    points: tuple[int, int, int, int]
    case_label: str


def _validate(imgs: tuple[int, ...], points: tuple[int, ...], expected_image: Orientation) -> None:
    """The one witness validator: the points are pairwise distinct and
    cyclic-only, and their image under the map with image tuple ``imgs``
    carries ``expected_image``."""
    if len(set(points)) != len(points):
        raise RuntimeError(f"witness points {points} are not pairwise distinct")
    source_tag = _tag(points)
    if source_tag is not _CYCLIC_ONLY:
        raise RuntimeError(
            f"witness source {points} should be cyclic-only, got {source_tag.value}"
        )
    # itemgetter builds the image at its final size; tuple(map(...)) shrinks
    # a larger tuple, and the freed 3- and 4-tuples pile up on CPython's
    # per-size free lists (about 130 KiB each, held for the process).
    image = itemgetter(*points)(imgs)
    image_tag = _tag(image)
    if image_tag is not expected_image:
        raise RuntimeError(
            f"witness image {image} should be {expected_image.value}, got {image_tag.value}"
        )


def _preserve_triple(imgs: tuple[int, ...]) -> tuple[tuple[int, int, int], str]:
    """Points and case label of a cyclic triple whose image under the map
    with image list ``imgs`` is anti-cyclic; the map must be outside the
    preserving class with rank >= 3."""
    n = len(imgs)
    # Non-membership guarantees at least two descents; the first pair always
    # admits one of the three cases below, so the scan stops at the second.
    i = None
    for j in range(n):
        if imgs[j] > imgs[(j + 1) % n]:
            if i is not None:
                break
            i = j
    else:
        raise ValueError("fewer than two circular descents (of the negated images in"
                         " reverse mode): the map is in its mode's class")
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
        if not _tag(five).admits_cyclic:
            i, j = j, i
            swapped = True
            five = (i, (i + 1) % n, k, j, (j + 1) % n)
            if not _tag(five).admits_cyclic:
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
    return points, label


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
    if mode == "preserve" and report.in_op:
        raise ValueError("map is orientation-preserving; no witness exists")
    if mode == "reverse" and report.in_or:
        raise ValueError("map is orientation-reversing; no witness exists")
    return TripleWitness(*_witness_triple(m.images, mode))


def _witness_triple(imgs: tuple[int, ...], mode: str) -> tuple[tuple[int, int, int], str]:
    """Validated points and case label of the ``mode`` triple witness of the
    map with image tuple ``imgs``, under :func:`witness_triple`'s preconditions."""
    if mode == "preserve":
        points, label = _preserve_triple(imgs)
        expected = _ANTI_CYCLIC_ONLY
    else:
        # Composing with the order reversal turns the problem into the
        # preserve case; reversing twice is the identity, so the original
        # images form a cyclic-only triple.  Negated images order exactly as
        # those of compose(m, reversal(n)), so the construction runs on them.
        points, _ = _preserve_triple(tuple(map(neg, imgs)))
        label = "gamma-composed"
        expected = _CYCLIC_ONLY
    _validate(imgs, points, expected)
    return points, label


def witness_quad(m: Mapping) -> QuadWitness:
    """Extract a cyclic quadruple of distinct points whose image is
    neither-oriented.

    Precondition: the map is neither orientation-preserving nor
    orientation-reversing.  Works for every rank.
    """
    if classify(m).in_p:
        raise ValueError(
            "map preserves or reverses orientation; no counterexample quadruple exists"
        )
    return QuadWitness(*_witness_quad(m.images))


def _plateau_after_minimum(imgs: tuple[int, ...]) -> tuple[int, int | None]:
    """The first rising minimum position i of the image tuple ``imgs`` of a
    map outside both classes, and, when the stretch from i + 1 to the first
    descent after it is flat, the next ascent k, unreduced mod n (else None):
    (i, i + 1, k, k + 1) then rises, falls and rises around the minimum."""
    n = len(imgs)
    # Position p + 1 of the doubled tuple follows p around the cycle, so each
    # scan below is a plain range.
    ext = imgs + imgs
    lo = min(imgs)
    # Loops, not next(genexpr): generator frames cost ~17 % of the one-core suite at n = 6.
    for i in range(n):
        if imgs[i] == lo < ext[i + 1]:
            break
    else:
        # Every minimum position would have a non-rising successor, forcing a
        # constant map, which the precondition excludes.
        raise RuntimeError("no rising minimum position; construction is broken")
    # The positions i + 1, ..., i + n - 2: all but i and its predecessor.
    for j in range(i + 1, i + n - 1):
        if ext[j] > ext[j + 1]:
            break
    else:
        raise RuntimeError("no descent after the rising minimum; construction is broken")
    if ext[i + 1] != ext[j]:
        return i, None
    for k in range(j + 1, i + n - 1):
        if ext[k] < ext[k + 1]:
            return i, k
    raise RuntimeError("no ascent after the plateau; construction is broken")


def _witness_quad(imgs: tuple[int, ...]) -> tuple[tuple[int, int, int, int], str]:
    """Validated points and case label of the quadruple witness of the map
    with image tuple ``imgs`` outside both classes: steps (p, p + 1), (q, q + 1)."""
    n = len(imgs)
    p, q = _plateau_after_minimum(imgs)
    label = "case1-min"
    if q is None:
        # Negation turns the falling maximum into the rising minimum and
        # swaps ascents with descents: the dual pattern around the maximum.
        top, k = _plateau_after_minimum(tuple(map(neg, imgs)))
        p, q, label = (p, top, "case2") if k is None else (top, k, "case1-max")
    points = (p, (p + 1) % n, q % n, (q + 1) % n)
    _validate(imgs, points, _NEITHER)
    return points, label
