"""Membership tests for the orientation classes of self-maps of [n].

A map is *orientation-preserving* when its image sequence (0a, 1a, ...,
(n-1)a) is cyclic, *orientation-reversing* when that sequence is
anti-cyclic, and belongs to the combined class when it is either.  Besides
this O(n) definitional scan, two independent characterizations are
implemented: one quantifying over distinct triples, one over oriented
quadruples, scanned by pairs and by triples on one side table of the
circular order.  Each route also runs on the raw image tuple, the form the
claim table :func:`cyclorient.claims.cross_check` calls.

The triple characterization has a genuine edge case: a map of rank <= 2
sends every triple to a both-oriented image, so it passes the triple tests
even when it is not a member (the alternating map 0,1,0,1 is the smallest
example).  The refined equivalence that actually holds for all ranks is

    triple test passes  <=>  member  or  rank <= 2

and disagreements of the literal statement in the rank <= 2 regime are
reported as sanctioned rather than hidden.
"""

from __future__ import annotations

from functools import lru_cache

from .mappings import Mapping
from .sequences import Orientation, _Record, _tag, _within

TRIPLE_MODES = ("preserve", "reverse")
# The scans' side tables hold n² masks of n bits: the order's takes about
# 24 MB at n = 512 and 159 MB at n = 1024.
SIDES_MAX_N = 512


class MembershipReport(_Record):
    """Definitional membership flags plus image-sequence metadata."""

    in_op: bool
    in_or: bool
    in_p: bool
    image_size: int
    image_orientation: Orientation


def classify(m: Mapping) -> MembershipReport:
    """Definitional membership test via the orientation of the image sequence."""
    tag = _tag(m.images)
    in_op = tag.admits_cyclic
    in_or = tag.admits_anti_cyclic
    return MembershipReport(in_op, in_or, in_op or in_or, len(set(m.images)), tag)


def triple_test(m: Mapping, mode: str) -> bool:
    """Whether every pairwise-distinct cyclic triple keeps (mode "preserve")
    or flips (mode "reverse") its orientation under the map.

    Triples with repeated entries impose no constraint (their images have at
    most two distinct values, hence are both-oriented) and are skipped.
    Rotating a triple changes neither its own orientation nor its image's,
    so the sorted representative i < j < k covers all cyclic triples, and
    anti-cyclic sources are covered by the reversed relabelling.  The
    sorted triples are decided a pair at a time (see :func:`_keeps_triples`).
    """
    if mode not in TRIPLE_MODES:
        raise ValueError(f"mode must be one of {TRIPLE_MODES}, got {mode!r}")
    return _keeps_triples(m.images, _images_after(m.images), mode == "reverse")


def _keeps_triples(imgs: tuple[int, ...], after: list[int], reverse: bool) -> bool:
    """The triple test on an image tuple and its :func:`_images_after`
    masks, one pair a < b at a time.  For images w != x, the third images
    giving an anti-cyclic-only image are those outside [x, w] if x < w, else
    those strictly between: ``L[x][w]`` of :func:`_order_sides`; mirrored,
    ``L[w][x]`` gives the cyclic-only ones, which fail ``reverse``.  Equal
    images never fail.  One AND per pair: C(n, 2) steps for a member."""
    sides = _order_sides(len(imgs))
    for b in range(1, len(imgs) - 1):
        x, tail = imgs[b], after[b]
        row = sides[x]
        for w in imgs[:b]:
            if w != x and tail & (sides[w][x] if reverse else row[w]):
                return False
    return True


def _images_after(imgs: tuple[int, ...]) -> list[int]:
    """``after[c]``: the bitmask of the image values at positions c + 1, ..., n - 1."""
    after = [0]
    for v in imgs[:0:-1]:
        after.append(after[-1] | 1 << v)
    after.reverse()
    return after


def _sides_after(n: int, around) -> list[list[int]]:
    """The one builder of a side table: ``around(v)`` is the order of the
    other points around v, and row v holds, for each k, the mask of the
    points after k in that order, and at ``L[v][v]`` every point but v.
    One order is held at a time.  A map longer than ``SIDES_MAX_N`` is
    refused before any row is built."""
    n = _within(n, 1, SIDES_MAX_N, "scanned map length")
    sides = []
    for v in range(n):
        row, later = [0] * n, 0
        for k in reversed(around(v)):
            row[k], later = later, later | 1 << k
        row[v] = later
        sides.append(row)
    return sides


@lru_cache(maxsize=4)
def _order_sides(n: int) -> list[list[int]]:
    """The side table of the circular order, read by the triple tests and
    by :func:`_first_apart` for the quadruple route, kept for the 4 latest
    n (780 KiB at n = 128): around v the points run v + 1, ..., v - 1, so
    ``L[w][y]`` holds the values outside [w, y] if w <= y, else those
    strictly between."""
    return _sides_after(n, lambda v: [*range(v + 1, n), *range(v)])


def _first_unoriented(imgs: tuple[int, ...], after: list[int]) -> tuple[int, int, int, int] | None:
    """The lexicographically first a < b < c < d whose image is
    neither-oriented, or None: :func:`_first_apart` on the order's sides.
    Sorted quadruples suffice: an oriented one repeats an entry only in
    cyclically adjacent places, so its image has at most three runs and is
    oriented; and rotating or reversing a quadruple changes neither its own
    orientedness nor its image's."""
    return _first_apart(imgs, after, _order_sides(len(imgs)))


def _first_apart(imgs, after, sides) -> tuple[int, int, int, int] | None:
    """The first sorted quadruple a < b < c < d whose image chords
    {ia, ic}, {ib, id} are disjoint, or None, given the image tuple and its
    :func:`_images_after` masks: the one scan of the quadruple and chord
    routes, which differ only in the complete side table ``L`` they pass.

    ``L[v][k]`` is the mask of the values strictly on one fixed side of
    chord v -> k, ``L[k][v]`` of the other side, and ``L[v][v]`` of every
    value but v.  The loop runs over sorted triples with images w, x, y,
    skipping x = w and y = x (chords sharing an endpoint meet).  The z for
    which {x, z} misses {w, y} lie strictly on x's side of chord wy,
    ``L[w][y] if x in L[w][y] else L[y][w]``; in the order, (w, x, y, z) is
    then neither-oriented.  One AND with the images after c decides whether
    any d exists before d is scanned: C(n, 3) steps for a member.
    """
    n = len(imgs)
    for a in range(n - 3):
        w = imgs[a]
        row_w = sides[w]
        for b in range(a + 1, n - 2):
            x = imgs[b]
            if x == w:
                continue
            for c in range(b + 1, n - 1):
                y = imgs[c]
                if y == x:
                    continue
                wy = row_w[y]
                wanted = wy if wy >> x & 1 else sides[y][w]
                if after[c] & wanted:
                    # A loop, not next(genexpr), for the per-map callers (quad_test,
                    # has_chord_property, cross_check): with this scan and witness_quad's
                    # as genexprs, cross_check over the 6^6 maps took 18 % longer on one core.
                    for d in range(c + 1, n):
                        if wanted >> imgs[d] & 1:
                            return a, b, c, d
    return None


def quad_test(m: Mapping) -> bool:
    """Whether every oriented quadruple has an oriented image.

    Unlike the triple tests this characterizes membership in the combined
    class exactly, with no rank caveat.  It covers the C(n, 4) sorted
    quadruples by a loop over sorted triples with a value mask for the
    fourth point (see :func:`_first_apart`).
    """
    return _first_unoriented(m.images, _images_after(m.images)) is None
