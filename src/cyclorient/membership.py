"""Membership tests for the orientation classes of self-maps of [n].

A map is *orientation-preserving* when its image sequence (0a, 1a, ...,
(n-1)a) is cyclic, *orientation-reversing* when that sequence is
anti-cyclic, and belongs to the combined class when it is either.  Besides
this O(n) definitional scan, two independent characterizations are
implemented: one quantifying over distinct triples, one over oriented
quadruples.  Each route also runs on the raw image tuple, the form the
claim table :func:`cyclorient.verification.cross_check` calls.

The triple characterization has a genuine edge case: a map of rank <= 2
sends every triple to a both-oriented image, so it passes the triple tests
even when it is not a member (the alternating map 0,1,0,1 is the smallest
example).  The refined equivalence that actually holds for all ranks is

    triple test passes  <=>  member  or  rank <= 2

and disagreements of the literal statement in the rank <= 2 regime are
reported as sanctioned rather than hidden.
"""

from __future__ import annotations

import itertools
from operator import neg

from .mappings import Mapping
from .sequences import Orientation, Seq, _Record, _tag

TRIPLE_MODES = ("preserve", "reverse")


class MembershipReport(_Record):
    """Definitional membership flags plus image-sequence metadata."""

    in_op: bool
    in_or: bool
    in_p: bool
    image_size: int
    image_orientation: Orientation


def image_sequence(m: Mapping) -> Seq:
    """The sequence (0a, 1a, ..., (n-1)a) whose orientation defines membership."""
    return Seq(m.n, m.images)


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
    anti-cyclic sources are covered by the reversed relabelling.
    """
    if mode not in TRIPLE_MODES:
        raise ValueError(f"mode must be one of {TRIPLE_MODES}, got {mode!r}")
    # w < x is -w > -x, so the reverse test is the preserve scan on negated images.
    return _keeps_triples(m.images if mode == "preserve" else tuple(map(neg, m.images)))


def _keeps_triples(imgs: tuple[int, ...]) -> bool:
    """The preserve triple test on an image tuple: no sorted triple's image
    has two strict circular descents (is anti-cyclic-only)."""
    for w, x, y in itertools.combinations(imgs, 3):
        if (w > x) + (x > y) + (y > w) >= 2:
            return False
    return True


def _images_after(imgs: tuple[int, ...]) -> list[int]:
    """``after[c]``: the bitmask of the image values at positions c + 1, ..., n - 1."""
    after = [0]
    for v in imgs[:0:-1]:
        after.append(after[-1] | 1 << v)
    after.reverse()
    return after


def first_unoriented_image(m: Mapping) -> tuple[int, int, int, int] | None:
    """The lexicographically first a < b < c < d whose image under ``m`` is
    neither-oriented, or None (the scan is :func:`_first_unoriented`)."""
    return _first_unoriented(m.images, _images_after(m.images))


def _first_unoriented(
    imgs: tuple[int, ...], after: list[int]
) -> tuple[int, int, int, int] | None:
    """The lexicographically first a < b < c < d whose image is
    neither-oriented, or None, given the image tuple and its
    :func:`_images_after` masks.  Sorted quadruples suffice: an oriented one
    repeats an entry only in cyclically adjacent places, so its image has at
    most three runs and is oriented; and rotating or reversing a quadruple
    changes neither its own orientedness nor its image's.

    The loop runs over sorted triples with images w, x, y.  The z making
    (w, x, y, z) neither-oriented (two strict ascents, two strict descents)
    form a value set: none if w = x or x = y, strictly between w and y if x
    is, else outside [min(w, y), max(w, y)].  One AND of that value mask
    with the bitmask of the images after c decides whether any d exists
    before d is scanned: C(n, 3) steps for a member, O(n) memory.
    """
    n = len(imgs)
    for a in range(n - 3):
        w = imgs[a]
        for b in range(a + 1, n - 2):
            x = imgs[b]
            if x == w:
                continue
            for c in range(b + 1, n - 1):
                y = imgs[c]
                if y == x:
                    continue
                if w < x < y or y < x < w:
                    wanted = (1 << y) - (2 << w) if y > w else (1 << w) - (2 << y)
                else:
                    wanted = ~((2 << y) - (1 << w)) if y > w else ~((2 << w) - (1 << y))
                if after[c] & wanted:
                    # A loop, not next(genexpr): its frames cost ~17 % of the one-core n = 6 suite.
                    for d in range(c + 1, n):
                        if wanted >> imgs[d] & 1:
                            return a, b, c, d
    return None


def quad_test(m: Mapping) -> bool:
    """Whether every oriented quadruple has an oriented image.

    Unlike the triple tests this characterizes membership in the combined
    class exactly, with no rank caveat.  It covers the C(n, 4) sorted
    quadruples by a loop over sorted triples with a value mask for the
    fourth point (see :func:`_first_unoriented`).
    """
    return first_unoriented_image(m) is None
