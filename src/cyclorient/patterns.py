"""A map of [n] read as its sorted image set S and its value pattern, each
image replaced by its position in S (3,7,3,5 is S = 3,5,7 at 0,2,0,1): the
equivalence suite walks one pattern per dihedral orbit (:func:`walk`,
:func:`orbit`), standing for its orbit's patterns in their value rotations;
the identity and lemma suites and ``count`` read the classes, and the lemma
suite its pool, as their patterns (:func:`cyclic`), their only builder.

The dihedral group acts on a pattern of rank r by rotating its positions,
and by reversing them under the value reflection v → r − 1 − v, each move
followed by the value rotation v → (v − s) mod r that brings it back to a
lead of 0.  The walk's canonicity tests read each moved string only up to
its first entry that differs, which decides the comparison; :func:`_moves`
builds whole images for :func:`orbit` and the tests' oracles.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator


def _moves(seq: tuple[int, ...], which: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """The images of ``seq`` under the moves numbered in ``which``: k < n
    rotates the positions left by k, and n + k reverses that rotation under
    the value reflection; each image is rotated in value to lead with 0."""
    n, rank = len(seq), max(seq) + 1
    for k in which:
        turned = seq[k % n:] + seq[:k % n]
        if k < n:
            lead = turned[0]
            yield tuple([(v - lead) % rank for v in turned])
        else:
            lead = turned[-1]
            yield tuple([(lead - v) % rank for v in reversed(turned)])


def orbit(pattern: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The patterns that start with 0 in ``pattern``'s dihedral orbit."""
    return set(_moves(pattern, range(2 * len(pattern))))


def _partitions(n: int, rank: int) -> list[tuple[int, ...]]:
    """The set partitions of n positions into ``rank`` blocks, as restricted
    growth strings in lexicographic order."""
    rows = [((0,), 1)]  # (blocks so far, blocks used)
    for left in range(n - 2, -1, -1):  # positions still to place after this one
        rows = [
            (blocks + (b,), max(used, b + 1))
            for blocks, used in rows
            for b in range(min(used + 1, rank))
            if max(used, b + 1) + left >= rank
        ]
    return [blocks for blocks, _ in rows]


def _stabiliser(blocks: tuple[int, ...]) -> list[int] | None:
    """The moves of :func:`_moves` that give the partition ``blocks`` back,
    the identity (0) first, or None if a move gives a smaller restricted
    growth string.  Renumbering the blocks by first use undoes any value
    relabelling, so each move here only rotates the positions, and from
    k = n on also reverses them.  Each moved string is renumbered only up
    to its first entry that differs from ``blocks``, which decides the
    comparison: a smaller one returns None, a larger one goes on to the
    next move."""
    n = len(blocks)
    doubled = blocks + blocks
    found = [0]
    for k in range(1, 2 * n):
        turned = doubled[k % n:k % n + n]
        first: dict[int, int] = {}
        for b, want in zip(turned[::-1] if k >= n else turned, blocks):
            got = first.setdefault(b, len(first))
            if got != want:
                if got < want:
                    return None
                break
        else:
            found.append(k)
    return found


def walk(n: int, rank: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """``(pattern, weight)``: one pattern of [n] with value set exactly
    0..rank - 1 that starts with 0 for each :func:`orbit`, weighted by the
    |orbit|·r·C(n, r) maps of :func:`spread`.

    The set partitions of the positions into ``rank`` blocks are kept only
    when no move gives a smaller one.  A kept partition's labellings, each
    ordering of 0..rank - 1 that gives the first block 0, are filtered under
    its stabiliser alone (usually the identity, which keeps every
    labelling): a labelling is kept when no move of the stabiliser lowers
    it.  Each move's image is read entry by entry off the doubled pattern,
    its value rotated (or reflected) back to a lead of 0, up to the first
    entry that differs.  Every move that gives a pattern back lies in its
    partition's stabiliser, so by orbit–stabiliser |orbit| is 2n over the
    number of those moves.  So the representatives are generated, as in
    orderly bracelet generation (Sawada, SIAM J. Comput. 31, 2001), rather
    than picked by a test on every pattern.
    """
    base = rank * math.comb(n, rank)
    for blocks in _partitions(n, rank):
        stabiliser = _stabiliser(blocks)
        if stabiliser is None:
            continue
        # (step, at) reads a move's image entry i as step·(doubled[at + step·i]
        # − doubled[at]) mod r: a rotation left by k, or one then reversed.
        reads = [(1, k) if k < n else (-1, k - 1) for k in stabiliser[1:]]
        for labels in itertools.permutations(range(1, rank)):
            pattern = tuple(map(((0,) + labels).__getitem__, blocks))
            if not reads:
                yield pattern, 2 * n * base
                continue
            doubled = pattern + pattern
            fixed = 1  # the moves that give the pattern back
            for step, at in reads:
                lead = doubled[at]
                for i in range(1, n):
                    got = step * (doubled[at + step * i] - lead) % rank
                    if got != pattern[i]:
                        break
                else:
                    fixed += 1
                    continue
                if got < pattern[i]:
                    break
            else:
                yield pattern, 2 * n // fixed * base


def cyclic(k: int) -> set[tuple[int, ...]]:
    """The patterns of OP's members of length k, from the definition with no
    kernel call: the distinct rotations of the non-decreasing sequences onto
    0..r − 1, for r = 1..k (r·C(k, r) of each rank r ≥ 2, and one of rank
    1).  OR's patterns are their reversals.  They and their reversals are
    also the oriented value patterns of length k, each of rank r weighing
    the C(n, r) oriented k-sequences over [n] it stands for."""
    return {
        run[i:] + run[:i]
        for rank in range(1, k + 1)
        for extra in itertools.combinations_with_replacement(range(rank), k - rank)
        for run in [tuple(sorted((*range(rank), *extra)))]
        for i in range(k)
    }

