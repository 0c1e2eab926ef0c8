"""A map of [n] read as its sorted image set S and its value pattern, each
image replaced by its position in S (3,7,3,5 is S = 3,5,7 at 0,2,0,1): the
equivalence suite walks patterns and spreads them back into maps
(:func:`walk`, :func:`spread`); the product sets group by S (:func:`split`).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator


def walk(n: int, rank: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """``(pattern, weight)`` for each pattern of [n] with value set exactly
    0..rank - 1 that starts with 0, weighted by the r·C(n, r) maps of
    :func:`spread`: each set partition of the positions into ``rank``
    blocks, as a restricted growth string (blocks numbered in order of
    first appearance), labelled by every ordering of 0..rank - 1 that
    gives the first block 0."""
    weight = rank * math.comb(n, rank)
    partitions = [(0,)]
    for _ in range(n - 1):
        partitions = [blocks + (b,) for blocks in partitions for b in range(max(blocks) + 2)]
    for blocks in partitions:
        if max(blocks) + 1 == rank:
            for labels in itertools.permutations(range(1, rank)):
                yield tuple(map(((0,) + labels).__getitem__, blocks)), weight


def spread(pattern: tuple[int, ...], n: int) -> Iterator[tuple[int, ...]]:
    """The maps of [n] a walked pattern of rank r stands for: its r value
    rotations v → (v + s) mod r, each read through every r-point image set."""
    rank = max(pattern) + 1
    for shift in range(rank):
        rotated = [(v + shift) % rank for v in pattern]
        for values in itertools.combinations(range(n), rank):
            yield tuple(map(values.__getitem__, rotated))


def count(n: int) -> int:
    """The number of patterns of [n] that start with 0: S(n, r) set
    partitions into r blocks, each labelled in (r - 1)! ways, summed over
    the ranks r (S(m + 1, r) = r·S(m, r) + S(m, r - 1))."""
    stirling = [1]  # S(m, r) for r = 0..m
    for m in range(n):
        stirling = [r * s + t for r, s, t in zip(range(m + 2), stirling + [0], [0] + stirling)]
    return sum(math.factorial(r - 1) * s for r, s in enumerate(stirling) if r)


def split(seqs: Iterable[tuple[int, ...]]) -> dict[tuple[int, ...], frozenset[tuple[int, ...]]]:
    """Each sorted image set S met in ``seqs``, mapped to the patterns of
    the sequences with that image set, read through one position map per S."""
    by_image: dict[frozenset[int], list[tuple[int, ...]]] = {}
    for seq in seqs:
        by_image.setdefault(frozenset(seq), []).append(seq)
    out = {}
    for image_set, group in by_image.items():
        image = tuple(sorted(image_set))
        where = dict(zip(image, range(len(image))))
        out[image] = frozenset(tuple(map(where.__getitem__, seq)) for seq in group)
    return out
