"""Brute-force oracles shared by the tests; no production path calls them."""

import itertools
from operator import itemgetter

from cyclorient.sequences import _tag


def oriented_quadruples(n):
    """All (a, b, c, d) in [n]^4 whose orientation is not neither, in
    lexicographic order, repeated entries included."""
    return tuple(
        quad
        for quad in itertools.product(range(n), repeat=4)
        if _tag(quad).oriented
    )


def product_set(left, right):
    """Every product "a then b" for a in ``left`` and b in ``right``, one
    ``itemgetter(*a)(b)`` per pair (a bare entry when n = 1)."""
    out = set()
    for a in left:
        row = map(itemgetter(*a), right)
        out.update(row if len(a) > 1 else ((v,) for v in row))
    return out
