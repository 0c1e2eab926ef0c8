"""Brute-force oracles shared by the tests; no production path calls them."""

import itertools

from cyclorient.sequences import _tag


def oriented_quadruples(n):
    """All (a, b, c, d) in [n]^4 whose orientation is not neither, in
    lexicographic order, repeated entries included."""
    return tuple(
        quad
        for quad in itertools.product(range(n), repeat=4)
        if _tag(quad).oriented
    )
