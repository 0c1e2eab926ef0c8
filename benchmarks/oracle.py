"""Correctness oracle for the benchmark, written without the library.

Every verdict the benchmark checks is recomputed here from the definitions:
membership from the circular descent and ascent counts of the image list,
witnesses from the orientation of their points and images, and the class
sizes from closed forms (|OP_n| after Catarino & Higgins, Semigroup Forum
58, 1999).  A bug shared by all of the library's routes still shows up as a
failed operation.
"""

from __future__ import annotations

from math import comb


def steps(items) -> tuple[int, int]:
    """(descents, ascents) of the circular step scan over a nonempty sequence."""
    descents = ascents = 0
    prev = items[-1]
    for cur in items:
        if prev > cur:
            descents += 1
        elif prev < cur:
            ascents += 1
        prev = cur
    return descents, ascents


def member_flags(images) -> tuple[bool, bool]:
    """(orientation-preserving, orientation-reversing) for an image list."""
    descents, ascents = steps(images)
    return descents <= 1, ascents <= 1


def tag(items) -> str:
    """The four-way orientation of a sequence, in the library's words."""
    cyclic, anti = member_flags(items)
    if cyclic and anti:
        return "both"
    if cyclic:
        return "cyclic-only"
    if anti:
        return "anti-cyclic-only"
    return "neither"


def triple_witness_ok(images, points, mode: str) -> bool:
    """A cyclic triple of distinct points whose image is anti-cyclic (mode
    "preserve") or cyclic (mode "reverse")."""
    want = "anti-cyclic-only" if mode == "preserve" else "cyclic-only"
    return (
        len(set(points)) == 3
        and tag(points) == "cyclic-only"
        and tag([images[p] for p in points]) == want
    )


def quad_witness_ok(images, points) -> bool:
    """A cyclic quadruple of distinct points whose image is neither-oriented."""
    return (
        len(set(points)) == 4
        and tag(points) == "cyclic-only"
        and tag([images[p] for p in points]) == "neither"
    )


def op_count(n: int) -> int:
    """|OP_n| = n*C(2n-1, n-1) - n(n-1); |OR_n| is the same."""
    return n * comb(2 * n - 1, n - 1) - n * (n - 1)


def op_and_or_count(n: int) -> int:
    """|OP_n & OR_n|: the n constant maps plus, for each pair of values, the
    n(n-1) circular two-block words."""
    return n + comb(n, 2) * n * (n - 1)


def p_count(n: int) -> int:
    """|P_n| = |OP_n| + |OR_n| - |OP_n & OR_n|."""
    return 2 * op_count(n) - op_and_or_count(n)
