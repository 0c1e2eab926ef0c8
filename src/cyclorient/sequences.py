"""Finite sequences over the cycle [n] = {0, ..., n-1} and their orientation.

Place the points 0, ..., n-1 clockwise on a circle.  A sequence of such
points is *cyclic* when at most one circular step descends (equivalently,
some rotation of it is non-decreasing) and *anti-cyclic* when at most one
circular step ascends.  A sequence with at most two distinct values is
either both or neither; three or more distinct values force exactly one of
the two, in which case we call the sequence uniquely oriented.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import index


class Orientation(Enum):
    """Four-way orientation classification of a nonempty sequence."""

    CYCLIC_ONLY = "cyclic-only"
    ANTI_CYCLIC_ONLY = "anti-cyclic-only"
    BOTH = "both"
    NEITHER = "neither"

    @property
    def admits_cyclic(self) -> bool:
        """True when the sequence is cyclic (possibly anti-cyclic as well)."""
        return self is Orientation.CYCLIC_ONLY or self is Orientation.BOTH

    @property
    def admits_anti_cyclic(self) -> bool:
        """True when the sequence is anti-cyclic (possibly cyclic as well)."""
        return self is Orientation.ANTI_CYCLIC_ONLY or self is Orientation.BOTH

    @property
    def oriented(self) -> bool:
        """Cyclic or anti-cyclic (or both)."""
        return self is not Orientation.NEITHER

    @property
    def uniquely_oriented(self) -> bool:
        """Exactly one of cyclic / anti-cyclic."""
        return self is Orientation.CYCLIC_ONLY or self is Orientation.ANTI_CYCLIC_ONLY

    def swapped(self) -> Orientation:
        """Orientation of the reversed sequence: cyclic and anti-cyclic trade places."""
        if self is Orientation.CYCLIC_ONLY:
            return Orientation.ANTI_CYCLIC_ONLY
        if self is Orientation.ANTI_CYCLIC_ONLY:
            return Orientation.CYCLIC_ONLY
        return self


@dataclass(frozen=True)
class Seq:
    """A finite sequence of values drawn from [n], with the cycle size recorded.

    The empty sequence is a valid value but has no orientation; the
    orientation predicates below reject it.
    """

    n: int
    items: tuple[int, ...]

    def __post_init__(self) -> None:
        n, items = _points(self.n, self.items, "value")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "items", items)

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> Seq:
        """Parse a comma-separated value list, e.g. "0,1,0,1".

        When ``n`` is omitted it defaults to 1 + max(value).
        """
        text = text.strip()
        items = _parse_ints(text, "sequence") if text else ()
        if n is None:
            n = max(items) + 1 if items else 1
        return cls(n, items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, i: int) -> int:
        return self.items[i]

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.items)


def _points(n: int, values, what: str) -> tuple[int, tuple[int, ...]]:
    """The one point validator: the cycle size and ``values`` as plain ints,
    each value in [0, n), or a ``ValueError`` naming the input."""
    try:
        n, points = index(n), tuple(map(index, values))
    except TypeError:
        raise ValueError(f"cycle size {n!r} and {what}s {values!r} must be integers") from None
    if n < 1:
        raise ValueError(f"cycle size must be positive, got n={n}")
    for v in points:
        if not 0 <= v < n:
            raise ValueError(f"{what} {v} outside [0, {n})")
    return n, points


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Split a comma-separated list of integers, naming ``what`` on error."""
    items = []
    for part in text.split(","):
        try:
            items.append(int(part))
        except ValueError:
            raise ValueError(f"{what} entry {part.strip()!r} is not an integer") from None
    return tuple(items)


def _steps(items: tuple[int, ...]) -> tuple[int, int]:
    """The orientation kernel: (descents, ascents) over the circular steps
    of a nonempty tuple, the last item stepping back to the first."""
    descents = ascents = 0
    prev = items[-1]
    for cur in items:
        if prev > cur:
            descents += 1
        elif prev < cur:
            ascents += 1
        prev = cur
    return descents, ascents


# Indexed by 2 * cyclic + anti-cyclic.
_TAGS = (
    Orientation.NEITHER,
    Orientation.ANTI_CYCLIC_ONLY,
    Orientation.CYCLIC_ONLY,
    Orientation.BOTH,
)


def _tag(items: tuple[int, ...]) -> Orientation:
    """The orientation :func:`_steps` implies for a nonempty tuple."""
    descents, ascents = _steps(items)
    return _TAGS[2 * (descents <= 1) + (ascents <= 1)]


def _require_nonempty(s: Seq) -> None:
    if not s.items:
        raise ValueError("empty sequence has no orientation")


def circular_descents(s: Seq) -> int:
    """Number of positions i with item[i] > item[i+1], indices wrapping around."""
    _require_nonempty(s)
    return _steps(s.items)[0]


def circular_ascents(s: Seq) -> int:
    """Number of positions i with item[i] < item[i+1], indices wrapping around."""
    _require_nonempty(s)
    return _steps(s.items)[1]


def is_cyclic(s: Seq) -> bool:
    """At most one circular descent; equivalently some rotation is non-decreasing."""
    return circular_descents(s) <= 1


def is_anti_cyclic(s: Seq) -> bool:
    """At most one circular ascent; equivalently some rotation is non-increasing."""
    return circular_ascents(s) <= 1


def orientation(s: Seq) -> Orientation:
    """Classify a nonempty sequence as cyclic-only, anti-cyclic-only, both or neither."""
    _require_nonempty(s)
    return _tag(s.items)


def cyclic_variant(s: Seq, i: int) -> Seq:
    """The rotation of ``s`` starting at position i+1 (mod length).

    Rotations never change the orientation classification.
    """
    t = len(s.items)
    if not 0 <= i < t:
        raise IndexError(f"rotation index {i} outside [0, {t})")
    start = (i + 1) % t
    return Seq(s.n, s.items[start:] + s.items[:start])


def reverse(s: Seq) -> Seq:
    """The sequence read backwards; swaps cyclic-only and anti-cyclic-only."""
    return Seq(s.n, s.items[::-1])


def distinct_count(s: Seq) -> int:
    """Number of distinct values occurring in the sequence."""
    return len(set(s.items))


def same_orientation(s: Seq, t: Seq) -> bool:
    """Whether two uniquely oriented sequences carry the same orientation.

    The relation is only defined on uniquely oriented sequences; anything
    classified both or neither is rejected.
    """
    tag_s = orientation(s)
    tag_t = orientation(t)
    if not tag_s.uniquely_oriented:
        raise ValueError(f"first sequence is not uniquely oriented (tag {tag_s.value})")
    if not tag_t.uniquely_oriented:
        raise ValueError(f"second sequence is not uniquely oriented (tag {tag_t.value})")
    return tag_s is tag_t
