"""Total self-maps of [n]: the full transformation monoid under composition.

A map is stored as its image list, entry j being the image of j.  Maps act
on the right, so composition is left-to-right: ``compose(a, b)`` applies
``a`` first and ``b`` second.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Iterator

from .sequences import _parse_ints, _points, _Record, _within


class Mapping(_Record):
    """A total self-map of [n], stored as the tuple (0a, 1a, ..., (n-1)a)."""

    n: int
    images: tuple[int, ...]

    @staticmethod
    def _normalise(n, images) -> tuple[int, tuple[int, ...]]:
        n, images = _points(n, images, "image")
        if len(images) != n:
            raise ValueError(f"image list has length {len(images)}, expected n={n}")
        return n, images

    @classmethod
    def parse(cls, text: str) -> Mapping:
        """Parse a comma-separated image list, e.g. "0,1,3,2"; n is the list length."""
        images = _parse_ints(text.strip(), "map")
        return cls(len(images), images)

    def __call__(self, j: int) -> int:
        _, (j,) = _points(self.n, (j,), "point")
        return self.images[j]

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.images)


def identity(n: int) -> Mapping:
    """The identity map j -> j."""
    n, _ = _points(n, (), "image")
    return Mapping(n, tuple(range(n)))


def rotation(n: int) -> Mapping:
    """The unit clockwise rotation j -> j+1 (mod n)."""
    n, _ = _points(n, (), "image")
    return Mapping(n, tuple((j + 1) % n for j in range(n)))


def reversal(n: int) -> Mapping:
    """The order-reversing involution j -> n-1-j."""
    n, _ = _points(n, (), "image")
    return Mapping(n, tuple(n - 1 - j for j in range(n)))


def compose(first: Mapping, second: Mapping) -> Mapping:
    """Apply ``first``, then ``second``."""
    if first.n != second.n:
        raise ValueError(f"cycle size mismatch: {first.n} vs {second.n}")
    return Mapping(first.n, tuple(map(second.images.__getitem__, first.images)))


def enumerate_all(n: int, start: int = 0, stop: int | None = None) -> Iterator[Mapping]:
    """An iterator over every self-map of [n] in lexicographic order of image lists.

    ``start``/``stop`` select a contiguous index range, which the
    benchmark's prefix probe reads; index k is the map whose image list is
    k written in base n, most significant digit first.  The arguments are
    checked at the call, not at the first ``next()``.
    """
    n, _ = _points(n, (), "image")
    # islice takes no index above sys.maxsize, which n**n passes from n = 16.
    end = min(n ** min(n, 16), sys.maxsize)
    start = _within(start, 0, end, "range start")
    stop = None if stop is None else _within(stop, start, end, "range stop")

    def maps() -> Iterator[Mapping]:
        # The product is built at the first next(): it copies its n pools up front.
        for images in itertools.islice(itertools.product(range(n), repeat=n), start, stop):
            yield Mapping(n, images)

    return maps()

