"""Total self-maps of [n]: the full transformation monoid under composition.

A map is stored as its image list, entry j being the image of j.  Maps act
on the right, so composition is left-to-right: ``compose(a, b)`` applies
``a`` first and ``b`` second.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .sequences import Seq, _parse_ints, _points, _Record, _within


class Mapping(_Record):
    """A total self-map of [n], stored as the tuple (0a, 1a, ..., (n-1)a)."""

    n: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n, images = _points(self.n, self.images, "image")
        if len(images) != n:
            raise ValueError(f"image list has length {len(images)}, expected n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "images", images)

    @classmethod
    def parse(cls, text: str) -> Mapping:
        """Parse a comma-separated image list, e.g. "0,1,3,2"; n is the list length."""
        images = _parse_ints(text.strip(), "map")
        return cls(len(images), images)

    def __call__(self, j: int) -> int:
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


def image_size(m: Mapping) -> int:
    """Number of distinct values the map takes (its rank)."""
    return len(set(m.images))


def apply_seq(m: Mapping, s: Seq) -> Seq:
    """Map a sequence pointwise."""
    if m.n != s.n:
        raise ValueError(f"cycle size mismatch: map has n={m.n}, sequence n={s.n}")
    return Seq(s.n, tuple(map(m.images.__getitem__, s.items)))


def mapping_count(n: int) -> int:
    """Size of the full transformation monoid on [n]."""
    return n**n


def enumerate_all(n: int, start: int = 0, stop: int | None = None) -> Iterator[Mapping]:
    """Yield every self-map of [n] in lexicographic order of image lists.

    ``start``/``stop`` select a contiguous index range, which the
    benchmark's prefix probe reads (the suites' workers slice
    ``itertools.product`` themselves); index k is the map whose image list
    is k written in base n, most significant digit first.
    """
    n, _ = _points(n, (), "image")
    total = n**n
    start = _within(start, 0, total, "range start")
    stop = _within(total if stop is None else stop, start, total, "range stop")
    maps = itertools.product(range(n), repeat=n)
    for images in itertools.islice(maps, start, stop):
        yield Mapping(n, images)
