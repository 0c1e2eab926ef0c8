"""Finite sequences over the cycle [n] = {0, ..., n-1} and their orientation.

Place the points 0, ..., n-1 clockwise on a circle.  A sequence of such
points is *cyclic* when at most one circular step descends (equivalently,
some rotation of it is non-decreasing) and *anti-cyclic* when at most one
circular step ascends.  A sequence with at most two distinct values is
either both or neither; three or more distinct values force exactly one of
the two, in which case we call the sequence uniquely oriented.
"""

from __future__ import annotations

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
        return self is _CYCLIC_ONLY or self is _BOTH

    @property
    def admits_anti_cyclic(self) -> bool:
        """True when the sequence is anti-cyclic (possibly cyclic as well)."""
        return self is _ANTI_CYCLIC_ONLY or self is _BOTH

    @property
    def oriented(self) -> bool:
        """Cyclic or anti-cyclic (or both)."""
        return self is not _NEITHER

    @property
    def uniquely_oriented(self) -> bool:
        """Exactly one of cyclic / anti-cyclic."""
        return self is _CYCLIC_ONLY or self is _ANTI_CYCLIC_ONLY

    def swapped(self) -> Orientation:
        """Orientation of the reversed sequence: cyclic and anti-cyclic trade places."""
        if self is _CYCLIC_ONLY:
            return _ANTI_CYCLIC_ONLY
        if self is _ANTI_CYCLIC_ONLY:
            return _CYCLIC_ONLY
        return self


# The predicates read these module globals: an Enum class-attribute read goes
# through the metaclass and costs over ten times a global lookup.
_CYCLIC_ONLY, _ANTI_CYCLIC_ONLY, _BOTH, _NEITHER = Orientation


class _Record:
    """The package's frozen value records.

    A subclass declares its fields as class annotations, in order; a class
    attribute of the same name is that field's default, and a defaulted
    field must follow the required ones.  Each subclass gets one compiled
    ``__init__`` with its fields as parameters (as ``collections.namedtuple``
    builds ``__new__``), so Python binds the arguments and raises its own
    ``TypeError``.  An optional ``_normalise(*fields)`` staticmethod returns
    the values to store.  A record compares and hashes by its exact type and
    field values, refuses assignment and deletion, and has the repr
    ``Name(field=value, ...)``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        fields = tuple(own.get("__annotations__", ()))
        cls._fields = cls.__match_args__ = fields
        params = ", ".join(f"{name}=_cls.{name}" if name in own else name for name in fields)
        lines = [f"def __init__(self, {params}):"]
        namespace = {"_cls": cls, "_setattr": object.__setattr__}
        if hasattr(cls, "_normalise"):
            namespace["_normalise"] = cls._normalise
            values = ", ".join(fields)
            lines.append(f"    ({values},) = _normalise({values})")
        # object.__setattr__ keeps the fields in the instance's inline
        # values; a write through self.__dict__ would make every later read
        # a dict lookup.
        lines += [f"    _setattr(self, {name!r}, {name})" for name in fields]
        exec("\n".join(lines), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Seq(_Record):
    """A finite sequence of values drawn from [n], with the cycle size recorded.

    The empty sequence is a valid value but has no orientation;
    :func:`orientation` rejects it.
    """

    n: int
    items: tuple[int, ...]

    @staticmethod
    def _normalise(n, items) -> tuple[int, tuple[int, ...]]:
        return _points(n, items, "value")

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> Seq:
        """Parse a comma-separated value list, e.g. "0,1,0,1".

        When ``n`` is omitted it defaults to 1 + max(0, values).
        """
        text = text.strip()
        items = _parse_ints(text, "sequence") if text else ()
        if n is None:
            n = max((0, *items)) + 1
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


def _within(value: int, low: int, high: int | None, what: str) -> int:
    """The one bound check: ``value`` as a plain int within low..high (no
    upper bound when ``high`` is None), or a ``ValueError`` naming ``what``."""
    try:
        value = index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if value < low or high is not None and value > high:
        span = f"at least {low}" if high is None else f"within {low}..{high}"
        raise ValueError(f"{what} must be {span}, got {value}")
    return value


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Split a comma-separated list of integers, naming ``what`` on error."""
    items = []
    for part in text.split(","):
        try:
            items.append(_parse_int(part))
        except ValueError:
            raise ValueError(f"{what} entry {part.strip()!r} is not an integer") from None
    return tuple(items)


def _parse_int(text: str) -> int:
    """An optional sign and ASCII digits, blanks around them allowed, as an
    int, else ``ValueError``: bare ``int`` also reads ``1_0`` and non-ASCII
    digits."""
    digits = text.strip()
    unsigned = digits[1:] if digits[:1] in ("+", "-") else digits
    if not (unsigned.isdigit() and unsigned.isascii()):
        raise ValueError(f"not an integer: {text!r}")
    return int(digits)


# Indexed by 2 * cyclic + anti-cyclic.
_TAGS = (_NEITHER, _ANTI_CYCLIC_ONLY, _CYCLIC_ONLY, _BOTH)


def _tag(items: tuple[int, ...]) -> Orientation:
    """The orientation kernel, the one reader of circular steps: the
    :class:`Orientation` of a nonempty tuple from its descents and ascents,
    the last item stepping back to the first."""
    descents = ascents = 0
    prev = items[-1]
    for cur in items:
        if prev > cur:
            descents += 1
        elif prev < cur:
            ascents += 1
        prev = cur
    return _TAGS[2 * (descents <= 1) + (ascents <= 1)]


def orientation(s: Seq) -> Orientation:
    """Classify a nonempty sequence as cyclic-only, anti-cyclic-only, both or neither."""
    if not s.items:
        raise ValueError("empty sequence has no orientation")
    return _tag(s.items)
