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

_setattr = object.__setattr__


class _Record:
    """The package's frozen value records.

    A subclass declares its fields as class annotations, in order; a class
    attribute of the same name is that field's default.  A record is built
    positionally or by keyword, compares and hashes by its exact type and
    field values, refuses assignment and deletion, and has the repr
    ``Name(field=value, ...)``.  A subclass may define ``__post_init__`` to
    normalise the stored fields, storing each with ``object.__setattr__``.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        fields = tuple(own.get("__annotations__", ()))
        cls._fields = cls.__match_args__ = fields
        cls._defaults = {name: own[name] for name in fields if name in own}
        # The class's own __init__ closes over its fields, so a positional
        # call of the right arity reads no class attribute before storing.
        arity, normalise = len(fields), hasattr(cls, "__post_init__")

        def __init__(self, *args, **kwargs) -> None:
            if kwargs or len(args) != arity:
                args = self._bind(args, kwargs)
            # object.__setattr__ keeps the fields in the instance's inline
            # values; a write through self.__dict__ would make every later
            # read a dict lookup.  The indexed loop is cheaper than zip.
            i = 0
            for name in fields:
                _setattr(self, name, args[i])
                i += 1
            if normalise:
                self.__post_init__()

        cls.__init__ = __init__

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call with keywords or defaults, in field
        order, or the ``TypeError`` a function with these parameters raises."""
        fields, name = cls._fields, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        values = {**cls._defaults, **values}
        missing = ", ".join(repr(key) for key in fields if key not in values)
        if missing:
            raise TypeError(f"{name}() missing required arguments: {missing}")
        return tuple(values[key] for key in fields)

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
_TAGS = (_NEITHER, _ANTI_CYCLIC_ONLY, _CYCLIC_ONLY, _BOTH)


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
    try:
        i = index(i)
    except TypeError:
        raise ValueError(f"rotation index must be an integer, got {i!r}") from None
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
