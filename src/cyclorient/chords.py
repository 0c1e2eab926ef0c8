"""Chords of a circle carrying the points of [n] clockwise.

A chord joins two (possibly equal) of the n circle points; a one-point
chord is a single point.  Two intersection predicates are implemented:

* ``combinatorial`` — the chords {a, c} and {b, d} meet exactly when the
  interleaved quadruple (a, b, c, d) is oriented.  The verdict does not
  depend on how endpoints are paired off or which chord comes first; the
  test suite asserts that invariance.
* ``geometric`` — an exact oracle.  Point j is placed at integer
  coordinates (j, j*j) on the parabola y = x*x, a strictly convex position
  whose hull order realizes the circular order of [n], so chord
  intersection is the same as on the circle; :func:`chords_intersect`
  gives the rule, on integer cross products with no floating point.

``has_chord_property`` asks whether a map sends every intersecting chord
pair to an intersecting pair; this holds exactly for the maps that preserve
or reverse orientation.  Its geometric scan, the chord claim of
``cross_check``, is :func:`~cyclorient.membership._first_apart` on the side
table of :func:`_placed_sides`: they derive the scan, and the order that
keeps it independent of the quadruple route.
"""

from __future__ import annotations

from functools import cmp_to_key, lru_cache

from .mappings import Mapping
from .membership import _first_apart, _first_unoriented, _images_after, _sides_after
from .sequences import _parse_int, _points, _Record, _tag

METHODS = ("combinatorial", "geometric")


class Chord(_Record):
    """An unordered pair of circle points, normalized so p <= q."""

    n: int
    p: int
    q: int

    @staticmethod
    def _normalise(n, p, q) -> tuple[int, int, int]:
        n, (p, q) = _points(n, (p, q), "endpoint")
        return n, min(p, q), max(p, q)

    @classmethod
    def parse(cls, text: str, n: int) -> Chord:
        """Parse the text form "p-q", e.g. "1-3"."""
        parts = text.strip().split("-")
        if len(parts) != 2:
            raise ValueError(f"chord must look like 'p-q', got {text!r}")
        try:
            p, q = map(_parse_int, parts)
        except ValueError:
            raise ValueError(f"chord endpoints must be integers, got {text!r}") from None
        return cls(n, p, q)

    def __str__(self) -> str:
        return f"{self.p}-{self.q}"


def _cross_sign(o: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _place(j: int) -> tuple[int, int]:
    return (j, j * j)


def chords_intersect(first: Chord, second: Chord, method: str = "combinatorial") -> bool:
    """Whether two chords share at least one point (closed segments).

    The geometric verdict is the geometric scan's rule on the placed points:
    the chords meet exactly when they share an endpoint or the line through
    one strictly separates the other's endpoints.  This is exact: the slopes
    from P(a) to P(b) and to P(c) are a + b != a + c, so three distinct
    placed points are never collinear, and on a strictly convex curve two
    chords with four distinct endpoints cross exactly when they interleave.
    A one-point chord has a zero cross product, so it meets only by a label.
    """
    if first.n != second.n:
        raise ValueError(f"cycle size mismatch: {first.n} vs {second.n}")
    if method == "combinatorial":
        return _tag((first.p, second.p, first.q, second.q)).oriented
    if method == "geometric":
        if {first.p, first.q} & {second.p, second.q}:
            return True
        p, q, r, s = map(_place, (first.p, first.q, second.p, second.q))
        return _cross_sign(p, q, r) * _cross_sign(p, q, s) < 0
    raise ValueError(f"method must be one of {METHODS}, got {method!r}")


def image_chord(m: Mapping, chord: Chord) -> Chord:
    """The chord joining the images of the endpoints."""
    if m.n != chord.n:
        raise ValueError(f"cycle size mismatch: map has n={m.n}, chord n={chord.n}")
    return Chord(chord.n, m.images[chord.p], m.images[chord.q])


class ChordPropertyResult(_Record):
    """Outcome of the chord-preservation test, with the first failing pair."""

    holds: bool
    counterexample: tuple[Chord, Chord] | None = None

    def __bool__(self) -> bool:
        return self.holds


@lru_cache(maxsize=4)
def _placed_sides(n: int) -> list[list[int]]:
    """The side table of :func:`_first_disjoint` for the 4 latest n (780
    KiB at n = 128), :func:`_sides_after` of the other points sorted by
    angle around P(v) by the sign of one exact cross product: ``L[v][k]``
    holds the values left of line P(v)P(k), those after k in that order.
    The placed points lie in strictly convex position in the circular
    order (``test_placement_is_in_strictly_convex_position``), so P(v) is a
    hull vertex, the other points lie in one open cone at P(v), and a side
    of line P(v)P(k) is a side of chord {v, k}.  A row whose points are not
    all strictly left of the ray to its first point is refused, so a
    placement off strictly convex position is never mis-sorted; a sort
    compares each pair it leaves adjacent, so any points collinear with
    P(v) are refused too.  This table and the circular order's differ only
    in the order they are built from, which keeps the chord route
    independent of the quadruple route."""
    placed = [_place(j) for j in range(n)]

    def around(v: int) -> list[int]:
        def turn(k: int, j: int) -> int:
            cross = _cross_sign(placed[v], placed[k], placed[j])
            if not cross:
                raise RuntimeError(f"placed points {v}, {k}, {j} are collinear")
            return -cross

        order = sorted((k for k in range(n) if k != v), key=cmp_to_key(turn))
        if any(turn(order[0], j) > 0 for j in order[1:]):
            raise RuntimeError(f"placed point {v} is not in strictly convex position")
        return order

    return _sides_after(n, around)


def _first_disjoint(imgs: tuple[int, ...], after: list[int]) -> tuple[int, int, int, int] | None:
    """The first sorted quadruple a < b < c < d whose image chords are
    disjoint by exact geometry, or None: :func:`_first_apart` on the sides
    of :func:`_placed_sides`, with no orientation kernel call."""
    return _first_apart(imgs, after, _placed_sides(len(imgs)))


def has_chord_property(m: Mapping, method: str = "combinatorial") -> ChordPropertyResult:
    """Whether the images of every intersecting chord pair still intersect.

    Only the interleaved, hence intersecting, chords {a, c}, {b, d} of the
    C(n, 4) sorted quadruples a < b < c < d are considered: any other
    intersecting pair shares an endpoint, and so does its image, or is one
    of the 8 dihedral arrangements of a sorted quadruple.  The image pair is
    decided by the quadruple test's scan (``combinatorial``, the paper's
    definition) or by exact geometry, with a side table of cross products
    instead of the circular order (``geometric``, the form ``cross_check``
    checks).

    On failure the counterexample is the source pair of the first violating
    (a, b, c, d) in lexicographic order over [n]^4, which is sorted.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    scan = _first_unoriented if method == "combinatorial" else _first_disjoint
    quad = scan(m.images, _images_after(m.images))
    if quad is None:
        return ChordPropertyResult(True)
    a, b, c, d = quad
    return ChordPropertyResult(False, (Chord(m.n, a, c), Chord(m.n, b, d)))
