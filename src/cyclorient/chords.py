"""Chords of a circle carrying the points of [n] clockwise.

A chord joins two (possibly equal) of the n circle points; a one-point
chord is a single point.  Two intersection predicates are implemented:

* ``combinatorial`` — the chords {a, c} and {b, d} meet exactly when the
  interleaved quadruple (a, b, c, d) is oriented.  The verdict does not
  depend on how endpoints are paired off or which chord comes first; the
  test suite asserts that invariance.
* ``geometric`` — an exact oracle.  Point j is placed at integer
  coordinates (j, j*j): a strictly convex position whose hull order
  realizes the circular order of [n], so chord intersection is the same as
  on the circle.  Closed-segment intersection (endpoints and tangency
  count; degenerate point segments allowed) is decided by integer
  cross-product signs, with no floating point anywhere.  Three distinct
  placed points are never collinear, so collinear cases arise only from
  coincident labels and are handled by the on-segment checks.

``has_chord_property`` asks whether a map sends every intersecting chord
pair to an intersecting pair; this holds exactly for the maps that preserve
or reverse orientation.  It scans only the interleaved chords {a, c},
{b, d} of the C(n, 4) sorted quadruples a < b < c < d; no table outlives a call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mappings import Mapping
from .membership import first_unoriented_image
from .sequences import _tag

METHODS = ("combinatorial", "geometric")


@dataclass(frozen=True)
class Chord:
    """An unordered pair of circle points, normalized so p <= q."""

    n: int
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"cycle size must be positive, got n={self.n}")
        for v in (self.p, self.q):
            if not 0 <= v < self.n:
                raise ValueError(f"endpoint {v} outside [0, {self.n})")
        if self.p > self.q:
            p, q = self.q, self.p
            object.__setattr__(self, "p", p)
            object.__setattr__(self, "q", q)

    @classmethod
    def parse(cls, text: str, n: int) -> Chord:
        """Parse the text form "p-q", e.g. "1-3"."""
        parts = text.strip().split("-")
        if len(parts) != 2:
            raise ValueError(f"chord must look like 'p-q', got {text!r}")
        try:
            p, q = map(int, parts)
        except ValueError:
            raise ValueError(f"chord endpoints must be integers, got {text!r}") from None
        return cls(n, p, q)

    def __str__(self) -> str:
        return f"{self.p}-{self.q}"


def _cross_sign(o: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(p: tuple[int, int], q: tuple[int, int], r: tuple[int, int]) -> bool:
    # r is assumed collinear with p-q; test the bounding box.
    return min(p[0], q[0]) <= r[0] <= max(p[0], q[0]) and min(p[1], q[1]) <= r[1] <= max(
        p[1], q[1]
    )


def _segments_intersect(
    p1: tuple[int, int],
    q1: tuple[int, int],
    p2: tuple[int, int],
    q2: tuple[int, int],
) -> bool:
    """Closed-segment intersection over exact integers; degenerate segments allowed."""
    d1 = _cross_sign(p2, q2, p1)
    d2 = _cross_sign(p2, q2, q1)
    d3 = _cross_sign(p1, q1, p2)
    d4 = _cross_sign(p1, q1, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _on_segment(p2, q2, p1):
        return True
    if d2 == 0 and _on_segment(p2, q2, q1):
        return True
    if d3 == 0 and _on_segment(p1, q1, p2):
        return True
    if d4 == 0 and _on_segment(p1, q1, q2):
        return True
    return False


def _place(j: int) -> tuple[int, int]:
    return (j, j * j)


def chords_intersect(first: Chord, second: Chord, method: str = "combinatorial") -> bool:
    """Whether two chords share at least one point (closed segments)."""
    if first.n != second.n:
        raise ValueError(f"cycle size mismatch: {first.n} vs {second.n}")
    if method == "combinatorial":
        return _tag((first.p, second.p, first.q, second.q)).oriented
    if method == "geometric":
        return _segments_intersect(
            _place(first.p), _place(first.q), _place(second.p), _place(second.q)
        )
    raise ValueError(f"method must be one of {METHODS}, got {method!r}")


def image_chord(m: Mapping, chord: Chord) -> Chord:
    """The chord joining the images of the endpoints."""
    if m.n != chord.n:
        raise ValueError(f"cycle size mismatch: map has n={m.n}, chord n={chord.n}")
    return Chord(chord.n, m.images[chord.p], m.images[chord.q])


@dataclass(frozen=True)
class ChordPropertyResult:
    """Outcome of the chord-preservation test, with the first failing pair."""

    holds: bool
    counterexample: tuple[Chord, Chord] | None = None

    def __bool__(self) -> bool:
        return self.holds


def _first_disjoint_image(m: Mapping) -> tuple[int, int, int, int] | None:
    """The first sorted quadruple a < b < c < d whose image chords
    {ia, ic}, {ib, id} are disjoint by exact geometry; None when there is none.

    Per a, ``rows[k][j]`` is ``_cross_sign(placed[a], placed[k], placed[j])``
    for k, j > a: the cross product of placed image j relative to image
    chord a-k.  The signs of :func:`_segments_intersect` are then lookups:
    d3 = rows[c][b], d4 = rows[c][d], d1 = rows[b][d], and
    d2 = d1 - d4 + d3 (the triangle b, d, c split at a).  Strictly opposite
    d3, d4 and d1, d2 are a proper crossing.  Image chords sharing an
    endpoint meet (equal images place equal points) and are skipped, before
    any arithmetic when ib is that endpoint; only point chords reach the
    segment test.
    """
    imgs = m.images
    n = m.n
    placed = [_place(v) for v in imgs]
    for a in range(n - 3):
        w, (ax, ay) = imgs[a], placed[a]
        rel = [(px - ax, py - ay) for px, py in placed[a + 1 :]]
        pad = [0] * (a + 1)
        # Built on first use, so a scan that stops early builds few; at most
        # O(n^2) integers, and rebinding frees the previous a's.
        rows = [None] * n

        def row(k):
            ex, ey = rel[k - a - 1]
            rows[k] = pad + [ex * ry - ey * rx for rx, ry in rel]
            return rows[k]

        for b in range(a + 1, n - 2):
            x = imgs[b]
            if x == w:
                continue
            row_b = rows[b] or row(b)
            for c in range(b + 1, n - 1):
                y = imgs[c]
                if y == x:
                    continue
                row_c = rows[c] or row(c)
                d3 = row_c[b]
                for d in range(c + 1, n):
                    d4, d1 = row_c[d], row_b[d]
                    if d3 * d4 < 0 and d1 * (d1 - d4 + d3) < 0 or imgs[d] in (w, y):
                        continue
                    if (d3 and d4 and d1 and d1 - d4 + d3) or not _segments_intersect(
                        placed[a], placed[c], placed[b], placed[d]
                    ):
                        return a, b, c, d
    return None


def has_chord_property(m: Mapping, method: str = "combinatorial") -> ChordPropertyResult:
    """Whether the images of every intersecting chord pair still intersect.

    Only the interleaved, hence intersecting, chords {a, c}, {b, d} of the
    C(n, 4) sorted quadruples a < b < c < d are considered: any other
    intersecting pair shares an endpoint, and so does its image, or is one
    of the 8 dihedral arrangements of a sorted quadruple.  The image pair is
    decided by the quadruple test's scan (``combinatorial``, triples with a
    value mask for d) or by exact geometry independent of the orientation
    kernel (``geometric``, which skips image chords sharing an endpoint).

    On failure the counterexample is the source pair of the first violating
    (a, b, c, d) in lexicographic order over [n]^4, which is sorted.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    scan = first_unoriented_image if method == "combinatorial" else _first_disjoint_image
    quad = scan(m)
    if quad is None:
        return ChordPropertyResult(True)
    a, b, c, d = quad
    return ChordPropertyResult(False, (Chord(m.n, a, c), Chord(m.n, b, d)))
