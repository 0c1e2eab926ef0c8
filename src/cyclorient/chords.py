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
{b, d} of the C(n, 4) sorted quadruples a < b < c < d; the geometric scan,
the chord claim of ``cross_check``, never calls the orientation kernel.
"""

from __future__ import annotations

from functools import lru_cache

from .mappings import Mapping
from .membership import _images_after, first_unoriented_image
from .sequences import _points, _Record, _tag

METHODS = ("combinatorial", "geometric")


class Chord(_Record):
    """An unordered pair of circle points, normalized so p <= q."""

    n: int
    p: int
    q: int

    def __post_init__(self) -> None:
        n, ends = _points(self.n, (self.p, self.q), "endpoint")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", min(ends))
        object.__setattr__(self, "q", max(ends))

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


class ChordPropertyResult(_Record):
    """Outcome of the chord-preservation test, with the first failing pair."""

    holds: bool
    counterexample: tuple[Chord, Chord] | None = None

    def __bool__(self) -> bool:
        return self.holds


@lru_cache(maxsize=4)
def _side_table(n: int) -> tuple[list[list[int]], bytearray]:
    """The rows ``L[v][k]`` of :func:`_first_disjoint` for the 4 latest n
    (770 KiB at n = 128); row v is valid once ``done[v]`` is set."""
    return [[0] * n for _ in range(n)], bytearray(n)


def _fill_sides(sides: list[list[int]], done: bytearray, v: int) -> None:
    """Fill ``L[v][k]`` and ``L[k][v]`` (the other side of the same line) for
    every k whose row is not done, by one pass of exact cross products each."""
    n = len(done)
    ox, oy = _place(v)
    rel = [(px - ox, py - oy) for px, py in map(_place, range(n))]
    row = sides[v]
    for k, (ex, ey) in enumerate(rel):
        if done[k] or k == v:
            continue
        left = right = 0
        for j, (rx, ry) in enumerate(rel):
            cross = ex * ry - ey * rx
            if cross > 0:
                left |= 1 << j
            elif cross < 0:
                right |= 1 << j
            elif j != v and j != k:
                raise RuntimeError(f"placed points {v}, {k}, {j} are collinear")
        row[k] = left
        sides[k][v] = right
    done[v] = 1


def _first_disjoint_image(m: Mapping) -> tuple[int, int, int, int] | None:
    """The first sorted quadruple a < b < c < d whose image chords under
    ``m`` are disjoint, or None (the scan is :func:`_first_disjoint`)."""
    return _first_disjoint(m.images, _images_after(m.images))


def _first_disjoint(imgs: tuple[int, ...], after: list[int]) -> tuple[int, int, int, int] | None:
    """The first sorted quadruple a < b < c < d whose image chords
    {ia, ic}, {ib, id} are disjoint by exact geometry, or None, given the
    image tuple and its :func:`~cyclorient.membership._images_after` masks.

    The loop runs over sorted triples with images w, x, y, skipping x = w
    and y = x (chords sharing an endpoint meet).  ``L[v][k]`` is the bitmask
    of the values j with ``_cross_sign(P(v), P(k), P(j)) > 0``.  The z for
    which P(x)P(z) misses P(w)P(y) are every value but w when y = w, else
    those strictly on x's side of line wy: ``L[w][y] if x in L[w][y] else
    L[y][w]``, exact for points in strictly convex position (pinned by
    ``test_placement_is_in_strictly_convex_position``).  Filling row w also
    sets ``L[y][w]``.  One AND with the images after c decides whether any
    d exists, as in :func:`~cyclorient.membership._first_unoriented`; no
    orientation kernel call.
    """
    n = len(imgs)
    sides, done = _side_table(n)
    for a in range(n - 3):
        w = imgs[a]
        if not done[w]:
            _fill_sides(sides, done, w)
        row_w = sides[w]
        for b in range(a + 1, n - 2):
            x = imgs[b]
            if x == w:
                continue
            for c in range(b + 1, n - 1):
                y = imgs[c]
                if y == x:
                    continue
                if y == w:
                    wanted = ~(1 << w)
                else:
                    wy = row_w[y]
                    wanted = wy if wy >> x & 1 else sides[y][w]
                if after[c] & wanted:
                    # A loop, not next(genexpr): its frames cost ~17 % of the one-core n = 6 suite.
                    for d in range(c + 1, n):
                        if wanted >> imgs[d] & 1:
                            return a, b, c, d
    return None


def has_chord_property(m: Mapping, method: str = "combinatorial") -> ChordPropertyResult:
    """Whether the images of every intersecting chord pair still intersect.

    Only the interleaved, hence intersecting, chords {a, c}, {b, d} of the
    C(n, 4) sorted quadruples a < b < c < d are considered: any other
    intersecting pair shares an endpoint, and so does its image, or is one
    of the 8 dihedral arrangements of a sorted quadruple.  The image pair is
    decided by the quadruple test's scan (``combinatorial``, the paper's
    definition) or by exact geometry off the orientation kernel
    (``geometric``, the form ``cross_check`` checks).

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
