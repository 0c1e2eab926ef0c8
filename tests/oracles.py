"""Brute-force oracles shared by the tests; no production path calls them."""

import itertools
from collections.abc import Iterator
from operator import itemgetter

from cyclorient import Chord, patterns
from cyclorient.claims import _claims
from cyclorient.patterns import orbit
from cyclorient.sequences import Orientation, _tag
from cyclorient.verification import _fail, _new_tally, _tagged


def _cyclic(n, length):
    """The cyclic ``length``-sequences over [n], from the definition with no
    kernel call: the distinct rotations of the non-decreasing ones.  Their
    reversals are the anti-cyclic ones."""
    runs = itertools.combinations_with_replacement(range(n), length)
    return {run[i:] + run[:i] for run in runs for i in range(length)}


def _oriented(n, length):
    """Yield ``(items, tag)``, each oriented ``length``-sequence over [n] with
    its :class:`Orientation`, lexicographically, from :func:`_cyclic`: the
    pool over [n] that tests spread the lemma suite's pattern rows against
    (``_oriented(n, n)`` yields P_n)."""
    return _tagged(_cyclic(n, length))


def _classes(n):
    """OP_n and OR_n as sets of image tuples: the cyclic image lists of
    :func:`_cyclic` and their reversals, the members that the package reads
    only as their patterns (``patterns.cyclic``)."""
    op = frozenset(_cyclic(n, n))
    return op, frozenset(images[::-1] for images in op)


def split(seqs):
    """The families of ``seqs``: each set of patterns, mapped to the sorted
    image sets S met with exactly those patterns, each sequence read
    through one position map per S (in a class, each rank is one family)."""
    by_image = {}
    for seq in seqs:
        by_image.setdefault(frozenset(seq), []).append(seq)
    families = {}
    for image_set, group in by_image.items():
        image = tuple(sorted(image_set))
        where = dict(zip(image, range(len(image))))
        shapes = frozenset(tuple(map(where.__getitem__, seq)) for seq in group)
        families.setdefault(shapes, []).append(image)
    return families


def _product_set(families, right):
    # a then b is (b[a[0]], ..., b[a[k-1]]) for a sequence a of any length
    # over b's points: b restricted to a's sorted image set S, read at a's
    # pattern (its entries' positions in S); the left operand comes split
    # into families by split.  right is held as columns: a family's
    # restrictions to S are the rows of S's columns zipped, and a pattern
    # composes all of them at once as the rows of the restrictions'
    # columns zipped in pattern order.
    if not right:
        return set()
    columns = list(zip(*right))
    out = set()
    for shapes, images in families.items():
        restrictions = set()
        for image in images:
            restrictions.update(zip(*map(columns.__getitem__, image)))
        slots = list(zip(*restrictions))
        for pattern in shapes:
            out.update(zip(*map(slots.__getitem__, pattern)))
    return out


def oriented_quadruples(n):
    """All (a, b, c, d) in [n]^4 whose orientation is not neither, in
    lexicographic order, repeated entries included."""
    return tuple(
        quad
        for quad in itertools.product(range(n), repeat=4)
        if _tag(quad).oriented
    )


def equivalence_walk(n):
    """The equivalence suite's tally by the full walk: the claim table of
    every one of the n^n maps, in lexicographic order, each with its own
    findings keyed by its image tuple; the suite reaches the same tally
    through the maps' value patterns.  Each sanctioned gap is one
    ``(claim, imgs)`` row of ``gap_maps``, in the same order, and each
    claim's digested row is read off those rows: one count per map, and
    the set of the maps' value patterns."""
    tally = _new_tally()
    tally["gap_maps"] = []
    for imgs in itertools.product(range(n), repeat=n):
        _, checked, findings = _claims(imgs)
        tally["checks"].update(checked)
        for claim, detail, sanctioned in findings:
            if sanctioned:
                tally["gap_maps"].append((claim, imgs))
            else:
                _fail(tally, claim, imgs, ",".join(map(str, imgs)), detail)
    for claim, imgs in tally["gap_maps"]:
        values = sorted(set(imgs))
        tally["sanctioned"][claim] += 1
        tally["gaps"].setdefault(claim, set()).add(tuple(map(values.index, imgs)))
    return tally


def spread(pattern: tuple[int, ...], n: int) -> Iterator[tuple[int, ...]]:
    """The maps of [n] a walked pattern of rank r stands for: each pattern
    of its :func:`orbit`, in each of its r value rotations v → (v + s) mod
    r, read through every r-point image set."""
    rank = max(pattern) + 1
    for member in orbit(pattern):
        for shift in range(rank):
            rotated = [(v + shift) % rank for v in member]
            for values in itertools.combinations(range(n), rank):
                yield tuple(map(values.__getitem__, rotated))


def dihedral_orbits(n):
    """The orbits of the patterns of [n] that start with 0 (value set
    exactly 0..r - 1), each a frozenset: the closure of one pattern under a
    position rotation by one, the position reversal with the value
    reflection v → r − 1 − v and the value rotation v → (v + 1) mod r,
    restricted to the patterns that start with 0, by a search over all the
    patterns it reaches."""
    orbits, seen = [], set()
    for tail in itertools.product(range(n), repeat=n - 1):
        start = (0,) + tail
        rank = max(start) + 1
        if start in seen or set(start) != set(range(rank)):
            continue
        found, todo = {start}, [start]
        while todo:
            p = todo.pop()
            for q in (
                p[1:] + p[:1],
                tuple(rank - 1 - v for v in reversed(p)),
                tuple((v + 1) % rank for v in p),
            ):
                if q not in found:
                    found.add(q)
                    todo.append(q)
        orbit = frozenset(p for p in found if p[0] == 0)
        seen |= orbit
        orbits.append(orbit)
    return orbits


def partitions(n, rank):
    """Every set partition of n positions into ``rank`` blocks, as restricted
    growth strings in lexicographic order; ``patterns._partitions`` yields
    those of them a rotation may leave least."""
    rows = [((0,), 1)]  # (blocks so far, blocks used)
    for left in range(n - 2, -1, -1):  # positions still to place after this one
        rows = [
            (blocks + (b,), max(used, b + 1))
            for blocks, used in rows
            for b in range(min(used + 1, rank))
            if max(used, b + 1) + left >= rank
        ]
    return [blocks for blocks, _ in rows]


def partition_stabiliser(blocks):
    """The moves of ``patterns._moves`` that give the restricted growth
    string ``blocks`` back once its blocks are renumbered by first use, the
    identity first, or None if a move gives a smaller one: each move taken
    whole, its value rotation and reflection included."""
    found = []
    for k, moved in enumerate(patterns._moves(blocks)):
        first = {}
        moved = tuple(first.setdefault(b, len(first)) for b in moved)
        if moved < blocks:
            return None
        if moved == blocks:
            found.append(k)
    return found


def oriented_walk(n, k):
    """Every ``(items, tag)`` over [n] of length k whose kernel tag is not
    neither, by walking all n^k tuples in lexicographic order."""
    for items in itertools.product(range(n), repeat=k):
        tag = _tag(items)
        if tag.oriented:
            yield items, tag


def order_sides(n):
    """The circular order's side table by its closed form: ``L[w][y]``
    holds the values outside [w, y] if w <= y, else those strictly
    between, so ``L[v][v]`` holds every value but v."""
    full = (1 << n) - 1
    return [
        [full & ~((2 << y) - (1 << w)) if w <= y else (1 << w) - (2 << y) for y in range(n)]
        for w in range(n)
    ]


def _cross_sign(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(p, q, r):
    # r is assumed collinear with p-q; test the bounding box.
    return min(p[0], q[0]) <= r[0] <= max(p[0], q[0]) and min(p[1], q[1]) <= r[1] <= max(
        p[1], q[1]
    )


def segments_intersect(p1, q1, p2, q2):
    """Closed-segment intersection over exact integers; degenerate segments
    allowed.  The general reference for the geometric chord rule, with its
    own cross product: collinear overlaps, which never arise between
    placed points, are decided here too."""
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


def chord_pair(n, quad):
    """The counterexample ``has_chord_property`` reports when ``quad`` is
    the first failing sorted quadruple: the source chords {a, c}, {b, d}."""
    if quad is None:
        return None
    a, b, c, d = quad
    return Chord(n, a, c), Chord(n, b, d)


def product_set(left, right):
    """Every product "a then b" for a in ``left`` and b in ``right``, one
    ``itemgetter(*a)(b)`` per pair (a bare entry when n = 1)."""
    out = set()
    for a in left:
        row = map(itemgetter(*a), right)
        out.update(row if len(a) > 1 else ((v,) for v in row))
    return out


def identity_tally(n):
    """The identity suite's tally from the products of whole classes: OP_n
    and OR_n as sets of image tuples, each product set composed over every
    member pair, each map one check and one offender, the least offending
    map the witness.  The suite reaches the same tally through patterns."""
    tally = _new_tally()
    op_set, or_set = _classes(n)
    p_set = op_set | or_set
    low_rank_p = frozenset(t for t in p_set if len(set(t)) <= 2)
    op_split, or_split = split(op_set), split(or_set)
    op_op = _product_set(op_split, op_set)
    or_or = _product_set(or_split, or_set)
    or_op = _product_set(or_split, op_set)
    op_or = _product_set(op_split, or_set)
    n_op, n_or = len(op_set), len(or_set)
    p_p = op_op | or_or | or_op | op_or
    for claim, offenders, checks in (
        ("or-or-equals-op", or_or ^ op_set, n_or * n_or),
        ("or-op-equals-or", or_op ^ or_set, n_or * n_op),
        ("op-or-equals-or", op_or ^ or_set, n_op * n_or),
        ("op-closed", op_op - op_set, n_op * n_op),
        ("p-closed", p_p - p_set, len(p_p)),
        ("op-and-or-is-low-rank-p", (op_set & or_set) ^ low_rank_p, len(p_set)),
    ):
        tally["checks"][claim] += checks
        if offenders:
            witness = ",".join(map(str, min(offenders)))
            _fail(tally, claim, (), witness, f"{len(offenders)} offending map(s)")
    return tally


def lemma_failures(n, pool):
    """The lemma's image-orientation claims by the plain double loop: every
    map of [n] whose image list is uniquely oriented (a member of OP_n or
    OR_n of rank >= 3), in index order, against every ``(items, tag)`` of
    ``pool`` in order.  Returns the checks per claim and, per failing claim,
    ``(witness, count)`` with the first failing pair as the witness."""
    checks, failures = {}, {}
    for imgs in itertools.product(range(n), repeat=n):
        member = _tag(imgs)
        if not member.uniquely_oriented:
            continue
        preserving = member is Orientation.CYCLIC_ONLY
        claim = "image-orientation-preserved" if preserving else "image-orientation-reversed"
        for items, tag in pool:
            checks[claim] = checks.get(claim, 0) + 1
            image = tuple(imgs[x] for x in items)
            want = tag if preserving else tag.swapped()
            if len(set(image)) >= 3 and _tag(image) is not want:
                first = f"map={','.join(map(str, imgs))};seq={','.join(map(str, items))}"
                witness, count = failures.get(claim, (first, 0))
                failures[claim] = (witness, count + 1)
    return checks, failures


def subsequence_failures(pool, tag):
    """Subsequence inheritance by the per-pair loop: every nonempty mask of
    every ``(items, want)`` of ``pool``, in order (bit b keeps item b), its
    part tagged by the kernel ``tag``.  Returns the number of checks and,
    when some part loses an orientation ``want`` admits, ``(witness,
    count)`` with the first failing pair as the witness, else None."""
    checks, failure = 0, None
    for items, want in pool:
        for mask in range(1, 1 << len(items)):
            checks += 1
            got = tag(tuple(x for b, x in enumerate(items) if mask >> b & 1))
            if (want.admits_cyclic and not got.admits_cyclic) or (
                want.admits_anti_cyclic and not got.admits_anti_cyclic
            ):
                first = f"seq={','.join(map(str, items))};mask={mask}"
                witness, count = failure or (first, 0)
                failure = (witness, count + 1)
    return checks, failure
