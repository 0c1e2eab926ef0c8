"""Exhaustive desk-scale verification of the orientation-class claims.

Each suite enumerates a finite universe (all n^n self-maps, all product
pairs, all short oriented sequences), checks one family of claims, and
returns a :class:`SuiteReport`.  Genuine failures land in ``violations``;
the known rank <= 2 exceptions to the literal triple statement are kept
apart in ``sanctioned_exceptions``, one digested row per literal claim, so
they stay visible without failing the run.

The equivalence suite tallies the per-map claim table of
:mod:`cyclorient.claims` over all n^n maps, each through its value pattern
(:mod:`cyclorient.patterns`): the claims read image values only by
comparing them, so a map of rank r has the claim rows of the pattern that
replaces each image by its rank in the image set.  They depend only on the
cyclic order of those values, which the rotation v → (v + 1) mod r keeps,
and do not change under the dihedral moves of the positions (a reversal
taken with the value reflection v → r − 1 − v), so one pattern that starts
with 0 is walked per orbit (134 of the 1,082 such patterns, and of the
4,683 in all, at n = 6), counting for the |orbit|·r·C(n, r) maps of its
orbit's patterns in their r rotations; a gap adds those patterns, not
their maps, to its claim's row.  The package (on first use of a suite
name) and the ``verify`` and ``count`` verbs import this module when they
need it, so per-map callers never compile it.

Reports are deterministic: per-claim results keep the lexicographically
smallest witness, whatever order the maps are visited in.  From n = 9 the
patterns are split by their rank and run on several workers; merging
partial tallies is associative and commutative, so multi-worker runs
reproduce the single-worker report byte for byte (timings excluded —
``elapsed`` never enters the machine format).
"""

from __future__ import annotations

import itertools
import math
import os
import time
from collections import Counter
from collections.abc import Collection, Iterable, Iterator

from . import patterns
from .claims import _GAP_CLAIMS, _ROUTE_CLAIMS, _WITNESS_CLAIMS, SUITES, _claims
from .sequences import Orientation, _Record, _tag, _within

# One rule sets the size bounds: one run at the bound costs about 1 s and
# 100 MB on a 2-vCPU x86-64 box.  The equivalence suite is past it at
# n = 10 (8-9 s on two workers); the identity and lemma suites share its
# bound, at n = 10 0.9-1.4 s at 26 MB and, at max-len 8, 0.3-0.5 s at 54 MB.
EQUIVALENCE_MAX_N = 10
COUNT_MAX_N = 14  # count_classes(14): 0.7-1.2 s at 73 MB
# Below length 3 the lemma constrains no sequence: the suite would check nothing.
LEMMA_MIN_LEN = 3
LEMMA_MAX_LEN = 8  # at n = 10, max-len 9 takes 1.3-1.6 s at 163 MB


class Violation(_Record):
    """A violated claim, carrying its lexicographically first witness."""

    claim: str
    witness: str
    detail: str
    count: int


class SanctionedException(_Record):
    """The maps exempted from one literal triple claim (rank <= 2 regime): their
    count, the least, and their sorted rank-2 value patterns, C(n, 2) maps each."""

    claim: str
    count: int
    witness: str
    patterns: tuple[tuple[int, ...], ...]


class ClaimResult(_Record):
    claim: str
    checks: int
    violations: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


class SuiteReport(_Record):
    suite: str
    n: int
    checks_run: int
    claims: tuple[ClaimResult, ...]
    violations: tuple[Violation, ...]
    sanctioned_exceptions: tuple[SanctionedException, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.violations


class ClassCounts(_Record):
    """Exact sizes of the orientation classes inside the n^n self-maps."""

    n: int
    total: int
    op: int
    or_: int
    p: int
    op_and_or: int
    low_rank_in_p: int

    def invariant_failures(self) -> tuple[str, ...]:
        """One line per count that breaks an identity, including the closed
        forms of :func:`_closed_forms` and |P_n| = 2|OP_n| − |OP_n ∩ OR_n|."""
        n, op, or_, p, both = self.n, self.op, self.or_, self.p, self.op_and_or
        op_form, both_form = _closed_forms(n)
        wants = (
            ("op", op, {"closed form": op_form}),
            ("or", or_, {"closed form": op_form}),
            ("p", p, {"op+or-op_and_or": op + or_ - both, "closed form": 2 * op_form - both_form}),
            ("op_and_or", both, {"low_rank_in_p": self.low_rank_in_p, "closed form": both_form}),
        )
        problems = []
        for name, value, expected in wants:
            wrong = [f"{label}={want}" for label, want in expected.items() if want != value]
            if wrong:
                problems.append(f"{name}={value} != " + ", ".join(wrong))
        return tuple(problems)


def _closed_forms(n: int, k: int | None = None) -> tuple[int, int]:
    """The numbers of cyclic and of both-oriented length-k sequences over
    [n], k·C(n+k−1, k) − (k−1)n and n + C(n, 2)·k(k−1), so 2·cyclic − both
    are oriented.  At k = n (the default) they are |OP_n| = |OR_n| =
    n·C(2n−1, n−1) − n(n−1) (Catarino & Higgins, Semigroup Forum 58, 1999)
    and |OP_n ∩ OR_n|: counts no membership route feeds."""
    k = n if k is None else k
    return k * math.comb(n + k - 1, k) - (k - 1) * n, n + math.comb(n, 2) * k * (k - 1)


def _tagged(cyclic: set[tuple[int, ...]]) -> Iterator[tuple[tuple[int, ...], Orientation]]:
    """Yield ``(items, tag)`` for each of the ``cyclic`` sequences and their
    reversals, lexicographically, with its :class:`Orientation`."""
    anti_cyclic = {items[::-1] for items in cyclic}
    for items in sorted(cyclic | anti_cyclic):
        tag = Orientation.BOTH if items in anti_cyclic else Orientation.CYCLIC_ONLY
        yield items, tag if items in cyclic else Orientation.ANTI_CYCLIC_ONLY


def _weight(n: int, seqs: Iterable[tuple[int, ...]]) -> int:
    """The number of maps, or sequences, over [n] that the value patterns
    ``seqs`` stand for: C(n, r) for each pattern of rank r."""
    return sum(math.comb(n, max(q) + 1) for q in seqs)


# ----------------------------------------------------------------------
# Tally plumbing: plain dicts so partial results cross process boundaries.
# ----------------------------------------------------------------------


def _new_tally() -> dict:
    # "sanctioned" counts each gap claim's maps, "gaps" lists their value patterns.
    return {"checks": Counter(), "violations": {}, "sanctioned": Counter(), "gaps": {}}


def _fail(
    tally: dict, claim: str, key: tuple, witness: str, detail: str, count: int = 1
) -> None:
    """Record ``count`` failed checks; the claim keeps the witness of its
    least ``key``: the failing map's image tuple in the equivalence suite
    (at one n, the tuples sort in the n^n index order of
    :func:`~cyclorient.mappings.enumerate_all`), ``()`` where the first
    failure wins, and ``(n,)`` for a gate, which sorts past every map of [n].

    Only failures reach here, so witness and detail text is built only for
    them; suites count their checks in bulk."""
    cur = tally["violations"].get(claim)
    if cur is None:
        tally["violations"][claim] = [key, witness, detail, count]
    else:
        cur[3] += count
        if key < cur[0]:
            cur[0], cur[1], cur[2] = key, witness, detail


def _merge_tallies(parts: list[dict]) -> dict:
    total = _new_tally()
    for part in parts:
        total["checks"].update(part["checks"])
        for claim, (key, wit, det, cnt) in part["violations"].items():
            _fail(total, claim, key, wit, det, cnt)
        total["sanctioned"].update(part["sanctioned"])
        for claim, shapes in part["gaps"].items():
            total["gaps"].setdefault(claim, []).extend(shapes)
    return total


def _finish(suite: str, n: int, tally: dict, started: float) -> SuiteReport:
    failed = tally["violations"]
    claims = tuple(
        ClaimResult(claim, checks, failed[claim][3] if claim in failed else 0)
        for claim, checks in sorted(tally["checks"].items())
    )
    violations = tuple(
        Violation(claim, wit, det, cnt) for claim, (_, wit, det, cnt) in sorted(failed.items())
    )
    sanctioned = tuple(  # the least gap map is the least pattern, read at {0, 1}
        SanctionedException(
            claim, tally["sanctioned"][claim], ",".join(map(str, min(gaps))), tuple(sorted(gaps))
        )
        for claim, gaps in sorted(tally["gaps"].items())
    )
    return SuiteReport(
        suite=suite,
        n=n,
        checks_run=sum(tally["checks"].values()),
        claims=claims,
        violations=violations,
        sanctioned_exceptions=sanctioned,
        elapsed=time.perf_counter() - started,
    )


# ----------------------------------------------------------------------
# Equivalence suite: the per-map claim table over all n^n maps.
# ----------------------------------------------------------------------


def _equivalence_range(args: tuple[int, int]) -> dict:
    """Tally the claim table of every map of [n] of rank ``rank``, one
    :func:`_claims` call per pattern :func:`patterns.walk` yields, its
    checked claims counted by its weight |orbit|·r·C(n, r): the claims
    depend only on the cyclic order of the image values, up to the dihedral
    moves of :mod:`cyclorient.patterns`, so each walked pattern stands for
    its orbit's patterns that start with 0, each in its r value rotations
    read through the C(n, r) image sets.  A failure's witness is the least
    pattern of the orbit with that failure, with its own detail, found by a
    :func:`_claims` call on each orbit pattern in order; that is the
    lexicographically least map with the failure: a rotated map starts
    above 0, and an unrotated one is entrywise at least its pattern.  Only
    a failure pays for this, so the report does not depend on which
    pattern stands for the orbit.  A sanctioned gap adds its weight to its
    claim's count and those patterns, found once for both literal claims,
    to the claim's patterns; no map is built.
    Patterns with the same checked claims (at most five lists) are counted
    together and expanded into checks once per job, and the job gates its
    counts at its rank (:func:`_check_tallies`)."""
    n, rank = args
    tally = _new_tally()
    counts: dict[tuple[str, ...], int] = {}
    for pattern, weight in patterns.walk(n, rank):
        _, checked, findings = _claims(pattern)
        counts[checked] = counts.get(checked, 0) + weight
        shapes = None  # a gap pattern's value patterns, found once for both literal claims
        for claim, detail, sanctioned in findings:
            if sanctioned:
                shapes = shapes or [
                    tuple([(v + s) % rank for v in p])
                    for p in patterns.orbit(pattern) for s in range(rank)
                ]
                tally["sanctioned"][claim] += weight
                tally["gaps"].setdefault(claim, []).extend(shapes)
            else:
                member, detail = next(
                    (member, detail)
                    for member in sorted(patterns.orbit(pattern))
                    for found, detail, _ in _claims(member)[2]
                    if found == claim
                )
                _fail(tally, claim, member, ",".join(map(str, member)), detail, weight)
    for checked, count in counts.items():
        for claim in checked:
            tally["checks"][claim] += count
    _check_tallies(n, tally, rank)
    return tally


def ProcessPoolExecutor(max_workers: int):  # noqa: N802 - stands in for the class
    # Imported on first use: its import, which loads multiprocessing, stays out
    # of `count`, of `verify` runs that start no pool and of the suites' set-up.
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def _worker_count(workers: int) -> int:
    """A validated worker count, clamped to the machine's CPU count."""
    return min(_within(workers, 1, None, "thread count"), os.cpu_count() or 1)


def equivalence_suite(n: int, workers: int = 1) -> SuiteReport:
    """Check, for every self-map of [n], that all membership routes agree
    and that witness extraction succeeds wherever a witness must exist.

    The claims are those of :func:`cross_check`, so the chord property is
    checked by exact geometry at every n, and the witness and gap tallies
    must match their closed forms (:func:`_check_tallies`), at each rank
    and over all maps.  Each map is covered through its value pattern,
    which has the same claim rows, and each pattern through the one
    pattern walked for its dihedral orbit (:mod:`cyclorient.patterns`): one
    :func:`_claims` call per orbit of rank r, counted for its
    |orbit|·r·C(n, r) maps (:func:`_equivalence_range`).  There is one job
    per rank, the largest first, run in process at one worker or below
    n = 9, and otherwise on a pool of ``workers`` processes: on a 2-vCPU
    box two workers took twice as long as one at n = 7, as long at n = 8,
    and a fifth less at n = 9.
    ``workers`` must be at least 1 and is clamped to ``os.cpu_count()``;
    n must lie within 1..``EQUIVALENCE_MAX_N`` (10), checked before any
    pattern is walked.
    """
    n = _within(n, 1, EQUIVALENCE_MAX_N, "equivalence suite n")
    workers = _worker_count(workers)
    started = time.perf_counter()
    jobs = [(n, rank) for rank in range(n, 0, -1)]
    if workers <= 1 or n < 9:
        parts = list(map(_equivalence_range, jobs))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_equivalence_range, jobs))
    tally = _merge_tallies(parts)
    _check_tallies(n, tally)
    return _finish("equivalence", n, tally, started)


def _check_tallies(n: int, tally: dict, rank: int | None = None) -> None:
    """Fail each equivalence tally that misses its closed form, which no
    route feeds: each route claim is checked on every map, every map outside
    P_n has a quadruple witness, and every map outside OP_n (or OR_n) a
    triple witness, except the sanctioned gaps, the maps of rank 2 outside
    the class.  Over all n^n maps (``rank`` None), |OP_n| and |P_n| =
    2|OP_n| − |OP_n ∩ OR_n| are those of :func:`_closed_forms`, with
    C(n, 2)(2^n − 2 − n(n−1)) gaps.  At one rank r, as one job's tally,
    there are C(n, r)·r!·S(n, r) maps (r!·S(n, r) is the number of maps of
    [n] onto r values, Σ_j (−1)^j C(r, j)(r − j)^n), and r·C(n, r)² members
    of OP_n (n at r = 1); P_n holds twice as many at r ≥ 3, where OP_n and
    OR_n are disjoint, and the same ones at r ≤ 2, where every member lies
    in both.  A gap claim's count must also be the maps its distinct
    patterns stand for (:func:`_weight`)."""
    counts = tally["checks"] + tally["sanctioned"]
    if rank is None:
        maps, (op, both), where = n**n, _closed_forms(n), ""
        p, gaps = 2 * op - both, math.comb(n, 2) * (2**n - 2 - n * (n - 1))
    else:
        onto = sum((-1) ** j * math.comb(rank, j) * (rank - j) ** n for j in range(rank + 1))
        maps, where = math.comb(n, rank) * onto, f" at rank {rank}"
        op = rank * math.comb(n, rank) ** 2 if rank > 1 else n
        p, gaps = (2 * op, 0) if rank > 2 else (op, maps - op)
    wants = dict.fromkeys(_ROUTE_CLAIMS, maps) | dict.fromkeys(_GAP_CLAIMS, gaps)
    for claim, _, mode in _WITNESS_CLAIMS:
        wants[claim] = maps - (p if mode is None else op + gaps)
    _gate(tally, n, counts, wants, where)
    for claim, shapes in tally["gaps"].items():
        _gate(tally, n, counts, {claim: _weight(n, set(shapes))}, f" from its patterns{where}")


def _gate(tally: dict, n: int, counts: Counter, wants: dict, where: str = "") -> None:
    """Fail each claim whose count misses the closed form ``wants`` gives
    it, the detail ending in ``where``."""
    for claim, want in wants.items():
        if counts[claim] != want:
            # Keyed (n,), past every map of [n], so a failing map stays the witness.
            detail = f"{counts[claim]} counted but the closed form gives {want}{where}"
            _fail(tally, claim, (n,), "closed-form", detail)


# ----------------------------------------------------------------------
# Identity suite: closure identities of the classes as product sets.
# ----------------------------------------------------------------------


def _compose(left: Iterable[tuple[int, ...]], right: Collection[tuple[int, ...]]) -> set:
    """Every q∘p, p in ``left`` and q in ``right``: p then q is (q[p[0]],
    ..., q[p[k-1]]), so each p indexes positions of every q.  ``right`` is
    held as columns, and each p composes with all of it at once as the
    rows of its columns zipped in p's order.  An empty ``right`` gives
    the empty set."""
    if not right:
        return set()
    columns = list(zip(*right))
    out = set()
    for p in left:
        out.update(zip(*map(columns.__getitem__, p)))
    return out


def identity_suite(n: int) -> SuiteReport:
    """Verify the closure identities of the orientation classes as literal
    set identities of value patterns.

    A rank-r member a, image set S and pattern p, then b, is b restricted
    to S read at p.  The restrictions of a class's members to any r
    positions are exactly its length-r sequences over [n]: a subsequence of
    a cyclic sequence is cyclic, and a cyclic r-sequence extends to a member
    by constant runs.  Each is its image set T read through a class pattern
    q of length r, so a product set is the maps T read through q∘p, p a
    left-class pattern of length n and rank r, q a right-class one of length
    r (:func:`patterns.cyclic`; OR's are the reversals), each class's
    length-n patterns grouped by rank once and each group composed by
    :func:`_compose`.  So each identity is one of pattern sets,
    each pattern weighing the C(n, rank) maps it stands for in every check
    and offender count: an equality holds when its symmetric difference is
    empty, and an inclusion when its difference is.  The witness is the
    least offending pattern, the least map it stands for.  The product
    claims must count |OP_n|² checks and ``op-and-or-is-low-rank-p`` |P_n|
    (:func:`_closed_forms`, :func:`_gate`).  n must lie within
    1..``EQUIVALENCE_MAX_N`` (10), checked before any pattern is built;
    tier-1 checks the report against the products of whole classes up to
    n = 6, and CI at n = 7.  n = 10 takes 0.9-1.4 s at 26 MB.
    """
    n = _within(n, 1, EQUIVALENCE_MAX_N, "identity suite n")
    started = time.perf_counter()
    tally = _new_tally()

    # OP's and OR's patterns of each length r <= n.
    sized = {r: (c, {q[::-1] for q in c}) for r in range(1, n + 1) for c in [patterns.cyclic(r)]}
    op_set, or_set = sized[n]
    p_set = op_set | or_set
    low_rank_p = {p for p in p_set if max(p) <= 1}
    # Each class's length-n patterns grouped by rank once; a reversal keeps its rank.
    op_ranks: dict[int, list[tuple[int, ...]]] = {}
    for p in op_set:
        op_ranks.setdefault(max(p) + 1, []).append(p)
    or_ranks = {r: [p[::-1] for p in group] for r, group in op_ranks.items()}

    def product(left: dict, right: int) -> set:
        # Each rank-r group of ``left`` composed with the length-r patterns
        # of class ``right`` (0 for OP, 1 for OR).
        out = set()
        for r, group in left.items():
            out |= _compose(group, sized[r][right])
        return out

    op_op, or_or = product(op_ranks, 0), product(or_ranks, 1)
    or_op, op_or = product(or_ranks, 0), product(op_ranks, 1)
    n_op, n_or = _weight(n, op_set), _weight(n, or_set)
    # P = OP u OR, so the product P.P is the union of the four products.
    p_p = op_op | or_or | or_op | op_or
    for claim, offenders, checks in (
        ("or-or-equals-op", or_or ^ op_set, n_or * n_or),
        ("or-op-equals-or", or_op ^ or_set, n_or * n_op),
        ("op-or-equals-or", op_or ^ or_set, n_op * n_or),
        ("op-closed", op_op - op_set, n_op * n_op),
        ("p-closed", p_p - p_set, _weight(n, p_p)),
        ("op-and-or-is-low-rank-p", (op_set & or_set) ^ low_rank_p, _weight(n, p_set)),
    ):
        tally["checks"][claim] += checks
        if offenders:
            witness = ",".join(map(str, min(offenders)))
            _fail(tally, claim, (), witness, f"{_weight(n, offenders)} offending map(s)")
    op, both = _closed_forms(n)
    products = ("or-or-equals-op", "or-op-equals-or", "op-or-equals-or", "op-closed")
    wants = dict.fromkeys(products, op * op) | {"op-and-or-is-low-rank-p": 2 * op - both}
    _gate(tally, n, tally["checks"], wants)
    return _finish("identity", n, tally, started)


# ----------------------------------------------------------------------
# Class counts.
# ----------------------------------------------------------------------


def count_classes(n: int) -> ClassCounts:
    """Exact class cardinalities by pattern weights, with no member built:
    a map of rank r is in OP_n (OR_n) when its value pattern is one of
    :func:`patterns.cyclic`'s (their reversals), so each count sums the
    C(n, r) maps of its patterns.  Tests check the counts against the
    per-map classifier and the member sets.  n must lie within
    1..``COUNT_MAX_N`` (14, 0.7-1.2 s at 73 MB), a bound of its own."""
    n = _within(n, 1, COUNT_MAX_N, "count n")
    op = patterns.cyclic(n)
    or_ = {q[::-1] for q in op}
    p = op | or_
    sizes = (op, or_, p, op & or_, {q for q in p if max(q) <= 1})
    return ClassCounts(n, n**n, *(_weight(n, seqs) for seqs in sizes))


# ----------------------------------------------------------------------
# Lemma suite: oriented sequences keep (or flip) orientation under members.
# ----------------------------------------------------------------------


def _oriented_pool(n: int, max_len: int) -> list[tuple[tuple[int, ...], Orientation, int]]:
    """The lemma pool as ``(q, tag, weight)`` rows: each oriented value
    pattern q of length 3..max_len and rank m <= n, by length and then
    lexicographically, from :func:`patterns.cyclic` and its reversals with
    no kernel call, weighing the C(n, m) pool sequences it stands for."""
    return [
        (q, tag, math.comb(n, max(q) + 1))
        for length in range(LEMMA_MIN_LEN, max_len + 1)
        for q, tag in _tagged({q for q in patterns.cyclic(length) if max(q) < n})
    ]


def _spread(rows: Iterable[tuple], n: int) -> list[tuple[tuple[int, ...], Orientation]]:
    """The ``(items, tag)`` pool sequences over [n] that the pattern ``rows``
    stand for, each r-point image set read through its rank-r pattern, in
    pool order: by length, then lexicographically."""
    spread = [
        (tuple(map(image.__getitem__, q)), tag)
        for q, tag, _ in rows
        for image in itertools.combinations(range(n), max(q) + 1)
    ]
    return sorted(spread, key=lambda row: (len(row[0]), row[0]))


def _masks(k: int) -> list[tuple[int, ...]]:
    """The position tuples of the masks m = 1..2^k − 1 of a length-k
    sequence: mask m keeps item b for each set bit b."""
    return [tuple(b for b in range(k) if m >> b & 1) for m in range(1, 1 << k)]


def _parts(q: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The distinct nonempty subsequences of ``q``: the parts its
    :func:`_masks` pick."""
    return {part for r in range(1, len(q) + 1) for part in itertools.combinations(q, r)}


def _loses(tag: Orientation, part: Orientation) -> bool:
    """Whether ``part`` lacks an orientation that ``tag`` admits."""
    return (tag.admits_cyclic and not part.admits_cyclic) or (
        tag.admits_anti_cyclic and not part.admits_anti_cyclic
    )


def lemma_suite(n: int, max_len: int = 4, sample_budget: int | None = None) -> SuiteReport:
    """Check, exhaustively, that members of rank >= 3 map every oriented
    sequence of length 3..max_len (within 3..8) over [n] to one of the same
    (preserving case) or opposite (reversing case) orientation whenever the
    image keeps three distinct values, and that every nonempty subsequence
    of such a sequence keeps each orientation the sequence admits.

    The pool is read as its oriented value patterns (:func:`_oriented_pool`):
    a row q of rank m stands for the C(n, m) sequences T∘q, T an m-point
    image set.  A member sends T∘q to its restriction to T read at q.  The
    class's restrictions to T are its length-m sequences over [n] (the
    restriction fact of :func:`identity_suite`); those of rank <= 2 leave
    fewer than three values, and each other one, a rank >= 3 member's, is a
    class pattern σ of length m and rank >= 3 then an increasing
    relabelling, which keeps every tag.  So a row offends an image claim
    exactly when some ``_tag(σ∘q)`` is not its tag (preserving) or its swap
    (reversing), σ from :func:`patterns.cyclic` for OP and their reversals
    for OR, each class checked on its own, its σ of each rank held as
    columns built once per claim; each distinct σ∘q is tagged once for
    both claims.  A mask picks T read at q's part, so each distinct part
    of the rows (:func:`_parts`) is tagged once, and inheritance is
    decided once per (row tag, part tag): a row fails when one of its
    parts has a tag that lacks an orientation the row's admits.  The limit: a
    kernel wrong only off these relabellings, as on (0, 4) alone at max_len
    4, passes.  Only a failing claim spreads its offending rows into
    sequences over [n] in pool order (:func:`_spread`) and walks their
    pairs: the class's rank >= 3 patterns of length n in index order, each
    counting for the C(n, r) members it stands for (the least failing
    member is a pattern), then the sequences, for an image claim; the
    sequences, then the masks, for inheritance.  The weights summed are the
    pool size, which must equal the oriented counts of :func:`_closed_forms`
    summed over its lengths k; each image count must equal
    (|OP_n| − |OP_n ∩ OR_n|)·|pool|, and the subsequence checks the pool
    weighted by 2^k − 1.  ``sample_budget`` is accepted and ignored: the
    suite once sampled the pool.  n must lie within 1..``EQUIVALENCE_MAX_N``
    (10); n = 10 at max_len 8 takes 0.3-0.5 s at 54 MB.
    """
    n = _within(n, 1, EQUIVALENCE_MAX_N, "lemma suite n")
    max_len = _within(max_len, LEMMA_MIN_LEN, LEMMA_MAX_LEN, "lemma max length")
    started = time.perf_counter()
    tally = _new_tally()
    pool = _oriented_pool(n, max_len)
    size = sum(weight for _, _, weight in pool)
    # Each image claim scales with the pool size, so only this gate sees a
    # pool that drops or repeats a sequence.
    sizes = {}  # length k -> the number of oriented length-k sequences
    for k in range(LEMMA_MIN_LEN, max_len + 1):
        cyclic, both = _closed_forms(n, k)
        sizes[k] = 2 * cyclic - both
    _gate(tally, n, {"oriented-pool": size}, {"oriented-pool": sum(sizes.values())})
    checks = tally["checks"]
    op, both = _closed_forms(n)
    # OP's rank >= 3 patterns of each length m a pool row has; at m = n, the members'.
    sized = {
        m: [s for s in patterns.cyclic(m) if max(s) >= 2]
        for m in {max(q) + 1 for q, _, _ in pool} | {n}
    }
    ranked = _weight(n, sized[n])  # the rank >= 3 members of each class; reversal keeps rank
    # Each rank's patterns as columns, so a row q composes with all of them
    # as the rows of its columns zipped in q's order (as in :func:`_compose`);
    # the reversals' columns are the same ones in reverse order.
    columns = {m: list(zip(*c)) for m, c in sized.items() if c}
    tags: dict[tuple[int, ...], Orientation] = {}  # each σ∘q tagged once, for both claims
    for flip, claim in enumerate(("image-orientation-preserved", "image-orientation-reversed")):
        if ranked:  # no claim line for a class without rank >= 3 members
            checks[claim] += ranked * size
        table = {m: c[::-1] if flip else c for m, c in columns.items()}
        bad = []
        for row in pool:
            q, tag, _ = row
            cols = table.get(max(q) + 1)
            if cols is None:
                continue
            want = tag.swapped() if flip else tag
            for image in zip(*map(cols.__getitem__, q)):
                got = tags.get(image)
                if got is None:
                    got = tags[image] = _tag(image)
                if got is not want:
                    bad.append(row)
                    break
        # Only a failing claim walks its (pattern, sequence) pairs, the
        # members reversed for OR and read in index order.
        seqs = _spread(bad, n)
        for pattern in sorted(s[::-1] if flip else s for s in sized[n]) if bad else ():
            weight = math.comb(n, max(pattern) + 1)
            for items, tag in seqs:
                image = tuple(map(pattern.__getitem__, items))
                if len(set(image)) >= 3 and _tag(image) is not (tag.swapped() if flip else tag):
                    witness = f"map={','.join(map(str, pattern))};seq={','.join(map(str, items))}"
                    detail = "image orientation does not match the source"
                    _fail(tally, claim, (), witness, detail, weight)
        _gate(tally, n, checks, {claim: (op - both) * size})

    # Subsequence inheritance, decided once per (row tag, part tag).
    parts = [_parts(q) for q, _, _ in pool]
    by_tag: dict[Orientation, set[tuple[int, ...]]] = {}  # the distinct parts by their tag
    for part in set().union(*parts):
        by_tag.setdefault(_tag(part), set()).add(part)
    lacking = {
        tag: set().union(*(found for got, found in by_tag.items() if _loses(tag, got)))
        for tag in {tag for _, tag, _ in pool}
    }
    bad = [row for row, found in zip(pool, parts) if not found.isdisjoint(lacking[row[1]])]
    checks["subsequence-inheritance"] += sum(weight * (2 ** len(q) - 1) for q, _, weight in pool)
    # Only a failing run walks its (sequence, mask) pairs, in pool order.
    masks = {k: _masks(k) for k in range(LEMMA_MIN_LEN, max_len + 1)}
    for items, tag in _spread(bad, n):
        for mask, positions in enumerate(masks[len(items)], 1):
            if _loses(tag, _tag(tuple(map(items.__getitem__, positions)))):
                witness = f"seq={','.join(map(str, items))};mask={mask}"
                detail = "subsequence lost an orientation admitted by the full sequence"
                _fail(tally, "subsequence-inheritance", (), witness, detail)
    # A pool of the wrong size has failed its own gate; this one sees a pool
    # of the right size with the wrong lengths, or a loop that miscounts.
    if size == sum(sizes.values()):
        want = sum(count * (2**k - 1) for k, count in sizes.items())
        _gate(tally, n, checks, {"subsequence-inheritance": want})
    return _finish("lemma", n, tally, started)


# ----------------------------------------------------------------------
# Orchestration and report serialization.
# ----------------------------------------------------------------------


def run_verify(
    n_max: int,
    suites: Iterable[str] = SUITES,
    workers: int = 1,
    lemma_max_len: int = 4,
) -> list[SuiteReport]:
    """Run the selected suites for n = 1..n_max and return their reports.

    One table holds a ``(suite, runner)`` row per suite, in ``SUITES``
    order, and each selected suite runs for every n = 1..n_max, so n_max
    must lie within 1..``EQUIVALENCE_MAX_N`` (10), the bound every suite
    shares, whatever the selection.  The lemma suite checks every member
    against every oriented sequence of length 3..``lemma_max_len`` (within
    3..8).  Every argument is checked before any suite runs, each by one
    bound check that names it.
    """
    n_max = _within(n_max, 1, EQUIVALENCE_MAX_N, "n_max")
    if isinstance(suites, str):
        raise ValueError(f"suites must be a sequence of suite names, not the string {suites!r}")
    try:
        names = iter(suites)
    except TypeError:
        raise ValueError(f"suites must be an iterable of suite names, got {suites!r}") from None
    suites = tuple(names)
    if not suites:
        raise ValueError(f"no suite selected; choose from {SUITES}")
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s) {unknown}; choose from {SUITES}")
    workers = _worker_count(workers)
    max_len = _within(lemma_max_len, LEMMA_MIN_LEN, LEMMA_MAX_LEN, "lemma max length")
    table = (
        ("equivalence", lambda n: equivalence_suite(n, workers=workers)),
        ("identity", identity_suite),
        ("lemma", lambda n: lemma_suite(n, max_len=max_len)),
    )
    return [runner(n) for suite, runner in table if suite in suites for n in range(1, n_max + 1)]


def _token(text: str) -> str:
    """Collapse free text to a single machine-format token."""
    return "-".join(text.split()) if text else "-"


def format_machine(reports: list[SuiteReport]) -> str:
    """Line-oriented key=value serialization; stable across runs and worker
    counts (timings are deliberately excluded).  A ``gaps`` line hashes its
    sorted patterns, each as comma-separated values and a newline."""
    # Imported here, not by the suites: loading OpenSSL adds about 3.6 MB to
    # a process's peak RSS, which a run that writes no report never needs.
    import hashlib

    lines = []
    for r in reports:
        total = sum(v.count for v in r.violations)
        lines.append(
            f"report suite={r.suite} n={r.n} checks={r.checks_run}"
            f" violations={total} sanctioned={sum(s.count for s in r.sanctioned_exceptions)}"
        )
        for c in r.claims:
            status = "pass" if c.passed else "fail"
            lines.append(
                f"claim suite={r.suite} n={r.n} claim={c.claim}"
                f" checks={c.checks} violations={c.violations} status={status}"
            )
        for s in r.sanctioned_exceptions:
            text = "".join(",".join(map(str, p)) + "\n" for p in s.patterns)
            lines.append(
                f"gaps suite={r.suite} n={r.n} claim={s.claim} count={s.count}"
                f" patterns={len(s.patterns)} least={s.witness}"
                f" sha256={hashlib.sha256(text.encode()).hexdigest()}"
            )
        for v in r.violations:
            lines.append(
                f"violation suite={r.suite} n={r.n} claim={v.claim}"
                f" witness={v.witness} count={v.count} detail={_token(v.detail)}"
            )
    return "\n".join(lines) + "\n"


def format_text(report: SuiteReport) -> str:
    """Human-readable report block."""
    verdict = "PASS" if report.passed else "FAIL"
    gaps = report.sanctioned_exceptions
    lines = [
        f"suite {report.suite}, n={report.n}: {verdict}"
        f" (checks={report.checks_run}, sanctioned={sum(s.count for s in gaps)},"
        f" {report.elapsed:.2f}s)"
    ]
    for c in report.claims:
        status = "pass" if c.passed else f"FAIL ({c.violations} violations)"
        lines.append(f"  {c.claim}: {status} [checks={c.checks}]")
    if gaps:
        summary = ", ".join(f"{s.claim}: {s.count}" for s in gaps)
        lines.append(f"  sanctioned exceptions ({summary}), e.g. {gaps[0].witness}")
    for v in report.violations:
        lines.append(
            f"  VIOLATION {v.claim}: witness={v.witness} count={v.count} ({v.detail})"
        )
    return "\n".join(lines)
