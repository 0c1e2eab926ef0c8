"""Exhaustive desk-scale verification of the orientation-class claims.

Each suite enumerates a finite universe (all n^n self-maps, all product
pairs, all short oriented sequences), checks one family of claims, and
returns a :class:`SuiteReport`.  Genuine failures land in ``violations``;
the known rank <= 2 exceptions to the literal triple statement are listed
separately as ``sanctioned_exceptions`` so they stay visible without
failing the run.

The per-map claim table, :func:`cross_check`, sits here above the routes
it checks and spells every claim name; the equivalence suite tallies the
same table over all n^n maps.

Reports are deterministic: enumeration is lexicographic and per-claim
results keep the lexicographically smallest witness.  The map enumeration
may be split into contiguous index ranges and run on several workers;
merging partial tallies is associative and commutative, so multi-worker
runs reproduce the single-worker report byte for byte (timings excluded —
``elapsed`` never enters the machine format).
"""

from __future__ import annotations

import itertools
import math
import os
import time
from collections import Counter
from collections.abc import Iterator
from operator import itemgetter, neg

from . import chords, membership, witnesses
from .mappings import Mapping, mapping_count
from .membership import TRIPLE_MODES, MembershipReport, _images_after
from .sequences import _TAGS, Orientation, _points, _Record, _steps, _tag, _within

SUITES = ("equivalence", "identity", "lemma")

EQUIVALENCE_MAX_N = 8
IDENTITY_MAX_N = 5
LEMMA_MAX_N = 6
# Below length 3 the lemma constrains no sequence: the suite would check nothing.
LEMMA_MIN_LEN = 3
LEMMA_MAX_LEN = 6


class Violation(_Record):
    """A violated claim, carrying its lexicographically first witness."""

    claim: str
    witness: str
    detail: str
    count: int


class SanctionedException(_Record):
    """A map exempted from the literal triple statement (rank <= 2 regime)."""

    claim: str
    witness: str


class Disagreement(_Record):
    """One disagreement between two membership routes.

    ``sanctioned`` marks the known rank <= 2 exemption of the literal
    triple statement; anything unsanctioned would be a genuine bug.
    """

    claim: str
    detail: str
    sanctioned: bool


class ConsistencyReport(_Record):
    """The claim table of one map: each route's verdict, one ``(claim, ok)``
    row per checked claim, the triple ``gaps`` sanctioned at rank <= 2 (a
    pass outside the class at rank >= 3 is a failing ``triple-*-refined``
    row instead) and the resulting discrepancies."""

    definitional: MembershipReport
    triple_op: bool
    triple_or: bool
    quad_p: bool
    chord_p: bool
    discrepancies: tuple[Disagreement, ...]
    claims: tuple[tuple[str, bool], ...]
    gaps: tuple[str, ...]

    @property
    def unsanctioned(self) -> tuple[Disagreement, ...]:
        return tuple(d for d in self.discrepancies if not d.sanctioned)

    @property
    def consistent(self) -> bool:
        return not self.unsanctioned


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


def _closed_forms(n: int) -> tuple[int, int]:
    """|OP_n| = |OR_n| = n·C(2n−1, n−1) − n(n−1) (Catarino & Higgins,
    Semigroup Forum 58, 1999) and |OP_n ∩ OR_n| = n + C(n, 2)·n(n−1):
    counts no membership route feeds."""
    return n * math.comb(2 * n - 1, n - 1) - n * (n - 1), n + math.comb(n, 2) * n * (n - 1)


def _oriented(n: int, length: int) -> Iterator[tuple[tuple[int, ...], Orientation]]:
    """Yield ``(items, tag)``, each oriented ``length``-sequence over [n] with
    its :class:`Orientation`, lexicographically.  A map is in P_n exactly
    when its image list is oriented, so ``_oriented(n, n)`` walks P_n."""
    for items in itertools.product(range(n), repeat=length):
        descents, ascents = _steps(items)
        if descents <= 1 or ascents <= 1:
            yield items, _TAGS[2 * (descents <= 1) + (ascents <= 1)]


# ----------------------------------------------------------------------
# Tally plumbing: plain dicts so partial results cross process boundaries.
# ----------------------------------------------------------------------


def _new_tally() -> dict:
    return {"checks": Counter(), "violations": {}, "sanctioned": []}


def _fail(
    tally: dict, claim: str, index: int, witness: str, detail: str, count: int = 1
) -> None:
    """Record ``count`` failed checks; the claim keeps its lowest-index witness.

    Only failures reach here, so witness and detail text is built only for
    them; suites count their checks in bulk."""
    cur = tally["violations"].get(claim)
    if cur is None:
        tally["violations"][claim] = [index, witness, detail, count]
    else:
        cur[3] += count
        if index < cur[0]:
            cur[0], cur[1], cur[2] = index, witness, detail


def _record(
    tally: dict,
    claim: str,
    ok: bool,
    index: int,
    witness: str,
    detail: str,
    weight: int = 1,
) -> None:
    tally["checks"][claim] += weight
    if not ok:
        _fail(tally, claim, index, witness, detail)


def _merge_tallies(parts: list[dict]) -> dict:
    total = _new_tally()
    for part in parts:
        total["checks"].update(part["checks"])
        for claim, (idx, wit, det, cnt) in part["violations"].items():
            _fail(total, claim, idx, wit, det, cnt)
        total["sanctioned"].extend(part["sanctioned"])
    return total


def _finish(suite: str, n: int, tally: dict, started: float) -> SuiteReport:
    claims = tuple(
        ClaimResult(
            claim,
            tally["checks"][claim],
            tally["violations"][claim][3] if claim in tally["violations"] else 0,
        )
        for claim in sorted(tally["checks"])
    )
    violations = tuple(
        Violation(claim, wit, det, cnt)
        for claim, (idx, wit, det, cnt) in sorted(tally["violations"].items())
    )
    sanctioned = tuple(
        SanctionedException(claim, wit)
        for claim, idx, wit in sorted(tally["sanctioned"])
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
# The per-map claim table and its suite: the routes agree, witnesses total.
# ----------------------------------------------------------------------


# (claim, index into _claims' wants, triple mode or None for the quadruple).
_WITNESS_CLAIMS = (
    ("witness-triple-preserve", 0, "preserve"),
    ("witness-triple-reverse", 1, "reverse"),
    ("witness-quad", 2, None),
)


def _claims(imgs: tuple[int, ...]) -> tuple:
    """:func:`cross_check`'s claim table on a raw image tuple, also read by
    the equivalence suite: ``(in_op, in_or, rank, verdicts, checked,
    failures, gaps)``, with the four route verdicts, the claims checked in
    table order, ``(claim, detail)`` per failing claim and the sanctioned
    triple gaps.  One kernel call, one ``set``, one negated tuple and one
    :func:`_images_after` list serve every route and extractor (called
    through their modules, which tests patch)."""
    descents, ascents = _steps(imgs)
    in_op, in_or = descents <= 1, ascents <= 1
    rank = len(set(imgs))
    low_rank = rank <= 2
    negs = tuple(map(neg, imgs))
    after = _images_after(imgs)
    verdicts = (
        membership._keeps_triples(imgs),
        membership._keeps_triples(negs),
        membership._first_unoriented(imgs, after) is None,
        chords._first_disjoint(imgs, after) is None,
    )
    # Membership, refined by rank for the triple tests.
    wants = (in_op or low_rank, in_or or low_rank, in_op or in_or, in_op or in_or)
    checked = (
        "triple-preserve-refined",
        "triple-reverse-refined",
        "quad-vs-definitional",
        "chord-vs-definitional",
    )
    failures = []
    if verdicts != wants:
        names = ("triple test (preserve)", "triple test (reverse)", "quad test", "chord property")
        failures = [
            (claim, f"{name} = {got} but definitional membership says {want};"
             f" image size {rank}")
            for claim, name, got, want in zip(checked, names, verdicts, wants)
            if got != want
        ]
    # Every map outside a class (at rank >= 3 for the triples) has a witness.
    for claim, want, mode in _WITNESS_CLAIMS:
        if not wants[want]:
            checked += (claim,)
            try:
                if mode is None:
                    witnesses._witness_quad(imgs, negs)
                else:
                    witnesses._witness_triple(imgs, negs, mode)
            except (ValueError, RuntimeError) as exc:
                failures.append((claim, f"extraction failed: {exc}"))
    gaps = ()
    if low_rank:
        modes = (("preserve", verdicts[0], in_op), ("reverse", verdicts[1], in_or))
        gaps = tuple(mode for mode, passed, member in modes if passed and not member)
    return in_op, in_or, rank, verdicts, checked, failures, gaps


def cross_check(m: Mapping) -> ConsistencyReport:
    """The per-map claim table: every membership route and witness
    extractor run once by :func:`_claims` on the image tuple, read back as a
    report.

    ``claims`` holds one ``(claim, ok)`` row per claim: the triple tests
    agree with membership refined by rank (``triple-*-refined``), the
    quadruple test and the chord property agree with membership
    (``quad-vs-definitional``, ``chord-vs-definitional``), and every
    non-member that must have a witness yields one (``witness-*``); the
    chord property is the exact-geometry scan, off the orientation kernel.
    Each failing row is an unsanctioned discrepancy.  ``gaps`` lists the
    modes whose triple test passes outside the class at rank <= 2, each the
    sanctioned ``triple-*-vs-definitional`` exemption.
    """
    in_op, in_or, rank, verdicts, checked, failures, gaps = _claims(m.images)
    failed = {claim for claim, _ in failures}
    # Positional construction: a record's keyword path binds by name.
    found = [Disagreement(claim, detail, False) for claim, detail in failures]
    found.extend(
        Disagreement(
            f"triple-{mode}-vs-definitional",
            f"triple test ({mode}) passes outside the class;"
            f" image size {rank} <= 2: sanctioned exemption",
            True,
        )
        for mode in gaps
    )
    return ConsistencyReport(
        MembershipReport(in_op, in_or, in_op or in_or, rank, _TAGS[2 * in_op + in_or]),
        *verdicts,
        tuple(found),
        tuple((claim, claim not in failed) for claim in checked),
        gaps,
    )


def _equivalence_range(args: tuple[int, int, int]) -> dict:
    """Tally the claim table of the maps with indices start..stop - 1, as raw
    image tuples in :func:`enumerate_all`'s order; a ``Mapping`` is built
    only for witness text.  Maps with the same checked claims (at most five
    lists) are counted together and expanded into checks once per range."""
    n, start, stop = args
    tally = _new_tally()
    counts: dict[tuple[str, ...], int] = {}
    maps = itertools.islice(itertools.product(range(n), repeat=n), start, stop)
    for index, imgs in enumerate(maps, start):
        _, _, _, _, checked, failures, gaps = _claims(imgs)
        counts[checked] = counts.get(checked, 0) + 1
        for claim, detail in failures:
            _fail(tally, claim, index, str(Mapping(n, imgs)), detail)
        for mode in gaps:
            tally["sanctioned"].append((f"triple-{mode}-literal", index, str(Mapping(n, imgs))))
    for checked, count in counts.items():
        for claim in checked:
            tally["checks"][claim] += count
    return tally


def ProcessPoolExecutor(max_workers: int):  # noqa: N802 - stands in for the class
    # Imported on first use: it loads multiprocessing, ~2.5 MB resident that
    # per-map callers and the other CLI verbs never need.
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def _worker_count(workers: int) -> int:
    """A validated worker count, clamped to the machine's CPU count."""
    return min(_within(workers, 1, None, "thread count"), os.cpu_count() or 1)


def _check_enumerable(n: int, what: str) -> int:
    """n as a plain int, refused when its n^n maps are not enumerable (n = 9 is 387M)."""
    n, _ = _points(n, (), "image")
    if n > EQUIVALENCE_MAX_N:
        raise ValueError(
            f"{what} enumerates n^n maps; n > {EQUIVALENCE_MAX_N} is not supported, got n={n}"
        )
    return n


def equivalence_suite(n: int, workers: int = 1) -> SuiteReport:
    """Check, for every self-map of [n], that all membership routes agree
    and that witness extraction succeeds wherever a witness must exist.

    The claims are those of :func:`cross_check`, so the chord property is
    checked by exact geometry at every n, and the witness and gap tallies
    must match their closed forms (:func:`_check_tallies`).  ``workers``
    must be at least 1 and is clamped to ``os.cpu_count()``; n must lie
    within 1..``EQUIVALENCE_MAX_N``.
    """
    n = _check_enumerable(n, "the equivalence suite")
    workers = _worker_count(workers)
    started = time.perf_counter()
    total = mapping_count(n)
    if workers <= 1 or total < 4096:
        parts = [_equivalence_range((n, 0, total))]
    else:
        chunks = workers * 4
        bounds = [total * i // chunks for i in range(chunks + 1)]
        jobs = [(n, bounds[i], bounds[i + 1]) for i in range(chunks) if bounds[i] < bounds[i + 1]]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_equivalence_range, jobs))
    tally = _merge_tallies(parts)
    _check_tallies(n, tally)
    return _finish("equivalence", n, tally, started)


def _check_tallies(n: int, tally: dict) -> None:
    """Fail each equivalence tally that misses its closed form, which no
    route feeds: every map outside P_n has a quadruple witness, and every
    map outside OP_n (or OR_n) a triple witness, except the sanctioned
    C(n, 2)(2^n − 2 − n(n−1)) of rank 2."""
    op, both = _closed_forms(n)
    gaps = math.comb(n, 2) * (2**n - 2 - n * (n - 1))
    counts = tally["checks"] + Counter(claim for claim, _, _ in tally["sanctioned"])
    wants = {"witness-quad": n**n - 2 * op + both}
    for mode in TRIPLE_MODES:
        wants[f"witness-triple-{mode}"] = n**n - op - gaps
        wants[f"triple-{mode}-literal"] = gaps
    _gate(tally, n, counts, wants)


def _gate(tally: dict, n: int, counts: Counter, wants: dict) -> None:
    """Fail each claim whose count misses the closed form ``wants`` gives it."""
    for claim, want in wants.items():
        if counts[claim] != want:
            # Indexed past every map, so a failing map stays the witness.
            detail = f"{counts[claim]} counted but the closed form gives {want}"
            _fail(tally, claim, n**n, "closed-form", detail)


# ----------------------------------------------------------------------
# Identity suite: closure identities of the classes as product sets.
# ----------------------------------------------------------------------


def _product_set(left: frozenset, right: frozenset) -> set:
    # a then b is (b[a[0]], ..., b[a[n-1]]): it reads b only on a's image set
    # S.  So each S restricts every b once (distinct restrictions only), and
    # each a composes with those through its entries' positions in S; a
    # constant a (every a when n = 1) gives the constant maps b[s].
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for a in left:
        groups.setdefault(tuple(sorted(set(a))), []).append(a)
    out = set()
    for image, maps in groups.items():
        if len(image) == 1:
            out.update((b[image[0]],) * len(b) for b in right)
            continue
        restrictions = set(map(itemgetter(*image), right))
        where = {s: k for k, s in enumerate(image)}
        for a in maps:
            out.update(map(itemgetter(*map(where.__getitem__, a)), restrictions))
    return out


def _set_claim(
    tally: dict, claim: str, got: set, want: frozenset, equal: bool, weight: int
) -> None:
    if equal:
        ok = got == want
        offenders = got.symmetric_difference(want)
    else:
        ok = got <= want
        offenders = got - want
    witness = ",".join(map(str, min(offenders))) if offenders else ""
    detail = "" if ok else f"{len(offenders)} offending map(s)"
    _record(tally, claim, ok, 0, witness, detail, weight=weight)


def identity_suite(n: int) -> SuiteReport:
    """Verify the closure identities of the orientation classes by brute
    force: compose every relevant pair of maps and compare the resulting
    product sets.  Practical for n <= 5 only.
    """
    n = _within(n, 1, IDENTITY_MAX_N, "identity suite n")
    started = time.perf_counter()
    tally = _new_tally()

    members = list(_oriented(n, n))
    op_set = frozenset(images for images, tag in members if tag.admits_cyclic)
    or_set = frozenset(images for images, tag in members if tag.admits_anti_cyclic)
    p_set = op_set | or_set
    low_rank_p = frozenset(t for t in p_set if len(set(t)) <= 2)

    op_op = _product_set(op_set, op_set)
    or_or = _product_set(or_set, or_set)
    or_op = _product_set(or_set, op_set)
    op_or = _product_set(op_set, or_set)

    n_op, n_or = len(op_set), len(or_set)
    _set_claim(tally, "or-or-equals-op", or_or, op_set, True, n_or * n_or)
    _set_claim(tally, "or-op-equals-or", or_op, or_set, True, n_or * n_op)
    _set_claim(tally, "op-or-equals-or", op_or, or_set, True, n_op * n_or)
    _set_claim(tally, "op-closed", op_op, op_set, False, n_op * n_op)
    # P = OP u OR, so the product P.P is the union of the four products.
    p_p = op_op | or_or | or_op | op_or
    _set_claim(tally, "p-closed", p_p, p_set, False, len(p_p))
    _set_claim(
        tally,
        "op-and-or-is-low-rank-p",
        set(op_set & or_set),
        low_rank_p,
        True,
        len(p_set),
    )
    return _finish("identity", n, tally, started)


# ----------------------------------------------------------------------
# Class counts.
# ----------------------------------------------------------------------


def count_classes(n: int) -> ClassCounts:
    """Exact class cardinalities by enumerating all n^n maps.

    The members come from :func:`_oriented`, the one classifying walk, with
    no ``Mapping`` built; agreement with the per-map classifier is covered
    by the test suite.  n must lie within 1..``EQUIVALENCE_MAX_N``.
    """
    n = _check_enumerable(n, "count_classes")
    op = or_ = p = both = low = 0
    for images, tag in _oriented(n, n):
        p += 1
        op += tag.admits_cyclic
        or_ += tag.admits_anti_cyclic
        both += tag is Orientation.BOTH
        low += len(set(images)) <= 2
    return ClassCounts(n=n, total=n**n, op=op, or_=or_, p=p, op_and_or=both, low_rank_in_p=low)


# ----------------------------------------------------------------------
# Lemma suite: oriented sequences keep (or flip) orientation under members.
# ----------------------------------------------------------------------


def _oriented_pool(n: int, max_len: int) -> list[tuple[tuple[int, ...], Orientation]]:
    """The lemma pool: the ``(items, tag)`` rows of :func:`_oriented` at lengths 3..max_len."""
    return [row for length in range(LEMMA_MIN_LEN, max_len + 1) for row in _oriented(n, length)]


class _ImageTags(dict):
    """image -> its tag.  Each pool entry covers its support and only rank >= 3
    restrictions are looked up, so every image has >= 3 distinct values."""

    def __missing__(self, image: tuple[int, ...]) -> Orientation:
        tag = self[image] = _tag(image)
        return tag


def lemma_suite(n: int, max_len: int = 4, sample_budget: int | None = None) -> SuiteReport:
    """Check that members map oriented sequences to sequences of the same
    (preserving case) or opposite (reversing case) orientation whenever the
    image keeps at least three distinct values, plus subsequence
    inheritance of orientation, exhaustively: every member of rank >= 3
    against every oriented sequence of length 3..max_len (within 3..6) over
    [n], and every nonempty subsequence of each such sequence.

    A member's image of a sequence s reads the member only on the support S
    of s, so each S checks its sequences against the distinct restrictions
    of the members to S, and only a failing restriction goes back to its
    members for the violation count and witness (the lowest member index,
    then the first sequence).  Checks are counted as members times pool
    size, and each image-orientation count must equal its closed form
    (|OP_n| − |OP_n ∩ OR_n|)·|pool|.  ``sample_budget`` is accepted and
    ignored: the suite once sampled the pool, and callers that still pass a
    budget get the exhaustive report.  Image tags are memoized for this call
    only, at most sum(n**k for k = 3..max_len) entries.
    """
    n = _within(n, 1, LEMMA_MAX_N, "lemma suite n")
    max_len = _within(max_len, LEMMA_MIN_LEN, LEMMA_MAX_LEN, "lemma max length")
    started = time.perf_counter()
    tally = _new_tally()
    pool = _oriented_pool(n, max_len)
    # Rank >= 3 members in index order, each exactly one of OP and OR; a
    # rank <= 2 member never gives an image three distinct values.
    preserving: list[tuple[int, ...]] = []
    reversing: list[tuple[int, ...]] = []
    for imgs, tag in _oriented(n, n):
        if len(set(imgs)) >= 3:
            (preserving if tag.admits_cyclic else reversing).append(imgs)
    # Per support S of at least three values: (pool position, getter of
    # the image from a restriction to S, tag); smaller supports are vacuous.
    supports: dict[tuple[int, ...], list] = {}
    for position, (items, tag) in enumerate(pool):
        support = tuple(sorted(set(items)))
        if len(support) >= 3:
            where = {s: k for k, s in enumerate(support)}
            entry = (position, itemgetter(*map(where.__getitem__, items)), tag)
            supports.setdefault(support, []).append(entry)
    tags = _ImageTags()
    checks = tally["checks"]
    op, both = _closed_forms(n)
    for claim, maps, flip in (
        ("image-orientation-preserved", preserving, False),
        ("image-orientation-reversed", reversing, True),
    ):
        failing = {}  # pool position -> (restrictor, failing restrictions)
        for support, entries in supports.items():
            restrict = itemgetter(*support)
            restrictions = [r for r in set(map(restrict, maps)) if len(set(r)) >= 3]
            for position, getter, tag in entries:
                want = tag.swapped() if flip else tag
                got = list(map(tags.__getitem__, map(getter, restrictions)))
                if got.count(want) != len(got):
                    bad = {r for r, t in zip(restrictions, got) if t is not want}
                    failing[position] = (restrict, bad)
        if maps:  # no claim line for a class without rank >= 3 members
            checks[claim] += len(maps) * len(pool)
        for index, imgs in enumerate(maps if failing else ()):
            hits = [p for p, (restrict, bad) in sorted(failing.items()) if restrict(imgs) in bad]
            if hits:
                seq = ",".join(map(str, pool[hits[0]][0]))
                detail = "image orientation does not match the source"
                _fail(tally, claim, index, f"map={Mapping(n, imgs)};seq={seq}", detail, len(hits))
        _gate(tally, n, checks, {claim: (op - both) * len(pool)})

    # Subsequence inheritance: mask bit b keeps item b, for every pool entry.
    selectors = {
        t: [[mask >> b & 1 for b in range(t)] for mask in range(1, 1 << t)]
        for t in range(LEMMA_MIN_LEN, max_len + 1)
    }
    for items, tag in pool:
        for mask, selector in enumerate(selectors[len(items)], 1):
            descents, ascents = _steps(tuple(itertools.compress(items, selector)))
            if (descents > 1 and tag.admits_cyclic) or (ascents > 1 and tag.admits_anti_cyclic):
                _fail(
                    tally,
                    "subsequence-inheritance",
                    0,
                    f"seq={','.join(map(str, items))};mask={mask}",
                    "subsequence lost an orientation admitted by the full sequence",
                )
        checks["subsequence-inheritance"] += len(selectors[len(items)])
    return _finish("lemma", n, tally, started)


# ----------------------------------------------------------------------
# Orchestration and report serialization.
# ----------------------------------------------------------------------


def run_verify(
    n_max: int,
    suites: tuple[str, ...] = SUITES,
    workers: int = 1,
    lemma_max_len: int = 4,
) -> list[SuiteReport]:
    """Run the selected suites for n = 1..n_max and return their reports.

    One table holds a ``(suite, cap, runner)`` row per suite, in ``SUITES``
    order, and each selected suite runs for n = 1..min(n_max, cap): the
    identity suite stops at n = 5 and the lemma suite at n = 6 (their
    brute-force preconditions), while the equivalence suite, which
    enumerates n^n maps (16.8M at n = 8), refuses n_max > 8 outright.  The
    lemma suite checks every member against every oriented sequence of
    length 3..``lemma_max_len`` (within 3..6).  Every argument is checked
    before any suite runs.
    """
    n_max = _within(n_max, 1, None, "n_max")
    if not suites:
        raise ValueError(f"no suite selected; choose from {SUITES}")
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s) {unknown}; choose from {SUITES}")
    if "equivalence" in suites and n_max > EQUIVALENCE_MAX_N:
        raise ValueError(
            f"the equivalence suite enumerates n^n maps; n_max > {EQUIVALENCE_MAX_N}"
            f" is not supported, got {n_max}"
        )
    workers = _worker_count(workers)
    max_len = _within(lemma_max_len, LEMMA_MIN_LEN, LEMMA_MAX_LEN, "lemma max length")
    table = (
        ("equivalence", EQUIVALENCE_MAX_N, lambda n: equivalence_suite(n, workers=workers)),
        ("identity", IDENTITY_MAX_N, identity_suite),
        ("lemma", LEMMA_MAX_N, lambda n: lemma_suite(n, max_len=max_len)),
    )
    return [
        runner(n)
        for suite, cap, runner in table if suite in suites
        for n in range(1, min(n_max, cap) + 1)
    ]


def _token(text: str) -> str:
    """Collapse free text to a single machine-format token."""
    return "-".join(text.split()) if text else "-"


def format_machine(reports: list[SuiteReport]) -> str:
    """Line-oriented key=value serialization; stable across runs and worker
    counts (timings are deliberately excluded)."""
    lines = []
    for r in reports:
        total = sum(v.count for v in r.violations)
        lines.append(
            f"report suite={r.suite} n={r.n} checks={r.checks_run}"
            f" violations={total} sanctioned={len(r.sanctioned_exceptions)}"
        )
        for c in r.claims:
            status = "pass" if c.passed else "fail"
            lines.append(
                f"claim suite={r.suite} n={r.n} claim={c.claim}"
                f" checks={c.checks} violations={c.violations} status={status}"
            )
        for s in r.sanctioned_exceptions:
            lines.append(
                f"sanctioned suite={r.suite} n={r.n} claim={s.claim} witness={s.witness}"
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
    lines = [
        f"suite {report.suite}, n={report.n}: {verdict}"
        f" (checks={report.checks_run}, sanctioned={len(report.sanctioned_exceptions)},"
        f" {report.elapsed:.2f}s)"
    ]
    for c in report.claims:
        status = "pass" if c.passed else f"FAIL ({c.violations} violations)"
        lines.append(f"  {c.claim}: {status} [checks={c.checks}]")
    if report.sanctioned_exceptions:
        by_claim = Counter(s.claim for s in report.sanctioned_exceptions)
        summary = ", ".join(f"{claim}: {cnt}" for claim, cnt in sorted(by_claim.items()))
        first = report.sanctioned_exceptions[0]
        lines.append(f"  sanctioned exceptions ({summary}), e.g. {first.witness}")
    for v in report.violations:
        lines.append(
            f"  VIOLATION {v.claim}: witness={v.witness} count={v.count} ({v.detail})"
        )
    return "\n".join(lines)
