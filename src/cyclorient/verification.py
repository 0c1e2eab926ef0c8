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
from collections.abc import Collection, Iterable, Iterator
from operator import itemgetter

from . import chords, membership, witnesses
from .mappings import Mapping
from .membership import MembershipReport, _images_after, classify
from .sequences import _NEITHER, Orientation, _points, _Record, _tag, _within

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
    row per checked claim and the resulting discrepancies, among them the
    sanctioned ``triple-*-literal`` gaps at rank <= 2 (a pass outside the
    class at rank >= 3 is a failing ``triple-*-refined`` row instead)."""

    definitional: MembershipReport
    triple_op: bool
    triple_or: bool
    quad_p: bool
    chord_p: bool
    discrepancies: tuple[Disagreement, ...]
    claims: tuple[tuple[str, bool], ...]

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


def _closed_forms(n: int, k: int | None = None) -> tuple[int, int]:
    """The numbers of cyclic and of both-oriented length-k sequences over
    [n], k·C(n+k−1, k) − (k−1)n and n + C(n, 2)·k(k−1), so 2·cyclic − both
    are oriented.  At k = n (the default) they are |OP_n| = |OR_n| =
    n·C(2n−1, n−1) − n(n−1) (Catarino & Higgins, Semigroup Forum 58, 1999)
    and |OP_n ∩ OR_n|: counts no membership route feeds."""
    k = n if k is None else k
    return k * math.comb(n + k - 1, k) - (k - 1) * n, n + math.comb(n, 2) * k * (k - 1)


def _oriented(n: int, length: int) -> Iterator[tuple[tuple[int, ...], Orientation]]:
    """Yield ``(items, tag)``, each oriented ``length``-sequence over [n] with
    its :class:`Orientation`, lexicographically.  A map is in P_n exactly
    when its image list is oriented, so ``_oriented(n, n)`` walks P_n."""
    for items in itertools.product(range(n), repeat=length):
        tag = _tag(items)
        if tag is not _NEITHER:
            yield items, tag


def _classes(n: int) -> tuple[frozenset, frozenset]:
    """OP_n and OR_n as sets of image tuples, from one :func:`_oriented` walk."""
    op, or_ = set(), set()
    for images, tag in _oriented(n, n):
        if tag.admits_cyclic:
            op.add(images)
        if tag.admits_anti_cyclic:
            or_.add(images)
    return frozenset(op), frozenset(or_)


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


# The four route claims in verdict order, each with the label classify prints.
ROUTES = (
    ("triple-preserve-refined", "triple test (preserve)"),
    ("triple-reverse-refined", "triple test (reverse)"),
    ("quad-vs-definitional", "quadruple test"),
    ("chord-vs-definitional", "chord property"),
)
_ROUTE_CLAIMS = tuple(claim for claim, _ in ROUTES)

# (claim, index into _claims' wants, triple mode or None for the quadruple).
_WITNESS_CLAIMS = (
    ("witness-triple-preserve", 0, "preserve"),
    ("witness-triple-reverse", 1, "reverse"),
    ("witness-quad", 2, None),
)

# The sanctioned rank <= 2 gap of each triple route, in verdict order.
_GAP_CLAIMS = ("triple-preserve-literal", "triple-reverse-literal")


def _claims(imgs: tuple[int, ...]) -> tuple:
    """:func:`cross_check`'s claim table on a raw image tuple, also read by
    the equivalence suite: ``(verdicts, checked, findings)``, with the four
    route verdicts, the claims checked in table order and one ``(claim,
    detail, sanctioned)`` row per finding: each failing route claim, then
    each failing witness claim, then each sanctioned ``triple-*-literal``
    gap.  One kernel call, one ``set`` and one :func:`_images_after` list
    serve the routes and extractors (called through their modules, which
    tests patch)."""
    tag = _tag(imgs)
    in_op, in_or = tag.admits_cyclic, tag.admits_anti_cyclic
    rank = len(set(imgs))
    low_rank = rank <= 2
    after = _images_after(imgs)
    verdicts = (
        membership._keeps_triples(imgs, after, False),
        membership._keeps_triples(imgs, after, True),
        membership._first_unoriented(imgs, after) is None,
        chords._first_disjoint(imgs, after) is None,
    )
    # Membership, refined by rank for the triple tests.
    wants = (in_op or low_rank, in_or or low_rank, in_op or in_or, in_op or in_or)
    checked = _ROUTE_CLAIMS
    findings = []
    if verdicts != wants:
        findings = [
            (claim, f"{label} = {got} but definitional membership says {want};"
             f" image size {rank}", False)
            for (claim, label), got, want in zip(ROUTES, verdicts, wants)
            if got != want
        ]
    # Every map outside a class (at rank >= 3 for the triples) has a witness.
    for claim, want, mode in _WITNESS_CLAIMS:
        if not wants[want]:
            checked += (claim,)
            try:
                if mode is None:
                    witnesses._witness_quad(imgs)
                else:
                    witnesses._witness_triple(imgs, mode)
            except (ValueError, RuntimeError) as exc:
                findings.append((claim, f"extraction failed: {exc}", False))
    if low_rank:
        for gap, (_, label), passed, member in zip(_GAP_CLAIMS, ROUTES, verdicts, (in_op, in_or)):
            if passed and not member:
                detail = f"{label} passes outside the class; image size {rank} <= 2"
                findings.append((gap, f"{detail}: sanctioned exemption", True))
    return verdicts, checked, findings


def cross_check(m: Mapping) -> ConsistencyReport:
    """The per-map claim table: every membership route and witness
    extractor run once by :func:`_claims` on the image tuple, read back as a
    report beside :func:`classify`'s definitional one.

    ``claims`` holds one ``(claim, ok)`` row per claim: the triple tests
    agree with membership refined by rank (``triple-*-refined``), the
    quadruple test and the chord property agree with membership
    (``quad-vs-definitional``, ``chord-vs-definitional``), and every
    non-member that must have a witness yields one (``witness-*``); the
    chord property is the exact-geometry scan, whose side table comes from
    cross products, not from the circular order the other two scans read.
    The discrepancies are :func:`_claims`' findings: each failing row, and
    the sanctioned ``triple-*-literal`` exemption of a triple test that
    passes outside its class at rank <= 2, named as the suites name it.
    """
    verdicts, checked, findings = _claims(m.images)
    failed = {claim for claim, _, sanctioned in findings if not sanctioned}
    return ConsistencyReport(
        classify(m),
        *verdicts,
        tuple(Disagreement(*row) for row in findings),
        tuple((claim, claim not in failed) for claim in checked),
    )


def _equivalence_range(args: tuple[int, int, int]) -> dict:
    """Tally the claim table of the maps with indices start..stop - 1, as raw
    image tuples in :func:`enumerate_all`'s order; only a map with findings
    gets witness text.  Maps with the same checked claims (at most five
    lists) are counted together and expanded into checks once per range."""
    n, start, stop = args
    tally = _new_tally()
    counts: dict[tuple[str, ...], int] = {}
    maps = itertools.islice(itertools.product(range(n), repeat=n), start, stop)
    for index, imgs in enumerate(maps, start):
        _, checked, findings = _claims(imgs)
        counts[checked] = counts.get(checked, 0) + 1
        if findings:
            witness = ",".join(map(str, imgs))
            for claim, detail, sanctioned in findings:
                if sanctioned:
                    tally["sanctioned"].append((claim, index, witness))
                else:
                    _fail(tally, claim, index, witness, detail)
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
    total = n**n
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
    wants = dict.fromkeys(_GAP_CLAIMS, gaps)
    for claim, _, mode in _WITNESS_CLAIMS:
        wants[claim] = n**n - (2 * op - both if mode is None else op + gaps)
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


def _product_set(left: Iterable[tuple[int, ...]], right: Collection[tuple[int, ...]]) -> set:
    # a then b is (b[a[0]], ..., b[a[k-1]]), where left may hold sequences
    # of any length k over b's points: it reads b only on a's image set S.
    # So each S restricts every b once (distinct restrictions only), and
    # each a composes with those through its entries' positions in S; a
    # constant a gives the constant sequences b[s] of a's own length.
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for a in left:
        groups.setdefault(tuple(sorted(set(a))), []).append(a)
    out = set()
    for image, maps in groups.items():
        if len(image) == 1:
            out.update((b[image[0]],) * len(a) for a in maps for b in right)
            continue
        restrictions = set(map(itemgetter(*image), right))
        where = {s: k for k, s in enumerate(image)}
        for a in maps:
            out.update(map(itemgetter(*map(where.__getitem__, a)), restrictions))
    return out


def identity_suite(n: int) -> SuiteReport:
    """Verify the closure identities of the orientation classes by brute
    force: compose every relevant pair of maps and compare the resulting
    product sets.  Each claim's offenders are one set: an equality holds
    when its symmetric difference is empty, and an inclusion when its
    difference is empty.  Practical for n <= 5 only.
    """
    n = _within(n, 1, IDENTITY_MAX_N, "identity suite n")
    started = time.perf_counter()
    tally = _new_tally()

    op_set, or_set = _classes(n)
    p_set = op_set | or_set
    low_rank_p = frozenset(t for t in p_set if len(set(t)) <= 2)

    op_op = _product_set(op_set, op_set)
    or_or = _product_set(or_set, or_set)
    or_op = _product_set(or_set, op_set)
    op_or = _product_set(op_set, or_set)

    n_op, n_or = len(op_set), len(or_set)
    # P = OP u OR, so the product P.P is the union of the four products.
    p_p = op_op | or_or | or_op | op_or
    for claim, offenders, weight in (
        ("or-or-equals-op", or_or ^ op_set, n_or * n_or),
        ("or-op-equals-or", or_op ^ or_set, n_or * n_op),
        ("op-or-equals-or", op_or ^ or_set, n_op * n_or),
        ("op-closed", op_op - op_set, n_op * n_op),
        ("p-closed", p_p - p_set, len(p_p)),
        ("op-and-or-is-low-rank-p", (op_set & or_set) ^ low_rank_p, len(p_set)),
    ):
        tally["checks"][claim] += weight
        if offenders:
            witness = ",".join(map(str, min(offenders)))
            _fail(tally, claim, 0, witness, f"{len(offenders)} offending map(s)")
    return _finish("identity", n, tally, started)


# ----------------------------------------------------------------------
# Class counts.
# ----------------------------------------------------------------------


def count_classes(n: int) -> ClassCounts:
    """Exact class cardinalities by enumerating all n^n maps.

    The members come from :func:`_classes`; tests check them against the
    per-map classifier.  n must lie within 1..``EQUIVALENCE_MAX_N``.
    """
    n = _check_enumerable(n, "count_classes")
    op, or_ = _classes(n)
    p = op | or_
    low = sum(len(set(images)) <= 2 for images in p)
    return ClassCounts(n, n**n, len(op), len(or_), len(p), len(op & or_), low)


# ----------------------------------------------------------------------
# Lemma suite: oriented sequences keep (or flip) orientation under members.
# ----------------------------------------------------------------------


def _oriented_pool(n: int, max_len: int) -> list[tuple[tuple[int, ...], Orientation]]:
    """The lemma pool: the ``(items, tag)`` rows of :func:`_oriented` at lengths 3..max_len."""
    return [row for length in range(LEMMA_MIN_LEN, max_len + 1) for row in _oriented(n, length)]


def lemma_suite(n: int, max_len: int = 4, sample_budget: int | None = None) -> SuiteReport:
    """Check that members map oriented sequences to sequences of the same
    (preserving case) or opposite (reversing case) orientation whenever the
    image keeps at least three distinct values, plus subsequence
    inheritance of orientation, exhaustively: every member of rank >= 3
    against every oriented sequence of length 3..max_len (within 3..6) over
    [n], and every nonempty subsequence of each such sequence.

    The images are product sets, as in :func:`identity_suite`: the pool
    sequences of at least three values composed with the members.  An
    anti-cyclic sequence is read backwards, which reverses its images and
    swaps its tag, so a correctly tagged pool is one group that wants
    cyclic images under preserving members and anti-cyclic ones under
    reversing members (a wrong tag keeps a group of its own).  Only a claim
    whose product sets hold an offending image walks its members for the
    violation count and witness (the lowest member index, then the first
    sequence).  Checks are counted as members times pool size, and each
    image-orientation count must equal (|OP_n| − |OP_n ∩ OR_n|)·|pool|, the
    pool size the oriented counts of :func:`_closed_forms` summed over its
    lengths k, and the subsequence checks that sum weighted by 2^k − 1.
    ``sample_budget`` is accepted and ignored: the suite once sampled the
    pool, and callers that still pass a budget get the exhaustive report.
    """
    n = _within(n, 1, LEMMA_MAX_N, "lemma suite n")
    max_len = _within(max_len, LEMMA_MIN_LEN, LEMMA_MAX_LEN, "lemma max length")
    started = time.perf_counter()
    tally = _new_tally()
    pool = _oriented_pool(n, max_len)
    # Each image claim scales with len(pool), so only this gate sees a pool
    # that drops or repeats a sequence.
    sizes = {}  # length k -> the number of oriented length-k sequences
    for k in range(LEMMA_MIN_LEN, max_len + 1):
        cyclic, both = _closed_forms(n, k)
        sizes[k] = 2 * cyclic - both
    _gate(tally, n, {"oriented-pool": len(pool)}, {"oriented-pool": sum(sizes.values())})
    # Rank >= 3 members in index (lexicographic) order, each exactly one of
    # OP and OR; a rank <= 2 member never gives an image three distinct values.
    preserving, reversing = (sorted(t for t in c if len(set(t)) >= 3) for c in _classes(n))
    sources = []  # (pool position, getter of a member's image, tag)
    groups: dict[Orientation, list[tuple[int, ...]]] = {}
    for position, (items, tag) in enumerate(pool):
        if len(set(items)) >= 3:
            if tag is Orientation.ANTI_CYCLIC_ONLY:
                items, tag = items[::-1], Orientation.CYCLIC_ONLY
            sources.append((position, itemgetter(*items), tag))
            groups.setdefault(tag, []).append(items)
    checks = tally["checks"]
    op, both = _closed_forms(n)
    for claim, maps, flip in (
        ("image-orientation-preserved", preserving, False),
        ("image-orientation-reversed", reversing, True),
    ):
        offenders = {}
        for tag, group in groups.items():
            want = tag.swapped() if flip else tag
            offenders[tag] = {
                image for image in _product_set(group, maps)
                if len(set(image)) >= 3 and _tag(image) is not want
            }
        if maps:  # no claim line for a class without rank >= 3 members
            checks[claim] += len(maps) * len(pool)
        for index, imgs in enumerate(maps if any(offenders.values()) else ()):
            hits = [p for p, image_of, tag in sources if image_of(imgs) in offenders[tag]]
            if hits:
                seq = ",".join(map(str, pool[hits[0]][0]))
                detail = "image orientation does not match the source"
                witness = f"map={','.join(map(str, imgs))};seq={seq}"
                _fail(tally, claim, index, witness, detail, len(hits))
        _gate(tally, n, checks, {claim: (op - both) * len(pool)})

    # Subsequence inheritance: mask bit b keeps item b, for every pool entry.
    selectors = {
        t: [[mask >> b & 1 for b in range(t)] for mask in range(1, 1 << t)]
        for t in range(LEMMA_MIN_LEN, max_len + 1)
    }
    for items, tag in pool:
        for mask, selector in enumerate(selectors[len(items)], 1):
            sub = _tag(tuple(itertools.compress(items, selector)))
            if (tag.admits_cyclic and not sub.admits_cyclic) or (
                tag.admits_anti_cyclic and not sub.admits_anti_cyclic
            ):
                _fail(
                    tally,
                    "subsequence-inheritance",
                    0,
                    f"seq={','.join(map(str, items))};mask={mask}",
                    "subsequence lost an orientation admitted by the full sequence",
                )
        checks["subsequence-inheritance"] += len(selectors[len(items)])
    # A pool of the wrong size has failed its own gate; this one sees a pool
    # of the right size with the wrong lengths, or a loop that miscounts.
    if len(pool) == sum(sizes.values()):
        want = sum(size * (2**k - 1) for k, size in sizes.items())
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
