"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The shared fixtures run the heavyweight suites once: the
equivalence suite over all n^n maps for n = 1..6, the identity suite for
n = 1..5, and the lemma suite exhaustively for n = 1..6 (well past 10^5
checks at n = 5, 6).
"""

import itertools
import os
import time

import pytest

from cyclorient import (
    Chord,
    Mapping,
    chords_intersect,
    count_classes,
    equivalence_suite,
    identity_suite,
    image_chord,
    lemma_suite,
)
from cyclorient.cli import main

WORKERS = min(4, os.cpu_count() or 1)


def announce(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {text}")


@pytest.fixture(scope="module")
def equivalence_reports():
    return {n: equivalence_suite(n, workers=WORKERS) for n in range(1, 7)}


@pytest.fixture(scope="module")
def identity_reports():
    return {n: identity_suite(n) for n in range(1, 6)}


@pytest.fixture(scope="module")
def lemma_reports():
    return {n: lemma_suite(n, max_len=4) for n in range(1, 7)}


def test_criterion_1_worked_example():
    source_a = Chord(4, 1, 3)
    source_b = Chord(4, 0, 2)
    keeper = Mapping.parse("0,0,3,2")
    breaker = Mapping.parse("0,1,3,2")

    chords_intersect(source_a, source_b)  # warm-up outside the timed window
    start = time.perf_counter()
    intersecting = chords_intersect(source_a, source_b)
    kept = chords_intersect(image_chord(keeper, source_a), image_chord(keeper, source_b))
    broken = chords_intersect(
        image_chord(breaker, source_a), image_chord(breaker, source_b)
    )
    elapsed = time.perf_counter() - start

    assert intersecting is True
    assert kept is True
    assert broken is False
    assert image_chord(breaker, source_a) == Chord(4, 1, 2)
    assert image_chord(breaker, source_b) == Chord(4, 0, 3)
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"
    announce(1, f"chord worked example reproduced exactly in {elapsed * 1e6:.0f} us")


def test_criterion_2_quad_and_chord_characterize_membership(equivalence_reports):
    for n, report in equivalence_reports.items():
        claims = {c.claim: c for c in report.claims}
        for claim in ("quad-vs-definitional", "chord-vs-definitional"):
            assert claims[claim].violations == 0, (n, claim)
            assert claims[claim].checks == n**n, (n, claim)
    assert equivalence_reports[6].elapsed < 300, "n=6 must finish within minutes"
    announce(
        2,
        "quad test == chord property == definitional membership over all maps, n <= 6"
        f" (n=6 in {equivalence_reports[6].elapsed:.1f}s)",
    )


def test_criterion_3_triple_characterization_refined(equivalence_reports):
    for n, report in equivalence_reports.items():
        claims = {c.claim: c for c in report.claims}
        for claim in ("triple-preserve-refined", "triple-reverse-refined"):
            assert claims[claim].violations == 0, (n, claim)
            assert claims[claim].checks == n**n, (n, claim)
    [sanctioned4] = [
        s
        for s in equivalence_reports[4].sanctioned_exceptions
        if s.claim == "triple-preserve-literal"
    ]
    assert sanctioned4.count, "rank <= 2 exceptions must exist at n=4"
    assert {(0, 1, 0, 1), (1, 0, 1, 0)} <= set(sanctioned4.patterns)
    for n in (5, 6):
        assert any(
            s.claim == "triple-preserve-literal" and s.count
            for s in equivalence_reports[n].sanctioned_exceptions
        ), n
    announce(
        3,
        "triple tests match membership exactly at rank >= 3 for n <= 6;"
        f" n=4 sanctioned set has {sanctioned4.count} maps incl. the alternating ones",
    )


def test_criterion_4_intersection_oracles_agree_up_to_n12():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 13):
        for a, b, c, d in itertools.product(range(n), repeat=4):
            first, second = Chord(n, a, c), Chord(n, b, d)
            combinatorial = chords_intersect(first, second, "combinatorial")
            geometric = chords_intersect(first, second, "geometric")
            assert combinatorial == geometric, (n, a, b, c, d)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"differential sweep took {elapsed:.1f}s"
    announce(4, f"{checked} quadruples, combinatorial == geometric, {elapsed:.1f}s")


def test_criterion_5_witness_totality(equivalence_reports):
    for n, report in equivalence_reports.items():
        claims = {c.claim: c for c in report.claims}
        for claim in ("witness-triple-preserve", "witness-triple-reverse", "witness-quad"):
            if claim in claims:
                assert claims[claim].violations == 0, (n, claim)
        # Exactly one quadruple witness was demanded per map outside P.
        counts = count_classes(n)
        outside_p = counts.total - counts.p
        got = claims["witness-quad"].checks if "witness-quad" in claims else 0
        assert got == outside_p, (n, got, outside_p)
        if n >= 4:
            # Non-members of every kind exist from n=4 on.
            assert claims["witness-triple-preserve"].checks > 0
            assert claims["witness-quad"].checks > 0
    extracted = sum(
        c.checks
        for report in equivalence_reports.values()
        for c in report.claims
        if c.claim.startswith("witness-")
    )
    announce(5, f"{extracted} witnesses extracted and re-validated, zero failures")


def test_criterion_6_closure_identities(identity_reports):
    expected_claims = {
        "or-or-equals-op",
        "or-op-equals-or",
        "op-or-equals-or",
        "op-closed",
        "p-closed",
        "op-and-or-is-low-rank-p",
    }
    for n, report in identity_reports.items():
        assert report.passed, (n, report.violations)
        assert {c.claim for c in report.claims} == expected_claims
    announce(6, "all product-set identities hold as set equalities for n <= 5")


def test_criterion_7_members_act_on_oriented_sequences(lemma_reports):
    for n, report in lemma_reports.items():
        assert report.passed, (n, report.violations)
    for n in (5, 6):
        lemma_checks = sum(
            c.checks
            for c in lemma_reports[n].claims
            if c.claim.startswith("image-orientation-")
        )
        assert lemma_checks >= 100_000, (n, lemma_checks)
    announce(
        7,
        "oriented sequences keep/flip orientation under members"
        " (exhaustive n <= 6, >= 1e5 checks at n = 5, 6)",
    )


def test_criterion_8_class_counts():
    counts = count_classes(3)
    assert (counts.total, counts.op, counts.or_, counts.p, counts.op_and_or) == (
        27,
        24,
        24,
        27,
        21,
    )

    # Independent one-off enumeration of image sequences: a map is counted
    # by the circular monotonicity of its image tuple, written from scratch.
    def wraps_up(t):
        return sum(t[i] > t[(i + 1) % len(t)] for i in range(len(t)))

    op = or_ = p = both = 0
    for images in itertools.product(range(3), repeat=3):
        cyclic = wraps_up(images) <= 1
        anti = wraps_up(tuple(reversed(images))) <= 1
        op += cyclic
        or_ += anti
        p += cyclic or anti
        both += cyclic and anti
    assert (op, or_, p, both) == (counts.op, counts.or_, counts.p, counts.op_and_or)

    for n in range(1, 8):
        assert not count_classes(n).invariant_failures(), n
    announce(8, "count_classes(3) == (27, 24, 24, 27, 21); invariants hold for n <= 7")


def test_criterion_9_machine_reports_deterministic_across_threads(capsys):
    args = ["verify", "--n-max", "5", "--format", "machine"]
    assert main(args + ["--threads", "1"]) == 0
    single = capsys.readouterr().out
    assert main(args + ["--threads", str(max(2, WORKERS))]) == 0
    multi = capsys.readouterr().out
    assert single == multi
    assert single.startswith("report suite=equivalence n=1 ")
    announce(9, "verify --n-max 5 machine reports byte-identical across thread counts")
