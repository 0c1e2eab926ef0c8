"""Suite reports: correctness, determinism, merging, serialization."""

from pathlib import Path

import pytest

from cyclorient import (
    Mapping,
    classify,
    count_classes,
    cross_check,
    enumerate_all,
    equivalence_suite,
    format_machine,
    format_text,
    identity_suite,
    lemma_suite,
    run_verify,
)


def test_equivalence_trivial_n1():
    report = equivalence_suite(1)
    assert report.passed
    assert report.checks_run > 0
    assert not report.sanctioned_exceptions


def test_equivalence_n3_no_exceptions():
    report = equivalence_suite(3)
    assert report.passed
    assert not report.sanctioned_exceptions  # every rank <= 2 map on [3] is a member


def test_equivalence_n4_sanctioned_set():
    report = equivalence_suite(4)
    assert report.passed
    preserve = {
        s.witness for s in report.sanctioned_exceptions if s.claim == "triple-preserve-literal"
    }
    reverse = {
        s.witness for s in report.sanctioned_exceptions if s.claim == "triple-reverse-literal"
    }
    assert "0,1,0,1" in preserve and "1,0,1,0" in preserve
    assert preserve == reverse
    # Independent description of the exception set: rank <= 2 non-members.
    expected = {
        str(m)
        for m in enumerate_all(4)
        if classify(m).image_size <= 2 and not classify(m).in_op
    }
    assert preserve == expected


def test_equivalence_n5_sanctioned_set_exact():
    report = equivalence_suite(5)
    assert report.passed
    for claim, flag in (
        ("triple-preserve-literal", "in_op"),
        ("triple-reverse-literal", "in_or"),
    ):
        got = {s.witness for s in report.sanctioned_exceptions if s.claim == claim}
        expected = {
            str(m)
            for m in enumerate_all(5)
            if classify(m).image_size <= 2 and not getattr(classify(m), flag)
        }
        assert got == expected
    # classify's reader carries the same sanctioned rows as the suite's.
    per_map = {
        (d.claim, str(m))
        for m in enumerate_all(5)
        for d in cross_check(m).discrepancies
        if d.sanctioned
    }
    assert per_map == {(s.claim, s.witness) for s in report.sanctioned_exceptions}


def test_equivalence_claims_present():
    report = equivalence_suite(4)
    names = {c.claim for c in report.claims}
    assert {
        "triple-preserve-refined",
        "triple-reverse-refined",
        "quad-vs-definitional",
        "chord-vs-definitional",
        "witness-triple-preserve",
        "witness-triple-reverse",
        "witness-quad",
    } <= names
    per_map = {c.claim: c.checks for c in report.claims}
    assert per_map["quad-vs-definitional"] == 4**4


def test_equivalence_worker_split_is_deterministic():
    solo = equivalence_suite(4, workers=1)
    split = equivalence_suite(4, workers=3)
    assert format_machine([solo]) == format_machine([split])


def test_equivalence_tallies_merge_across_uneven_chunks():
    # In process, no pool: chunk edges must not change the merged report.
    from itertools import pairwise

    from cyclorient import verification

    bounds = (0, 1, 17, 1000, 3124, 3125)
    parts = [verification._equivalence_range((5, a, b)) for a, b in pairwise(bounds)]
    merged = verification._finish("equivalence", 5, verification._merge_tallies(parts), 0.0)
    assert format_machine([merged]) == format_machine([equivalence_suite(5, workers=1)])


def test_equivalence_suite_checks_its_tallies_against_closed_forms(monkeypatch):
    # Drop the non-member 0,1,3,2,4 (index 214 in base 5) from the one range
    # of n = 5.  Every route agrees on every map left, so only the closed
    # forms notice: |P_5| = 1015, |OP_5| = 610 and 100 rank-2 gaps per mode.
    from cyclorient import verification

    real = verification._equivalence_range
    assert real((5, 214, 215))["checks"]["witness-quad"] == 1
    monkeypatch.setattr(
        verification,
        "_equivalence_range",
        lambda args: verification._merge_tallies([real((5, 0, 214)), real((5, 215, 3125))]),
    )
    report = equivalence_suite(5, workers=1)
    assert not report.passed
    assert {(v.claim, v.witness, v.count, v.detail) for v in report.violations} == {
        ("witness-quad", "closed-form", 1, "2109 counted but the closed form gives 2110"),
        ("witness-triple-preserve", "closed-form", 1, "2414 counted but the closed form gives 2415"),
        ("witness-triple-reverse", "closed-form", 1, "2414 counted but the closed form gives 2415"),
    }
    assert len(report.sanctioned_exceptions) == 200


def test_identity_degenerate_n2():
    report = identity_suite(2)
    assert report.passed
    # All four maps are members of both classes at n=2.
    members = [m for m in enumerate_all(2) if classify(m).in_op and classify(m).in_or]
    assert len(members) == 4


def test_identity_n3_and_counts():
    report = identity_suite(3)
    assert report.passed
    assert count_classes(3).op_and_or == 21


def test_identity_n4():
    assert identity_suite(4).passed


def test_identity_suite_reports_a_product_outside_p(monkeypatch):
    from cyclorient import verification

    real = verification._product_set
    monkeypatch.setattr(
        verification, "_product_set", lambda left, right: real(left, right) | {(0, 1, 0, 1)}
    )
    report = identity_suite(4)
    assert not report.passed
    products = {"or-or-equals-op", "or-op-equals-or", "op-or-equals-or", "op-closed", "p-closed"}
    assert {(v.claim, v.witness, v.count, v.detail) for v in report.violations} == {
        (claim, "0,1,0,1", 1, "1 offending map(s)") for claim in products
    }
    claims = {c.claim: c for c in report.claims}
    assert claims["op-and-or-is-low-rank-p"].violations == 0
    assert claims["p-closed"].checks == 181  # P.P counts its distinct products


def test_identity_suite_reports_a_missing_product_only_for_equalities(monkeypatch):
    from cyclorient import verification

    real = verification._product_set
    monkeypatch.setattr(
        verification, "_product_set", lambda left, right: real(left, right) - {(0, 1, 2, 3)}
    )
    report = identity_suite(4)
    # Only an equality notices a missing map, and the identity is in OP_4
    # but not OR_4.
    [violation] = report.violations
    assert (violation.claim, violation.witness, violation.count, violation.detail) == (
        "or-or-equals-op",
        "0,1,2,3",
        1,
        "1 offending map(s)",
    )


def test_identity_bounds():
    with pytest.raises(ValueError):
        identity_suite(6)
    with pytest.raises(ValueError):
        identity_suite(0)
    # Sizes must be integers, refused in the library's words.
    with pytest.raises(ValueError, match=r"identity suite n must be an integer, got 3\.0"):
        identity_suite(3.0)
    n = identity_suite(True).n
    assert n == 1 and type(n) is int


def test_count_classes_small():
    c1 = count_classes(1)
    assert (c1.total, c1.op, c1.or_, c1.p) == (1, 1, 1, 1)
    c2 = count_classes(2)
    assert (c2.total, c2.op, c2.or_, c2.p, c2.op_and_or) == (4, 4, 4, 4, 4)
    c3 = count_classes(3)
    assert (c3.total, c3.op, c3.or_, c3.p, c3.op_and_or) == (27, 24, 24, 27, 21)
    assert not c3.invariant_failures()
    with pytest.raises(ValueError):
        count_classes(0)
    # An __index__ size is reported as a plain int.
    assert type(count_classes(True).n) is int
    assert format_machine([equivalence_suite(True)]).startswith("report suite=equivalence n=1 ")


def test_count_classes_matches_classifier():
    for n in (1, 2, 3, 4):
        counts = count_classes(n)
        op = or_ = p = both = low = 0
        for m in enumerate_all(n):
            r = classify(m)
            op += r.in_op
            or_ += r.in_or
            p += r.in_p
            both += r.in_op and r.in_or
            low += r.in_p and r.image_size <= 2
        assert (counts.op, counts.or_, counts.p, counts.op_and_or, counts.low_rank_in_p) == (
            op,
            or_,
            p,
            both,
            low,
        )


def test_lemma_exhaustive_small():
    for n in (3, 4):
        report = lemma_suite(n, max_len=4)
        assert report.passed
        assert report.checks_run > 0


def test_lemma_sample_budget_is_accepted_and_ignored():
    # The benchmark still passes the old sampler's budget; the report is the
    # exhaustive one.
    for n in range(1, 7):
        budgeted = format_machine([lemma_suite(n, max_len=4, sample_budget=200)])
        assert budgeted == format_machine([lemma_suite(n, max_len=4)]), n


def test_lemma_bounds():
    with pytest.raises(ValueError):
        lemma_suite(7)
    with pytest.raises(ValueError):
        lemma_suite(4, max_len=9)
    with pytest.raises(ValueError, match=r"lemma suite n must be an integer, got 3\.0"):
        lemma_suite(3.0)


def test_run_verify_collects_reports():
    reports = run_verify(3, workers=1)
    kinds = {(r.suite, r.n) for r in reports}
    assert kinds == {
        ("equivalence", 1),
        ("equivalence", 2),
        ("equivalence", 3),
        ("identity", 1),
        ("identity", 2),
        ("identity", 3),
        ("lemma", 1),
        ("lemma", 2),
        ("lemma", 3),
    }
    assert all(r.passed for r in reports)
    with pytest.raises(ValueError):
        run_verify(2, suites=("equivalence", "nonsense"))
    with pytest.raises(ValueError):
        run_verify(0)
    with pytest.raises(ValueError, match=r"n_max must be an integer, got 3\.0"):
        run_verify(3.0)
    with pytest.raises(ValueError, match=r"lemma max length must be an integer, got 3\.5"):
        run_verify(2, lemma_max_len=3.5)


def test_run_verify_takes_suites_from_any_iterable():
    # The names are read once, so a one-shot iterable selects what a tuple does.
    names = ("identity", "lemma")
    want = format_machine(run_verify(3, suites=names))
    assert want
    assert format_machine(run_verify(3, suites=iter(names))) == want
    assert format_machine(run_verify(3, suites=(s for s in names))) == want


def test_run_verify_caps_identity_and_lemma():
    reports = run_verify(6, suites=("identity",))
    assert max(r.n for r in reports) == 5


def test_machine_format_is_parseable_and_time_free():
    reports = run_verify(3)
    text = format_machine(reports)
    assert "elapsed" not in text
    for line in text.strip().splitlines():
        kind, *fields = line.split(" ")
        assert kind in ("report", "claim", "sanctioned", "violation")
        parsed = dict(field.split("=", 1) for field in fields)
        assert parsed["suite"] in ("equivalence", "identity", "lemma")
        assert parsed["n"].isdigit()
    # Report lines reconstruct the totals.
    report_lines = [l for l in text.splitlines() if l.startswith("report ")]
    assert len(report_lines) == len(reports)


def test_machine_format_stable_across_runs():
    first = format_machine(run_verify(3))
    second = format_machine(run_verify(3))
    assert first == second


def test_text_format_mentions_claims_and_sanctions():
    report = equivalence_suite(4)
    text = format_text(report)
    assert "suite equivalence, n=4: PASS" in text
    assert "triple-preserve-refined" in text
    assert "sanctioned exceptions" in text


def test_text_format_shows_violations():
    # Force a fake failing report through the formatter via a doctored tally.
    from cyclorient.verification import _fail, _finish, _new_tally

    tally = _new_tally()
    tally["checks"]["demo-claim"] += 1
    _fail(tally, "demo-claim", 7, "0,1,0,1", "something broke")
    report = _finish("equivalence", 4, tally, started=0.0)
    assert not report.passed
    text = format_text(report)
    assert "VIOLATION demo-claim" in text and "0,1,0,1" in text
    machine = format_machine([report])
    assert "violation suite=equivalence n=4 claim=demo-claim" in machine
    assert "detail=something-broke" in machine


def test_merge_keeps_lexicographically_smallest_witness():
    from cyclorient.verification import _fail, _merge_tallies, _new_tally

    left = _new_tally()
    right = _new_tally()
    _fail(right, "claim-x", 9, "0,0,9", "later")
    _fail(left, "claim-x", 4, "0,0,4", "earlier")
    merged_one = _merge_tallies([left, right])
    merged_two = _merge_tallies([right, left])
    for merged in (merged_one, merged_two):
        idx, witness, detail, count = merged["violations"]["claim-x"]
        assert (idx, witness, detail, count) == (4, "0,0,4", "earlier", 2)


def test_class_counts_invariants_reporting():
    from cyclorient import ClassCounts

    broken = ClassCounts(n=3, total=27, op=24, or_=24, p=30, op_and_or=20, low_rank_in_p=21)
    problems = broken.invariant_failures()
    assert len(problems) == 2


def test_class_counts_match_closed_forms():
    import math

    for n in range(1, 7):
        counts = count_classes(n)
        op = or_ = n * math.comb(2 * n - 1, n - 1) - n * (n - 1)
        both = n + math.comb(n, 2) * n * (n - 1)
        assert (counts.op, counts.or_, counts.op_and_or, counts.p) == (
            op,
            op,
            both,
            2 * op - both,
        ), n
        assert not counts.invariant_failures(), n


def test_closed_forms_catch_a_consistent_miscount():
    from cyclorient import ClassCounts

    # A bug shared by every route could miscount OP and OR alike while
    # inclusion-exclusion and the low-rank identity still hold; only the
    # closed forms notice.
    counts = count_classes(5)
    wrong = ClassCounts(
        n=counts.n,
        total=counts.total,
        op=counts.op + 1,
        or_=counts.or_ + 1,
        p=counts.p + 2,
        op_and_or=counts.op_and_or,
        low_rank_in_p=counts.low_rank_in_p,
    )
    problems = wrong.invariant_failures()
    assert [p.split("=")[0] for p in problems] == ["op", "or", "p"]
    assert all("closed form" in p for p in problems)


def test_worker_count_is_validated_and_clamped(monkeypatch):
    from contextlib import nullcontext
    from types import SimpleNamespace

    from cyclorient import verification

    created = []

    def recording_pool(max_workers):
        # Records the request and starts no process; every job yields an
        # empty tally.
        created.append(max_workers)
        return nullcontext(
            SimpleNamespace(map=lambda fn, jobs: [verification._new_tally() for _ in jobs])
        )

    monkeypatch.setattr(verification, "ProcessPoolExecutor", recording_pool)
    monkeypatch.setattr(verification.os, "cpu_count", lambda: 3)
    equivalence_suite(6, workers=2)
    equivalence_suite(6, workers=100_000)
    assert created == [2, 3]
    for workers in (0, -1):
        with pytest.raises(ValueError, match="thread count must be at least 1"):
            equivalence_suite(6, workers=workers)
        with pytest.raises(ValueError, match="thread count must be at least 1"):
            run_verify(6, workers=workers)
    with pytest.raises(ValueError, match=r"thread count must be an integer, got 1\.5"):
        equivalence_suite(6, workers=1.5)
    assert created == [2, 3]


GOLDEN = Path(__file__).parent / "data" / "verify_n6.machine"


def test_machine_report_matches_golden_up_to_n5():
    # The golden file is `verify --n-max 6 --format machine --threads 2`;
    # without its n = 6 lines it is exactly the n <= 5 report, in order.
    golden = [line for line in GOLDEN.read_text().splitlines() if " n=6 " not in line]
    assert format_machine(run_verify(5)).splitlines() == golden


def test_lemma_max_len_must_be_3_to_6():
    for max_len in (0, 2, 7):
        words = f"lemma max length must be within 3..6, got {max_len}"
        with pytest.raises(ValueError, match=words):
            lemma_suite(4, max_len=max_len)
        # Rejected before any suite runs, even one that never reads it.
        with pytest.raises(ValueError, match=words):
            run_verify(6, suites=("equivalence",), lemma_max_len=max_len)
    for max_len in (3, 6):
        assert lemma_suite(3, max_len=max_len).checks_run > 0
    with pytest.raises(ValueError, match=r"lemma max length must be an integer, got 3\.5"):
        lemma_suite(3, max_len=3.5)

    class Index:
        def __index__(self):
            return 3

    by_index = format_machine([lemma_suite(3, max_len=Index())])
    assert by_index == format_machine([lemma_suite(3, max_len=3)])


def test_equivalence_suite_reports_a_broken_quad_route(monkeypatch):
    from cyclorient import membership

    real = membership._first_unoriented
    broken = (0, 1, 3, 2)
    monkeypatch.setattr(
        membership,
        "_first_unoriented",
        lambda imgs, after: None if imgs == broken else real(imgs, after),
    )
    report = equivalence_suite(4, workers=1)
    assert not report.passed
    [violation] = report.violations
    assert (violation.claim, violation.witness, violation.count) == (
        "quad-vs-definitional",
        "0,1,3,2",
        1,
    )
    claims = {c.claim: c for c in report.claims}
    assert claims["quad-vs-definitional"].checks == 4**4


def test_equivalence_suite_sanctions_only_low_rank_triple_gaps(monkeypatch):
    # A rank-3 map passing the triple tests is a violation, not an exemption.
    from cyclorient import membership

    real = membership._keeps_triples
    monkeypatch.setattr(
        membership,
        "_keeps_triples",
        lambda imgs, after, reverse: imgs == (0, 1, 3, 2) or real(imgs, after, reverse),
    )
    report = equivalence_suite(4, workers=1)
    assert {(v.claim, v.witness, v.count) for v in report.violations} == {
        ("triple-preserve-refined", "0,1,3,2", 1),
        ("triple-reverse-refined", "0,1,3,2", 1),
    }
    assert "0,1,3,2" not in {s.witness for s in report.sanctioned_exceptions}
    assert len(report.sanctioned_exceptions) == len(equivalence_suite(4).sanctioned_exceptions)
    # cross_check reads the same findings: same claims, same detail text.
    per_map = cross_check(Mapping.parse("0,1,3,2")).unsanctioned
    assert [(d.claim, d.detail) for d in per_map] == [
        (v.claim, v.detail) for v in report.violations
    ]


def test_lemma_suite_reports_a_flipped_orientation(monkeypatch):
    from cyclorient import verification

    real = verification._oriented_pool

    def flipped_pool(n, max_len):
        return [
            (items, tag.swapped() if items == (0, 1, 2) else tag)
            for items, tag in real(n, max_len)
        ]

    monkeypatch.setattr(verification, "_oriented_pool", flipped_pool)
    report = lemma_suite(3, max_len=3)
    assert not report.passed
    by_claim = {v.claim: v for v in report.violations}
    preserved = by_claim["image-orientation-preserved"]
    # The three rotations of the identity each send 0,1,2 to a cyclic image.
    assert (preserved.witness, preserved.count) == ("map=0,1,2;seq=0,1,2", 3)
    assert preserved.detail == "image orientation does not match the source"
    assert by_claim["subsequence-inheritance"].witness == "seq=0,1,2;mask=7"


def test_claim_table_names_match_equivalence_suite():
    from cyclorient import cross_check

    table = {
        claim for m in enumerate_all(4) for claim, _ in cross_check(m).claims
    }
    assert table == {c.claim for c in equivalence_suite(4).claims}


def test_claim_table_reprs_are_pinned_by_digest():
    # Every map with n <= 6 in product order, reprs joined with no
    # separator: the detail text, row order and definitional report of
    # every cross_check, not only of hand-picked maps.
    import hashlib
    import itertools

    digest = hashlib.sha256()
    for n in range(1, 7):
        for imgs in itertools.product(range(n), repeat=n):
            digest.update(repr(cross_check(Mapping(n, imgs))).encode())
    assert digest.hexdigest() == (
        "cd367ce94f88a925024eec2d70129463b953129e20edb63f4a517f88b99b45f4"
    )


def test_run_verify_refuses_equivalence_above_n8(monkeypatch):
    from cyclorient import verification

    started = []
    for name in ("equivalence_suite", "identity_suite", "lemma_suite"):
        monkeypatch.setattr(
            verification, name, lambda n, *a, _name=name, **k: started.append((_name, n))
        )
    assert verification.EQUIVALENCE_MAX_N == 8
    with pytest.raises(ValueError, match=r"n_max > 8 is not supported, got 9"):
        run_verify(9)
    with pytest.raises(ValueError, match=r"n_max > 8"):
        run_verify(9, suites=("equivalence",))
    assert started == []
    # Without the equivalence suite the other suites keep their own caps.
    run_verify(9, suites=("identity",))
    assert started == [("identity_suite", n) for n in range(1, 6)]


def test_equivalence_suite_and_count_classes_refuse_n_above_8(monkeypatch):
    from contextlib import nullcontext
    from types import SimpleNamespace

    from cyclorient import verification

    started = []

    def recording_pool(max_workers):
        started.append(("pool", max_workers))
        return nullcontext(SimpleNamespace(map=lambda fn, jobs: []))

    def no_enumeration(*args):
        # Stands in for the per-map work: a missing bound fails here at once
        # instead of walking 387M maps.
        started.append(("enumeration", args))
        raise AssertionError("enumeration started")

    monkeypatch.setattr(verification, "ProcessPoolExecutor", recording_pool)
    monkeypatch.setattr(verification, "_equivalence_range", no_enumeration)
    monkeypatch.setattr(verification, "_tag", no_enumeration)
    assert verification.EQUIVALENCE_MAX_N == 8
    for workers in (1, 2):
        with pytest.raises(ValueError, match=r"n > 8 is not supported, got n=9"):
            equivalence_suite(9, workers=workers)
    with pytest.raises(ValueError, match=r"n > 8 is not supported, got n=9"):
        count_classes(9)
    assert started == []


def _oriented_by_definition(items):
    # Some rotation is non-decreasing (cyclic) or non-increasing (anti-cyclic).
    rotations = [items[i:] + items[:i] for i in range(len(items))]
    return any(
        all(a <= b for a, b in zip(r, r[1:])) or all(a >= b for a, b in zip(r, r[1:]))
        for r in rotations
    )


def test_lemma_checks_match_closed_form_class_sizes():
    import itertools
    import math

    # Each member of rank >= 3 checks the whole pool once: OP_n \ OR_n under
    # the preserved claim and OR_n \ OP_n under the reversed one, and the
    # rank <= 2 members (OP_n ∩ OR_n) are skipped.  The class sizes are the
    # closed forms of ClassCounts.invariant_failures and the pool is counted
    # from the definition, so a loop that skips or double-counts a map fails.
    for n in range(1, 6):
        op = or_ = n * math.comb(2 * n - 1, n - 1) - n * (n - 1)
        both = n + math.comb(n, 2) * n * (n - 1)
        for max_len in (3, 4):
            pool = sum(
                _oriented_by_definition(items)
                for length in range(3, max_len + 1)
                for items in itertools.product(range(n), repeat=length)
            )
            report = lemma_suite(n, max_len=max_len)
            checks = {c.claim: c.checks for c in report.claims}
            assert report.passed, (n, max_len)
            assert checks.get("image-orientation-preserved", 0) == (op - both) * pool, (n, max_len)
            assert checks.get("image-orientation-reversed", 0) == (or_ - both) * pool, (n, max_len)


@pytest.fixture
def started(monkeypatch):
    """The (suite, n) runs that ``run_verify`` starts, with every suite stubbed out."""
    from cyclorient import verification

    runs = []
    for name in ("equivalence_suite", "identity_suite", "lemma_suite"):
        monkeypatch.setattr(
            verification, name, lambda n, *a, _name=name, **k: runs.append((_name, n))
        )
    return runs


def test_run_verify_refuses_an_empty_suite_selection(started):
    with pytest.raises(ValueError, match="no suite selected"):
        run_verify(3, suites=())
    assert started == []


def test_run_verify_refuses_a_bare_suite_string(started):
    with pytest.raises(ValueError, match="not the string 'lemma'"):
        run_verify(2, suites="lemma")
    assert started == []


def test_run_verify_refuses_a_non_iterable_suites(started):
    for suites in (None, 5):
        with pytest.raises(
            ValueError, match=rf"suites must be an iterable of suite names, got {suites}$"
        ):
            run_verify(3, suites=suites)
    assert started == []


def test_readme_machine_example_matches_golden():
    # Every concrete report/claim/sanctioned line of the README's machine
    # format example is a line of the golden report; the `...` template
    # line is skipped.
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("### Machine report format", 1)[1].split("```text\n", 1)[1]
    example = block.split("```", 1)[0].splitlines()
    concrete = [
        line
        for line in example
        if line.split(" ", 1)[0] in ("report", "claim", "sanctioned") and "..." not in line
    ]
    assert len(concrete) == 3
    golden = set(GOLDEN.read_text().splitlines())
    assert [line for line in concrete if line not in golden] == []


def test_readme_library_example_matches_its_comments():
    # Each call of the README's library example prints the repr in its
    # comment; a comment ending in "...)" gives a prefix of that repr.
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Library in three lines", 1)[1].split("```python\n", 1)[1]
    namespace = {}
    calls = []
    for line in block.split("```", 1)[0].splitlines():
        code, _, comment = line.partition("  # ")
        if comment:
            calls.append((code.strip(), comment))
        else:
            exec(code, namespace)
    assert len(calls) == 3
    for code, comment in calls:
        got = repr(eval(code, namespace))
        if comment.endswith("...)"):
            assert got.startswith(comment[: -len("...)")]), code
        else:
            assert got == comment, code


def test_product_set_matches_the_pairwise_oracle():
    import itertools

    from oracles import product_set

    from cyclorient import verification

    for n in range(1, 6):
        members = list(verification._oriented(n, n))
        op = frozenset(images for images, tag in members if tag.admits_cyclic)
        or_ = frozenset(images for images, tag in members if tag.admits_anti_cyclic)
        for left, right in ((op, op), (or_, or_), (or_, op), (op, or_)):
            assert verification._product_set(left, right) == product_set(left, right), n
    # All maps by all maps mixes every rank on both sides.
    for n in range(1, 4):
        every = frozenset(itertools.product(range(n), repeat=n))
        assert verification._product_set(every, every) == product_set(every, every), n
    # Oriented sequences of any length on the left, as the lemma suite
    # composes them: a constant one keeps its own length.
    for n in range(1, 6):
        op = frozenset(images for images, tag in verification._oriented(n, n) if tag.admits_cyclic)
        for k in range(1, 5):
            seqs = frozenset(items for items, _ in verification._oriented(n, k))
            assert verification._product_set(seqs, op) == product_set(seqs, op), (n, k)


def test_lemma_suite_reports_flipped_tags_at_a_sampled_size(monkeypatch):
    from cyclorient import verification

    real = verification._oriented_pool

    def flipped_pool(n, max_len):
        return [
            (items, tag.swapped() if len(items) == 4 else tag)
            for items, tag in real(n, max_len)
        ]

    monkeypatch.setattr(verification, "_oriented_pool", flipped_pool)
    runs = [lemma_suite(5, max_len=4) for _ in range(2)]
    found = [{v.claim: v for v in report.violations} for report in runs]
    for claim in ("image-orientation-preserved", "image-orientation-reversed"):
        assert found[0][claim].count > 0, claim
        assert found[0][claim] == found[1][claim], claim


def test_lemma_suite_matches_the_brute_force_oracle(monkeypatch):
    from oracles import lemma_failures

    from cyclorient import Orientation, verification

    real = verification._oriented_pool

    def flipped_pool(n, max_len):
        # Every seventh entry's tag flipped, so members fail at scattered
        # entries and the witness is not simply the first pair.
        return [
            (items, tag.swapped() if position % 7 == 3 else tag)
            for position, (items, tag) in enumerate(real(n, max_len))
        ]

    def retagged_pool(retag):
        # Every fifth entry retagged, so sources of three or more values
        # carry a tag no correct pool gives them and form groups of their own.
        def pool_of(n, max_len):
            return [
                (items, retag if position % 5 == 2 else tag)
                for position, (items, tag) in enumerate(real(n, max_len))
            ]

        return pool_of

    failed = 0
    both, neither = (retagged_pool(tag) for tag in (Orientation.BOTH, Orientation.NEITHER))
    for pool_of in (real, flipped_pool, both, neither):
        monkeypatch.setattr(verification, "_oriented_pool", pool_of)
        for n in range(1, 6):
            for max_len in (3, 4):
                report = lemma_suite(n, max_len=max_len)
                checks, failures = lemma_failures(n, pool_of(n, max_len))
                image = [c for c in report.claims if c.claim.startswith("image-orientation-")]
                assert {c.claim: c.checks for c in image} == checks, (n, max_len)
                got = {
                    v.claim: (v.witness, v.count)
                    for v in report.violations
                    if v.claim.startswith("image-orientation-")
                }
                assert got == failures, (n, max_len)
                failed += len(failures)
    assert failed > 0


def test_lemma_counts_are_gated_by_their_closed_form(monkeypatch):
    from cyclorient import verification

    real = verification._oriented
    dropped = (0, 1, 2, 3, 4)

    def walk(n, length):
        # The member walk skips one member of OP_5 of rank 5.
        return (row for row in real(n, length) if row[0] != dropped)

    monkeypatch.setattr(verification, "_oriented", walk)
    report = lemma_suite(5, max_len=3)
    pool = len(verification._oriented_pool(5, 3))
    op, both = verification._closed_forms(5)
    [violation] = report.violations
    assert (violation.claim, violation.witness, violation.count) == (
        "image-orientation-preserved",
        "closed-form",
        1,
    )
    assert violation.detail == (
        f"{(op - both - 1) * pool} counted but the closed form gives {(op - both) * pool}"
    )


def test_closed_forms_count_every_walk():
    from cyclorient import verification

    # Cyclic and both-oriented length-k sequences over [n]; k = n is the
    # class-size pair.
    for n in range(1, 6):
        assert verification._closed_forms(n) == verification._closed_forms(n, n)
        for k in range(1, 7):
            if n**k > 20_000:
                continue
            tags = [tag for _, tag in verification._oriented(n, k)]
            cyclic = sum(tag.admits_cyclic for tag in tags)
            both = sum(tag.admits_cyclic and tag.admits_anti_cyclic for tag in tags)
            assert verification._closed_forms(n, k) == (cyclic, both), (n, k)


def test_lemma_subsequence_checks_are_gated_by_their_closed_form(monkeypatch):
    from cyclorient import verification

    real = verification._oriented_pool

    def pool_of(n, max_len):
        # One length-3 entry becomes a copy of a length-4 one: the pool keeps
        # its size, so only the subsequence count (7 -> 15 masks) moves.
        pool = real(n, max_len)
        assert len(pool[0][0]) == 3 and len(pool[-1][0]) == 4
        return [pool[-1]] + pool[1:]

    monkeypatch.setattr(verification, "_oriented_pool", pool_of)
    report = lemma_suite(4, max_len=4)
    [violation] = report.violations
    want = sum(2 ** len(items) - 1 for items, _ in real(4, 4))
    assert (violation.claim, violation.witness, violation.count, violation.detail) == (
        "subsequence-inheritance",
        "closed-form",
        1,
        f"{want + 8} counted but the closed form gives {want}",
    )


def test_lemma_pool_is_gated_by_its_closed_form(monkeypatch):
    from cyclorient import verification

    real = verification._oriented_pool
    # Every image claim scales with the pool it is given, so only the pool
    # gate notices a dropped sequence.
    monkeypatch.setattr(verification, "_oriented_pool", lambda n, max_len: real(n, max_len)[:-1])
    report = lemma_suite(4, max_len=4)
    [violation] = report.violations
    assert (violation.claim, violation.witness, violation.count, violation.detail) == (
        "oriented-pool",
        "closed-form",
        1,
        "243 counted but the closed form gives 244",
    )
