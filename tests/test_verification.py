"""Suite reports: correctness, determinism, merging, serialization."""

from collections import Counter
from pathlib import Path

import oracles
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


def _gap_rows(report):
    # Each literal claim's sanctioned row, by claim.
    return {s.claim: s for s in report.sanctioned_exceptions}


def test_equivalence_n4_sanctioned_set():
    report = equivalence_suite(4)
    assert report.passed
    rows = _gap_rows(report)
    preserve, reverse = rows["triple-preserve-literal"], rows["triple-reverse-literal"]
    assert (0, 1, 0, 1) in preserve.patterns and (1, 0, 1, 0) in preserve.patterns
    assert (preserve.count, preserve.witness, preserve.patterns) == (
        reverse.count, reverse.witness, reverse.patterns
    )
    # Independent description of the exception set: rank <= 2 non-members,
    # each read as its value pattern, the least of them the row's witness.
    expected = [
        m for m in enumerate_all(4) if classify(m).image_size <= 2 and not classify(m).in_op
    ]
    assert preserve.patterns == tuple(sorted({_pattern_of(m.images) for m in expected}))
    least = ",".join(map(str, min(m.images for m in expected)))
    assert (preserve.count, preserve.witness) == (len(expected), least)


def test_equivalence_n5_sanctioned_set_exact():
    report = equivalence_suite(5)
    assert report.passed
    rows = _gap_rows(report)
    for claim, flag in (
        ("triple-preserve-literal", "in_op"),
        ("triple-reverse-literal", "in_or"),
    ):
        expected = [
            m
            for m in enumerate_all(5)
            if classify(m).image_size <= 2 and not getattr(classify(m), flag)
        ]
        row = rows[claim]
        assert row.patterns == tuple(sorted({_pattern_of(m.images) for m in expected}))
        least = ",".join(map(str, min(m.images for m in expected)))
        assert (row.count, row.witness) == (len(expected), least)
    # classify's reader carries the same sanctioned rows as the suite's:
    # one per map, read back as the maps' value patterns.
    per_map = [
        (d.claim, m.images)
        for m in enumerate_all(5)
        for d in cross_check(m).discrepancies
        if d.sanctioned
    ]
    assert {claim: row.count for claim, row in rows.items()} == Counter(c for c, _ in per_map)
    assert {(claim, _pattern_of(imgs)) for claim, imgs in per_map} == {
        (claim, p) for claim, row in rows.items() for p in row.patterns
    }


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
    # In process, no pool: the jobs of n = 5, one per rank from 5 down,
    # hold 8, 8, 9, 3 and 1 orbits, as the brute-force orbits give;
    # merged in reverse, they must give the suite's report.
    from oracles import dihedral_orbits

    from cyclorient import patterns, verification

    jobs = [(5, rank) for rank in range(5, 0, -1)]
    orbits = [sum(max(next(iter(o))) == rank - 1 for o in dihedral_orbits(5)) for _, rank in jobs]
    assert [len(list(patterns.walk(*job))) for job in jobs] == orbits == [8, 8, 9, 3, 1]
    parts = [verification._equivalence_range(job) for job in reversed(jobs)]
    merged = verification._finish("equivalence", 5, verification._merge_tallies(parts), 0.0)
    assert format_machine([merged]) == format_machine([equivalence_suite(5, workers=1)])


def test_equivalence_suite_checks_its_tallies_against_closed_forms(monkeypatch):
    # Drop the rank-5 non-member pattern 0,1,2,4,3 from its job, that of
    # rank 5.  It stands for its orbit of five patterns that start with 0
    # (0,1,3,2,4 among them), each with its five value rotations: weight
    # 25·C(5, 5) = 25.  Every route agrees on every map left, so only the
    # closed forms notice, each claim twice: over all maps, 5^5 = 3125
    # checks per route claim, |P_5| = 1015, |OP_5| = 610 and 100 rank-2
    # gaps per mode; at rank 5, 5! = 120 maps, 10 in P_5 and 5 in OP_5.
    from cyclorient import patterns, verification

    real = patterns.walk
    dropped = (0, 1, 2, 4, 3)
    assert (dropped, 25) in set(real(5, 5))
    assert (0, 1, 3, 2, 4) in patterns.orbit(dropped) and len(patterns.orbit(dropped)) == 5
    assert verification._claims(dropped)[1].count("witness-quad") == 1
    monkeypatch.setattr(
        patterns,
        "walk",
        lambda n, rank: ((pattern, w) for pattern, w in real(n, rank) if pattern != dropped),
    )
    report = equivalence_suite(5, workers=1)
    assert not report.passed
    # The rank gate's detail is recorded first; the merged gate adds its count.
    routes = "95 counted but the closed form gives 120 at rank 5"
    triples = "90 counted but the closed form gives 115 at rank 5"
    assert {(v.claim, v.witness, v.count, v.detail) for v in report.violations} == {
        ("triple-preserve-refined", "closed-form", 2, routes),
        ("triple-reverse-refined", "closed-form", 2, routes),
        ("quad-vs-definitional", "closed-form", 2, routes),
        ("chord-vs-definitional", "closed-form", 2, routes),
        ("witness-quad", "closed-form", 2, "85 counted but the closed form gives 110 at rank 5"),
        ("witness-triple-preserve", "closed-form", 2, triples),
        ("witness-triple-reverse", "closed-form", 2, triples),
    }
    assert sum(s.count for s in report.sanctioned_exceptions) == 200
    # The merged gate alone, on the report's checks and gap rows.
    merged = verification._new_tally()
    merged["checks"].update({c.claim: c.checks for c in report.claims})
    for s in report.sanctioned_exceptions:
        merged["sanctioned"][s.claim] = s.count
        merged["gaps"][s.claim] = list(s.patterns)
    verification._check_tallies(5, merged)
    routes = "3100 counted but the closed form gives 3125"
    assert {claim: row[2] for claim, row in merged["violations"].items()} == {
        "triple-preserve-refined": routes,
        "triple-reverse-refined": routes,
        "quad-vs-definitional": routes,
        "chord-vs-definitional": routes,
        "witness-quad": "2085 counted but the closed form gives 2110",
        "witness-triple-preserve": "2390 counted but the closed form gives 2415",
        "witness-triple-reverse": "2390 counted but the closed form gives 2415",
    }


def _pattern_of(imgs):
    # Each image replaced by its rank in the sorted image set.
    values = sorted(set(imgs))
    return tuple(map(values.index, imgs))


def _value_rotations(pattern):
    # The pattern and its rotations v -> (v + s) mod r, r its rank.
    rank = max(pattern) + 1
    return {tuple((v + shift) % rank for v in pattern) for shift in range(rank)}


def test_patterns_hold_each_value_pattern_once():
    # The jobs split [n]'s patterns that start with 0 by rank, one walked
    # pattern per orbit; the orbits hold each such pattern once and, with
    # their r value rotations, the pattern of every map of [n] once,
    # Fubini(n) of them in all.  The walked patterns' spreads hold every
    # map of [n] once, each as many maps as its pattern's weight, and
    # split's families read every map back from its image set and pattern.
    import itertools

    from cyclorient import patterns

    for n in range(1, 7):
        walked = [
            (rank, pattern, weight)
            for rank in range(1, n + 1)
            for pattern, weight in patterns.walk(n, rank)
        ]
        assert all(pattern[0] == 0 and max(pattern) == rank - 1 for rank, pattern, _ in walked), n
        orbits = [patterns.orbit(pattern) for _, pattern, _ in walked]
        every_map = list(itertools.product(range(n), repeat=n))
        leading = {p for p in map(_pattern_of, every_map) if p[0] == 0}
        assert sum(map(len, orbits)) == len(leading) and set().union(*orbits) == leading, n
        rotations = [
            rotated for orbit in orbits for member in orbit for rotated in _value_rotations(member)
        ]
        assert len(rotations) == len(set(rotations)), n
        assert set(rotations) == {_pattern_of(imgs) for imgs in every_map}, n
        spreads = [(p, weight, list(oracles.spread(p, n))) for _, p, weight in walked]
        for (pattern, weight, maps), orbit in zip(spreads, orbits):
            assert len(maps) == weight, (n, pattern)
            want = set().union(*map(_value_rotations, orbit))
            assert {_pattern_of(imgs) for imgs in maps} == want, (n, pattern)
        assert sorted(imgs for _, _, maps in spreads for imgs in maps) == every_map, n
    orbit_sizes = [
        sum(len(patterns.orbit(p)) for rank in range(1, n + 1) for p, _ in patterns.walk(n, rank))
        for n in (6, 7, 8)
    ]
    assert orbit_sizes == [1082, 9366, 94586]
    for n in range(1, 6):
        every_map = set(itertools.product(range(n), repeat=n))
        families = oracles.split(every_map)
        read_back = [
            (image, p) for shapes, images in families.items() for image in images for p in shapes
        ]
        want = sorted((tuple(sorted(set(imgs))), _pattern_of(imgs)) for imgs in every_map)
        assert sorted(read_back) == want, n
        assert {tuple(map(image.__getitem__, p)) for image, p in read_back} == every_map, n


def test_equivalence_suite_gates_each_route_count_at_n_to_the_n(monkeypatch):
    # A walk that drops each rank <= 2 pattern in both OP_5 and OR_5 loses
    # the 205 maps of OP_5 ∩ OR_5 (5 + C(5, 2)·5·4).  None of them has a
    # witness or a sanctioned gap, and every route agrees on every map
    # left, so only the route claims' counts see it: 5^5 = 3125 checks over
    # all maps, and at ranks 1 and 2 the 5 and C(5, 2)(2^5 − 2) = 300 maps
    # of those ranks, each gate adding one to the count.  Rank 2's job is
    # merged first, so its detail is the one kept.
    from cyclorient import patterns
    from cyclorient.claims import _ROUTE_CLAIMS

    op, or_ = oracles._classes(5)
    both = op & or_
    real = patterns.walk
    checks = {c.claim: c.checks for c in equivalence_suite(5, workers=1).claims}
    monkeypatch.setattr(
        patterns,
        "walk",
        lambda n, rank: (row for row in real(n, rank) if rank > 2 or row[0] not in both),
    )
    report = equivalence_suite(5, workers=1)
    detail = "100 counted but the closed form gives 300 at rank 2"
    assert {(v.claim, v.witness, v.count, v.detail) for v in report.violations} == {
        (claim, "closed-form", 3, detail) for claim in _ROUTE_CLAIMS
    }
    dropped = {claim: checks[claim] - 205 for claim in _ROUTE_CLAIMS}
    assert {c.claim: c.checks for c in report.claims} == checks | dropped
    assert sum(s.count for s in report.sanctioned_exceptions) == 200


def test_equivalence_suite_gates_each_rank_against_its_closed_forms(monkeypatch):
    # A walk that doubles the weight of every rank-3 pattern at n = 5 (an
    # orbit miscounted, say) fails rank 3's job alone: its 5·4·3·S(5, 3) =
    # 1,500 maps, 600 of them in P_5 and 300 in OP_5, checked twice.  The
    # merged gate adds one to each count; rank 3's detail is kept.
    from cyclorient import patterns, verification

    real = patterns.walk
    monkeypatch.setattr(
        patterns,
        "walk",
        lambda n, rank: ((p, weight * (1 + (rank == 3))) for p, weight in real(n, rank)),
    )
    jobs = {rank: verification._equivalence_range((5, rank)) for rank in range(1, 6)}
    assert [rank for rank, tally in jobs.items() if tally["violations"]] == [3]
    wants = dict.fromkeys(verification._ROUTE_CLAIMS, 1500) | {
        "witness-quad": 900,
        "witness-triple-preserve": 1200,
        "witness-triple-reverse": 1200,
    }
    report = equivalence_suite(5, workers=1)
    assert {(v.claim, v.witness, v.count, v.detail) for v in report.violations} == {
        (claim, "closed-form", 2, f"{2 * want} counted but the closed form gives {want} at rank 3")
        for claim, want in wants.items()
    }


def test_a_gap_dropped_from_one_literal_claim_fails_that_claim_alone(monkeypatch):
    # Both triple-*-literal rows of a rank-2 gap pattern count the maps it
    # stands for and list their value patterns.  A claim table that drops
    # triple-reverse-literal on one walked pattern at n = 5 takes its
    # orbit's maps and patterns from that claim alone: its rank-2 gate and
    # the merged one fail, the rank-2 detail kept, and
    # triple-preserve-literal keeps its whole row.
    from cyclorient import patterns, verification

    before = equivalence_suite(5, workers=1)
    walked = dict(patterns.walk(5, 2))
    gaps = {"triple-preserve-literal", "triple-reverse-literal"}
    target = min(p for p in walked if {row[0] for row in verification._claims(p)[2]} == gaps)
    real = verification._claims

    def claims(imgs):
        verdicts, checked, findings = real(imgs)
        if imgs == target:
            findings = [row for row in findings if row[0] != "triple-reverse-literal"]
        return verdicts, checked, findings

    monkeypatch.setattr(verification, "_claims", claims)
    report = equivalence_suite(5, workers=1)

    lost = list(oracles.spread(target, 5))
    assert len(set(lost)) == len(lost) == walked[target]
    kept, cut = _gap_rows(before), _gap_rows(report)
    assert cut["triple-preserve-literal"] == kept["triple-preserve-literal"]
    # The reverse row keeps the other orbits' patterns; at n = 5 the target's
    # orbit holds all ten, so no row is left.
    reverse, row = kept["triple-reverse-literal"], cut.get("triple-reverse-literal")
    left = tuple(p for p in reverse.patterns if p not in set(map(_pattern_of, lost)))
    assert ((row.count, row.patterns) if row else (0, ())) == (reverse.count - len(lost), left)
    # C(5, 2)·(2^5 − 2 − 5·4) = 100 gaps at rank 2, all of n = 5's.
    detail = f"{100 - len(lost)} counted but the closed form gives 100 at rank 2"
    assert [(v.claim, v.witness, v.count, v.detail) for v in report.violations] == [
        ("triple-reverse-literal", "closed-form", 2, detail)
    ]
    assert report.claims == before.claims


def test_a_gap_moved_to_a_pattern_of_the_same_weight_fails_on_the_digest(monkeypatch):
    # A claim table that moves both gap findings at n = 6 from the walked
    # gap pattern 0,0,1,0,0,1 to the non-gap 0,0,0,1,1,1, each of weight 90
    # (three patterns in two value rotations, C(6, 2) maps each), keeps
    # every count: each gate passes and so does the run.  The least gap map
    # stays 0,0,0,1,0,1.  Only each gaps line's digest changes, so the
    # golden file pins the move.
    from cyclorient import patterns, verification

    walked = dict(patterns.walk(6, 2))
    gap, other = (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 1, 1)
    assert walked[gap] == walked[other] == 90
    real = verification._claims
    moved = [row for row in real(gap)[2] if row[2]]
    assert len(moved) == 2 and not real(other)[2]

    def claims(imgs):
        verdicts, checked, findings = real(imgs)
        if imgs == gap:
            findings = [row for row in findings if not row[2]]
        elif imgs == other:
            findings = findings + moved
        return verdicts, checked, findings

    monkeypatch.setattr(verification, "_claims", claims)
    report = equivalence_suite(6, workers=1)
    assert report.passed
    golden = [
        line for line in GOLDEN.read_text().splitlines() if " suite=equivalence n=6 " in line
    ]
    got = format_machine([report]).splitlines()
    assert [line for line in got if not line.startswith("gaps ")] == [
        line for line in golden if not line.startswith("gaps ")
    ]
    pairs = [
        (line.rsplit(" sha256=", 1), want.rsplit(" sha256=", 1))
        for line, want in zip(got, golden)
        if line.startswith("gaps ")
    ]
    assert len(pairs) == 2
    for (fields, digest), (want_fields, want_digest) in pairs:
        assert fields == want_fields and digest != want_digest


def check_walk_orbits(n):
    """The brute-force orbits of the patterns of [n] that start with 0 are
    the oracle: each holds exactly one walked pattern, weighted
    |orbit|·r·C(n, r), and patterns.orbit gives it back.  Returns the
    number of orbits."""
    import math

    from oracles import dihedral_orbits

    from cyclorient import patterns

    walked = {p: w for rank in range(1, n + 1) for p, w in patterns.walk(n, rank)}
    orbits = dihedral_orbits(n)
    assert len(walked) == len(orbits), n
    for orbit in orbits:
        [pattern] = orbit & walked.keys()
        rank = max(pattern) + 1
        assert walked[pattern] == len(orbit) * rank * math.comb(n, rank), (n, pattern)
        assert patterns.orbit(pattern) == orbit, (n, pattern)
    return len(orbits)


def test_walk_yields_one_pattern_per_dihedral_orbit():
    # Up to n = 7; CI runs check_walk_orbits(8).  At n = 8 the 6,335
    # weights cover the 8^8 maps.
    from cyclorient import patterns

    assert [check_walk_orbits(n) for n in range(1, 8)] == [1, 2, 4, 10, 29, 134, 776]
    weights = [w for rank in range(1, 9) for _, w in patterns.walk(8, rank)]
    assert (len(weights), sum(weights)) == (6335, 8**8)


def check_partition_test(n):
    """patterns._stabiliser moves only the positions and stops at a moved
    string's first difference; the oracle moves the values too
    (patterns._moves), renumbers each whole string by first use and then
    compares.  Both agree on every set partition of n positions
    (oracles.partitions), kept or not.  Returns the number of partitions."""
    from oracles import partition_stabiliser, partitions

    from cyclorient import patterns

    count = 0
    for rank in range(1, n + 1):
        for blocks in partitions(n, rank):
            assert patterns._stabiliser(blocks) == partition_stabiliser(blocks), blocks
            count += 1
    return count


def test_partition_test_matches_the_move_and_renumber_oracle():
    # Every set partition of n <= 8 positions, 4,140 at n = 8; CI runs
    # check_partition_test(10), all 115,975.
    assert [check_partition_test(n) for n in range(1, 9)] == [1, 2, 5, 15, 52, 203, 877, 4140]


def check_walk_candidates(n):
    """The walk's candidates are ordered subsequences of the oracles' lists
    that drop nothing kept: patterns._partitions(n, r) of
    oracles.partitions(n, r), holding every partition that
    oracles.partition_stabiliser keeps, and patterns._least_steps(n) of the
    lead-0 patterns of rank n in lexicographic order, holding every one that
    no move of patterns._moves lowers.  Returns the numbers of candidate
    partitions and of candidate rank-n patterns."""
    import itertools

    from oracles import partition_stabiliser, partitions

    from cyclorient import patterns

    def pruned_from(full, candidates, kept):
        rest = iter(candidates)
        want = next(rest, None)
        for item in full:
            if item == want:
                want = next(rest, None)
            else:
                assert not kept(item), (n, item)
        assert want is None, (n, want)  # every candidate met, in order

    count = 0
    for rank in range(1, n + 1):
        found = patterns._partitions(n, rank)
        pruned_from(partitions(n, rank), found, lambda b: partition_stabiliser(b) is not None)
        count += len(found)
    # At n = 1 the walk labels its one partition by permutations; _least_steps(1) is empty.
    rank_n = list(patterns._least_steps(n))
    lead_0 = [(0, *labels) for labels in itertools.permutations(range(1, n))] if n > 1 else []
    pruned_from(lead_0, rank_n, lambda p: all(moved >= p for moved in patterns._moves(p)))
    return count, len(rank_n)


def test_walk_candidates_drop_only_what_a_move_lowers():
    # Up to n = 8; CI runs check_walk_candidates(10).
    assert [check_walk_candidates(n) for n in range(1, 9)] == [
        (1, 0), (2, 1), (3, 2), (8, 3), (21, 11), (76, 35), (296, 187), (1301, 1098)
    ]


def test_dropping_a_kept_candidate_fails_the_rank_gate(monkeypatch):
    # A partition generator that drops one canonical partition, or a rank-n
    # candidate list that lacks one kept pattern, loses that partition's or
    # pattern's maps, and the job's closed forms at its rank notice: for
    # every canonical partition and every kept rank-n pattern up to n = 7.
    from cyclorient import patterns, verification

    def rank_gate_fails(n, rank):
        failed = verification._equivalence_range((n, rank))["violations"]
        _, _, detail, _ = failed.get("quad-vs-definitional", (None, None, "", 0))
        return detail.endswith(f" at rank {rank}")

    partitions, least_steps = patterns._partitions, patterns._least_steps
    kept = {n: [p for p, _ in patterns.walk(n, n)] for n in range(2, 8)}
    for n in range(1, 8):
        for rank in range(1, n + 1):
            for dropped in partitions(n, rank):
                if patterns._stabiliser(dropped) is None:
                    continue
                monkeypatch.setattr(
                    patterns,
                    "_partitions",
                    lambda n, r, d=dropped: [b for b in partitions(n, r) if b != d],
                )
                assert rank_gate_fails(n, rank), dropped
    monkeypatch.setattr(patterns, "_partitions", partitions)
    for n, patterns_kept in kept.items():
        for dropped in patterns_kept:
            monkeypatch.setattr(
                patterns, "_least_steps", lambda n, d=dropped: (p for p in least_steps(n) if p != d)
            )
            assert rank_gate_fails(n, n), dropped


def test_walk_is_pinned_by_digest_up_to_n9():
    # Every walked pattern of n = 1..9, rank by rank, with its weight and in
    # walk order, one line "n rank pattern weight" each.
    import hashlib

    from cyclorient import patterns

    text = "".join(
        f"{n} {rank} {','.join(map(str, pattern))} {weight}\n"
        for n in range(1, 10)
        for rank in range(1, n + 1)
        for pattern, weight in patterns.walk(n, rank)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "00f8a15b22c3c0d4f75a04745508b76ea97996bac17fcac69f68708ea2d40424"
    )


def _gap_lines(n, gap_maps):
    """The report's ``gaps`` lines recomputed from per-map ``(claim, imgs)``
    rows with no suite code: per claim, the number of maps, the least of
    them, and the sha256 of their distinct value patterns, sorted, each
    as comma-separated values and a newline."""
    import hashlib

    lines = []
    for claim in sorted({claim for claim, _ in gap_maps}):
        maps = [imgs for found, imgs in gap_maps if found == claim]
        shapes = sorted(set(map(_pattern_of, maps)))
        text = "".join(",".join(map(str, p)) + "\n" for p in shapes)
        lines.append(
            f"gaps suite=equivalence n={n} claim={claim} count={len(maps)}"
            f" patterns={len(shapes)} least={','.join(map(str, min(maps)))}"
            f" sha256={hashlib.sha256(text.encode()).hexdigest()}"
        )
    return lines


def check_pattern_walk(n):
    """The suite's report at n equals the full n^n walk's, the oracle of
    every map's own claim table and witness, and each ``gaps`` line equals
    the one :func:`_gap_lines` recomputes from the walk's per-map gap rows.
    Up to n = 8 the jobs run in process at any worker count, so one run
    covers them all; test_pool_report_matches_one_worker_at_n9 starts the
    pool."""
    from oracles import equivalence_walk

    from cyclorient import verification

    tally = equivalence_walk(n)
    verification._check_tallies(n, tally)
    want = format_machine([verification._finish("equivalence", n, tally, 0.0)])
    got = format_machine([equivalence_suite(n)])
    assert got == want, n
    gaps = [line for line in got.splitlines() if line.startswith("gaps ")]
    assert gaps == _gap_lines(n, tally["gap_maps"]), n


def test_pattern_walk_matches_the_full_walk_up_to_n6():
    # CI runs check_pattern_walk(7).
    for n in range(1, 7):
        check_pattern_walk(n)


def _mismatches(n, draws, seed, partners, points=True):
    """Draw seeded patterns of [n] and return the (pattern, partner) pairs
    whose claim table, or the outcome of a witness extractor, differs, with
    a tally of what the draws covered.  ``partners(pattern, rng)`` lists the
    maps each pattern is compared with; without ``points`` an extractor's
    outcome is only whether it succeeds, or the error it raises."""
    import random
    from collections import Counter

    from cyclorient import witnesses
    from cyclorient.claims import _claims

    def outcomes(imgs):
        found = []
        for extract, *mode in (
            (witnesses._witness_triple, "preserve"),
            (witnesses._witness_triple, "reverse"),
            (witnesses._witness_quad,),
        ):
            try:
                witness = extract(imgs, *mode)
            except (ValueError, RuntimeError) as exc:
                found.append((type(exc).__name__, str(exc)) if points else type(exc).__name__)
            else:
                found.append(witness if points else "found")
        return found

    rng = random.Random(seed)
    mismatches, covered = [], Counter()
    for _ in range(draws):
        # Images below a random bound reach the low ranks and their gaps.
        bound = rng.randint(1, n)
        images = [rng.randrange(bound) for _ in range(n)]
        if rng.random() < 0.5:  # a member of P_n: a sorted list rotated, maybe reversed
            images.sort()
            k = rng.randrange(n)
            images = images[k:] + images[:k]
            if rng.random() < 0.5:
                images.reverse()
        pattern = _pattern_of(images)
        others = partners(pattern, rng)
        table, found = _claims(pattern), outcomes(pattern)
        for other in others:
            if table != _claims(other) or found != outcomes(other):
                mismatches.append((pattern, other))
        covered["moved"] += any(other != pattern for other in others)
        covered["member"] += table[0][2]
        covered["witness"] += any(claim.startswith("witness") for claim in table[1])
        covered["sanctioned"] += any(sanctioned for _, _, sanctioned in table[2])
    return mismatches, covered


def _relabelling_mismatches(n, draws, seed):
    """Read seeded patterns of [n] through random image sets S and return
    the (pattern, relabelled map) pairs whose claim table, or the outcome
    of a witness extractor, differs, with a tally of what the draws
    covered.  The pattern walk rests on there being none: the claims
    compare image values and never read them otherwise."""

    def relabelled(pattern, rng):
        image_set = sorted(rng.sample(range(n), max(pattern) + 1))
        return [tuple(image_set[v] for v in pattern)]

    return _mismatches(n, draws, seed, relabelled)


def _rotation_mismatches(n, draws, seed):
    """Compare seeded patterns of [n] with each of their value rotations
    v → (v + s) mod r, as :func:`_relabelling_mismatches` compares them
    with relabelled maps.  The walk of the patterns that start with 0 rests
    on there being none: the claims depend only on the cyclic order of the
    image values.  A rotation may move a witness's points, so only whether
    each extractor succeeds is compared."""

    def rotations(pattern, rng):
        return sorted(_value_rotations(pattern) - {pattern})

    return _mismatches(n, draws, seed, rotations, points=False)


def _dihedral_mismatches(n, draws, seed):
    """Compare seeded patterns of [n] with their position rotations and
    with their position reversal under the value reflection v → r − 1 − v,
    as :func:`_rotation_mismatches` compares them with their value
    rotations.  A walk of one pattern per dihedral orbit would rest on
    there being none; only whether each extractor succeeds is compared."""

    def moves(pattern, rng):
        turned = [pattern[k:] + pattern[:k] for k in range(1, len(pattern))]
        return turned + [tuple(max(pattern) - v for v in reversed(pattern))]

    return _mismatches(n, draws, seed, moves, points=False)


def test_relabelling_keeps_claims_and_witnesses_past_the_walk():
    # The suite visits only patterns; at n = 7..12 no walk checks the maps
    # it counts through them, so the premise is checked directly there.
    for n in range(7, 13):
        mismatches, covered = _relabelling_mismatches(n, 150, seed=n)
        assert mismatches == [], (n, mismatches[:3])
        assert min(covered.values()) > 0 and len(covered) == 4, (n, covered)


def test_value_rotation_keeps_claims_and_witness_outcomes_past_the_walk():
    # The suite visits only the patterns that start with 0; at n = 7..12 no
    # walk checks the rotations it counts through them, so the premise is
    # checked directly there.
    for n in range(7, 13):
        mismatches, covered = _rotation_mismatches(n, 150, seed=n)
        assert mismatches == [], (n, mismatches[:3])
        assert min(covered.values()) > 0 and len(covered) == 4, (n, covered)


def test_dihedral_moves_keep_claims_and_witness_outcomes_past_the_walk():
    # test_claim_table_is_symmetric_under_rotation_and_reversal covers every
    # map up to n = 6; at n = 7..12 the symmetry is checked on seeded
    # patterns, each against its position rotations and reflected reversal.
    for n in range(7, 13):
        mismatches, covered = _dihedral_mismatches(n, 150, seed=n)
        assert mismatches == [], (n, mismatches[:3])
        assert min(covered.values()) > 0 and len(covered) == 4, (n, covered)


def test_pattern_walk_misses_a_route_broken_off_the_patterns(monkeypatch):
    # The reduction's limit: a chord route that fails only on maps whose
    # image set is not 0..r - 1 never meets the pattern walk, so the suite
    # passes with its parent's report; the full walk and the relabelling
    # check both catch it.
    from oracles import equivalence_walk

    from cyclorient import chords

    want = format_machine([equivalence_suite(5, workers=1)])
    real = chords._first_disjoint

    def broken(imgs, after):
        if set(imgs) != set(range(len(set(imgs)))):
            return (0, 1, 2, 3)
        return real(imgs, after)

    monkeypatch.setattr(chords, "_first_disjoint", broken)
    report = equivalence_suite(5, workers=1)
    assert report.passed and format_machine([report]) == want
    assert "chord-vs-definitional" in equivalence_walk(5)["violations"]
    mismatches, _ = _relabelling_mismatches(5, 150, seed=5)
    assert mismatches


def test_rotation_walk_misses_a_route_broken_off_the_lead_zero_patterns(monkeypatch):
    # The rotation's limit: a chord route that fails only on maps whose
    # first image is not their least never meets the walk of the patterns
    # that start with 0, so the suite passes with its unpatched report; the
    # full walk and the rotation check both catch it.  The relabelling check
    # cannot: an increasing relabelling keeps which image is least.
    from oracles import equivalence_walk

    from cyclorient import chords

    want = format_machine([equivalence_suite(5, workers=1)])
    real = chords._first_disjoint

    def broken(imgs, after):
        if imgs[0] != min(imgs):
            return (0, 1, 2, 3)
        return real(imgs, after)

    monkeypatch.setattr(chords, "_first_disjoint", broken)
    report = equivalence_suite(5, workers=1)
    assert report.passed and format_machine([report]) == want
    assert "chord-vs-definitional" in equivalence_walk(5)["violations"]
    mismatches, _ = _rotation_mismatches(5, 150, seed=5)
    assert mismatches
    assert _relabelling_mismatches(5, 150, seed=5)[0] == []


def test_orbit_walk_misses_a_route_broken_off_the_walked_patterns(monkeypatch):
    # The orbit walk's limit: a chord route that fails only on the patterns
    # that start with 0 but stand in an orbit for another never meets the
    # walk, so the suite passes with its unpatched report; the full walk
    # and the dihedral check both catch it.
    from oracles import dihedral_orbits, equivalence_walk

    from cyclorient import chords, patterns

    want = format_machine([equivalence_suite(5, workers=1)])
    walked = {p for rank in range(1, 6) for p, _ in patterns.walk(5, rank)}
    unwalked = set().union(*dihedral_orbits(5)) - walked
    real = chords._first_disjoint

    def broken(imgs, after):
        if imgs in unwalked:
            return (0, 1, 2, 3)
        return real(imgs, after)

    monkeypatch.setattr(chords, "_first_disjoint", broken)
    report = equivalence_suite(5, workers=1)
    assert report.passed and format_machine([report]) == want
    assert "chord-vs-definitional" in equivalence_walk(5)["violations"]
    mismatches, _ = _dihedral_mismatches(5, 150, seed=5)
    assert mismatches


def test_pool_starts_from_n9_at_two_workers(monkeypatch):
    # Below n = 9 the pool saves nothing on the walk it shares out, so two
    # workers run every rank job in process; from n = 9 they start one
    # pool of 2 workers, which runs them all.  The jobs are stubbed.
    from contextlib import nullcontext
    from types import SimpleNamespace

    from cyclorient import verification

    pools, in_process = [], []

    def job(args):
        in_process.append(args)
        return verification._new_tally()

    def recording_pool(max_workers):
        pools.append(max_workers)
        return nullcontext(
            SimpleNamespace(map=lambda fn, jobs: [verification._new_tally() for _ in jobs])
        )

    monkeypatch.setattr(verification, "_equivalence_range", job)
    monkeypatch.setattr(verification, "ProcessPoolExecutor", recording_pool)
    monkeypatch.setattr(verification.os, "cpu_count", lambda: 2)
    for n in (7, 8):
        equivalence_suite(n, workers=2)
        assert pools == [] and in_process == [(n, rank) for rank in range(n, 0, -1)], n
        in_process.clear()
    equivalence_suite(9, workers=2)
    assert pools == [2] and in_process == []
    equivalence_suite(9, workers=1)
    assert pools == [2] and in_process == [(9, rank) for rank in range(9, 0, -1)]


def test_pool_report_matches_one_worker_at_n9(monkeypatch):
    # At n = 9 two workers start a real process pool, also on a one-CPU
    # machine; its merged report must be the in-process one byte for byte,
    # pinned by the digest of the one-worker report (a second walk of the
    # 9^9 maps would double the cost).
    import hashlib

    from cyclorient import verification

    real = verification.ProcessPoolExecutor
    started = []

    def recording_pool(max_workers):
        started.append(max_workers)
        return real(max_workers)

    monkeypatch.setattr(verification, "ProcessPoolExecutor", recording_pool)
    monkeypatch.setattr(verification.os, "cpu_count", lambda: 2)
    report = format_machine([equivalence_suite(9, workers=2)])
    assert started == [2]
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "ec3f4fa4c26efb8d159102fa98b65aa2b97b8de0edc7fcad4fca9990764769b7"
    )


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

    real = verification._compose
    monkeypatch.setattr(
        verification, "_compose", lambda left, right: real(left, right) | {(0, 1, 0, 1)}
    )
    report = identity_suite(4)
    assert not report.passed
    # The suite composes patterns, so the injected pattern stands for its
    # C(4, 2) = 6 maps.  It composes only OP's left operands: an OR left
    # operand's products are those reversed, so they hold 1,0,1,0 instead,
    # and P.P both.
    assert {(v.claim, v.witness, v.count, v.detail) for v in report.violations} == {
        ("op-closed", "0,1,0,1", 1, "6 offending map(s)"),
        ("op-or-equals-or", "0,1,0,1", 1, "6 offending map(s)"),
        ("or-op-equals-or", "1,0,1,0", 1, "6 offending map(s)"),
        ("or-or-equals-op", "1,0,1,0", 1, "6 offending map(s)"),
        ("p-closed", "0,1,0,1", 1, "12 offending map(s)"),
    }
    claims = {c.claim: c for c in report.claims}
    assert claims["op-and-or-is-low-rank-p"].violations == 0
    assert claims["p-closed"].checks == 192  # P.P counts the maps of its distinct products


def test_identity_suite_reports_a_missing_product_only_for_equalities(monkeypatch):
    from cyclorient import verification

    real = verification._compose
    monkeypatch.setattr(
        verification, "_compose", lambda left, right: real(left, right) - {(0, 1, 2, 3)}
    )
    report = identity_suite(4)
    # Only an equality notices a missing map.  The identity is in OP_4 but
    # not OR_4, and OP∘OP misses it, so its reversal OR∘OP misses 3,2,1,0.
    [violation] = report.violations
    assert (violation.claim, violation.witness, violation.count, violation.detail) == (
        "or-op-equals-or",
        "3,2,1,0",
        1,
        "1 offending map(s)",
    )


def test_identity_bounds():
    with pytest.raises(ValueError):
        identity_suite(11)
    with pytest.raises(ValueError):
        identity_suite(0)
    # Sizes must be integers, refused in the library's words.
    with pytest.raises(ValueError, match=r"identity suite n must be an integer, got 3\.0"):
        identity_suite(3.0)
    n = identity_suite(True).n
    assert n == 1 and type(n) is int


def test_cyclic_patterns_are_the_class_patterns():
    # The builder both suites read, against the members of OP_k whose value
    # set is 0..r - 1, with r·C(k, r) patterns of each rank r >= 2.
    import math
    from collections import Counter

    from cyclorient import patterns

    for k in range(1, 9):
        built = patterns.cyclic(k)
        op, _ = oracles._classes(k)
        assert built == {t for t in op if set(t) == set(range(max(t) + 1))}, k
        ranks = Counter(max(p) + 1 for p in built)
        assert ranks == {1: 1} | {r: r * math.comb(k, r) for r in range(2, k + 1)}, k


def test_restricting_class_members_gives_the_class_sequences():
    # The identity suite's premise: the members of OP_n (OR_n) restricted
    # to any r positions are exactly the cyclic (anti-cyclic) length-r
    # sequences over [n], which the kernel walk tags.
    import itertools

    from oracles import oriented_walk

    for n in range(1, 7):
        classes = oracles._classes(n)
        for r in range(1, n + 1):
            rows = list(oriented_walk(n, r))
            wants = (
                {items for items, tag in rows if tag.admits_cyclic},
                {items for items, tag in rows if tag.admits_anti_cyclic},
            )
            for positions in itertools.combinations(range(n), r):
                for members, want in zip(classes, wants):
                    got = {tuple(map(m.__getitem__, positions)) for m in members}
                    assert got == want, (n, positions)


def check_identity_against_oracle(n):
    """The identity suite's machine report at n equals the one the products
    of whole classes give (``oracles.identity_tally``)."""
    from oracles import identity_tally

    from cyclorient import verification

    want = format_machine([verification._finish("identity", n, identity_tally(n), 0.0)])
    assert format_machine([identity_suite(n)]) == want, n


def test_identity_suite_matches_the_tuple_oracle():
    # CI runs check_identity_against_oracle(7).
    for n in range(1, 7):
        check_identity_against_oracle(n)


def test_identity_reports_are_pinned_by_digest_up_to_n8():
    # The machine reports for n = 1..8, concatenated, so the rank grouping
    # of the products stays checked where every rank up to 8 composes; CI
    # pins the same bytes as the first 56 lines of a --n-max 9 run.
    import hashlib

    reports = "".join(format_machine([identity_suite(n)]) for n in range(1, 9))
    assert hashlib.sha256(reports.encode()).hexdigest() == (
        "d8463fe3d19156099b877c0ee2c37e02edc59d97db4bad6b35cc6cf3b631906f"
    )


def test_identity_counts_are_gated_by_their_closed_forms(monkeypatch):
    from cyclorient import patterns, verification

    real = patterns.cyclic
    # The builder drops one rank-5 pattern at length 5, so OP_5 and OR_5
    # (its reversals) each lose one map.
    monkeypatch.setattr(
        patterns, "cyclic", lambda k: real(k) - {(0, 1, 2, 3, 4)} if k == 5 else real(k)
    )
    report = identity_suite(5)
    op, both = verification._closed_forms(5)
    claims = {c.claim: c for c in report.claims}
    for claim in ("or-or-equals-op", "or-op-equals-or", "op-or-equals-or", "op-closed"):
        # One violation for the offending identity, one for the gate.
        assert (claims[claim].checks, claims[claim].violations) == ((op - 1) ** 2, 2), claim
    gated = {v.claim: v for v in report.violations}["op-and-or-is-low-rank-p"]
    assert (gated.witness, gated.count, gated.detail) == (
        "closed-form",
        1,
        f"{2 * op - both - 2} counted but the closed form gives {2 * op - both}",
    )
    # A shorter pattern enters the products at n only as a right operand,
    # whose products the other patterns still cover; the run at its own
    # length gates it.
    monkeypatch.setattr(patterns, "cyclic", lambda k: real(k) - {(0, 1, 2, 3)})
    assert identity_suite(5).passed
    witnesses = {v.claim: v.witness for v in identity_suite(4).violations}
    assert witnesses["op-and-or-is-low-rank-p"] == "closed-form"


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


def test_count_classes_matches_the_member_sets():
    # count sums the weights of the classes' patterns; the sets of n-tuples
    # the oracle builds from the definition give the same five sizes.
    for n in range(1, 9):
        op, or_ = oracles._classes(n)
        p = op | or_
        counts = count_classes(n)
        assert (counts.op, counts.or_, counts.p, counts.op_and_or, counts.low_rank_in_p) == (
            len(op),
            len(or_),
            len(p),
            len(op & or_),
            sum(len(set(images)) <= 2 for images in p),
        ), n


def test_lemma_exhaustive_small():
    for n in (3, 4):
        report = lemma_suite(n, max_len=4)
        assert report.passed
        assert report.checks_run > 0


def test_lemma_reports_are_pinned_by_digest_at_every_length():
    # The machine reports for n = 1..6 (outer) and max-len 3..6, concatenated:
    # every pool length, not only the default max-len 4.
    import hashlib

    reports = "".join(
        format_machine([lemma_suite(n, max_len)]) for n in range(1, 7) for max_len in range(3, 7)
    )
    assert hashlib.sha256(reports.encode()).hexdigest() == (
        "a9673fcc88f1381c21cee60342cc5f32e0e3e43c6d57955dba94a4c850aa77eb"
    )
    # Max-len 7, n = 1..6: 20 lines, n = 6's image claims at 2,286 · 18,576
    # checks, 18,576 the pool summed over k = 3..7 from _closed_forms(6, k).
    reports = "".join(format_machine([lemma_suite(n, 7)]) for n in range(1, 7))
    assert hashlib.sha256(reports.encode()).hexdigest() == (
        "3b078bc08a4212efd7229f12099cc5488bf9c1582333820b703793e1afa575fb"
    )


def test_lemma_sample_budget_is_accepted_and_ignored():
    # The benchmark still passes the old sampler's budget; the report is the
    # exhaustive one.
    for n in range(1, 7):
        budgeted = format_machine([lemma_suite(n, max_len=4, sample_budget=200)])
        assert budgeted == format_machine([lemma_suite(n, max_len=4)]), n


def test_lemma_bounds():
    from cyclorient import verification

    assert verification.EQUIVALENCE_MAX_N == 10
    with pytest.raises(ValueError, match=r"lemma suite n must be within 1\.\.10, got 11$"):
        lemma_suite(11)
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


def test_run_verify_runs_the_identity_suite_at_every_n():
    # No suite stops short of n_max: the identity suite runs at n = 6 too.
    reports = run_verify(6, suites=("identity",))
    assert [(r.suite, r.n) for r in reports] == [("identity", n) for n in range(1, 7)]


def test_machine_format_is_parseable_and_time_free():
    reports = run_verify(4)
    text = format_machine(reports)
    assert "elapsed" not in text
    for line in text.strip().splitlines():
        kind, *fields = line.split(" ")
        assert kind in ("report", "claim", "gaps", "violation")
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
    _fail(tally, "demo-claim", (0, 1, 0, 1), "0,1,0,1", "something broke")
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
    _fail(right, "claim-x", (0, 0, 9), "0,0,9", "later")
    _fail(left, "claim-x", (0, 0, 4), "0,0,4", "earlier")
    merged_one = _merge_tallies([left, right])
    merged_two = _merge_tallies([right, left])
    for merged in (merged_one, merged_two):
        key, witness, detail, count = merged["violations"]["claim-x"]
        assert (key, witness, detail, count) == ((0, 0, 4), "0,0,4", "earlier", 2)


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
    equivalence_suite(9, workers=2)
    equivalence_suite(9, workers=100_000)
    assert created == [2, 3]
    for workers in (0, -1):
        with pytest.raises(ValueError, match="thread count must be at least 1"):
            equivalence_suite(9, workers=workers)
        with pytest.raises(ValueError, match="thread count must be at least 1"):
            run_verify(9, workers=workers)
    with pytest.raises(ValueError, match=r"thread count must be an integer, got 1\.5"):
        equivalence_suite(9, workers=1.5)
    assert created == [2, 3]


GOLDEN = Path(__file__).parent / "data" / "verify_n6.machine"


def test_machine_report_matches_golden_up_to_n5():
    # The golden file is `verify --n-max 6 --format machine --threads 2`;
    # without its n = 6 lines it is exactly the n <= 5 report, in order.
    golden = [line for line in GOLDEN.read_text().splitlines() if " n=6 " not in line]
    assert format_machine(run_verify(5)).splitlines() == golden


def test_lemma_max_len_is_bounded():
    for max_len in (0, 2, 9):
        words = f"lemma max length must be within 3..8, got {max_len}"
        with pytest.raises(ValueError, match=words):
            lemma_suite(4, max_len=max_len)
        # Rejected before any suite runs, even one that never reads it.
        with pytest.raises(ValueError, match=words):
            run_verify(6, suites=("equivalence",), lemma_max_len=max_len)
    for max_len in (3, 8):
        assert lemma_suite(3, max_len=max_len).checks_run > 0
    with pytest.raises(ValueError, match=r"lemma max length must be an integer, got 3\.5"):
        lemma_suite(3, max_len=3.5)

    class Index:
        def __index__(self):
            return 3

    by_index = format_machine([lemma_suite(3, max_len=Index())])
    assert by_index == format_machine([lemma_suite(3, max_len=3)])


def _broken_orbit(pattern, n):
    # Every map of [n] whose pattern lies in the orbit of ``pattern``, by
    # the brute-force orbits: each orbit pattern's value rotations, read
    # through every image set.
    import itertools

    from oracles import dihedral_orbits

    [orbit] = [orbit for orbit in dihedral_orbits(len(pattern)) if pattern in orbit]
    rank = max(pattern) + 1
    return {
        tuple(map(values.__getitem__, rotated))
        for member in orbit
        for rotated in _value_rotations(member)
        for values in itertools.combinations(range(n), rank)
    }


def test_equivalence_suite_reports_a_broken_quad_route(monkeypatch):
    # The route is broken on the orbit of ``least``, the least map of the
    # orbit, which the suite counts through one pattern: 0,1,3,2 itself,
    # and 0,2,0,1,3 for 0,1,3,0,2, so that the witness comes from the
    # failure's search of the orbit.  A route broken on part of an orbit
    # breaks the suite's premise (see the orbit-walk limit test).  The full
    # walk finds the same violation: 16 maps at n = 4 and 100 at n = 5.
    from oracles import equivalence_walk

    from cyclorient import membership, patterns

    real = membership._first_unoriented
    for least, size in (((0, 1, 3, 2), 16), ((0, 1, 3, 0, 2), 100)):
        n = len(least)
        walked = {p for rank in range(1, n + 1) for p, _ in patterns.walk(n, rank)}
        assert (least in walked) == (n == 4)
        broken = _broken_orbit(least, n)
        assert len(broken) == size
        with monkeypatch.context() as patched:
            patched.setattr(
                membership,
                "_first_unoriented",
                lambda imgs, after: None if imgs in broken else real(imgs, after),
            )
            report = equivalence_suite(n, workers=1)
            walk = equivalence_walk(n)["violations"]
        assert not report.passed
        [violation] = report.violations
        assert violation.claim == "quad-vs-definitional"
        assert (violation.witness, violation.count) == (",".join(map(str, least)), size)
        assert walk["quad-vs-definitional"][1:] == [violation.witness, violation.detail, size]
        claims = {c.claim: c for c in report.claims}
        assert claims["quad-vs-definitional"].checks == n**n


def test_equivalence_suite_sanctions_only_low_rank_triple_gaps(monkeypatch):
    # A rank-4 map passing the triple tests is a violation, not an exemption.
    # The tests pass the 16 maps of the orbit of 0,1,3,2, counted through
    # one pattern.
    from cyclorient import membership

    real = membership._keeps_triples
    broken = _broken_orbit((0, 1, 3, 2), 4)
    monkeypatch.setattr(
        membership,
        "_keeps_triples",
        lambda imgs, after, reverse: imgs in broken or real(imgs, after, reverse),
    )
    report = equivalence_suite(4, workers=1)
    assert {(v.claim, v.witness, v.count) for v in report.violations} == {
        ("triple-preserve-refined", "0,1,3,2", 16),
        ("triple-reverse-refined", "0,1,3,2", 16),
    }
    assert all((0, 1, 3, 2) not in s.patterns for s in report.sanctioned_exceptions)
    assert report.sanctioned_exceptions == equivalence_suite(4).sanctioned_exceptions
    # cross_check reads the same findings: same claims, same detail text.
    per_map = cross_check(Mapping.parse("0,1,3,2")).unsanctioned
    assert [(d.claim, d.detail) for d in per_map] == [
        (v.claim, v.detail) for v in report.violations
    ]


def test_lemma_suite_reports_a_flipped_orientation(monkeypatch):
    from cyclorient import verification

    real = verification._oriented_pool

    def flipped_pool(n, max_len):
        # At n = 3 the pattern row 0,1,2 stands for the one sequence 0,1,2.
        return [
            (q, tag.swapped() if q == (0, 1, 2) else tag, weight)
            for q, tag, weight in real(n, max_len)
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


def test_run_verify_refuses_n_max_above_the_bound_for_any_selection(monkeypatch):
    from cyclorient import verification

    started = []
    for name in ("equivalence_suite", "identity_suite", "lemma_suite"):
        monkeypatch.setattr(
            verification, name, lambda n, *a, _name=name, **k: started.append((_name, n))
        )
    assert verification.EQUIVALENCE_MAX_N == 10
    refused = r"^n_max must be within 1\.\.10, got 11$"
    with pytest.raises(ValueError, match=refused):
        run_verify(11)
    for suite in ("equivalence", "identity", "lemma"):
        with pytest.raises(ValueError, match=refused):
            run_verify(11, suites=(suite,))
    assert started == []


def test_equivalence_suite_and_count_classes_refuse_n_above_the_bound(monkeypatch):
    from contextlib import nullcontext
    from types import SimpleNamespace

    from cyclorient import patterns, verification

    started = []

    def recording_pool(max_workers):
        started.append(("pool", max_workers))
        return nullcontext(SimpleNamespace(map=lambda fn, jobs: []))

    def no_enumeration(*args):
        # Stands in for the per-map work: a missing bound fails here at once
        # instead of walking 11^11 maps.
        started.append(("enumeration", args))
        raise AssertionError("enumeration started")

    monkeypatch.setattr(verification, "ProcessPoolExecutor", recording_pool)
    monkeypatch.setattr(verification, "_equivalence_range", no_enumeration)
    monkeypatch.setattr(verification, "_tag", no_enumeration)
    monkeypatch.setattr(patterns, "cyclic", no_enumeration)
    assert verification.EQUIVALENCE_MAX_N == 10
    for workers in (1, 2):
        refused = r"equivalence suite n must be within 1\.\.10, got 11$"
        with pytest.raises(ValueError, match=refused):
            equivalence_suite(11, workers=workers)
    with pytest.raises(ValueError, match=r"count n must be within 1\.\.14, got 15$"):
        count_classes(15)
    assert started == []


def test_identity_and_lemma_suites_refuse_sizes_above_the_bound(monkeypatch):
    from cyclorient import patterns, verification

    started = []

    def no_patterns(*args):
        # Every pattern set is built here, so a missing bound fails at once.
        started.append(args)
        raise AssertionError("patterns built")

    monkeypatch.setattr(patterns, "cyclic", no_patterns)
    with pytest.raises(ValueError, match=r"^identity suite n must be within 1\.\.10, got 11$"):
        identity_suite(11)
    with pytest.raises(ValueError, match=r"^lemma suite n must be within 1\.\.10, got 11$"):
        lemma_suite(11)
    with pytest.raises(ValueError, match=r"^lemma max length must be within 3\.\.8, got 9$"):
        lemma_suite(3, max_len=9)
    assert started == []


def test_count_keeps_its_own_bound_when_the_equivalence_bound_rises(capsys, monkeypatch):
    # count_classes has a bound of its own, so raising the equivalence
    # suite's bound must not raise count's with it.
    from cyclorient import patterns, verification
    from cyclorient.cli import main

    started = []

    def no_enumeration(*args):
        # Stands in for the per-map work: a bound that moved with the
        # equivalence suite's fails here at once instead of building 15^15 maps.
        started.append(("enumeration", args))
        raise AssertionError("enumeration started")

    for name in ("_equivalence_range", "_tag"):
        monkeypatch.setattr(verification, name, no_enumeration)
    monkeypatch.setattr(patterns, "cyclic", no_enumeration)
    monkeypatch.setattr(verification, "EQUIVALENCE_MAX_N", 15)
    assert verification.COUNT_MAX_N == 14
    with pytest.raises(ValueError, match=r"count n must be within 1\.\.14, got 15$"):
        count_classes(15)
    assert main(["count", "--n", "15"]) == 2
    assert capsys.readouterr() == ("", "error: count n must be within 1..14, got 15\n")
    assert started == []
    # The raised bound lets run_verify reach the (stubbed) suite at n = 15.
    monkeypatch.setattr(
        verification, "equivalence_suite", lambda n, **k: started.append(("suite", n))
    )
    run_verify(15, suites=("equivalence",))
    assert started == [("suite", n) for n in range(1, 16)]


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
    # Every concrete report/claim/gaps line of the README's machine format
    # example is a line of the golden report; the `...` template line is
    # skipped.
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("### Machine report format", 1)[1].split("```text\n", 1)[1]
    example = block.split("```", 1)[0].splitlines()
    concrete = [
        line
        for line in example
        if line.split(" ", 1)[0] in ("report", "claim", "gaps") and "..." not in line
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


def _composed(left, right):
    # The tuple-level product set of the oracles: the left operand split
    # once into families, then composed.
    return oracles._product_set(oracles.split(left), right)


def check_product_sets(n):
    """Every product set the identity suite composes at n, each class's
    rank-r patterns of length n then each class's patterns of length r,
    equals the pairwise oracle's when ``verification._compose`` builds it."""
    from oracles import product_set

    from cyclorient import patterns, verification

    # OP's and OR's patterns of each length r <= n, as the suite builds them.
    sized = {}
    for r in range(1, n + 1):
        cyclic = patterns.cyclic(r)
        sized[r] = cyclic, {q[::-1] for q in cyclic}
    for left in sized[n]:
        for r in range(1, n + 1):
            shapes = [p for p in left if max(p) == r - 1]
            for right in sized[r]:
                got = verification._compose(shapes, list(zip(*right)))
                assert got == product_set(shapes, right), ("identity", n, r)


def test_product_set_matches_the_pairwise_oracle():
    import itertools

    from oracles import product_set

    # The identity suite's own inputs; CI runs check_product_sets(6).
    for n in range(1, 6):
        check_product_sets(n)
    # All maps by all maps mixes every rank on both sides.
    for n in range(1, 4):
        every = frozenset(itertools.product(range(n), repeat=n))
        assert _composed(every, every) == product_set(every, every), n
    # Oriented sequences of any length on the left: a constant one keeps
    # its own length.
    for n in range(1, 6):
        op = frozenset(images for images, tag in oracles._oriented(n, n) if tag.admits_cyclic)
        for k in range(1, 5):
            seqs = frozenset(items for items, _ in oracles._oriented(n, k))
            assert _composed(seqs, op) == product_set(seqs, op), (n, k)


def check_closure_identities(n):
    """OP.OP = OP, OR.OR = OP and OR.OP = OP.OR = OR as product sets at n."""
    op, or_ = oracles._classes(n)
    assert _composed(op, op) == op, ("OP.OP = OP", n)
    assert _composed(or_, or_) == op, ("OR.OR = OP", n)
    assert _composed(or_, op) == or_, ("OR.OP = OR", n)
    assert _composed(op, or_) == or_, ("OP.OR = OR", n)


@pytest.mark.parametrize("n", [6, 7])
def test_product_sets_of_whole_classes_keep_the_closure_identities(n):
    # The tuple-level oracle, which shares no code with the identity suite;
    # CI runs check_closure_identities(8).
    check_closure_identities(n)


def test_product_set_matches_the_pairwise_oracle_on_random_subsets():
    import itertools
    import math
    import random

    from oracles import product_set

    from cyclorient import verification

    def pattern(a):
        image = sorted(set(a))
        return tuple(image.index(x) for x in a)

    def subset(rng, items):
        return rng.sample(items, rng.randint(1, min(len(items), 400)))

    rng = random.Random(33)
    partial = 0  # inputs where a pattern meets only some image sets of its size
    for n in range(1, 6):
        maps = list(itertools.product(range(n), repeat=n))
        rights = [subset(rng, maps) for _ in range(3)]
        lefts = [subset(rng, maps)]
        for k in range(1, 6):
            lefts.append(subset(rng, list(itertools.product(range(n), repeat=k))))
        for left in lefts:
            images = {}
            for a in left:
                images.setdefault(pattern(a), set()).add(frozenset(a))
            partial += any(len(s) < math.comb(n, max(p) + 1) for p, s in images.items())
            for right in rights + [[], rights[0][:1]]:
                got = _composed(left, right)
                assert got == product_set(left, right), (n, len(left), len(right))
                columns = list(zip(*right))
                assert verification._compose(left, columns) == got, (n, len(left), len(right))
            assert verification._compose(left, []) == set(), n
        assert _composed([], maps) == set()
        assert verification._compose([], list(zip(*maps))) == set()
    assert partial > 10


def test_lemma_suite_reports_flipped_tags_of_one_length(monkeypatch):
    from cyclorient import verification

    real = verification._oriented_pool

    def flipped_pool(n, max_len):
        return [
            (q, tag.swapped() if len(q) == 4 else tag, weight)
            for q, tag, weight in real(n, max_len)
        ]

    monkeypatch.setattr(verification, "_oriented_pool", flipped_pool)
    runs = [lemma_suite(5, max_len=4) for _ in range(2)]
    found = [{v.claim: v for v in report.violations} for report in runs]
    for claim in ("image-orientation-preserved", "image-orientation-reversed"):
        assert found[0][claim].count > 0, claim
        assert found[0][claim] == found[1][claim], claim


def _mistagged_pools(real):
    """The lemma pool builder ``real`` and three mistagged variants of it,
    each retagging whole pattern rows, so every sequence a row stands for."""
    from cyclorient import Orientation

    def flipped_pool(n, max_len):
        # Every seventh row's tag flipped, so members fail at scattered
        # rows and the witness is not simply the first pair.
        return [
            (q, tag.swapped() if position % 7 == 3 else tag, weight)
            for position, (q, tag, weight) in enumerate(real(n, max_len))
        ]

    def retagged_pool(retag):
        # Every fifth row retagged, so sources of three or more values
        # carry a tag no correct pool gives them.
        def pool_of(n, max_len):
            return [
                (q, retag if position % 5 == 2 else tag, weight)
                for position, (q, tag, weight) in enumerate(real(n, max_len))
            ]

        return pool_of

    both, neither = (retagged_pool(tag) for tag in (Orientation.BOTH, Orientation.NEITHER))
    return real, flipped_pool, both, neither


def check_lemma_against_oracle(n, max_len, pools):
    """The lemma suite's image claims at n and ``max_len`` equal the
    full-member oracle's, checks, witnesses and counts, on each of the
    first ``pools`` pools of :func:`_mistagged_pools` (the real pool
    first), the oracle reading the pool's rows spread over [n].  Returns
    the number of failing claims the oracle found."""
    from oracles import lemma_failures

    from cyclorient import verification

    real, failed = verification._oriented_pool, 0
    try:
        for pool_of in _mistagged_pools(real)[:pools]:
            verification._oriented_pool = pool_of
            report = lemma_suite(n, max_len=max_len)
            checks, failures = lemma_failures(n, verification._spread(pool_of(n, max_len), n))
            image = [c for c in report.claims if c.claim.startswith("image-orientation-")]
            assert {c.claim: c.checks for c in image} == checks, (n, max_len, pool_of.__name__)
            got = {
                v.claim: (v.witness, v.count)
                for v in report.violations
                if v.claim.startswith("image-orientation-")
            }
            assert got == failures, (n, max_len, pool_of.__name__)
            failed += len(failures)
    finally:
        verification._oriented_pool = real
    return failed


def test_lemma_suite_matches_the_brute_force_oracle():
    # CI runs check_lemma_against_oracle(6, 4, 2), the real and flipped pools.
    failed = 0
    for n in range(1, 6):
        for max_len in (3, 4):
            failed += check_lemma_against_oracle(n, max_len, 4)
    assert failed > 0


def test_lemma_rows_are_decided_against_every_class_pattern(monkeypatch):
    # A kernel that swaps the tag of every image whose value pattern is
    # 1,2,3,0 fails only some (member, sequence) pairs, so a pool row must
    # be decided against every class pattern of its rank, not some.  The
    # members, of length 5, keep their tags, so the oracle walks the same
    # ones.
    import oracles

    from cyclorient import sequences, verification

    def kernel(items):
        tag = sequences._tag(items)
        return tag.swapped() if _pattern_of(items) == (1, 2, 3, 0) else tag

    monkeypatch.setattr(verification, "_tag", kernel)
    monkeypatch.setattr(oracles, "_tag", kernel)
    assert check_lemma_against_oracle(5, 4, 1) == 2


def test_relabelling_keeps_every_lemma_image_tag_on_members_that_are_not_patterns():
    # The lemma suite composes the pool with the members' patterns only, so
    # a member's image of each pool row must have its pattern's image's tag
    # and number of distinct values.  At n = 6..8 seeded rank >= 3 members
    # that are not patterns check that premise against the max-len 4 pool.
    import random

    from cyclorient import Orientation, verification

    rng = random.Random(39)
    tags = set()
    for n in range(6, 9):
        pool = [items for k in (3, 4) for items, _ in oracles._oriented(n, k)]
        for members in oracles._classes(n):
            off = sorted(t for t in members if len(set(t)) >= 3 and _pattern_of(t) != t)
            for member in rng.sample(off, 50):
                pattern = _pattern_of(member)
                for items in pool:
                    image = tuple(map(member.__getitem__, items))
                    shown = tuple(map(pattern.__getitem__, items))
                    got = verification._tag(image), len(set(image))
                    assert got == (verification._tag(shown), len(set(shown))), (member, items)
                    tags.add(got[0])
    assert tags >= {Orientation.CYCLIC_ONLY, Orientation.ANTI_CYCLIC_ONLY, Orientation.BOTH}


def test_lemma_suite_misses_a_wrong_member_off_the_patterns(monkeypatch):
    # The reduction's limit: the identity and lemma suites, and count, build
    # the classes' patterns only, so a map that is not a pattern, swapped
    # into the tuple-level oracle _classes for a member of the same rank,
    # leaves both reports as they were, though the map itself sends a pool
    # sequence to the wrong orientation.  count keeps its sizes; the kernel
    # walk, checked against _classes, catches it.
    from cyclorient import verification

    want = format_machine([identity_suite(5), lemma_suite(5)])
    real = oracles._classes
    member, wrong = (0, 1, 2, 4, 4), (0, 2, 1, 4, 4)

    def classes(n):
        op, or_ = real(n)
        return ((op - {member}) | {wrong} if n == 5 else op), or_

    monkeypatch.setattr(oracles, "_classes", classes)
    assert member in real(5)[0] and wrong not in real(5)[0] | real(5)[1]
    assert format_machine([identity_suite(5), lemma_suite(5)]) == want
    images = [
        (tuple(map(wrong.__getitem__, items)), tag)
        for k in (3, 4)
        for items, tag in oracles._oriented(5, k)
    ]
    assert any(len(set(img)) >= 3 and verification._tag(img) is not tag for img, tag in images)
    assert count_classes(5).invariant_failures() == ()
    with pytest.raises(AssertionError):
        check_classes_against_walk(5)


def test_lemma_subsequence_claim_matches_the_per_pair_oracle(monkeypatch):
    from oracles import subsequence_failures

    from cyclorient import Orientation, sequences, verification

    def neither_on(broken):
        # NEITHER on every part whose value pattern is ``broken``: the suite
        # tags pattern parts, so a kernel must read the pattern alone to be
        # seen the same over [n] (the limit test breaks one that does not).
        return lambda items: (
            Orientation.NEITHER if _pattern_of(items) == broken else sequences._tag(items)
        )

    # NEITHER on (0,) fails the pool's first sequence, (0, 0, 0), itself;
    # on (0, 1, 2) it fails no sequence of fewer than three values.
    kernels = (
        sequences._tag,
        neither_on((0, 1, 2)),
        neither_on((1, 0)),
        neither_on((0,)),
        lambda items: sequences._tag(items).swapped(),
    )
    failed = []
    for pool_of in _mistagged_pools(verification._oriented_pool):
        monkeypatch.setattr(verification, "_oriented_pool", pool_of)
        for kernel in kernels:
            monkeypatch.setattr(verification, "_tag", kernel)
            for n in range(1, 6):
                for max_len in (3, 4):
                    report = lemma_suite(n, max_len=max_len)
                    spread = verification._spread(pool_of(n, max_len), n)
                    checks, failure = subsequence_failures(spread, kernel)
                    [claim] = [c for c in report.claims if c.claim == "subsequence-inheritance"]
                    got = [
                        (v.witness, v.count)
                        for v in report.violations
                        if v.claim == "subsequence-inheritance"
                    ]
                    want = (checks, [failure] if failure else [])
                    assert (claim.checks, got) == want, (n, max_len)
                    failed.append(failure is not None)
    assert len(failed) == 200 and 0 < sum(failed) < 200, sum(failed)


def test_lemma_parts_are_the_parts_its_masks_pick():
    # The success path builds a row's distinct parts by combinations; the
    # failure walk reads the masks' position tuples.  Both give the same
    # parts for every pool row at n <= 6 and every max_len: the n = 6 pool
    # at the largest max_len holds each of those rows once.
    from cyclorient import verification

    pool = verification._oriented_pool(6, verification.LEMMA_MAX_LEN)
    for q, _, _ in pool:
        picked = {tuple(map(q.__getitem__, at)) for at in verification._masks(len(q))}
        assert verification._parts(q) == picked, q
    assert len(pool) == 3208


def test_lemma_counts_are_gated_by_their_closed_form(monkeypatch):
    from cyclorient import patterns, verification

    real = patterns.cyclic
    # The builder skips one pattern of rank 5, which stands for one member
    # of OP_5; OR_5's patterns, its reversals, lose (4, 3, 2, 1, 0).
    monkeypatch.setattr(patterns, "cyclic", lambda k: real(k) - {(0, 1, 2, 3, 4)})
    report = lemma_suite(5, max_len=3)
    pool = sum(weight for _, _, weight in verification._oriented_pool(5, 3))
    op, both = verification._closed_forms(5)
    detail = f"{(op - both - 1) * pool} counted but the closed form gives {(op - both) * pool}"
    assert [(v.claim, v.witness, v.count, v.detail) for v in report.violations] == [
        (claim, "closed-form", 1, detail)
        for claim in ("image-orientation-preserved", "image-orientation-reversed")
    ]


def test_closed_forms_count_every_walk():
    from cyclorient import verification

    # Cyclic and both-oriented length-k sequences over [n]; k = n is the
    # class-size pair.
    for n in range(1, 6):
        assert verification._closed_forms(n) == verification._closed_forms(n, n)
        for k in range(1, 7):
            if n**k > 20_000:
                continue
            tags = [tag for _, tag in oracles._oriented(n, k)]
            cyclic = sum(tag.admits_cyclic for tag in tags)
            both = sum(tag.admits_cyclic and tag.admits_anti_cyclic for tag in tags)
            assert verification._closed_forms(n, k) == (cyclic, both), (n, k)


def test_lemma_subsequence_checks_are_gated_by_their_closed_form(monkeypatch):
    from cyclorient import verification

    real = verification._oriented_pool

    def pool_of(n, max_len):
        # The first row, 0,0,0, becomes a copy of 0,0,0,0, of the same weight
        # n: the pool keeps its size, so only the subsequence count (7 -> 15
        # masks for each of its n sequences) moves.
        pool = real(n, max_len)
        [copy] = [row for row in pool if row[0] == (0, 0, 0, 0)]
        assert pool[0][0] == (0, 0, 0) and pool[0][2] == copy[2] == n
        return [copy] + pool[1:]

    monkeypatch.setattr(verification, "_oriented_pool", pool_of)
    report = lemma_suite(4, max_len=4)
    [violation] = report.violations
    want = sum(weight * (2 ** len(q) - 1) for q, _, weight in real(4, 4))
    assert (violation.claim, violation.witness, violation.count, violation.detail) == (
        "subsequence-inheritance",
        "closed-form",
        1,
        f"{want + 32} counted but the closed form gives {want}",
    )


def test_lemma_pool_is_gated_by_its_closed_form(monkeypatch):
    from cyclorient import verification

    real = verification._oriented_pool
    # Every image claim scales with the pool it is given, so only the pool
    # gate notices a dropped row: here 3,2,1,0, one sequence at n = 4.
    monkeypatch.setattr(verification, "_oriented_pool", lambda n, max_len: real(n, max_len)[:-1])
    report = lemma_suite(4, max_len=4)
    [violation] = report.violations
    assert (violation.claim, violation.witness, violation.count, violation.detail) == (
        "oriented-pool",
        "closed-form",
        1,
        "243 counted but the closed form gives 244",
    )


def check_oriented_pool(n):
    """The lemma pool's pattern rows, spread over [n], are the rows, tags and
    order of the n-level pool ``oracles._oriented(n, k)`` at lengths k = 3..6."""
    from cyclorient import verification

    spread = verification._spread(verification._oriented_pool(n, 6), n)
    assert spread == [row for k in range(3, 7) for row in oracles._oriented(n, k)], n


def test_oriented_pool_spreads_to_the_sequences_over_n():
    from collections import Counter

    from cyclorient import verification

    # CI runs check_oriented_pool(8).
    for n in range(1, 8):
        check_oriented_pool(n)
    # The weights count the cyclic, anti-cyclic and both-oriented sequences
    # of each length k over [n] at their closed forms, past the suite's
    # lengths and sizes.
    for n in range(1, 10):
        rows = verification._oriented_pool(n, 8)
        assert {len(q) for q, _, _ in rows} == set(range(3, 9)), n
        for k in range(3, 9):
            tags = Counter()
            for q, tag, weight in rows:
                if len(q) == k:
                    tags[tag.admits_cyclic, tag.admits_anti_cyclic] += weight
            cyclic, both = verification._closed_forms(n, k)
            assert tags[True, True] == both, (n, k)
            assert tags[True, False] == tags[False, True] == cyclic - both, (n, k)
            assert tags[False, False] == 0, (n, k)


def test_lemma_suite_misses_a_kernel_broken_off_the_patterns(monkeypatch):
    # The reduction's limit: the suite tags only the parts and images of
    # value patterns, whose values stay below 4 at max-len 4, so a kernel
    # that reads values, not their pattern, and is wrong on the part (0, 4)
    # alone passes it at n = 5.  The per-pair oracle over the sequences over
    # [n] reports it.
    from oracles import subsequence_failures

    from cyclorient import Orientation, sequences, verification

    def kernel(items):
        return Orientation.NEITHER if items == (0, 4) else sequences._tag(items)

    pool = [row for k in (3, 4) for row in oracles._oriented(5, k)]
    _, failure = subsequence_failures(pool, kernel)
    assert failure is not None and failure[0] == "seq=0,0,4;mask=5"
    want = format_machine([lemma_suite(5, max_len=4)])
    monkeypatch.setattr(verification, "_tag", kernel)
    report = lemma_suite(5, max_len=4)
    assert report.passed
    assert format_machine([report]) == want


def check_classes_against_walk(n):
    """OP_n and OR_n, built from the definition, equal the members the
    kernel walk of all n^n maps tags cyclic and anti-cyclic."""
    from oracles import oriented_walk

    rows = list(oriented_walk(n, n))
    op = {images for images, tag in rows if tag.admits_cyclic}
    or_ = {images for images, tag in rows if tag.admits_anti_cyclic}
    assert oracles._classes(n) == (op, or_), n


def test_oriented_rows_match_the_kernel_walk_and_the_closed_forms():
    from oracles import oriented_walk

    from cyclorient import Orientation, verification

    # The rows are built from the definition; the kernel-filtered walk of
    # all n^k tuples (at most 7^7) must give the same rows, tags and order.
    for n in range(1, 8):
        for k in range(1, 8):
            assert list(oracles._oriented(n, k)) == list(oriented_walk(n, k)), (n, k)
    # The classes too; CI runs check_classes_against_walk(8).
    for n in range(1, 7):
        check_classes_against_walk(n)
    # Past the walk's reach, the closed forms still fix the row counts.
    for n in range(1, 9):
        for k in range(1, 9):
            cyclic, both = verification._closed_forms(n, k)
            tags = [tag for _, tag in oracles._oriented(n, k)]
            assert len(tags) == 2 * cyclic - both, (n, k)
            assert tags.count(Orientation.BOTH) == both, (n, k)


def test_lemma_suite_catches_a_kernel_that_swaps_every_tag(monkeypatch):
    from cyclorient import sequences, verification

    # A consistent swap fools a pool tagged by the same kernel; the pool
    # built from the definition keeps the true tags, so its subsequences'
    # swapped tags lose an orientation their sequence admits.
    monkeypatch.setattr(verification, "_tag", lambda items: sequences._tag(items).swapped())
    report = lemma_suite(4, max_len=4)
    found = {v.claim: v.count for v in report.violations}
    assert found.get("subsequence-inheritance", 0) > 0, found
