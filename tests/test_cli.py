"""The CLI is a thin adapter: outputs mirror direct library calls."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cyclorient import (
    Mapping,
    count_classes,
    cross_check,
    format_machine,
    run_verify,
    witness_quad,
    witness_triple,
)
from cyclorient.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_matches_library(capsys):
    code, out, err = run_cli(capsys, "classify", "--map", "0,1,3,2")
    assert code == 0 and not err
    report = cross_check(Mapping.parse("0,1,3,2"))
    assert "orientation-preserving (definitional): no" in out
    assert "orientation-reversing (definitional): no" in out
    assert "preserving or reversing: no" in out
    assert f"image size: {report.definitional.image_size}" in out
    assert "consistency: all tests agree" in out


def test_classify_shows_sanctioned_gap(capsys):
    code, out, _ = run_cli(capsys, "classify", "--map", "0,1,0,1")
    assert code == 0  # sanctioned disagreements are not failures
    assert "consistency sanctioned: triple-preserve-literal" in out


def test_classify_bad_map(capsys):
    code, _, err = run_cli(capsys, "classify", "--map", "0,1,9,2")
    assert code == 2 and "error" in err


def test_witness_matches_library(capsys):
    code, out, _ = run_cli(capsys, "witness", "--map", "0,1,3,2", "--mode", "preserve")
    assert code == 0
    w = witness_triple(Mapping.parse("0,1,3,2"), "preserve")
    assert f"witness points: {w.points}" in out
    assert f"case {w.case_label}" in out
    assert "anti-cyclic-only" in out


def test_witness_precondition_is_bad_input(capsys):
    code, _, err = run_cli(capsys, "witness", "--map", "0,1,2,3")
    assert code == 2 and "no witness exists" in err


def test_quadwitness(capsys):
    code, out, _ = run_cli(capsys, "quadwitness", "--map", "0,1,0,1")
    assert code == 0
    w = witness_quad(Mapping.parse("0,1,0,1"))
    assert f"witness points: {w.points}" in out
    assert "case case1-min" in out
    assert "(neither)" in out


def test_quadwitness_member_rejected(capsys):
    code, _, err = run_cli(capsys, "quadwitness", "--map", "0,1,2,3")
    assert code == 2 and "no counterexample" in err


def test_chords_pair_query(capsys):
    code, out, _ = run_cli(capsys, "chords", "--n", "4", "--pair", "1-3:0-2")
    assert code == 0
    assert "chords 1-3 : 0-2" in out
    assert "combinatorial: intersect" in out


def test_chords_pair_needs_two_chords(capsys):
    code, out, err = run_cli(capsys, "chords", "--n", "4", "--pair", "1-3")
    assert code == 2 and not out
    assert "pair must look like 'a-c:b-d', got '1-3'" in err


def test_chords_with_map_reports_images(capsys):
    code, out, _ = run_cli(
        capsys, "chords", "--n", "4", "--pair", "1-3:0-2", "--map", "0,1,3,2"
    )
    assert code == 0
    assert "source: chords 1-3 : 0-2" in out
    assert "image: chords 1-2 : 0-3" in out
    assert out.count("intersect") == 1
    assert out.count("disjoint") == 1


def test_chords_method_both_marks_agreement(capsys):
    code, out, _ = run_cli(
        capsys, "chords", "--n", "5", "--pair", "2-2:0-3", "--method", "both"
    )
    assert code == 0
    assert "combinatorial: disjoint" in out
    assert "geometric: disjoint" in out
    assert "oracles: agree" in out


def test_chords_n_inference_and_conflicts(capsys):
    code, out, _ = run_cli(capsys, "chords", "--pair", "1-3:0-2", "--map", "0,1,3,2")
    assert code == 0 and "n=4" in out
    code, _, err = run_cli(capsys, "chords", "--pair", "1-3:0-2")
    assert code == 2 and "--n is required" in err
    code, _, err = run_cli(
        capsys, "chords", "--n", "5", "--pair", "1-3:0-2", "--map", "0,1,3,2"
    )
    assert code == 2 and "conflicts" in err


def test_chords_empty_map_is_bad_input(capsys):
    code, out, err = run_cli(
        capsys, "chords", "--n", "4", "--pair", "1-3:0-2", "--map", ""
    )
    assert code == 2 and not out
    assert err.startswith("error: bad map ''")


def test_chords_ascii(capsys):
    code, out, _ = run_cli(
        capsys, "chords", "--n", "6", "--pair", "1-4:2-5", "--ascii"
    )
    assert code == 0
    for label in "012345":
        assert label in out
    assert "*" in out and "+" in out


def test_count_line(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "3")
    assert code == 0
    counts = count_classes(3)
    assert (
        f"n=3 total={counts.total} op={counts.op} or={counts.or_} p={counts.p}"
        f" op_and_or={counts.op_and_or} low_rank_in_p={counts.low_rank_in_p}"
    ) in out


def test_classify_with_an_unsanctioned_discrepancy_exits_1(capsys, monkeypatch):
    from cyclorient import chords

    # A chord scan that finds a disjoint pair for the identity contradicts
    # membership, a discrepancy no exemption covers.
    monkeypatch.setattr(chords, "_first_disjoint", lambda imgs, after: (0, 1, 2, 3))
    code, out, _ = run_cli(capsys, "classify", "--map", "0,1,2,3")
    assert code == 1
    assert "consistency VIOLATION: chord-vs-definitional" in out


def test_chords_method_both_exits_1_on_a_mismatch(capsys, monkeypatch):
    from cyclorient import cli

    monkeypatch.setattr(cli, "chords_intersect", lambda a, b, method: method == "geometric")
    code, out, _ = run_cli(
        capsys, "chords", "--n", "5", "--pair", "2-2:0-3", "--method", "both"
    )
    assert code == 1
    assert "oracles: MISMATCH" in out


def test_count_reports_invariant_violations(capsys, monkeypatch):
    from cyclorient import verification
    from cyclorient.verification import ClassCounts

    # |OR| != |OP| and p != op + or - both: the count line is printed as
    # computed, then each broken identity, and the exit code is 1.
    broken = ClassCounts(n=3, total=27, op=1, or_=2, p=9, op_and_or=0, low_rank_in_p=0)
    monkeypatch.setattr(verification, "count_classes", lambda n: broken)
    code, out, _ = run_cli(capsys, "count", "--n", "3")
    assert code == 1
    assert out.startswith("n=3 total=27 op=1 or=2 p=9 op_and_or=0 low_rank_in_p=0\n")
    assert "INVARIANT VIOLATION: " in out


def test_witness_failing_its_own_validation_exits_1(capsys, monkeypatch):
    from cyclorient import witnesses

    # (0, 1, 2) maps to the cyclic 0,1,3, not the anti-cyclic image a
    # preserve witness must have.
    monkeypatch.setattr(witnesses, "_preserve_triple", lambda imgs: ((0, 1, 2), "1"))
    code, out, err = run_cli(capsys, "witness", "--map", "0,1,3,2")
    assert code == 1 and not out
    assert err.startswith("invariant failure: witness image (0, 1, 3) should be anti-cyclic-only")


def test_count_rejects_huge_n(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "15")
    assert code == 2 and err == "error: count n must be within 1..14, got 15\n"


def test_verify_text_and_exit(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "2")
    assert code == 0
    assert "suite equivalence, n=1: PASS" in out
    assert "overall:" in out


def test_verify_machine_equals_library(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n-max", "3", "--format", "machine", "--threads", "1"
    )
    assert code == 0
    assert out == format_machine(run_verify(3))


def test_verify_suite_selection(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n-max", "3", "--suites", "identity", "--format", "machine"
    )
    assert code == 0
    assert "suite=identity" in out
    assert "suite=equivalence" not in out
    code, _, err = run_cli(capsys, "verify", "--n-max", "3", "--suites", "bogus")
    assert code == 2 and "unknown suite" in err


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["classify"]) == 2
    assert main(["verify", "--n-max", "x"]) == 2
    capsys.readouterr()  # swallow argparse noise


def test_entry_raises_system_exit(capsys):
    from cyclorient.cli import entry

    with pytest.raises(SystemExit):
        entry()
    capsys.readouterr()


def test_verify_rejects_non_positive_sizes(capsys):
    cases = (
        ("--threads", "0", "thread count must be at least 1, got 0"),
        ("--threads", "-2", "thread count must be at least 1, got -2"),
    )
    for flag, value, words in cases:
        code, out, err = run_cli(capsys, "verify", "--n-max", "6", flag, value)
        assert code == 2 and not out, (flag, value)
        assert err == f"error: {words}\n", (flag, value)


def test_verify_clamps_threads_to_cpu_count(capsys, monkeypatch):
    from contextlib import nullcontext
    from types import SimpleNamespace

    from cyclorient import verification

    created = []

    def recording_pool(max_workers):
        # Records the request and starts no process; the stubbed jobs run here.
        created.append(max_workers)
        return nullcontext(SimpleNamespace(map=map))

    # The jobs are stubbed, so the empty tallies skip the closed-form check.
    monkeypatch.setattr(verification, "_equivalence_range", lambda job: verification._new_tally())
    monkeypatch.setattr(verification, "_check_tallies", lambda n, tally, rank=None: None)
    monkeypatch.setattr(verification, "ProcessPoolExecutor", recording_pool)
    monkeypatch.setattr(verification.os, "cpu_count", lambda: 2)
    code, out, _ = run_cli(
        capsys, "verify", "--n-max", "9", "--suites", "equivalence", "--threads", "100000"
    )
    # n = 1..8 run in process; only n = 9 asks for a pool.
    assert created == [2]
    assert code == 0 and "suite equivalence, n=9" in out


def test_bad_numbers_are_reported_in_library_words(capsys):
    cases = (
        (("classify", "--map", "a,b"), "error: bad map 'a,b': map entry 'a' is not an integer\n"),
        (("classify", "--map", "0,,1"), "error: bad map '0,,1': map entry '' is not an integer\n"),
        (
            ("chords", "--n", "4", "--pair", "1-x:0-2"),
            "error: chord endpoints must be integers, got '1-x'\n",
        ),
    )
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out, argv
        assert err == message and "invalid literal" not in err, argv


def test_classify_reads_only_ascii_digit_entries(capsys):
    # 0,1_2 is not the map 0,12, and a full-width zero is not 0.
    for entry in ("1_0", "\uff10"):
        code, out, err = run_cli(capsys, "classify", "--map", f"0,{entry}")
        assert code == 2 and not out, entry
        assert err == f"error: bad map '0,{entry}': map entry '{entry}' is not an integer\n"
    code, out, err = run_cli(capsys, "classify", "--map", "0,-1")
    assert code == 2 and not out
    assert err == "error: bad map '0,-1': image -1 outside [0, 2)\n"


def test_classify_map_size_limit(capsys, monkeypatch):
    from cyclorient import cli

    assert cli.CLASSIFY_MAX_N == 128
    calls = []

    def stub(m):
        # Stands in for the O(n^4) routes so the limit is tested cheaply.
        calls.append(m.n)
        raise ValueError("routes skipped")

    monkeypatch.setattr(cli, "cross_check", stub)
    code, _, err = run_cli(capsys, "classify", "--map", ",".join(["0"] * 129))
    assert code == 2 and calls == []
    assert err == "error: classify map length must be within 1..128, got 129\n"
    code, _, err = run_cli(capsys, "classify", "--map", ",".join(["0"] * 128))
    assert code == 2 and calls == [128] and "routes skipped" in err


def test_verify_rejects_lemma_max_len_out_of_range(capsys):
    for value in ("0", "2", "9"):
        code, out, err = run_cli(
            capsys, "verify", "--n-max", "3", "--suites", "lemma", "--lemma-max-len", value
        )
        assert code == 2 and not out, value
        assert err == f"error: lemma max length must be within 3..8, got {value}\n"
    code, out, _ = run_cli(
        capsys, "verify", "--n-max", "3", "--suites", "lemma", "--lemma-max-len", "8"
    )
    assert code == 0 and "overall: 3/3 suite runs passed" in out


def test_verify_refuses_n_max_above_the_bound_before_any_suite(capsys, monkeypatch):
    from cyclorient import verification

    started = []
    for name in ("equivalence_suite", "identity_suite", "lemma_suite"):
        monkeypatch.setattr(verification, name, lambda n, **k: started.append(n))
    for suites in ("equivalence", "identity", "lemma", "identity,lemma"):
        code, out, err = run_cli(
            capsys, "verify", "--n-max", "11", "--suites", suites, "--threads", "2"
        )
        assert code == 2 and not out and started == [], suites
        assert err == "error: n_max must be within 1..10, got 11\n", suites


def test_chords_ascii_size_limit(capsys, monkeypatch):
    from cyclorient import cli

    assert cli.ASCII_MAX_N == 64
    drawn = []

    def stub(n, first, second):
        # Stands in for the grid so the refusal is tested without allocating it.
        drawn.append(n)
        return "grid"

    monkeypatch.setattr(cli, "_ascii_circle", stub)
    code, out, err = run_cli(capsys, "chords", "--n", "100000", "--pair", "0-2:1-3", "--ascii")
    assert code == 2 and not out and drawn == []
    assert err == "error: --ascii n must be within 1..64, got 100000\n"
    # The map's length is the size when --map is given.
    code, out, _ = run_cli(
        capsys, "chords", "--map", ",".join(["0"] * 65), "--pair", "0-2:1-3", "--ascii"
    )
    assert code == 2 and not out and drawn == []
    code, out, _ = run_cli(capsys, "chords", "--n", "64", "--pair", "0-2:1-3", "--ascii")
    assert code == 0 and drawn == [64] and "grid" in out


@pytest.mark.parametrize("selection", ["", ","])
def test_verify_empty_suite_selection_exits_2(capsys, selection):
    code, out, err = run_cli(
        capsys, "verify", "--n-max", "3", "--suites", selection, "--format", "machine"
    )
    assert code == 2 and out == "" and "no suite selected" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--map", "0,1,3,2"),
        ("verify", "--n-max", "2"),
        ("count", "--n", "3"),
    ],
)
def test_a_closed_stdout_exits_1_without_a_traceback(argv):
    # A pipe whose read end is closed before the child starts: every write
    # fails, as it does once ``| head`` has read its lines.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    try:
        result = subprocess.run(
            [sys.executable, "-m", "cyclorient.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, b"")
