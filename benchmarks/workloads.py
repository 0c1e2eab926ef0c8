"""The benchmark's workloads: set-up, timed requests, output checks, and the
layer probes of a traced run.

The library is driven only through cyclorient's public functions and its
command line, imported from this checkout's ``src/``.  The library is
imported inside ``start``, never at module import, so that the set-up time
of the main process and of a fresh probe process cover the same work.

Every workload is a closed loop with one client: the next request is sent
when the previous one has returned.  Requests are grouped in passes (one
``verify --n-max 6``; one map of each kind), and a timed phase only stops
at a pass boundary, so every phase sees the same mix of requests.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import oracle as default_oracle
from calibrate import Calibration
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "probe.py"

CHILD_TIMEOUT_S = 150
ENUMERATE_MAPS = 46_656  # all of enumerate_all(6); a prefix of larger n
ORIENTATION_SWEEPS = 60
CLI_PROBES = 5
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import cyclorient.cli;"
    " print(time.perf_counter() - t)"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "cold_p50_ms": "ms",
    "cold_p75_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

TRIPLE_LABELS = (
    "1",
    "1-swapped",
    "2",
    "2-swapped",
    "3.1",
    "3.1-swapped",
    "3.2",
    "3.2-swapped",
    "3.3",
    "3.3-swapped",
    "gamma-composed",
)
QUAD_LABELS = ("case1-min", "case1-max", "case2")

PER_LAYER = {
    "membership.quad_test_us.member": "us",
    "membership.quad_test_us.nonmember": "us",
    "chords.comb_us.member": "us",
    "chords.comb_us.nonmember": "us",
    "chords.geom_us.member": "us",
    "chords.geom_us.nonmember": "us",
    "membership.first_call_s": "s",
    "chords.first_call_s.comb": "s",
    "chords.first_call_s.geom": "s",
    "membership.classify_us": "us",
    "membership.triple_test_us": "us",
    "witnesses.witness_triple_us": "us",
    "witnesses.witness_quad_us": "us",
    "mappings.enumerate_us": "us",
    "sequences.orientation_ns": "ns",
    "verification.equivalence_s.w1": "s",
    "verification.equivalence_s.w2": "s",
    "verification.scaling_eff": "ratio",
    "verification.identity_s": "s",
    "verification.lemma_s": "s",
    "verification.self_s": "s",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "verification.checks": "count",
    "verification.sanctioned": "count",
    "query.member_share": "ratio",
    **{f"witnesses.cases.{label}": "count" for label in TRIPLE_LABELS + QUAD_LABELS},
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Sizes:
    """How much work one run of a workload does."""

    n: int  # map size of a request; n_max for verify-n6
    probe_n: int  # n of the traced run's equivalence probe
    setup_samples: int  # set-ups per run, the main process's included
    min_requests: int = 0  # so that p75 has ten samples beyond it
    replay_maps: int = 60  # stream maps replayed route by route when traced


FULL = {
    "verify-n6": Sizes(n=6, probe_n=6, setup_samples=21),
    "query-n24": Sizes(n=24, probe_n=5, setup_samples=3),
    "classify-cold": Sizes(n=16, probe_n=5, setup_samples=11, min_requests=40),
}


class Outcomes:
    """Operations attempted and failed, with the first few problems kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems[:2])


# ----------------------------------------------------------------------
# Library access and child processes.
# ----------------------------------------------------------------------


def load_library():
    """Import cyclorient from this checkout's src/, refusing any other copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("cyclorient")
    if Path(lib.__file__).resolve().parent != (SRC / "cyclorient").resolve():
        raise RuntimeError(f"imported cyclorient from {lib.__file__}, not from {SRC}")
    return lib


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run a fresh interpreter to completion; returns its wall time too."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - started, proc


def child_json(args: list[str], outcomes: Outcomes) -> dict:
    """Run a probe child and parse the JSON on its last output line."""
    _, proc = run_child(args)
    try:
        info = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        info = None
    if proc.returncode != 0 or not isinstance(info, dict):
        outcomes.record([f"child {args[:2]} exited {proc.returncode}: {proc.stderr[-300:]}"])
        return {}
    outcomes.record([])
    return info


# ----------------------------------------------------------------------
# Inputs.
# ----------------------------------------------------------------------

KINDS = ("member", "near-member", "random")


def make_map(rng: random.Random, n: int, kind: str) -> tuple[int, ...]:
    """A member rotates and maybe reverses a sorted random list; a
    near-member is a non-member made from one by changing one image; a
    random map is uniform.  Near-members are never members, so a third of
    the stream are members and p50 always falls among the non-members."""
    if kind == "random":
        return tuple(rng.randrange(n) for _ in range(n))
    while True:
        images = sorted(rng.randrange(n) for _ in range(n))
        k = rng.randrange(n)
        images = images[k:] + images[:k]
        if rng.random() < 0.5:
            images.reverse()
        if kind == "member":
            return tuple(images)
        j = rng.randrange(n)
        images[j] = rng.choice([v for v in range(n) if v != images[j]])
        if not any(default_oracle.member_flags(images)):
            return tuple(images)


def map_blocks(seed: int, n: int):
    """Endless blocks of three maps, one of each kind, in seeded order."""
    rng = random.Random(seed * 1_000_003 + n)
    while True:
        kinds = list(KINDS)
        rng.shuffle(kinds)
        yield [make_map(rng, n, kind) for kind in kinds]


def stream_prefix(seed: int, n: int, count: int) -> list[tuple[int, ...]]:
    maps = itertools.chain.from_iterable(map_blocks(seed, n))
    return list(itertools.islice(maps, count))


# ----------------------------------------------------------------------
# Checks shared by the workloads.
# ----------------------------------------------------------------------


def witness_problems(lib, oracle, m, tracer) -> list[str]:
    """Extract every witness the map must have and validate it independently."""
    images = m.images
    in_op, in_or = oracle.member_flags(images)
    problems = []
    wanted = []
    if not (in_op or in_or):
        wanted.append(("quad", None))
    if len(set(images)) >= 3:
        wanted += [("triple", mode) for mode, member in (("preserve", in_op), ("reverse", in_or)) if not member]
    for kind, mode in wanted:
        try:
            if kind == "quad":
                with tracer.span("witnesses.witness_quad"):
                    w = lib.witness_quad(m)
                ok = oracle.quad_witness_ok(images, w.points)
            else:
                with tracer.span("witnesses.witness_triple"):
                    w = lib.witness_triple(m, mode)
                ok = oracle.triple_witness_ok(images, w.points, mode)
        except (ValueError, RuntimeError) as exc:
            problems.append(f"{m}: witness {kind} {mode or ''} raised {exc}")
            continue
        if not ok:
            problems.append(f"{m}: witness {kind} {mode or ''} {w.points} does not validate")
    return problems


def suite_problems(report, oracle) -> list[str]:
    """A suite report must pass; the equivalence suite must also extract
    exactly n^n - |P_n| quadruple witnesses."""
    problems = [
        f"{report.suite} n={report.n}: {v.claim} violated at {v.witness}"
        for v in report.violations
    ]
    if report.suite == "equivalence":
        n = report.n
        quads = sum(c.checks for c in report.claims if c.claim == "witness-quad")
        if quads != n**n - oracle.p_count(n):
            problems.append(f"equivalence n={n}: {quads} witness-quad checks, closed form wants {n**n - oracle.p_count(n)}")
    return problems


def run_suite(lib, suite: str, n: int, workers: int):
    if suite == "equivalence":
        return lib.equivalence_suite(n, workers=workers)
    if suite == "identity":
        return lib.identity_suite(n)
    return lib.lemma_suite(n, max_len=4, sample_budget=200)


def suite_calls(n_max: int) -> list[tuple[str, int]]:
    """The suite runs of ``verify --n-max n_max``, in run_verify's order."""
    return (
        [("equivalence", n) for n in range(1, n_max + 1)]
        + [("identity", n) for n in range(1, min(n_max, 5) + 1)]
        + [("lemma", n) for n in range(1, min(n_max, 6) + 1)]
    )


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------


class Workload:
    name = ""
    probe_serves_request = True  # a set-up probe also serves the first request
    pass_is_request = False  # latency percentiles are over passes, not calls
    sample_during_requests = False  # calibrate from a thread during requests

    def __init__(self, lib, sizes: Sizes, oracle, tracer: Tracer) -> None:
        self.lib = lib
        self.sizes = sizes
        self.n = sizes.n
        self.oracle = oracle
        self.tracer = tracer
        self.all_cpus = os.sched_getaffinity(0)  # run() sets it before pinning

    def replay_maps(self, seed: int) -> list:
        """The first maps of the stream, replayed route by route when traced."""
        return [self.lib.Mapping(self.n, images) for images in stream_prefix(seed, self.n, self.sizes.replay_maps)]


class Verify(Workload):
    """`verify --n-max 6 --threads 2`: a pass of 17 suite runs is one request."""

    name = "verify-n6"
    pass_is_request = True  # one `verify` command
    sample_during_requests = True
    # The run stays on one CPU but for equivalence suite runs, whose two
    # worker processes must be free to use two.

    def setup(self) -> None:
        for suite, n in suite_calls(min(3, self.n)):
            run_suite(self.lib, suite, n, workers=2)
        for k in range(4, self.n + 1):
            m = self.lib.identity(k)
            self.lib.cross_check(m)
            self.lib.has_chord_property(m, "geometric")

    def passes(self, seed: int):
        calls = suite_calls(self.n)
        while True:
            yield [(f"verification.{suite}_suite", partial(self.request, suite, n)) for suite, n in calls]

    def request(self, suite: str, n: int) -> list[str]:
        one_cpu = os.sched_getaffinity(0)
        if suite == "equivalence":
            os.sched_setaffinity(0, self.all_cpus)
        try:
            return suite_problems(run_suite(self.lib, suite, n, workers=2), self.oracle)
        finally:
            os.sched_setaffinity(0, one_cpu)


class Query(Workload):
    """Warm per-map API calls on a seeded stream of maps."""

    name = "query-n24"

    def setup(self) -> None:
        for images in next(map_blocks(-1, self.n)):
            self.request(images)

    def passes(self, seed: int):
        for block in map_blocks(seed, self.n):
            yield [("query", partial(self.request, images)) for images in block]

    def request(self, images: tuple[int, ...]) -> list[str]:
        lib, tracer = self.lib, self.tracer
        m = lib.Mapping(len(images), images)
        in_op, in_or = self.oracle.member_flags(images)
        problems = []
        with tracer.span("membership.cross_check"):
            report = lib.cross_check(m)
        if report.unsanctioned:
            problems.append(f"{m}: cross_check {[d.claim for d in report.unsanctioned]}")
        d = report.definitional
        if (d.in_op, d.in_or, d.in_p) != (in_op, in_or, in_op or in_or):
            problems.append(f"{m}: classified op={d.in_op} or={d.in_or}")
        with tracer.span("chords.has_chord_property.geometric"):
            geometric = lib.has_chord_property(m, "geometric").holds
        if geometric != (in_op or in_or):
            problems.append(f"{m}: geometric chord verdict {geometric}")
        return problems + witness_problems(lib, self.oracle, m, tracer)


class Cold(Workload):
    """A fresh `cyclorient classify` process per request."""

    name = "classify-cold"
    probe_serves_request = False
    sample_during_requests = True

    def setup(self) -> None:
        importlib.import_module("cyclorient.cli")

    def passes(self, seed: int):
        for block in map_blocks(seed, self.n):
            yield [("cli.classify", partial(self.request, images)) for images in block]

    def request(self, images: tuple[int, ...]) -> list[str]:
        text = ",".join(map(str, images))
        with self.tracer.span("cli.classify.process"):
            _, proc = run_child(["-m", "cyclorient.cli", "classify", "--map", text])
        return cli_problems(images, proc.returncode, proc.stdout, self.oracle)


def cli_problems(images, returncode: int, stdout: str, oracle) -> list[str]:
    """Exit 0 and the three definitional verdict lines the oracle expects."""
    in_op, in_or = oracle.member_flags(images)
    want = {
        "orientation-preserving (definitional)": in_op,
        "orientation-reversing (definitional)": in_or,
        "preserving or reversing": in_op or in_or,
    }
    got = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    text = ",".join(map(str, images))
    problems = [f"classify {text}: exit {returncode}"] if returncode != 0 else []
    for key, flag in want.items():
        if got.get(key) != ("yes" if flag else "no"):
            problems.append(f"classify {text}: {key} is {got.get(key)}, want {flag}")
    return problems


WORKLOAD_TYPES = {w.name: w for w in (Verify, Query, Cold)}


def start(name: str, sizes: Sizes, oracle, tracer: Tracer) -> Workload:
    """Set-up as timed: import the library and warm the workload up."""
    lib = load_library()
    workload = WORKLOAD_TYPES[name](lib, sizes, oracle, tracer)
    workload.setup()
    return workload


# ----------------------------------------------------------------------
# Timed phase.
# ----------------------------------------------------------------------


def timed_phase(workload: Workload, passes, seconds: float, min_requests: int, outcomes: Outcomes, cal: Calibration) -> list[list[tuple[float, float]]]:
    """Run whole passes until ``seconds`` have gone by and at least
    ``min_requests`` requests are done; returns each request's (start, end),
    grouped by pass.  Calibration samples fall between requests, and during
    the long requests of verify-n6 and classify-cold."""
    tracer = workload.tracer
    alongside = cal.alongside if workload.sample_during_requests else nullcontext
    passes_done: list[list[tuple[float, float]]] = []
    requests_done = 0
    cal.sample(force=True)
    started = time.perf_counter()
    for requests in passes:
        intervals = []
        for label, call in requests:
            t0 = time.perf_counter()
            with tracer.span(label, new_run=True), alongside():
                problems = call()
            intervals.append((t0, time.perf_counter()))
            outcomes.record(problems)
            cal.sample()
        passes_done.append(intervals)
        requests_done += len(intervals)
        if time.perf_counter() - started >= seconds and requests_done >= min_requests:
            break
    cal.sample(force=True)
    return passes_done


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks; one value is its own percentile."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def setup_probe(name: str, sizes: Sizes, seed: int, outcomes: Outcomes) -> float | None:
    """A fresh process sets up (and serves one request); returns its
    in-process set-up time, or None when it failed."""
    info = child_json(
        [str(PROBE), "setup", "--workload", name, "--seed", str(seed), "--sizes", json.dumps(dataclasses.asdict(sizes))],
        outcomes,
    )
    return info.get("setup_s")


def serve_first_request(workload: Workload, seed: int) -> list[str]:
    _, call = next(workload.passes(seed))[0]
    return call()


# ----------------------------------------------------------------------
# Layer probes of a traced run.
# ----------------------------------------------------------------------


def _guarded(call):
    def run(m):
        try:
            return call(m)
        except (ValueError, RuntimeError) as exc:
            return exc

    return run


def replay(lib, maps: list, tracer: Tracer, outcomes: Outcomes, oracle):
    """Time each route the equivalence suite calls per map, batch by batch,
    and check every result against the oracle.

    Returns {batch: (seconds, calls)}, the witness case-label counts and
    the members' share of the maps.
    """
    flags = [oracle.member_flags(m.images) for m in maps]
    member = [a or b for a, b in flags]
    rank3 = [len(set(m.images)) >= 3 for m in maps]
    idx_in = [i for i in range(len(maps)) if member[i]]
    idx_out = [i for i in range(len(maps)) if not member[i]]
    problems = defaultdict(list)
    times = {}

    def batch(key, call, indices):
        group = [maps[i] for i in indices]
        with tracer.span(f"replay.{key}", count=len(group)):
            t0 = time.perf_counter()
            out = [call(m) for m in group]
            times[key] = (time.perf_counter() - t0, len(group))
        return zip(indices, out)

    def expect(key, call, indices, want):
        for i, got in batch(key, call, indices):
            if got != want(i):
                problems[i].append(f"{maps[i]}: {key} gave {got}")

    everything = range(len(maps))
    for i, report in batch("membership.classify", lib.classify, everything):
        if (report.in_op, report.in_or) != flags[i]:
            problems[i].append(f"{maps[i]}: classify op={report.in_op} or={report.in_or}")
    for mode, k in (("preserve", 0), ("reverse", 1)):
        expect(
            f"membership.triple_test.{mode}",
            partial(lib.triple_test, mode=mode),
            everything,
            lambda i, k=k: flags[i][k] or not rank3[i],
        )
    for cls, indices in (("member", idx_in), ("nonmember", idx_out)):
        expect(f"membership.quad_test.{cls}", lib.quad_test, indices, lambda i: member[i])
        expect(f"chords.comb.{cls}", lambda m: lib.has_chord_property(m).holds, indices, lambda i: member[i])
        expect(
            f"chords.geom.{cls}",
            lambda m: lib.has_chord_property(m, "geometric").holds,
            indices,
            lambda i: member[i],
        )

    labels: Counter = Counter()
    witness_batches = [
        ("witnesses.witness_triple.preserve", _guarded(partial(lib.witness_triple, mode="preserve")), "preserve", 0),
        ("witnesses.witness_triple.reverse", _guarded(partial(lib.witness_triple, mode="reverse")), "reverse", 1),
    ]
    for key, call, mode, k in witness_batches:
        indices = [i for i in everything if rank3[i] and not flags[i][k]]
        for i, w in batch(key, call, indices):
            if isinstance(w, Exception) or not oracle.triple_witness_ok(maps[i].images, w.points, mode):
                problems[i].append(f"{maps[i]}: {key} gave {w}")
            else:
                labels[w.case_label] += 1
    for i, w in batch("witnesses.witness_quad", _guarded(lib.witness_quad), idx_out):
        if isinstance(w, Exception) or not oracle.quad_witness_ok(maps[i].images, w.points):
            problems[i].append(f"{maps[i]}: witness_quad gave {w}")
        else:
            labels[w.case_label] += 1

    for i in everything:
        outcomes.record(problems.get(i, []))
    return times, labels, len(idx_in) / len(maps)


def _per_call(times: dict, keys, scale: float) -> float:
    seconds = sum(times[k][0] for k in keys)
    calls = sum(times[k][1] for k in keys)
    return seconds / calls * scale if calls else 0.0


def suite_route_seconds(times: dict, n: int) -> float:
    """Replay time of the routes equivalence_suite(n) calls for every map."""
    keys = [k for k in times if not k.startswith("chords.geom.") or n <= 5]
    return sum(times[k][0] for k in keys)


def enumerate_maps(lib, n: int, tracer: Tracer) -> tuple[list, float]:
    count = min(n**n, ENUMERATE_MAPS)
    with tracer.span("mappings.enumerate_all", count=count, new_run=True):
        t0 = time.perf_counter()
        maps = list(lib.enumerate_all(n, 0, count))
        seconds = time.perf_counter() - t0
    return maps, seconds / count


def orientation_ns(lib, n: int, tracer: Tracer, outcomes: Outcomes, oracle) -> float:
    """ns per orientation(Seq) call over the lemma candidate pool: every
    oriented sequence of length 3..4 over [n]."""
    pool = [
        items
        for length in (3, 4)
        for items in itertools.product(range(n), repeat=length)
        if oracle.tag(items) != "neither"
    ]
    wrong = [items for items in pool if lib.orientation(lib.Seq(n, items)).value != oracle.tag(items)]
    outcomes.record([f"orientation{wrong[0]} disagrees"] if wrong else [])
    sweeps = []
    Seq, orientation = lib.Seq, lib.orientation
    with tracer.span("sequences.orientation", count=ORIENTATION_SWEEPS * len(pool), new_run=True):
        for _ in range(ORIENTATION_SWEEPS):
            t0 = time.perf_counter()
            for items in pool:
                orientation(Seq(n, items))
            sweeps.append(time.perf_counter() - t0)
    return statistics.median(sweeps) / len(pool) * 1e9


def verification_probe(lib, n: int, tracer: Tracer, outcomes: Outcomes, oracle) -> dict:
    """Equivalence at 1 and 2 workers (their machine reports must be byte
    identical), then the identity and lemma suites up to n."""
    walls = {}
    reports = {}
    for workers in (1, 2):
        with tracer.span(f"verification.equivalence_suite.w{workers}", new_run=True):
            t0 = time.perf_counter()
            reports[workers] = lib.equivalence_suite(n, workers=workers)
            walls[workers] = time.perf_counter() - t0
        outcomes.record(suite_problems(reports[workers], oracle))
    same = lib.format_machine([reports[1]]) == lib.format_machine([reports[2]])
    outcomes.record([] if same else [f"equivalence n={n}: 1- and 2-worker machine reports differ"])
    suite_walls = Counter()
    for suite, k in suite_calls(n):
        if suite == "equivalence":
            continue
        with tracer.span(f"verification.{suite}_suite", new_run=True):
            t0 = time.perf_counter()
            report = run_suite(lib, suite, k, workers=1)
            suite_walls[suite] += time.perf_counter() - t0
        outcomes.record(suite_problems(report, oracle))
    return {
        "verification.equivalence_s.w1": walls[1],
        "verification.equivalence_s.w2": walls[2],
        "verification.scaling_eff": walls[1] / (2 * walls[2]),
        "verification.identity_s": suite_walls["identity"],
        "verification.lemma_s": suite_walls["lemma"],
        "verification.checks": reports[1].checks_run,
        "verification.sanctioned": len(reports[1].sanctioned_exceptions),
    }


def cli_probes(outcomes: Outcomes) -> dict:
    """A bare interpreter's wall time, and the in-process import time of the CLI."""
    bare = []
    imports = []
    for _ in range(CLI_PROBES):
        wall, proc = run_child(["-c", "pass"])
        outcomes.record([] if proc.returncode == 0 else ["bare interpreter failed"])
        bare.append(wall)
        wall, proc = run_child(["-c", IMPORT_SNIPPET])
        try:
            imports.append(float(proc.stdout.strip()))
            outcomes.record([])
        except ValueError:
            outcomes.record([f"import cyclorient.cli failed: {proc.stderr[-300:]}"])
    return {
        "cli.interpreter_ms": statistics.median(bare) * 1e3,
        "cli.import_ms": statistics.median(imports) * 1e3 if imports else 0.0,
    }


def layer_metrics(workload: Workload, seed: int, outcomes: Outcomes) -> dict:
    lib, tracer, oracle, sizes = workload.lib, workload.tracer, workload.oracle, workload.sizes
    metrics = {}
    enumerated, per_map = enumerate_maps(lib, sizes.n, tracer)
    metrics["mappings.enumerate_us"] = per_map * 1e6
    # verify-n6 replays every map of [6], as its equivalence suite does.
    maps = enumerated if workload.name == Verify.name else workload.replay_maps(seed)
    with tracer.span("replay", new_run=True):
        times, labels, share = replay(lib, maps, tracer, outcomes, oracle)
    for layer, key in (("membership.quad_test_us", "membership.quad_test"), ("chords.comb_us", "chords.comb"), ("chords.geom_us", "chords.geom")):
        for cls in ("member", "nonmember"):
            metrics[f"{layer}.{cls}"] = _per_call(times, [f"{key}.{cls}"], 1e6)
    metrics["membership.classify_us"] = _per_call(times, ["membership.classify"], 1e6)
    metrics["membership.triple_test_us"] = _per_call(times, ["membership.triple_test.preserve", "membership.triple_test.reverse"], 1e6)
    metrics["witnesses.witness_triple_us"] = _per_call(times, ["witnesses.witness_triple.preserve", "witnesses.witness_triple.reverse"], 1e6)
    metrics["witnesses.witness_quad_us"] = _per_call(times, ["witnesses.witness_quad"], 1e6)
    metrics["query.member_share"] = share
    for label in TRIPLE_LABELS + QUAD_LABELS:
        metrics[f"witnesses.cases.{label}"] = labels[label]
    unknown = set(labels) - set(TRIPLE_LABELS + QUAD_LABELS)
    outcomes.record([f"unknown witness case labels {sorted(unknown)}"] if unknown else [])

    first = child_json([str(PROBE), "firstcall", "--n", str(sizes.n)], outcomes)
    metrics["membership.first_call_s"] = first.get("membership", 0.0)
    metrics["chords.first_call_s.comb"] = first.get("comb", 0.0)
    metrics["chords.first_call_s.geom"] = first.get("geom", 0.0)

    metrics["sequences.orientation_ns"] = orientation_ns(lib, min(sizes.probe_n, 6), tracer, outcomes, oracle)
    metrics.update(verification_probe(lib, sizes.probe_n, tracer, outcomes, oracle))
    if workload.name != Verify.name or sizes.probe_n != sizes.n:
        probe_maps, _ = enumerate_maps(lib, sizes.probe_n, tracer)
        with tracer.span("replay", new_run=True):
            times, _, _ = replay(lib, probe_maps, tracer, outcomes, oracle)
    metrics["verification.self_s"] = metrics["verification.equivalence_s.w1"] - suite_route_seconds(times, sizes.probe_n)
    metrics.update(cli_probes(outcomes))
    return metrics


# ----------------------------------------------------------------------
# One run.
# ----------------------------------------------------------------------


@dataclass
class Result:
    metrics: dict  # name -> value
    units: dict  # name -> unit
    outcomes: Outcomes
    tracer: Tracer
    samples: dict  # sample counts behind the percentiles
    raw: dict  # the end-to-end metrics from uncalibrated wall times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def summarize(passes_done, setups, colds, measure, pass_is_request: bool) -> dict:
    """End-to-end timings from request, set-up and fresh-process intervals,
    each turned into seconds by ``measure``."""
    pass_walls = [sum(measure(*iv) for iv in intervals) for intervals in passes_done]
    if pass_is_request:
        lat_ms = [wall * 1e3 for wall in pass_walls]
    else:
        lat_ms = [measure(*iv) * 1e3 for intervals in passes_done for iv in intervals]
    cold_ms = [measure(*iv) * 1e3 for iv in colds]
    return {
        "setup_s": statistics.median(measure(*iv) * share for iv, share in setups),
        "wall_s": statistics.median(pass_walls),
        "queries_per_s": len(lat_ms) / sum(pass_walls),
        "query_p50_ms": statistics.median(lat_ms),
        "query_p90_ms": percentile(lat_ms, 0.9),
        "cold_p50_ms": statistics.median(cold_ms),
        "cold_p75_ms": percentile(cold_ms, 0.75),
    }


def _wall(start: float, end: float) -> float:
    return end - start


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes, oracle=default_oracle) -> Result:
    affinity = os.sched_getaffinity(0)
    # The process, its children and its calibration loop share one CPU.
    os.sched_setaffinity(0, {min(affinity)})
    try:
        return _run(name, seed, seconds, trace, sizes, oracle, affinity)
    finally:
        os.sched_setaffinity(0, affinity)


def _run(name, seed, seconds, trace, sizes, oracle, affinity) -> Result:
    tracer = Tracer(False)
    outcomes = Outcomes()
    cal = Calibration()
    cal.sample(force=True)
    t0 = time.perf_counter()
    workload = start(name, sizes, oracle, tracer)
    workload.all_cpus = affinity
    # (interval, share of it that is set-up): the main process's set-up
    # fills its interval; a probe's set-up is a share of the probe's life.
    setups = [((t0, time.perf_counter()), 1.0)]
    cal.sample(force=True)
    passes = workload.passes(seed)

    if trace:
        plain = timed_phase(workload, passes, seconds / 2, 0, outcomes, cal)
        tracer.enabled = True
        traced = timed_phase(workload, passes, seconds / 2, 0, outcomes, cal)
        os.sched_setaffinity(0, affinity)  # the probes run 2-worker suites
        metrics = layer_metrics(workload, seed, outcomes)
        walls = [statistics.median(sum(cal.scaled(*iv) for iv in p) for p in phase) for phase in (plain, traced)]
        metrics["trace.overhead_ratio"] = walls[1] / walls[0]
        samples = {"replay_maps": sizes.replay_maps, "calibration": len(cal.durations)}
        return Result(metrics, PER_LAYER, outcomes, tracer, samples, {})

    colds = []
    for _ in range(sizes.setup_samples - 1):
        a = time.perf_counter()
        with cal.alongside():
            setup_s = setup_probe(name, sizes, seed, outcomes)
        b = time.perf_counter()
        cal.sample(force=True)
        if setup_s is not None:
            setups.append(((a, b), setup_s / (b - a)))
            colds.append((a, b))
    passes_done = timed_phase(workload, passes, seconds, sizes.min_requests, outcomes, cal)
    if not workload.probe_serves_request:
        colds = [iv for intervals in passes_done for iv in intervals]
    common = {
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": 1 - outcomes.failed / max(outcomes.attempted, 1),
    }
    metrics = {**summarize(passes_done, setups, colds, cal.scaled, workload.pass_is_request), **common}
    raw = {**summarize(passes_done, setups, colds, _wall, workload.pass_is_request), **common}
    samples = {
        "requests": sum(map(len, passes_done)),
        "passes": len(passes_done),
        "cold": len(colds),
        "setups": len(setups),
        "calibration": len(cal.durations),
        "calibration_median_s": statistics.median(cal.durations),
    }
    return Result(metrics, END_TO_END, outcomes, tracer, samples, raw)
