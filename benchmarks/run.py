"""Run one workload of the cyclorient benchmark and print its metrics.

    python3 benchmarks/run.py --workload verify-n6 --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the library from ``src/``
and exits 2 without a result when that is missing.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it, starting ``machine``, holds
the machine info.  Both, with the sample counts and the first problems
found, also go to ``.bench_out/BENCH_<workload>_seed<seed>_trace<t>.json``;
a traced run writes its spans to ``.bench_out/TRACE_<workload>_seed<seed>.json``.

Workloads (one process each, closed loop, one client):

* ``verify-n6``: ``verify --n-max 6 --threads 2`` as its 17 suite runs,
  checked against the closed-form class counts.  One request is one whole
  verify.
* ``query-n24``: warm per-map API calls at n = 24 on a seeded stream of
  members, near-members and random maps.
* ``classify-cold``: a fresh ``python -m cyclorient.cli classify`` process per
  request at n = 16; at least 40 requests, so p75 has ten samples beyond it.

A run stays on one CPU, with its child processes, except for the
equivalence suite runs of verify-n6, whose two worker processes get every
CPU.  Every end-to-end time is calibrated (see ``calibrate.py``): rescaled
by a fixed loop timed on the same CPU around and during the requests, so
that slowdowns caused by other tenants of the machine cancel out.  The
results file also holds the same metrics from plain wall times, as
``raw_metrics``.

End-to-end metrics (``--trace 0``), measured with tracing off:

* ``setup_s``: import plus warm-up, median of several set-ups (the main
  process and fresh probe processes);
* ``wall_s``: median time of one pass (one verify; one map of each kind);
* ``queries_per_s``: requests completed per second of request time;
* ``query_p50_ms``, ``query_p90_ms``: request latency;
* ``cold_p50_ms``, ``cold_p75_ms``: latency of a fresh process: each
  request of classify-cold, and for the other two a probe process that
  starts, sets up and serves a first request (the n = 1 equivalence suite
  run for verify-n6);
* ``peak_rss_mb``: the larger of this process's peak RSS and its children's;
* ``ok_ratio``: 1 - failed/attempted operations.  An operation fails when a
  suite reports a violation or misses the closed-form witness count, a
  ``cross_check`` has an unsanctioned discrepancy, a verdict differs from
  the descent-count oracle, a witness raises or does not validate, or a CLI
  request exits non-zero or prints a wrong verdict line.

Per-layer metrics (``--trace 1``) are plain wall times.  They come from a
run that spends half its time untraced and half traced
(``trace.overhead_ratio`` compares their passes), then replays the
library's routes batch by batch over the workload's maps (every map of [6]
for verify-n6, the first stream maps otherwise), times first calls in a
fresh process at the workload's n, and runs the equivalence suite with 1
and 2 workers, whose machine reports must be byte-identical, with the
identity and lemma suites, at n = 6 for verify-n6 and n = 5 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import workloads

OUT = workloads.ROOT / ".bench_out"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    if not (workloads.ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=workloads.ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def machine_info(workload: str, seed: int, trace: bool) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (workloads.SRC / "cyclorient" / "__init__.py").is_file():
        print(f"error: no cyclorient sources under {workloads.SRC}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    result = workloads.run(args.workload, args.seed, args.seconds, trace, workloads.FULL[args.workload])
    outcomes = result.outcomes
    info = machine_info(args.workload, args.seed, trace)
    summary = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit} for name, unit in result.units.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}"
    record = {
        "machine": info,
        "failed_ratio": outcomes.failed / max(outcomes.attempted, 1),
        "samples": result.samples,
        "raw_metrics": result.raw,
        "problems": outcomes.problems,
        **summary,
    }
    (OUT / f"BENCH_{stem}_trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        result.tracer.write(OUT / f"TRACE_{stem}.json", info)
    for problem in outcomes.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"failed_ratio {record['failed_ratio']} samples {json.dumps(result.samples)}", file=sys.stderr)
    print("machine " + json.dumps(info))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
