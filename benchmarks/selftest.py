"""Self-test of the benchmark at toy size (about half a minute).

    python3 benchmarks/selftest.py

Checks that every workload, untraced and traced, emits exactly the metrics
that BENCHMARK.json declares, with their units, and passes its own output
checks; that an oracle flipping every membership verdict makes each
workload report failed operations; and that run.py exits non-zero without
a result when the library's sources are missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types

import oracle
import workloads

TOY = {
    "verify-n6": workloads.Sizes(n=4, probe_n=4, setup_samples=3),
    "query-n24": workloads.Sizes(n=7, probe_n=4, setup_samples=3, replay_maps=9),
    "classify-cold": workloads.Sizes(n=6, probe_n=4, setup_samples=3, min_requests=3, replay_maps=9),
}


def flipped_oracle():
    """The oracle with every membership verdict negated."""
    liar = types.SimpleNamespace(**{k: getattr(oracle, k) for k in dir(oracle) if not k.startswith("_")})
    liar.member_flags = lambda images: tuple(not f for f in oracle.member_flags(images))
    liar.p_count = lambda n: n**n - oracle.p_count(n)
    return liar


def check_metrics(declared: dict, result, where: str) -> list[str]:
    problems = []
    if result.units != declared:
        problems.append(f"{where}: emits {sorted(result.units)}, BENCHMARK.json declares {sorted(declared)}")
    for name, value in result.metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r}")
    if set(result.metrics) != set(result.units):
        problems.append(f"{where}: metric values and units name different metrics")
    if result.outcomes.failed:
        problems.append(f"{where}: {result.outcomes.failed} failed: {result.outcomes.problems[:3]}")
    return problems


def check_bare_checkout() -> list[str]:
    """run.py in a directory holding only BENCHMARK.json and benchmarks/."""
    bare = workloads.ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmarks").mkdir(parents=True)
    shutil.copy(workloads.ROOT / "BENCHMARK.json", bare)
    for path in (workloads.ROOT / "benchmarks").glob("*.py"):
        shutil.copy(path, bare / "benchmarks")
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "verify-n6", "--seed", "1", "--seconds", "1"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    declared = {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in ((False, "end_to_end"), (True, "per_layer"))
    }
    problems = []
    for name, sizes in TOY.items():
        for trace in (False, True):
            result = workloads.run(name, 7, 0.5, trace, sizes)
            problems += check_metrics(declared[trace], result, f"{name} trace={int(trace)}")
        lied = workloads.run(name, 7, 0.5, False, sizes, oracle=flipped_oracle())
        if lied.outcomes.failed == 0 or lied.metrics["ok_ratio"] >= 1:
            problems.append(f"{name}: a flipped oracle raised no failure")
        print(f"{name}: checked; flipped oracle failed {lied.outcomes.failed}/{lied.outcomes.attempted}")
    problems += check_bare_checkout()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
