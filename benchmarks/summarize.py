"""Summarize the result files of many runs, per workload and metric.

    python3 benchmarks/summarize.py [RESULTS_DIR] > summary.json

RESULTS_DIR (default ``.bench_out``) holds the ``BENCH_*.json`` files that
run.py writes.  For every workload and metric the summary gives the run
count, the median, the quartiles and their distance as a share of the
median (``statistics.quantiles(values, n=4)``), for the calibrated metrics
of untraced runs, their plain wall-time counterparts and the per-layer
metrics of traced runs, with the machine info the runs recorded.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "runs": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else None,
    }


def main() -> int:
    results = Path(sys.argv[1] if len(sys.argv) > 1 else ".bench_out")
    values = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    machines = defaultdict(set)
    for path in sorted(results.glob("BENCH_*.json")):
        record = json.loads(path.read_text())
        machine = record["machine"]
        workload = machine["workload"]
        kind = "per_layer" if machine["trace"] else "end_to_end"
        for name, metric in record["metrics"].items():
            values[workload][kind][name].append(metric["value"])
        for name, value in record.get("raw_metrics", {}).items():
            values[workload]["end_to_end_raw"][name].append(value)
        values[workload]["failed"]["failed_ratio"].append(record["failed_ratio"])
        machines[workload].add(
            json.dumps({k: v for k, v in machine.items() if k not in ("seed", "trace", "workload")}, sort_keys=True)
        )
    summary = {
        workload: {
            "machine": [json.loads(m) for m in sorted(machines[workload])],
            **{kind: {name: spread(vs) for name, vs in names.items()} for kind, names in kinds.items()},
        }
        for workload, kinds in values.items()
    }
    json.dump(summary, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
