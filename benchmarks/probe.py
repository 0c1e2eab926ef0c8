"""Fresh-process probes started by the benchmark; not meant to be run by hand.

    probe.py setup --workload NAME --seed S --sizes JSON
        set up as the main process does, serve the workload's first request,
        and print {"setup_s": ..., "problems": [...]}.
    probe.py firstcall --n N
        time quad_test and both chord oracles twice on the identity of [N]
        and print each first call minus its second call, in seconds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import oracle
import workloads
from spans import Tracer


def probe_setup(args: argparse.Namespace) -> int:
    sizes = workloads.Sizes(**json.loads(args.sizes))
    t0 = time.perf_counter()
    workload = workloads.start(args.workload, sizes, oracle, Tracer(False))
    setup_s = time.perf_counter() - t0
    problems = workloads.serve_first_request(workload, args.seed) if workload.probe_serves_request else []
    print(json.dumps({"setup_s": setup_s, "problems": problems}))
    return 1 if problems else 0


def probe_firstcall(args: argparse.Namespace) -> int:
    lib = workloads.load_library()
    m = lib.identity(args.n)
    calls = {
        "membership": lib.quad_test,
        "comb": lambda m: lib.has_chord_property(m, "combinatorial"),
        "geom": lambda m: lib.has_chord_property(m, "geometric"),
    }
    out = {}
    for key, call in calls.items():
        walls = []
        for _ in range(2):
            t0 = time.perf_counter()
            call(m)
            walls.append(time.perf_counter() - t0)
        out[key] = walls[0] - walls[1]
    print(json.dumps(out))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="probe.py")
    sub = parser.add_subparsers(dest="probe", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOAD_TYPES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sizes", required=True)
    p = sub.add_parser("firstcall")
    p.add_argument("--n", type=int, required=True)
    args = parser.parse_args(argv)
    return probe_setup(args) if args.probe == "setup" else probe_firstcall(args)


if __name__ == "__main__":
    sys.exit(main())
