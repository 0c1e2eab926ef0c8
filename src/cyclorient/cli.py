"""Command-line surface: classification, witnesses, chord queries, suites.

Every verb is a thin adapter over the library: parse arguments, call one
function, format the result.  Exit status 0 means success (all checks
passed), 2 invalid input, and 1 a failed check: a suite violation, an
unsanctioned ``classify`` discrepancy, a ``chords --method both``
MISMATCH, a ``count`` INVARIANT VIOLATION, any ``invariant failure:``
(such as a witness failing its own validation), or a stdout its reader
closed early (``| head``), which exits without a traceback.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .chords import METHODS, Chord, chords_intersect, image_chord
from .claims import ROUTES, SUITES, cross_check
from .mappings import Mapping
from .sequences import Seq, _within, orientation
from .witnesses import TRIPLE_MODES, witness_quad, witness_triple

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2

# classify runs the one chord scan twice, C(n, 3) triples each: on the
# order's side table (n^2 masks) and on the geometric one, built by n
# sorts of exact cross products; the 128-point identity map, a worst
# case, takes 0.2-0.3 s as a fresh process on a 2-vCPU x86-64 box.
CLASSIFY_MAX_N = 128
ASCII_MAX_N = 64  # --ascii draws a (2n+3) x (4n+5) grid per chord pair


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclorient",
        description=(
            "Orientation-preserving and orientation-reversing maps on a finite"
            " cycle: membership tests, counterexample witnesses, chord"
            " intersection, and exhaustive small-n verification."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("classify", help="run all membership tests on one map")
    p.add_argument("--map", required=True, help='image list, e.g. "0,1,3,2"')

    p = sub.add_parser("witness", help="extract a counterexample triple")
    p.add_argument("--map", required=True, help='image list, e.g. "0,1,3,2"')
    p.add_argument("--mode", choices=TRIPLE_MODES, default=TRIPLE_MODES[0])

    p = sub.add_parser("quadwitness", help="extract a counterexample quadruple")
    p.add_argument("--map", required=True, help='image list, e.g. "0,1,0,1"')

    p = sub.add_parser("chords", help="query chord intersection, optionally under a map")
    p.add_argument("--n", type=int, help="cycle size (required without --map)")
    p.add_argument("--pair", required=True, help='chord pair, e.g. "1-3:0-2"')
    p.add_argument("--map", help="image list; also reports the image chords")
    p.add_argument("--method", choices=(*METHODS, "both"), default=METHODS[0])
    p.add_argument(
        "--ascii", action="store_true", help="draw the circle and chords as ASCII art"
    )

    p = sub.add_parser("verify", help="run the verification suites for n = 1..K")
    p.add_argument("--n-max", type=int, required=True, metavar="K")
    p.add_argument(
        "--suites",
        default=",".join(SUITES),
        help=f"comma-separated subset of {','.join(SUITES)}",
    )
    p.add_argument("--threads", type=int, default=1, help="workers, capped at the CPUs")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.add_argument("--lemma-max-len", type=int, default=4, help="longest lemma sequence, within 3..8")

    p = sub.add_parser("count", help="count the orientation classes exactly")
    p.add_argument("--n", type=int, required=True)

    return parser


def _parse_mapping(text: str) -> Mapping:
    try:
        return Mapping.parse(text)
    except ValueError as exc:
        raise ValueError(f"bad map {text!r}: {exc}") from exc


def _bool_word(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_classify(args: argparse.Namespace) -> int:
    m = _parse_mapping(args.map)
    _within(m.n, 1, CLASSIFY_MAX_N, "classify map length")
    report = cross_check(m)
    d = report.definitional
    print(f"map: {m}   (n={m.n})")
    print(f"image size: {d.image_size}")
    print(f"image orientation: {d.image_orientation.value}")
    print(f"orientation-preserving (definitional): {_bool_word(d.in_op)}")
    print(f"orientation-reversing (definitional): {_bool_word(d.in_or)}")
    print(f"preserving or reversing: {_bool_word(d.in_p)}")
    verdicts = (report.triple_op, report.triple_or, report.quad_p, report.chord_p)
    for (_, label), verdict in zip(ROUTES, verdicts):
        print(f"{label}: {_bool_word(verdict)}")
    if not report.discrepancies:
        print(f"consistency: all tests agree ({len(report.claims)} claims checked)")
        return EXIT_OK
    for disagreement in report.discrepancies:
        kind = "sanctioned" if disagreement.sanctioned else "VIOLATION"
        print(f"consistency {kind}: {disagreement.claim}: {disagreement.detail}")
    return EXIT_OK if report.consistent else EXIT_VIOLATION


def _cmd_witness(args: argparse.Namespace) -> int:
    """``witness`` and ``quadwitness``: they differ only in the extractor."""
    m = _parse_mapping(args.map)
    w = witness_triple(m, args.mode) if args.verb == "witness" else witness_quad(m)
    image = tuple(m.images[p] for p in w.points)
    print(f"witness points: {w.points}   case {w.case_label}")
    print(f"source orientation: {orientation(Seq(m.n, w.points)).value}")
    print(f"image: {image}   ({orientation(Seq(m.n, image)).value})")
    return EXIT_OK


def _ascii_circle(n: int, first: Chord, second: Chord) -> str:
    """Plot the n circle points with two chords ('*' and '+', 'x' overlap)."""
    radius = max(4, n)
    cx, cy = 2 * radius + 2, radius + 1
    width, height = 4 * radius + 5, 2 * radius + 3
    grid = [[" "] * width for _ in range(height)]

    def spot(j: int) -> tuple[int, int]:
        angle = 2 * math.pi * j / n
        return (
            cx + round(2 * radius * math.sin(angle)),
            cy - round(radius * math.cos(angle)),
        )

    def draw(chord: Chord, mark: str) -> None:
        x0, y0 = spot(chord.p)
        x1, y1 = spot(chord.q)
        steps = max(abs(x1 - x0), abs(y1 - y0), 1)
        for s in range(steps + 1):
            x = round(x0 + (x1 - x0) * s / steps)
            y = round(y0 + (y1 - y0) * s / steps)
            grid[y][x] = "x" if grid[y][x] not in (" ", mark) else mark

    draw(first, "*")
    draw(second, "+")
    for j in range(n):
        x, y = spot(j)
        for offset, ch in enumerate(str(j)):
            if 0 <= x + offset < width:
                grid[y][x + offset] = ch
    return "\n".join("".join(row).rstrip() for row in grid)


def _cmd_chords(args: argparse.Namespace) -> int:
    m = _parse_mapping(args.map) if args.map is not None else None
    if m is not None:
        n = m.n
        if args.n is not None and args.n != n:
            raise ValueError(f"--n {args.n} conflicts with map of size {n}")
    elif args.n is not None:
        n = args.n
    else:
        raise ValueError("--n is required when no --map is given")
    if args.ascii:
        _within(n, 1, ASCII_MAX_N, "--ascii n")

    parts = args.pair.split(":")
    if len(parts) != 2:
        raise ValueError(f"pair must look like 'a-c:b-d', got {args.pair!r}")
    first = Chord.parse(parts[0], n)
    second = Chord.parse(parts[1], n)
    methods = METHODS if args.method == "both" else (args.method,)

    def report_pair(label: str, a: Chord, b: Chord) -> bool:
        print(f"{label}: chords {a} : {b}")
        verdicts = []
        for method in methods:
            verdicts.append(chords_intersect(a, b, method))
            print(f"  {method}: {'intersect' if verdicts[-1] else 'disjoint'}")
        agree = len(set(verdicts)) == 1
        if len(verdicts) == 2:
            print(f"  oracles: {'agree' if agree else 'MISMATCH'}")
        if args.ascii:
            print(_ascii_circle(n, a, b))
        return agree

    agree = report_pair(f"n={n} source", first, second)
    if m is not None:
        print(f"map: {m}")
        agree &= report_pair(f"n={n} image", image_chord(m, first), image_chord(m, second))
    return EXIT_OK if agree else EXIT_VIOLATION


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verification import format_machine, format_text, run_verify

    suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    reports = run_verify(
        args.n_max,
        suites=suites,
        workers=args.threads,
        lemma_max_len=args.lemma_max_len,
    )
    if args.format == "machine":
        sys.stdout.write(format_machine(reports))
    else:
        for report in reports:
            print(format_text(report))
        failed = [r for r in reports if not r.passed]
        print(
            f"overall: {len(reports) - len(failed)}/{len(reports)} suite runs passed"
        )
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VIOLATION


def _cmd_count(args: argparse.Namespace) -> int:
    from .verification import count_classes

    counts = count_classes(args.n)
    print(
        f"n={counts.n} total={counts.total} op={counts.op} or={counts.or_}"
        f" p={counts.p} op_and_or={counts.op_and_or}"
        f" low_rank_in_p={counts.low_rank_in_p}"
    )
    problems = counts.invariant_failures()
    for problem in problems:
        print(f"INVARIANT VIOLATION: {problem}")
    return EXIT_OK if not problems else EXIT_VIOLATION


_COMMANDS = {
    "classify": _cmd_classify,
    "witness": _cmd_witness,
    "quadwitness": _cmd_witness,
    "chords": _cmd_chords,
    "verify": _cmd_verify,
    "count": _cmd_count,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, which matches our convention.
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.verb](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except RuntimeError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_VIOLATION
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
