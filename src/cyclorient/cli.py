"""Command-line surface: classification, witnesses, chord queries, suites.

Every verb is a thin adapter over the library: parse arguments, call one
function, format the result.  Exit status 0 means success (all checks
passed), 1 means a verification suite found a violation or a witness
failed its own validation, and 2 means invalid input.
"""

from __future__ import annotations

import argparse
import math
import sys

from .chords import METHODS, Chord, chords_intersect, image_chord
from .mappings import Mapping
from .sequences import Seq, orientation
from .verification import (
    SUITES,
    count_classes,
    cross_check,
    format_machine,
    format_text,
    run_verify,
)
from .witnesses import TRIPLE_MODES, witness_quad, witness_triple

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2

# classify runs the quadruple scan and the geometric chord scan (C(n, 3)
# triples each; the latter first fills its side table, n^3/2 cross
# products); the 128-point identity map, a worst case, takes 0.5-0.9 s as a
# fresh process on a 2-vCPU x86-64 box.
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
    p.add_argument("--lemma-max-len", type=int, default=4)

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
    if m.n > CLASSIFY_MAX_N:
        raise ValueError(
            f"classify supports maps of length at most {CLASSIFY_MAX_N}, got {m.n}"
        )
    report = cross_check(m)
    d = report.definitional
    print(f"map: {m}   (n={m.n})")
    print(f"image size: {d.image_size}")
    print(f"image orientation: {d.image_orientation.value}")
    print(f"orientation-preserving (definitional): {_bool_word(d.in_op)}")
    print(f"orientation-reversing (definitional): {_bool_word(d.in_or)}")
    print(f"preserving or reversing: {_bool_word(d.in_p)}")
    print(f"triple test (preserve): {_bool_word(report.triple_op)}")
    print(f"triple test (reverse): {_bool_word(report.triple_or)}")
    print(f"quadruple test: {_bool_word(report.quad_p)}")
    print(f"chord property: {_bool_word(report.chord_p)}")
    if not report.discrepancies:
        print(f"consistency: all tests agree ({len(report.claims)} claims checked)")
        return EXIT_OK
    for disagreement in report.discrepancies:
        kind = "sanctioned" if disagreement.sanctioned else "VIOLATION"
        print(f"consistency {kind}: {disagreement.claim}: {disagreement.detail}")
    return EXIT_OK if report.consistent else EXIT_VIOLATION


def _print_witness(m: Mapping, points: tuple[int, ...], label: str) -> None:
    image = tuple(m.images[p] for p in points)
    print(f"witness points: {points}   case {label}")
    print(f"source orientation: {orientation(Seq(m.n, points)).value}")
    print(f"image: {image}   ({orientation(Seq(m.n, image)).value})")


def _cmd_witness(args: argparse.Namespace) -> int:
    m = _parse_mapping(args.map)
    w = witness_triple(m, args.mode)
    _print_witness(m, w.points, w.case_label)
    return EXIT_OK


def _cmd_quadwitness(args: argparse.Namespace) -> int:
    m = _parse_mapping(args.map)
    w = witness_quad(m)
    _print_witness(m, w.points, w.case_label)
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
    m = _parse_mapping(args.map) if args.map else None
    if m is not None:
        n = m.n
        if args.n is not None and args.n != n:
            raise ValueError(f"--n {args.n} conflicts with map of size {n}")
    elif args.n is not None:
        n = args.n
    else:
        raise ValueError("--n is required when no --map is given")
    if args.ascii and n > ASCII_MAX_N:
        raise ValueError(f"--ascii draws circles of at most {ASCII_MAX_N} points, got n={n}")

    parts = args.pair.split(":")
    if len(parts) != 2:
        raise ValueError(f"pair must look like 'a-c:b-d', got {args.pair!r}")
    first = Chord.parse(parts[0], n)
    second = Chord.parse(parts[1], n)
    methods = METHODS if args.method == "both" else (args.method,)

    status = EXIT_OK

    def report_pair(label: str, a: Chord, b: Chord) -> None:
        nonlocal status
        print(f"{label}: chords {a} : {b}")
        verdicts = {}
        for method in methods:
            verdicts[method] = chords_intersect(a, b, method)
            word = "intersect" if verdicts[method] else "disjoint"
            print(f"  {method}: {word}")
        if len(verdicts) == 2:
            values = set(verdicts.values())
            marker = "agree" if len(values) == 1 else "MISMATCH"
            print(f"  oracles: {marker}")
            if len(values) != 1:
                status = EXIT_VIOLATION
        if args.ascii:
            print(_ascii_circle(n, a, b))

    report_pair(f"n={n} source", first, second)
    if m is not None:
        print(f"map: {m}")
        report_pair(f"n={n} image", image_chord(m, first), image_chord(m, second))
    return status


def _cmd_verify(args: argparse.Namespace) -> int:
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
    "quadwitness": _cmd_quadwitness,
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
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
