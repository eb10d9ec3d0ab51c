"""Command-line front end.

Exit codes: 0 success/quiescence, 1 parse or validation error, 2 budget
exhausted, 3 simulator/oracle mismatch. All output is byte-stable for
identical inputs, and bench reports simulated ticks only, never
wall-clock.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .blocks import C0
from .core import encode_hybrid, encode_pim, encode_unary
from .engine import (
    DEFAULT_BUDGET,
    format_result,
    oracle_results,
    run,
    trace_from_csv,
    trace_to_csv,
    trace_to_waveform,
)
from .errors import SimulationError, TemporalError
from .netlist import parse_netlist

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2
EXIT_MISMATCH = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError("%s: %s" % (path, exc)) from None


def _load_netlist(path: str):
    return parse_netlist(_read(path), os.path.dirname(path))


def _warn(stats) -> None:
    """The run's warnings, one stderr line each; stdout is untouched."""
    for violation in stats.stability_violations:
        print("warning: unstable link %s" % violation, file=sys.stderr)
    for block_id in stats.overflow_flags:
        print("warning: block %r: toggle chain overflowed" % block_id,
              file=sys.stderr)


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_run(args) -> int:
    try:
        net = _load_netlist(args.netlist)
        trace = run(net, budget=args.budget, seed=args.seed)
    except (OSError, ValueError, TemporalError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    _warn(trace.stats)
    if args.trace:
        _write(args.trace, trace_to_csv(trace))
    if args.waveform:
        _write(args.waveform, trace_to_waveform(trace))
    for key in sorted(trace.results):
        print("probe %s=%s" % (key, format_result(trace.results[key])))
    if args.stats:
        stats = trace.stats
        print("total_ticks=%d" % stats.total_ticks)
        print("event_count=%d" % stats.event_count)
        for bid in sorted(stats.block_costs):
            print("cost %s=%d" % (bid, stats.block_costs[bid]))
        print("overhead_per_block=%d" % C0)
    if trace.stats.budget_exhausted:
        print("error: tick budget exhausted", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        net = _load_netlist(args.netlist)
        # The engine first: its errors name the block that cannot fire,
        # and a run cut short by the budget leaves nothing to judge.
        trace = run(net, budget=args.budget, seed=args.seed)
        _warn(trace.stats)
        if trace.stats.budget_exhausted:
            print("error: tick budget exhausted", file=sys.stderr)
            return EXIT_BUDGET
        expected = oracle_results(net)
    except (OSError, ValueError, TemporalError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    mismatches = 0
    for key in sorted(expected):
        exp = expected[key]
        act = trace.results.get(key)
        if act == exp:
            print("ok %s=%s" % (key, format_result(exp)))
        else:
            mismatches += 1
            print("MISMATCH %s expected=%s actual=%s"
                  % (key, format_result(exp),
                     format_result(act) if act is not None else "<missing>"))
    return EXIT_MISMATCH if mismatches else EXIT_OK


def cmd_encode(args) -> int:
    lines = []
    try:
        for value in args.values:
            if args.scheme == "unary":
                train = encode_unary(value)
                lines.append("value=%d scheme=unary length=%d"
                             % (value, train.length))
            elif args.scheme == "pim":
                train = encode_pim(value)
                lines.append("value=%d scheme=pim pulses=%s"
                             % (value, ",".join(str(p) for p in train.pulses)))
            else:
                digits = encode_hybrid(value, args.base)
                lines.append("value=%d scheme=hybrid base=%d digits=%s"
                             % (value, args.base,
                                ",".join(str(d.length) for d in digits)))
    except (ValueError, TemporalError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    for line in lines:
        print(line)
    return EXIT_OK


def _bench_netlist(op: str, size: int, k: int, amplitude: int) -> str:
    if op == "add":
        return ("clock main 1\n"
                "block a source value=%d clock=main\n"
                "block b source value=%d clock=main\n"
                "block s add\n"
                "wire a.out s.a\nwire b.out s.b\nprobe s.out\n"
                % (size, size))
    if op == "mul":
        return ("clock main 1\n"
                "block a source value=%d clock=main\n"
                "block m mul k=%d\n"
                "wire a.out m.in\nprobe m.out\n" % (size, k))
    return ("clock main 1\n"
            "block a source value=%d position=%d clock=main\n"
            "block d madd\n"
            "wire a.out d.in0\nprobe d.out\n" % (amplitude, size))


def bench_rows(op: str, sizes: List[int], k: int = 3,
               amplitude: int = 3, budget: int = DEFAULT_BUDGET):
    """Simulated tick cost of one op block across a size sweep."""
    rows = []
    block = {"add": "s", "mul": "m", "madd": "d"}[op]
    for size in sizes:
        net = parse_netlist(_bench_netlist(op, size, k, amplitude))
        trace = run(net, budget=budget)
        rows.append((size, trace.stats.block_costs[block]))
    return rows


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("sizes must be positive integers")
        rows = bench_rows(args.op, sizes, k=args.k,
                          amplitude=args.amplitude, budget=args.budget)
    except (ValueError, TemporalError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    out = "size,ticks\n" + "".join("%d,%d\n" % row for row in rows)
    _write(args.out, out)
    return EXIT_OK


def cmd_export(args) -> int:
    try:
        trace = trace_from_csv(_read(args.trace))
    except (OSError, ValueError, SimulationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    _write(args.out, trace_to_waveform(trace))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="temporalsim",
        description="Simulate temporal (time-delay) computing netlists.")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for all stochastic components")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate a netlist")
    p.add_argument("netlist")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--trace", help="write event CSV to this path")
    p.add_argument("--waveform", help="write waveform text to this path")
    p.add_argument("--stats", action="store_true",
                   help="print cost summary after probe results")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("check",
                       help="diff simulator against the integer oracle")
    p.add_argument("netlist")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("encode", help="encode integers as temporal codes")
    p.add_argument("--scheme", choices=("unary", "pim", "hybrid"),
                   required=True)
    p.add_argument("--base", type=int, default=10,
                   help="positional base for the hybrid scheme")
    p.add_argument("values", nargs="+", type=int)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("bench", help="tick-cost sweep for one operation")
    p.add_argument("--op", choices=("add", "mul", "madd"), required=True)
    p.add_argument("--sizes", required=True,
                   help="comma-separated operand sizes")
    p.add_argument("--k", type=int, default=3,
                   help="dilation factor for mul")
    p.add_argument("--amplitude", type=int, default=3,
                   help="bucket amplitude for madd")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export", help="convert a trace CSV to a waveform")
    p.add_argument("trace")
    p.add_argument("--format", choices=("waveform",), default="waveform")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
