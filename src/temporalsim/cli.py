"""Command-line front end.

Exit codes: 0 success/quiescence, 1 usage, parse or validation error, 2
budget exhausted, 3 simulator/oracle mismatch. All output is byte-stable for
identical inputs, and bench reports simulated ticks only, never
wall-clock.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable

from .blocks import C0, integer, quote
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
from .errors import TemporalError
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
    for text in stats.block_warnings:
        print("warning: %s" % text, file=sys.stderr)


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError("%s: %s" % (path, exc.strerror)) from None


def cmd_run(args) -> int:
    if args.trace == args.waveform == "-":
        print("error: --trace and --waveform cannot both write to stdout",
              file=sys.stderr)
        return EXIT_ERROR
    # An export on stdout keeps it to itself; the report goes to stderr.
    report = sys.stderr if "-" in (args.trace, args.waveform) else sys.stdout
    net = _load_netlist(args.netlist)
    trace = run(net, budget=args.budget, seed=args.seed)
    _warn(trace.stats)
    for path, export in ((args.trace, trace_to_csv),
                         (args.waveform, trace_to_waveform)):
        if path:
            _write(path, export(trace))
    for key in sorted(trace.results):
        print("probe %s=%s" % (key, format_result(trace.results[key])),
              file=report)
    if args.stats:
        stats = trace.stats
        print("total_ticks=%d" % stats.total_ticks, file=report)
        print("event_count=%d" % stats.event_count, file=report)
        for bid in sorted(stats.block_costs):
            print("cost %s=%d" % (bid, stats.block_costs[bid]), file=report)
        print("overhead_per_block=%d" % C0, file=report)
    if trace.stats.budget_exhausted:
        print("error: tick budget exhausted", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_check(args) -> int:
    net = _load_netlist(args.netlist)
    # The engine first: its errors name the block that cannot fire, and a
    # run cut short by the budget leaves nothing to judge.
    trace = run(net, budget=args.budget, seed=args.seed)
    _warn(trace.stats)
    if trace.stats.budget_exhausted:
        print("error: tick budget exhausted", file=sys.stderr)
        return EXIT_BUDGET
    expected = oracle_results(net, seed=args.seed)
    mismatches = 0
    for key in sorted(expected):
        exp = expected[key]
        act = trace.results.get(key)
        if exp is None:     # a Poisson draw: neither ok nor a mismatch
            print("skip %s=%s (seeded draw)" % (key, format_result(act)))
        elif act == exp:
            print("ok %s=%s" % (key, format_result(exp)))
        else:
            mismatches += 1
            print("MISMATCH %s expected=%s actual=%s"
                  % (key, format_result(exp),
                     format_result(act) if act is not None else "<missing>"))
    return EXIT_MISMATCH if mismatches else EXIT_OK


def cmd_encode(args) -> int:
    lines = []
    for value in args.values:
        if args.scheme == "unary":
            train = encode_unary(value)
            lines.append("value=%d scheme=unary length=%d"
                         % (value, train.decoded()))
        elif args.scheme == "pim":
            train = encode_pim(value)
            lines.append("value=%d scheme=pim pulses=%s"
                         % (value, ",".join(str(p) for p in train.pulses)))
        else:
            digits = encode_hybrid(value, args.base)
            lines.append("value=%d scheme=hybrid base=%d digits=%s"
                         % (value, args.base,
                            ",".join(str(d.decoded()) for d in digits)))
    # Nothing is printed until every value has encoded.
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


class _BudgetExhausted(Exception):
    """A bench size whose operands or output end past the budget; args[0]
    is it."""


def bench_rows(op: str, sizes: list[int], k: int = 3,
               amplitude: int = 3, budget: int = DEFAULT_BUDGET):
    """Simulated tick cost of one op block across a size sweep."""
    rows = []
    block = {"add": "s", "mul": "m", "madd": "d"}[op]
    for size in sizes:
        net = parse_netlist(_bench_netlist(op, size, k, amplitude))
        trace = run(net, budget=budget)
        # An operand past the budget: the op block never fired. Its output
        # past the budget: it was not computed within the budget.
        if trace.stats.budget_exhausted:
            raise _BudgetExhausted(size)
        rows.append((size, trace.stats.block_costs[block]))
    return rows


def cmd_bench(args) -> int:
    try:
        rows = bench_rows(args.op, args.sizes, k=args.k,
                          amplitude=args.amplitude, budget=args.budget)
    except _BudgetExhausted as exc:
        print("error: tick budget exhausted at size %d" % exc.args[0],
              file=sys.stderr)
        return EXIT_BUDGET
    _write(args.out, "size,ticks\n" + "".join("%d,%d\n" % row
                                              for row in rows))
    return EXIT_OK


def cmd_export(args) -> int:
    trace = trace_from_csv(_read(args.trace))
    _write(args.out, trace_to_waveform(trace))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line and exit code 1, like
    any other bad input; exit code 2 means the budget ran out."""

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: %s"
                       % " ".join(quote(arg) for arg in extras))
        return args

    def _check_value(self, action, value):
        # argparse's own message echoes a bad choice whole. This overrides
        # an argparse internal, whose signature holds on the Python
        # versions the CI matrix tests (3.10 to 3.13).
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(action, "%s is not one of %s" % (
                quote(value), ", ".join(map(str, action.choices))))

    def error(self, message):
        self.exit(EXIT_ERROR, "error: %s\n" % message)


def _integer(minimum: int) -> Callable[[str], int]:
    """An integer argument >= `minimum`, read as a netlist reads one; a
    bad one is echoed cut short."""
    read = integer(minimum)

    def parse(text: str) -> int:
        try:
            return read(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                "%s %s" % (quote(text), exc)) from None
    return parse


def _integers(minimum: int) -> Callable[[str], list[int]]:
    """A comma-separated list of at least one item, each read by
    `_integer(minimum)`."""
    item = _integer(minimum)

    def parse(text: str) -> list[int]:
        items = [item(each) for each in text.split(",") if each]
        if not items:
            raise argparse.ArgumentTypeError("%s holds no integer"
                                             % quote(text))
        return items
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="temporalsim",
        description="Simulate temporal (time-delay) computing netlists.")
    parser.add_argument("--seed", type=_integer(0), default=None,
                        help="seed for all stochastic components")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate a netlist")
    p.add_argument("netlist")
    p.add_argument("--budget", type=_integer(1), default=DEFAULT_BUDGET)
    p.add_argument("--trace", help="write event CSV to this path")
    p.add_argument("--waveform", help="write waveform text to this path")
    p.add_argument("--stats", action="store_true",
                   help="print cost summary after probe results")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("check",
                       help="diff simulator against the integer oracle")
    p.add_argument("netlist")
    p.add_argument("--budget", type=_integer(1), default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("encode", help="encode integers as temporal codes")
    p.add_argument("--scheme", choices=("unary", "pim", "hybrid"),
                   required=True)
    p.add_argument("--base", type=_integer(2), default=10,
                   help="positional base for the hybrid scheme")
    p.add_argument("values", nargs="+", type=_integer(0))
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("bench", help="tick-cost sweep for one operation")
    p.add_argument("--op", choices=("add", "mul", "madd"), required=True)
    p.add_argument("--sizes", type=_integers(1), required=True,
                   help="comma-separated operand sizes")
    p.add_argument("--k", type=_integer(1), default=3,
                   help="dilation factor for mul")
    p.add_argument("--amplitude", type=_integer(1), default=3,
                   help="bucket amplitude for madd")
    p.add_argument("--budget", type=_integer(1), default=DEFAULT_BUDGET)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export", help="convert a trace CSV to a waveform")
    p.add_argument("trace")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Every command's bad input ends here as one `error:` line.
    try:
        return args.func(args)
    except (OSError, ValueError, TemporalError) as exc:
        # A failed run's warnings come first, as after a run that ends.
        if getattr(exc, "stats", None) is not None:
            _warn(exc.stats)
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
