"""Deterministic discrete-event execution of a netlist.

In simulated time blocks fire on event arrival, never on a global
control clock: each block fires once, when its last input ends. The
host therefore evaluates them in one pass over the netlist's
topological order, keeps each delivered message, and sorts the
warnings by (fire tick, block id); the trace lists the events by
(tick, block id, port) when first read. So every run is a pure
function of the netlist text and seeds. Costs are simulated ticks, never
wall-clock. What each block kind computes lives in `blocks.KINDS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .blocks import KINDS, Firing
from .channel import StabilityViolation, TimedMessage, transmit_checked
from .errors import SimulationError, TemporalError
from .netlist import Netlist

DEFAULT_BUDGET = 10 ** 8


@dataclass
class TraceStats:
    total_ticks: int = 0
    event_count: int = 0
    block_costs: Dict[str, int] = field(default_factory=dict)
    overflow_flags: List[str] = field(default_factory=list)
    stability_violations: List[str] = field(default_factory=list)
    budget_exhausted: bool = False


@dataclass
class Trace:
    """A run's outcome. `delivered` maps each (block, port) that received
    a message to that message, in delivery order; `events` is derived
    from it on first read. A trace read back from CSV has events and
    results but no messages."""

    delivered: Dict[Tuple[str, str], TimedMessage] = field(
        default_factory=dict)
    results: Dict[str, object] = field(default_factory=dict)
    stats: TraceStats = field(default_factory=TraceStats)

    @cached_property
    def events(self) -> List[Tuple[int, str, str, str]]:
        """Every delivered event as (tick, block, port, role), sorted by
        (tick, block, port). One wire per port: events that tie on that
        key are one message's, already in start, value-pulse, end order,
        and the sort is stable."""
        events = [(tick, block, port, role)
                  for (block, port), msg in self.delivered.items()
                  for role, tick in msg.events]
        events.sort(key=itemgetter(0, 1, 2))
        return events

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.events, self.results, self.stats) == \
            (other.events, other.results, other.stats)


def run(net: Netlist, budget: int = DEFAULT_BUDGET,
        seed: Optional[int] = None) -> Trace:
    """Execute a netlist that `parse_netlist` returned, in one pass over
    `net.order`. A block fires when every input port holds a delivered
    message, at the largest last tick among them (0 for a source); a
    message that ends past the budget is dropped. Warnings are listed,
    and of several failing blocks the one raised is chosen, by (fire
    tick, block id)."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    trace = Trace()
    stats, results, delivered = trace.stats, trace.results, trace.delivered
    costs = stats.block_costs
    # Bound once per run; `transmit_checked` is still read from this
    # module at call time, so a wrapper installed on it sees every call.
    transmit = transmit_checked
    blocks, params, clock_of = net.blocks, net.params, net.clock_of
    inputs_of, outputs_of = net.inputs, net.outputs
    out_probes = {bid for bid, port in net.probes if port == "out"}
    fire_tick: Dict[str, int] = {}
    unstable: List[Tuple[int, str, str]] = []   # (tick, block, warning)
    failures: List[Tuple[int, str, str, Exception]] = []
    event_count = total_ticks = 0
    for bid in net.order:
        inputs, t = [], 0
        try:
            for port in inputs_of[bid]:
                msg = delivered[bid, port]
                inputs.append(msg)
                last = msg.events[-1][1]
                if last > t:
                    t = last
        except KeyError:  # dropped past the budget, or its source failed
            continue
        fire_tick[bid] = t
        kind = blocks[bid].kind
        try:
            msg, cost = KINDS[kind].fire(Firing(
                bid, params[bid], inputs, t, clock_of[bid], seed, stats))
        except (TemporalError, ValueError) as exc:
            failures.append((t, bid, "block %r (%s): %s" % (bid, kind, exc),
                             exc))
            continue
        costs[bid] = cost
        if msg is None:
            continue
        if bid in out_probes:
            results["%s.out" % bid] = msg.decoded()
        for src, src_port, dst, port, link in outputs_of[bid]:
            out = transmit(msg, link)
            if isinstance(out, StabilityViolation):
                name = "%s.%s->%s.%s" % (src, src_port, dst, port)
                unstable.append((t, bid, "%s value error %+d"
                                 % (name, out.value_error)))
                try:
                    out = TimedMessage(out.distorted_events, msg.clock,
                                       msg.amplitudes)
                except ValueError as exc:
                    failures.append((t, bid, "wire %s: distorted message is "
                                     "unreadable: %s" % (name, exc), exc))
                    break
            last = out.events[-1][1]
            if last > budget:
                stats.budget_exhausted = True
                continue
            delivered[dst, port] = out
            event_count += len(out.events)
            if last > total_ticks:
                total_ticks = last

    if failures:
        _t, _bid, text, cause = min(failures, key=itemgetter(0, 1))
        raise SimulationError(text) from cause
    stats.overflow_flags.sort(key=lambda b: (fire_tick[b], b))
    unstable.sort(key=itemgetter(0, 1))
    stats.stability_violations = [text for _t, _b, text in unstable]
    # A message dropped past the budget was never delivered: its events
    # and its in-port probe are absent.
    for bid, port in net.probes:
        if port != "out" and (bid, port) in delivered:
            results["%s.%s" % (bid, port)] = delivered[bid, port].decoded()
    stats.event_count, stats.total_ticks = event_count, total_ticks
    return trace


# ---------------------------------------------------------------------------
# Integer-DAG oracle


def oracle_results(net: Netlist) -> Dict[str, object]:
    """Evaluate the probes of a netlist that `parse_netlist` returned with
    plain integer arithmetic.

    Independent of the event engine: each block's oracle function in
    `blocks.KINDS` folds ordinary +, *, min, max and an explicit sum for
    the dot product over the netlist's topological order.
    """
    for block in net.blocks.values():
        if KINDS[block.kind].oracle is None:
            raise SimulationError(
                "oracle does not support block kind %r" % block.kind)

    values: Dict[str, object] = {}
    for bid in net.order:
        kind = net.blocks[bid].kind
        ins = {port: values[w.src_block]
               for port, w in net.inputs[bid].items()}
        try:
            values[bid] = KINDS[kind].oracle(net.params[bid], ins)
        except SimulationError as exc:
            raise SimulationError("block %r (%s): %s"
                                  % (bid, kind, exc)) from exc

    results: Dict[str, object] = {}
    for bid, port in net.probes:
        src = bid if port == "out" else net.inputs[bid][port].src_block
        results["%s.%s" % (bid, port)] = values[src]
    return results


# ---------------------------------------------------------------------------
# Trace export


def format_result(value) -> str:
    """A probe value as the CLI and the trace CSV print it."""
    if isinstance(value, (set, frozenset)):
        return "{%s}" % ",".join(str(v) for v in sorted(value))
    if isinstance(value, dict):
        return "{%s}" % ",".join(
            "%d:%d" % (p, a) for p, a in sorted(value.items()))
    return str(value)


def trace_to_csv(trace: Trace) -> str:
    """Event CSV with a key=value results footer; byte-stable."""
    lines = ["tick,block,port,role"]
    for tick, block, port, role in trace.events:
        lines.append("%d,%s,%s,%s" % (tick, block, port, role))
    for key in sorted(trace.results):
        lines.append("%s=%s" % (key, format_result(trace.results[key])))
    return "\n".join(lines) + "\n"


def trace_from_csv(text: str) -> Trace:
    """Rebuild a Trace (events and results only, no delivered messages)
    from its CSV export."""
    lines = text.splitlines()
    if not lines or lines[0] != "tick,block,port,role":
        raise SimulationError("not a trace CSV (missing header)")
    trace, events = Trace(), []
    for line in lines[1:]:
        if not line:
            continue
        key, eq, value = line.partition("=")
        if eq and not any(c == "," or c.isspace() for c in key):
            trace.results[key] = value
            continue
        try:
            tick, block, port, role = line.split(",")
            events.append((int(tick), block, port, role))
        except ValueError:
            raise SimulationError("malformed trace row %r" % line) from None
    trace.events = events  # in file order; the CSV carries no messages
    trace.stats.event_count = len(events)
    trace.stats.total_ticks = max((e[0] for e in events), default=0)
    return trace


def _vcd_code(index: int) -> str:
    # printable identifier codes, base 94 starting at '!'
    chars = []
    index += 1
    while index:
        index, rem = divmod(index - 1, 94)
        chars.append(chr(33 + rem))
    return "".join(reversed(chars))


def trace_to_waveform(trace: Trace) -> str:
    """Value-change-dump-style text waveform of the trace's pulse events."""
    signals = sorted({(b, p) for _t, b, p, _r in trace.events})
    codes = {sig: _vcd_code(i) for i, sig in enumerate(signals)}
    changes: Dict[int, Dict[str, int]] = {}
    for tick, block, port, _role in trace.events:
        code = codes[(block, port)]
        changes.setdefault(tick, {})[code] = 1
        changes.setdefault(tick + 1, {}).setdefault(code, 0)

    lines = ["$timescale 1 tick $end", "$scope module netlist $end"]
    for (block, port), code in sorted(codes.items(), key=lambda kv: kv[0]):
        lines.append("$var wire 1 %s %s.%s $end" % (code, block, port))
    lines.extend(["$upscope $end", "$enddefinitions $end"])
    for tick in sorted(changes):
        lines.append("#%d" % tick)
        for code in sorted(changes[tick]):
            lines.append("%d%s" % (changes[tick][code], code))
    return "\n".join(lines) + "\n"
