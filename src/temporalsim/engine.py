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

from collections import defaultdict
from functools import cached_property
from itertools import chain, count, islice, product
from operator import itemgetter

from .blocks import COUNT, KINDS, quote
from .channel import StabilityViolation, transmit_checked
from .core import TimedMessage
from .errors import SimulationError
from .netlist import Netlist, _Record

DEFAULT_BUDGET = 10 ** 8


class TraceStats(_Record):
    """A run's costs and warnings."""

    def __init__(self) -> None:
        self.total_ticks = 0
        self.event_count = 0
        self.block_costs: dict[str, int] = {}
        self.block_warnings: list[str] = []
        self.stability_violations: list[str] = []
        self.budget_exhausted = False


class Trace:
    """A run's outcome. `delivered` maps each (block, port) that received
    a message to that message, in delivery order; `events` is derived
    from it on first read. A trace read back from CSV has events and
    results but no messages."""

    def __init__(self,
                 delivered: dict[tuple[str, str], TimedMessage] | None = None,
                 results: dict[str, object] | None = None,
                 stats: TraceStats | None = None) -> None:
        self.delivered = {} if delivered is None else delivered
        self.results = {} if results is None else results
        self.stats = TraceStats() if stats is None else stats

    @cached_property
    def events(self) -> list[tuple[int, str, str, str]]:
        """Every delivered event as (tick, block, port, role), sorted by
        (tick, block, port). Laid out by sorted (block, port), each
        message's events in its own start, value-pulse, end order, then
        sorted stably by tick alone: one wire per port, so that is the
        full order."""
        delivered = self.delivered
        events = [(tick, block, port, role)
                  for block, port in sorted(delivered)
                  for role, tick in delivered[block, port].events]
        events.sort(key=itemgetter(0))
        return events

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.events, self.results, self.stats) == \
            (other.events, other.results, other.stats)

    def __repr__(self) -> str:
        return "Trace(delivered=%r, results=%r, stats=%r)" % (
            self.delivered, self.results, self.stats)


def run(net: Netlist, budget: int = DEFAULT_BUDGET,
        seed: int | None = None) -> Trace:
    """Execute a netlist that `parse_netlist` returned, in one pass over
    `net.order`. A block fires when every input port holds a delivered
    message, at the largest last tick among them (0 for a source). A
    message, emitted or delivered, that ends past the budget is dropped
    and sets `budget_exhausted`; `total_ticks` is the last tick of any
    message kept. Every probe is resolved after the pass, in
    `net.probes` order. Warnings are listed, and of several failing
    blocks the one raised is chosen, by (fire tick, block id)."""
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
    emitted: dict[str, TimedMessage] = {}
    fires = {name: kind.fire for name, kind in KINDS.items()}
    unstable: list[tuple[int, str, str]] = []   # (tick, block, warning)
    warned: list[tuple[int, str, str]] = []     # (tick, block, fire's text)
    failures: list[tuple[int, str, str, Exception]] = []
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
        kind = blocks[bid][1]
        try:
            msg, cost, found = fires[kind](bid, params[bid], inputs, t,
                                           clock_of[bid], seed)
        except ValueError as exc:
            failures.append((t, bid, "block %r (%s): %s" % (bid, kind, exc),
                             exc))
            continue
        costs[bid] = cost
        if found:
            warned += [(t, bid, "block %r: %s" % (bid, text))
                       for text in found]
        if msg is None:
            continue
        # Every delivery ends at or after the emission's last tick.
        last = msg.events[-1][1]
        if last > budget:
            stats.budget_exhausted = True
            continue
        emitted[bid] = msg
        if last > total_ticks:
            total_ticks = last
        # Out-wires come in (dst block, dst port) order; a run of them on
        # one Link object shares one send. A distorted send is never
        # shared: each wire reports its own violation.
        sent = None     # the link whose clean send `out` holds
        for src, src_port, dst, port, link in outputs_of[bid]:
            if link is not sent:
                out, sent = transmit(msg, link), link
                if isinstance(out, StabilityViolation):
                    sent = None
                    name = "%s.%s->%s.%s" % (src, src_port, dst, port)
                    try:
                        read = TimedMessage(out.distorted_events, msg.clock,
                                            msg.amplitudes)
                    except ValueError as exc:
                        failures.append((t, bid, "wire %s: distorted message "
                                         "is unreadable: %s" % (name, exc),
                                         exc))
                        break
                    value = msg.decoded()
                    if type(value) is int:
                        text = "value error %+d" % out.value_error
                    else:   # a span difference misses a moved member
                        text = "value %s read as %s" % (format_result(
                            value), format_result(read.decoded()))
                    unstable.append((t, bid, "%s %s" % (name, text)))
                    out = read
                events = out.events
                last, count = events[-1][1], len(events)
            if last > budget:
                stats.budget_exhausted = True
                continue
            delivered[dst, port] = out
            event_count += count
            if last > total_ticks:
                total_ticks = last

    if failures:
        _t, _bid, text, cause = min(failures, key=itemgetter(0, 1))
        raise SimulationError(text) from cause

    unstable.sort(key=itemgetter(0, 1))
    stats.stability_violations = [text for _t, _b, text in unstable]
    warned.sort(key=itemgetter(0, 1))   # stable: a block's texts keep order
    stats.block_warnings = [text for _t, _b, text in warned]
    # One rule for every probe: `X.out` reads what X emitted, an in-port
    # what it was delivered; neither holds a message past the budget.
    for bid, port in net.probes:
        msg = (emitted.get(bid) if port == "out"
               else delivered.get((bid, port)))
        if msg is not None:
            results["%s.%s" % (bid, port)] = msg.decoded()
    stats.event_count, stats.total_ticks = event_count, total_ticks
    return trace


# ---------------------------------------------------------------------------
# Integer-DAG oracle


def oracle_results(net: Netlist,
                   seed: int | None = None) -> dict[str, object]:
    """Evaluate the probes of a netlist that `parse_netlist` returned with
    plain int and `Fraction` arithmetic, for a run with this `seed`.

    Independent of the event engine: each block's oracle function in
    `blocks.KINDS`, called as `(params, ins, rate, seed)` with `ins` the
    list of its input values in sorted port order, the order a fire gets
    its messages, and `rate` its output clock's frequency over its first
    input's, folds ordinary +, *, min, max, floor(v * rate), a sum for
    the dot product and plain sets for mux and demux over the netlist's
    topological order. A value that a seeded photon draw decides, or is
    computed from, is None. Of several failing blocks it raises for the
    first in `net.order`, which need not be the one `run` raises for.
    """
    blocks, inputs, params = net.blocks, net.inputs, net.params
    clock_of = net.clock_of
    oracles = {name: kind.oracle for name, kind in KINDS.items()}
    values: dict[str, object] = {}
    drawn = False   # whether any value so far is None
    for bid in net.order:
        wires = inputs[bid]
        ins = []
        for wire in wires.values():
            ins.append(values[wire[0]])
        if drawn and None in ins:
            values[bid] = None
            continue
        kind, p, rate = blocks[bid][1], params[bid], 1
        # Only clock= can set another clock than the first input's.
        if wires and "clock" in p:
            clock = clock_of[bid]
            src = clock_of[next(iter(wires.values()))[0]]
            if clock is not src:
                rate = clock.frequency / src.frequency
        try:
            value = values[bid] = oracles[kind](p, ins, rate, seed)
        except ValueError as exc:  # a mux's repeated or zero input
            raise SimulationError("block %r (%s): %s"
                                  % (bid, kind, exc)) from exc
        drawn = drawn or value is None

    results: dict[str, object] = {}
    for bid, port in net.probes:
        src = bid if port == "out" else inputs[bid][port][0]
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
    lines += ["%d,%s,%s,%s" % event for event in trace.events]
    for key in sorted(trace.results):
        lines.append("%s=%s" % (key, format_result(trace.results[key])))
    return "\n".join(lines) + "\n"


def trace_from_csv(text: str) -> Trace:
    """Rebuild a Trace (events and results only, no delivered messages)
    from its CSV export. Of its stats only `event_count` is set: the CSV
    lists deliveries alone, so it cannot give the run's `total_ticks`,
    which stays 0."""
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
        row = line.split(",")
        if len(row) != 4:
            raise SimulationError("malformed trace row %s" % quote(line))
        try:
            row[0] = COUNT(row[0])
        except ValueError as exc:
            raise SimulationError("trace tick %s %s"
                                  % (quote(row[0]), exc)) from None
        events.append(tuple(row))
    trace.events = events  # in file order; the CSV carries no messages
    trace.stats.event_count = len(events)
    return trace


# The printable identifier characters, '!' to '~'.
_VCD_CHARS = "".join(map(chr, range(33, 127)))


def trace_to_waveform(trace: Trace) -> str:
    """Value-change-dump-style text waveform of the trace's pulse events:
    one signal per (block, port), coded in sorted order, 1 at each of its
    event ticks and 0 the tick after unless it has an event then. Built by
    tick: the signals, visited in code-string order, append their changes
    to each tick's list, so changes are listed by (tick, code string)."""
    ticks_of: dict[tuple[str, str], set[int]] = defaultdict(set)
    for tick, block, port, _role in trace.events:
        ticks_of[block, port].add(tick)
    signals = sorted(ticks_of)
    # Every code of one character, then of two, ..., each in order.
    codes = list(islice(map("".join, chain.from_iterable(
        product(_VCD_CHARS, repeat=n) for n in count(1))), len(signals)))

    lines = ["$timescale 1 tick $end", "$scope module netlist $end"]
    lines += ["$var wire 1 %s %s.%s $end" % (code, block, port)
              for (block, port), code in zip(signals, codes)]
    lines += ["$upscope $end", "$enddefinitions $end"]
    changes: dict[int, list[str]] = defaultdict(list)
    for code, signal in sorted(zip(codes, signals)):
        ticks = ticks_of[signal]
        one, zero = "1" + code, "0" + code
        for tick in ticks:
            changes[tick].append(one)
            if tick + 1 not in ticks:
                changes[tick + 1].append(zero)
    for tick in sorted(changes):
        lines.append("#%d" % tick)
        lines += changes[tick]
    return "\n".join(lines) + "\n"
