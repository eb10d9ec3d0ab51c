"""Deterministic discrete-event execution of a netlist.

Blocks fire on event arrival, never on a global control clock; the only
ordering guarantee is the fixed event-queue tiebreak (tick, block id,
port), which makes every run a pure function of the netlist text and
seeds. Costs are simulated ticks, never wall-clock. What each block kind
computes lives in `blocks.KINDS`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .blocks import KINDS, Firing
from .channel import StabilityViolation, TimedMessage, transmit_checked
from .errors import SimulationError, TemporalError
from .netlist import Netlist

DEFAULT_BUDGET = 10 ** 8

_ROLE_RANK = {"start": 0, "value-pulse": 1, "end": 2}


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
    events: List[Tuple[int, str, str, str]] = field(default_factory=list)
    results: Dict[str, object] = field(default_factory=dict)
    stats: TraceStats = field(default_factory=TraceStats)


def run(net: Netlist, budget: int = DEFAULT_BUDGET,
        seed: Optional[int] = None) -> Trace:
    """Execute a netlist that `parse_netlist` returned to quiescence or
    budget exhaustion."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    trace = Trace()
    stats = trace.stats
    probe_set = set(net.probes)

    pending: Dict[str, Dict[str, TimedMessage]] = {
        bid: {} for bid in net.blocks}

    queue: List[Tuple[int, str, str, int, TimedMessage]] = []
    seq = 0

    def fire(block, t: int) -> None:
        """Run the block's fire function; its errors name the block."""
        inputs = pending[block.id]
        firing = Firing(block.id, net.params[block.id],
                        [inputs[p] for p in sorted(inputs)],
                        t, net.clock_of[block.id], seed, stats)
        try:
            out, cost = KINDS[block.kind].fire(firing)
        except (TemporalError, ValueError) as exc:
            raise SimulationError("block %r (%s): %s"
                                  % (block.id, block.kind, exc)) from exc
        stats.block_costs[block.id] = cost
        if out is not None:
            emit(block.id, out)

    def emit(block_id: str, msg: TimedMessage) -> None:
        nonlocal seq
        if (block_id, "out") in probe_set:
            trace.results["%s.out" % block_id] = msg.decoded()
        for wire in net.outputs[block_id]:
            delivered = transmit_checked(msg, wire.link)
            if isinstance(delivered, StabilityViolation):
                name = "%s.%s->%s.%s" % (wire.src_block, wire.src_port,
                                         wire.dst_block, wire.dst_port)
                stats.stability_violations.append(
                    "%s value error %+d" % (name, delivered.value_error))
                try:
                    delivered = TimedMessage(delivered.distorted_events,
                                             msg.clock, msg.amplitudes)
                except ValueError as exc:
                    raise SimulationError(
                        "wire %s: distorted message is unreadable: %s"
                        % (name, exc)) from exc
            seq += 1
            heapq.heappush(queue, (delivered.last_tick, wire.dst_block,
                                   wire.dst_port, seq, delivered))

    # Sources fire unconditionally at tick 0.
    for bid in sorted(net.blocks):
        if net.blocks[bid].kind == "source":
            fire(net.blocks[bid], 0)

    while queue:
        if queue[0][0] > budget:
            stats.budget_exhausted = True
            break
        tick, dst, port, _seq, msg = heapq.heappop(queue)
        for role, etick in msg.events:
            trace.events.append((etick, dst, port, role))
        if (dst, port) in probe_set:
            trace.results["%s.%s" % (dst, port)] = msg.decoded()
        pending[dst][port] = msg
        # Each port has one wire, so the last input to arrive fires the
        # block, once.
        if len(pending[dst]) == len(net.inputs[dst]):
            fire(net.blocks[dst],
                 max(m.last_tick for m in pending[dst].values()))

    trace.events.sort(key=lambda e: (e[0], e[1], e[2], _ROLE_RANK[e[3]]))
    stats.event_count = len(trace.events)
    stats.total_ticks = max((e[0] for e in trace.events), default=0)
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
    """Rebuild a Trace (events and results only) from its CSV export."""
    lines = text.splitlines()
    if not lines or lines[0] != "tick,block,port,role":
        raise SimulationError("not a trace CSV (missing header)")
    trace = Trace()
    for line in lines[1:]:
        if not line:
            continue
        if "=" in line and "," not in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            trace.results[key] = value
            continue
        try:
            tick, block, port, role = line.split(",")
            trace.events.append((int(tick), block, port, role))
        except ValueError:
            raise SimulationError("malformed trace row %r" % line) from None
    trace.stats.event_count = len(trace.events)
    trace.stats.total_ticks = max((e[0] for e in trace.events), default=0)
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
