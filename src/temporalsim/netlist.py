"""Netlist text format: blocks wired through latency links, plus probes.

Line-oriented, whitespace-separated, `#` comments:

    clock <id> <freq-numerator>[/<denominator>]
    block <id> <kind> [key=value ...]
    wire <src-id>.<port> <dst-id>.<port> [latency=<int>|table=<file>]
    probe <block-id>.<port>

Parsing reports the first tokenization failure with its position;
validation reports every structural violation at once. A netlist that
`parse_netlist` returns carries its resolved form: each block's parsed
params and clock, its input and output wires, a topological order, one
`Link` per wire, and every observed port in `probes` (a `probe` block
observes its `in`). The engine and the oracle read only that.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .blocks import KINDS, VARIADIC, parse_params
from .channel import Link
from .core import ClockRef
from .errors import NetlistParseError, NetlistValidationError


@dataclass(frozen=True)
class BlockSpec:
    id: str
    kind: str
    params: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Wire:
    src_block: str
    src_port: str
    dst_block: str
    dst_port: str
    link: Link


@dataclass
class Netlist:
    clocks: Dict[str, ClockRef] = field(default_factory=dict)
    blocks: Dict[str, BlockSpec] = field(default_factory=dict)
    wires: List[Wire] = field(default_factory=list)
    probes: List[Tuple[str, str]] = field(default_factory=list)
    # Resolved by validation:
    params: Dict[str, Dict[str, object]] = field(default_factory=dict)
    clock_of: Dict[str, Optional[ClockRef]] = field(default_factory=dict)
    inputs: Dict[str, Dict[str, Wire]] = field(default_factory=dict)
    outputs: Dict[str, List[Wire]] = field(default_factory=dict)  # by dst
    order: List[str] = field(default_factory=list)    # topological


# Links are immutable, so every wire without an option shares this one.
_NO_DELAY = Link.constant(0)


def _column(line: str, index: int) -> int:
    """1-based column of the line's index-th whitespace-separated token."""
    return [m.start() for m in re.finditer(r"\S+", line)][index] + 1


def _parse_port_ref(line: str, lineno: int, parts: List[str],
                    index: int) -> Tuple[str, str]:
    token = parts[index]
    block, _dot, port = token.partition(".")
    if not block or not port or "." in port:
        raise NetlistParseError(
            "expected <block>.<port>, got %r" % token,
            lineno, _column(line, index))
    return block, port


def load_latency_table(path: str) -> Tuple[Dict[int, int], int]:
    """Latency table file: lines `default <d>` or `<tick> <d>`.

    Raises ValueError naming the table's own line."""
    table: Dict[int, int] = {}
    default = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ValueError("line %d: needs two fields" % lineno)
            try:
                delay = int(parts[1])
                if parts[0] == "default":
                    default = delay
                else:
                    table[int(parts[0])] = delay
            except ValueError:
                raise ValueError("line %d: expected integers, got %r"
                                 % (lineno, " ".join(parts))) from None
    return table, default


def parse_netlist(text: str, base_dir: Optional[str] = None) -> Netlist:
    """Parse and validate netlist text.

    A relative `table=` path is read from `base_dir` when given (the CLI
    passes the netlist file's directory), else from the working
    directory. Raises NetlistParseError on the first malformed line and
    NetlistValidationError carrying every structural violation.
    """
    net = Netlist()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        parts = line.split()
        keyword = parts[0]
        if keyword == "clock":
            if len(parts) != 3:
                raise NetlistParseError(
                    "clock needs: clock <id> <freq>", lineno)
            cid, freq_tok = parts[1], parts[2]
            try:
                freq = Fraction(freq_tok)
            except (ValueError, ZeroDivisionError):
                raise NetlistParseError(
                    "bad frequency %r" % freq_tok, lineno,
                    _column(line, 2)) from None
            if freq <= 0:
                raise NetlistParseError(
                    "frequency must be > 0", lineno, _column(line, 2))
            if cid in net.clocks:
                raise NetlistParseError(
                    "duplicate clock id %r" % cid, lineno, _column(line, 1))
            net.clocks[cid] = ClockRef(cid, freq)
        elif keyword == "block":
            if len(parts) < 3:
                raise NetlistParseError(
                    "block needs: block <id> <kind> [key=value ...]", lineno)
            bid, kind = parts[1], parts[2]
            params: Dict[str, str] = {}
            for index, tok in enumerate(parts[3:], 3):
                if "=" not in tok:
                    raise NetlistParseError(
                        "expected key=value, got %r" % tok, lineno,
                        _column(line, index))
                key, val = tok.split("=", 1)
                if key in params:
                    raise NetlistParseError(
                        "duplicate param %r" % key, lineno,
                        _column(line, index))
                params[key] = val
            if bid in net.blocks:
                raise NetlistParseError(
                    "duplicate block id %r" % bid, lineno, _column(line, 1))
            net.blocks[bid] = BlockSpec(bid, kind, params)
        elif keyword == "wire":
            if len(parts) not in (3, 4):
                raise NetlistParseError(
                    "wire needs: wire <src>.<port> <dst>.<port> "
                    "[latency=<int>|table=<file>]", lineno)
            src_b, src_p = _parse_port_ref(line, lineno, parts, 1)
            dst_b, dst_p = _parse_port_ref(line, lineno, parts, 2)
            link = _NO_DELAY
            if len(parts) == 4:
                opt = parts[3]
                if opt.startswith("latency="):
                    value = opt[len("latency="):]
                    try:
                        latency = int(value)
                    except ValueError:
                        raise NetlistParseError(
                            "expected integer, got %r" % value, lineno,
                            _column(line, 3) + len("latency=")) from None
                    if latency < 0:
                        raise NetlistParseError(
                            "latency must be non-negative", lineno,
                            _column(line, 3))
                    link = Link.constant(latency)
                elif opt.startswith("table="):
                    path = opt[len("table="):]
                    try:
                        link = Link.from_table(*load_latency_table(
                            os.path.join(base_dir or "", path)))
                    except OSError as exc:
                        raise NetlistParseError(
                            "latency table %s: %s" % (path, exc.strerror),
                            lineno, _column(line, 3)) from None
                    except ValueError as exc:
                        raise NetlistParseError(
                            "latency table %s: %s" % (path, exc), lineno,
                            _column(line, 3)) from None
                else:
                    raise NetlistParseError(
                        "unknown wire option %r" % opt, lineno,
                        _column(line, 3))
            net.wires.append(Wire(src_b, src_p, dst_b, dst_p, link))
        elif keyword == "probe":
            if len(parts) != 2:
                raise NetlistParseError(
                    "probe needs: probe <block>.<port>", lineno)
            net.probes.append(_parse_port_ref(line, lineno, parts, 1))
        else:
            raise NetlistParseError(
                "unknown directive %r" % keyword, lineno)
    _validate(net)
    return net


def _validate(net: Netlist) -> None:
    """Check every structural rule and resolve the netlist in one pass:
    on success, store the parsed params, the wiring and the topological
    order on `net`; otherwise raise with every violation."""
    errors: List[str] = []
    if not net.blocks:
        errors.append("no blocks")

    # The wiring first: the block checks below read it, but its own
    # problems are reported after theirs.
    inputs: Dict[str, Dict[str, Wire]] = {bid: {} for bid in net.blocks}
    outputs: Dict[str, List[Wire]] = {bid: [] for bid in net.blocks}
    wire_errors: List[str] = []
    for wire in net.wires:
        src = net.blocks.get(wire.src_block)
        dst = net.blocks.get(wire.dst_block)
        for bid, block in ((wire.src_block, src), (wire.dst_block, dst)):
            if block is None:
                wire_errors.append(
                    "wire endpoint references unknown block %r" % bid)
        if src is not None:
            outputs[src.id].append(wire)
            if src.kind in KINDS \
                    and wire.src_port not in KINDS[src.kind].outputs:
                wire_errors.append("block %r (%s) has no output port %r"
                                   % (src.id, src.kind, wire.src_port))
        if dst is not None and dst.kind in KINDS:
            fixed = KINDS[dst.kind].inputs
            if fixed is VARIADIC and not (wire.dst_port.startswith("in")
                                      and wire.dst_port[2:].isdigit()):
                wire_errors.append(
                    "block %r (%s) input ports are in0, in1, ... (got %r)"
                    % (dst.id, dst.kind, wire.dst_port))
            elif fixed is not None and wire.dst_port not in fixed:
                wire_errors.append("block %r (%s) has no input port %r"
                                   % (dst.id, dst.kind, wire.dst_port))
        ports = inputs.setdefault(wire.dst_block, {})
        if wire.dst_port in ports:
            wire_errors.append("input port %s.%s driven by two wires"
                               % (wire.dst_block, wire.dst_port))
        ports[wire.dst_port] = wire

    # A block without clock= runs on `main` if declared, else the only
    # clock, else none.
    default_clock = "main" if "main" in net.clocks else (
        next(iter(net.clocks)) if len(net.clocks) == 1 else None)
    params: Dict[str, Dict[str, object]] = {}
    clock_of: Dict[str, Optional[ClockRef]] = {}
    for block in net.blocks.values():
        kind = KINDS.get(block.kind)
        if kind is None:
            errors.append("block %r has unknown kind %r"
                          % (block.id, block.kind))
            continue
        params[block.id], problems = parse_params(block)
        errors.extend(problems)
        clock_id = block.params.get("clock", default_clock)
        clock_of[block.id] = net.clocks.get(clock_id)
        if kind.clocked:
            if clock_id is None:
                errors.append("block %r needs an explicit clock" % block.id)
            elif clock_id not in net.clocks:
                errors.append("block %r references unknown clock %r"
                              % (block.id, clock_id))
        wired = inputs[block.id]
        for port in kind.inputs or ():
            if port not in wired:
                errors.append("block %r (%s) input %r is not wired"
                              % (block.id, block.kind, port))
        if kind.inputs is VARIADIC and not wired:
            errors.append("block %r (%s) has no wired inputs"
                          % (block.id, block.kind))
    errors.extend(wire_errors)

    for bid, port in net.probes:
        if bid not in net.blocks:
            errors.append("probe references unknown block %r" % bid)
            continue
        kind = KINDS.get(net.blocks[bid].kind)
        if port not in inputs[bid] \
                and port not in (kind.outputs if kind else ("out",)):
            errors.append("probe references unknown port %s.%s" % (bid, port))

    order: List[str] = []
    if not errors:
        # Kahn's algorithm; the loop visits the blocks it appends.
        indeg = {bid: len(inputs[bid]) for bid in net.blocks}
        order = [bid for bid, d in indeg.items() if d == 0]
        for bid in order:
            for wire in outputs[bid]:
                indeg[wire.dst_block] -= 1
                if indeg[wire.dst_block] == 0:
                    order.append(wire.dst_block)
        if len(order) != len(net.blocks):
            errors.append("netlist contains a cycle (feed-forward only)")

    if errors:
        raise NetlistValidationError(errors)
    for wires in outputs.values():
        wires.sort(key=lambda w: (w.dst_block, w.dst_port))
    declared = set(net.probes)
    net.probes += [(bid, "in") for bid, block in net.blocks.items()
                   if block.kind == "probe" and (bid, "in") not in declared]
    net.params, net.clock_of, net.inputs, net.outputs, net.order = \
        params, clock_of, inputs, outputs, order
