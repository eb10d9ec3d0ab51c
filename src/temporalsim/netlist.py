"""Netlist text format: blocks wired through latency links, plus probes.

Line-oriented, whitespace-separated, `#` comments:

    clock <id> <freq-numerator>[/<denominator>]
    block <id> <kind> [key=value ...]
    wire <src-id>.<port> <dst-id>.<port> [latency=<int>|table=<file>]
    probe <block-id>.<port>

Parsing reports the first tokenization failure with its position;
validation reports every structural violation at once. A netlist that
`parse_netlist` returns carries its resolved form: each block's parsed
params and clock, one `Link` per wire, each wire's slot, a run plan of
one row per block in topological order, and every observed port in
`probes` (a `probe` block observes its `in`) with the slot it reads. The
engine and the oracle read only that.
"""

from __future__ import annotations

import os
import re
from operator import itemgetter

from .blocks import (COUNT, KINDS, VARIADIC, integer, parse_params,
                     positive_fraction, quote)
from .channel import Link
from .core import ClockRef
from .errors import NetlistParseError, NetlistValidationError


class _Record:
    """A mutable record: equal to a record of its own class when every
    field is, printed with every field, and unhashable."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        return "%s(%s)" % (self.__class__.__name__, ", ".join(
            "%s=%r" % field for field in vars(self).items()))


class Netlist(_Record):
    """A parsed netlist. `clocks`, `blocks`, `wires` and `probes` are what
    the text declares; validation resolves the rest. A block is the plain
    tuple `(id, kind, params)`, with params as the line writes them; a
    wire is `(src_block, src_port, dst_block, dst_port, link)`. `wires`
    keeps line order; `slots` holds the same wire tuples in (dst block,
    dst port) order, and a wire's slot is its index there. So a block's
    inputs are one run of slots, in sorted port order. `plan` has one
    plain-tuple row per block, in topological order:
    `(id, kind, params, clock, first, end, outs)`, where `slots[first:end]`
    are its input wires and `outs` lists the slots of its output wires in
    destination order. `probe_slots` gives, for each probe in `probes`
    order, the slot an in-port probe reads, or None for an `out` probe."""

    def __init__(self) -> None:
        self.clocks: dict[str, ClockRef] = {}
        self.blocks: dict[str, tuple[str, str, dict[str, str]]] = {}
        self.wires: list[tuple[str, str, str, str, Link]] = []
        self.probes: list[tuple[str, str]] = []
        # Resolved by validation:
        self.params: dict[str, dict[str, object]] = {}
        self.clock_of: dict[str, ClockRef] = {}   # the clock each emits on
        self.slots: list[tuple[str, str, str, str, Link]] = []
        self.plan: list[tuple] = []               # topological
        self.probe_slots: list[int | None] = []


# Links are immutable, so every wire without an option shares this one.
_NO_DELAY = Link.constant(0)


def _column(line: str, index: int) -> int:
    """1-based column of the line's index-th whitespace-separated token."""
    return [m.start() for m in re.finditer(r"\S+", line)][index] + 1


def _parse_port_ref(line: str, lineno: int, parts: list[str],
                    index: int) -> tuple[str, str]:
    token = parts[index]
    block, _dot, port = token.partition(".")
    if not block or not port or "." in port:
        raise NetlistParseError(
            "expected <block>.<port>, got %r" % token,
            lineno, _column(line, index))
    return block, port


def load_latency_table(path: str) -> tuple[dict[int, int], int]:
    """Latency table file: lines `default <d>` or `<tick> <d>`, each tick
    and `default` at most once.

    Raises ValueError naming the table's own line."""
    table: dict[int, int] = {}
    default, read_tick = 0, integer()
    line_of: dict[int | None, int] = {}     # tick (None: default) -> line
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ValueError("line %d: needs two fields" % lineno)
            token = parts[0]
            try:
                tick = None if token == "default" else read_tick(token)
                token = parts[1]
                delay = COUNT(token)
            except ValueError as exc:
                raise ValueError("line %d: %s %s"
                                 % (lineno, quote(token), exc)) from None
            if tick in line_of:
                raise ValueError("line %d: %s repeats line %d" % (
                    lineno, "default" if tick is None else "tick %d" % tick,
                    line_of[tick]))
            line_of[tick] = lineno
            if tick is None:
                default = delay
            else:
                table[tick] = delay
    return table, default


def _wire_option(opt: str, line: str, lineno: int,
                 base_dir: str | None,
                 option_links: dict[str, Link]) -> Link:
    """The Link a wire's `latency=` or `table=` option names. A good
    option's link is stored in `option_links` under its text."""
    if opt.startswith("latency="):
        value = opt[len("latency="):]
        try:
            latency = COUNT(value)
        except ValueError as exc:
            raise NetlistParseError(
                "latency %s %s" % (quote(value), exc), lineno,
                _column(line, 3) + len("latency=")) from None
        link = option_links[opt] = Link.constant(latency)
        return link
    if opt.startswith("table="):
        path = opt[len("table="):]
        try:
            table, default = load_latency_table(
                os.path.join(base_dir or "", path))
        except OSError as exc:
            raise NetlistParseError(
                "latency table %s: %s" % (path, exc.strerror),
                lineno, _column(line, 3)) from None
        except ValueError as exc:
            raise NetlistParseError(
                "latency table %s: %s" % (path, exc), lineno,
                _column(line, 3)) from None
        link = option_links[opt] = Link.from_table(table, default)
        return link
    raise NetlistParseError(
        "unknown wire option %r" % opt, lineno, _column(line, 3))


def parse_netlist(text: str, base_dir: str | None = None) -> Netlist:
    """Parse and validate netlist text.

    A relative `table=` path is read from `base_dir` when given (the CLI
    passes the netlist file's directory), else from the working
    directory. Raises NetlistParseError on the first malformed line and
    NetlistValidationError carrying every structural violation.
    """
    net = Netlist()
    wires, blocks = net.wires, net.blocks
    option_links: dict[str, Link] = {}  # one Link per wire option text
    for lineno, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        keyword = parts[0]
        if keyword == "wire":
            count = len(parts)
            if count not in (3, 4):
                raise NetlistParseError(
                    "wire needs: wire <src>.<port> <dst>.<port> "
                    "[latency=<int>|table=<file>]", lineno)
            # `_parse_port_ref`'s rule, inline; it runs only to raise.
            src_b, _dot, src_p = parts[1].partition(".")
            dst_b, _dot, dst_p = parts[2].partition(".")
            if not (src_b and src_p and dst_b and dst_p) \
                    or "." in src_p or "." in dst_p:
                _parse_port_ref(line, lineno, parts, 1)
                _parse_port_ref(line, lineno, parts, 2)
            link = _NO_DELAY
            if count == 4:
                link = option_links.get(parts[3])
                if link is None:
                    link = _wire_option(parts[3], line, lineno, base_dir,
                                        option_links)
            wires.append((src_b, src_p, dst_b, dst_p, link))
        elif keyword == "block":
            if len(parts) < 3:
                raise NetlistParseError(
                    "block needs: block <id> <kind> [key=value ...]", lineno)
            bid, kind = parts[1], parts[2]
            # `.` splits a port reference, and `,` and `=` split a trace
            # CSV row and its footer.
            if "." in bid or "," in bid or "=" in bid:
                char = next(c for c in bid if c in ".,=")
                raise NetlistParseError(
                    "block id %s may not contain %r" % (quote(bid), char),
                    lineno, _column(line, 1))
            params: dict[str, str] = {}
            for index, tok in enumerate(parts[3:], 3):
                key, eq, val = tok.partition("=")
                if not eq:
                    raise NetlistParseError(
                        "expected key=value, got %r" % tok, lineno,
                        _column(line, index))
                if key in params:
                    raise NetlistParseError(
                        "duplicate param %r" % key, lineno,
                        _column(line, index))
                params[key] = val
            if bid in blocks:
                raise NetlistParseError(
                    "duplicate block id %r" % bid, lineno, _column(line, 1))
            blocks[bid] = (bid, kind, params)
        elif keyword == "clock":
            if len(parts) != 3:
                raise NetlistParseError(
                    "clock needs: clock <id> <freq>", lineno)
            cid, freq_tok = parts[1], parts[2]
            try:
                freq = positive_fraction(freq_tok)
            except ValueError as exc:
                raise NetlistParseError(
                    "frequency %s %s" % (quote(freq_tok), exc), lineno,
                    _column(line, 2)) from None
            if cid in net.clocks:
                raise NetlistParseError(
                    "duplicate clock id %r" % cid, lineno, _column(line, 1))
            # Unchecked: the frequency was checked as it was read.
            net.clocks[cid] = tuple.__new__(ClockRef, (cid, freq))
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
    on success, store the parsed params, the clocks, the slots, the plan
    and the probes' slots on `net`; otherwise raise with every violation.
    The wires are read once, in slot order, so each block's inputs are
    one run of slots and its out-wires fill in destination order."""
    errors: list[str] = []
    blocks = net.blocks
    if not blocks:
        errors.append("no blocks")
    # Each block's `Kind`, or None for an unknown kind.
    kinds = {bid: KINDS.get(kind) for bid, kind, _params in blocks.values()}

    # The wiring first: the block checks below read it, but its own
    # problems are reported after theirs. A wire whose two ports exist
    # must carry the sort its destination takes.
    slots = sorted(net.wires, key=itemgetter(2, 3))
    runs = dict.fromkeys(blocks, (0, 0))    # block -> (first, end) slot
    outputs: dict[str, list[int]] = {bid: [] for bid in blocks}
    wire_errors: list[tuple[tuple, str]] = []   # (wire, violation)
    variadic_ports = set()  # in0, in1, ... names already accepted
    first, last_dst, last_port = 0, None, None
    for slot, wire in enumerate(slots):
        src_id, src_port, dst_id, dst_port, _link = wire
        if dst_id != last_dst:
            if slot:
                runs[last_dst] = first, slot
            first, last_dst, last_port = slot, dst_id, None
        src_wires = outputs.get(src_id)
        if src_wires is None or dst_id not in kinds:
            wire_errors += [
                (wire, "wire endpoint references unknown block %r" % bid)
                for bid in (src_id, dst_id) if bid not in kinds]
        sort = None
        if src_wires is not None:
            src_wires.append(slot)
            src_kind = kinds[src_id]
            if src_kind is not None:
                sort = src_kind.emits
                if src_port != "out" or sort is None:
                    sort = None
                    wire_errors.append((
                        wire, "block %r (%s) has no output port %r"
                        % (src_id, blocks[src_id][1], src_port)))
                elif callable(sort):
                    sort = sort(blocks[src_id][2])
        dst_kind = kinds.get(dst_id)
        if dst_kind is not None:
            ins, takes = dst_kind.inputs, dst_kind.takes
            if ins is VARIADIC:
                if dst_port not in variadic_ports:
                    number = dst_port[2:]
                    if (dst_port.startswith("in") and number.isascii()
                            and number.isdigit()):
                        variadic_ports.add(dst_port)
                    else:
                        sort = None
                        wire_errors.append((
                            wire, "block %r (%s) input ports are in0, in1, "
                            "... (got %r)" % (dst_id, blocks[dst_id][1],
                                              dst_port)))
            elif dst_port not in ins:
                sort = None
                wire_errors.append((
                    wire, "block %r (%s) has no input port %r"
                    % (dst_id, blocks[dst_id][1], dst_port)))
            if sort != takes and sort is not None and takes is not None:
                wire_errors.append((
                    wire, "block %r (%s) input %r takes %s, got %s from %r"
                    % (dst_id, blocks[dst_id][1], dst_port, takes, sort,
                       "%s.%s" % (src_id, src_port))))
        # The sort is stable, so a repeated port follows its first wire.
        if dst_port == last_port:
            wire_errors.append((wire, "input port %s.%s driven by two wires"
                                % (dst_id, dst_port)))
        last_port = dst_port
    if slots:
        runs[last_dst] = first, len(slots)

    # Without clock=, a kind with no inputs runs on `main` if declared,
    # else the only clock. Any other block emits on the clock of its
    # first input, resolved in topological order below.
    clocks = net.clocks
    default_clock = "main" if "main" in clocks else (
        next(iter(clocks)) if len(clocks) == 1 else None)
    params: dict[str, dict[str, object]] = {}
    clock_of: dict[str, ClockRef | None] = {}
    indeg: dict[str, int] = {}    # how many input wires, for Kahn below
    for bid, block in blocks.items():
        spec, kind = kinds[bid], block[1]
        if spec is None:
            errors.append("block %r has unknown kind %r" % (bid, kind))
            continue
        values, problems = parse_params(block)
        params[bid] = values
        if problems:
            errors += problems
        inputless = spec.inputs == ()
        clock_id = values.get("clock", default_clock if inputless else None)
        clock_of[bid] = clocks.get(clock_id)
        if clock_id is None and inputless:
            errors.append("block %r needs an explicit clock" % bid)
        elif clock_id is not None and clock_id not in clocks:
            errors.append("block %r references unknown clock %r"
                          % (bid, clock_id))
        first, end = runs[bid]
        indeg[bid] = end - first
        if spec.inputs is VARIADIC:
            if first == end:
                errors.append("block %r (%s) has no wired inputs"
                              % (bid, kind))
        # Without a wire error each wire has its own port of the kind's,
        # so one slot per port means every port is wired.
        elif wire_errors or end - first != len(spec.inputs):
            wired = {wire[3] for wire in slots[first:end]}
            for port in spec.inputs:
                if port not in wired:
                    errors.append("block %r (%s) input %r is not wired"
                                  % (bid, kind, port))
    if wire_errors:
        # In the order the wire lines are written.
        line_of = {id(wire): index for index, wire in enumerate(net.wires)}
        wire_errors.sort(key=lambda found: line_of[id(found[0])])
        errors += [text for _wire, text in wire_errors]

    # An `out` probe reads what its block emits; any other reads a slot.
    # No kind has an input port `out`, so only a wire error wires one.
    probe_slots: list[int | None] = []
    for bid, port in net.probes:
        if bid not in blocks:
            errors.append("probe references unknown block %r" % bid)
            continue
        slot = None
        if port != "out" or wire_errors:
            first, end = runs[bid]
            for index in range(first, end):
                if slots[index][3] == port:
                    slot = index
                    break
        spec = kinds[bid]
        if slot is None and (
                port != "out" or spec is not None and spec.emits is None):
            errors.append("probe references unknown port %s.%s" % (bid, port))
        probe_slots.append(slot)

    plan: list[tuple] = []
    if not errors:
        # Kahn's algorithm; the loop visits the blocks it appends, and
        # lays out one plan row per block as it visits it.
        order = [bid for bid, d in indeg.items() if d == 0]
        for bid in order:
            first, end = runs[bid]
            clock = clock_of[bid]
            if clock is None:
                clock = clock_of[bid] = clock_of[slots[first][0]]
            outs = outputs[bid]
            plan.append((bid, blocks[bid][1], params[bid], clock, first, end,
                         outs))
            for slot in outs:
                dst = slots[slot][2]
                indeg[dst] -= 1
                if indeg[dst] == 0:
                    order.append(dst)
        if len(order) != len(blocks):
            errors.append("netlist contains a cycle (feed-forward only)")

    if errors:
        raise NetlistValidationError(errors)
    declared = set(net.probes)
    for bid, kind, _params in blocks.values():
        if kind == "probe" and (bid, "in") not in declared:
            net.probes.append((bid, "in"))
            probe_slots.append(runs[bid][0])
    net.params, net.clock_of, net.slots, net.plan, net.probe_slots = \
        params, clock_of, slots, plan, probe_slots
