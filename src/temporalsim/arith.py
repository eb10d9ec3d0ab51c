"""Arithmetic on temporal codes.

Addition is concatenation of intervals, multiplication is dilation under
a faster reference, min/max fall out of racing parallel lanes, and the
multi-valent train turns a dot product into a single counting sweep.
Each operation reads `TimedMessage` operands by their spans and offsets;
`add_concat`, `mul_dilate`, the races and `mux` take scalars, messages
whose last event is an end, and raise ValueError on any other sort; the
operands of each must share one clock.
A result starts at the tick its last operand ends, which is when the
engine fires the block, and is on the first operand's clock.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .core import (EVENT_END, EVENT_VALUE, MultiValentTrain, TimedMessage,
                   _interval, _offsets, _span)


def add_concat(x: TimedMessage, y: TimedMessage) -> TimedMessage:
    """Add by concatenating intervals; cost is linear in the operands."""
    if x.clock is not y.clock and x.clock != y.clock:
        raise ValueError(
            "cannot concatenate %s with %s" % (x.clock.id, y.clock.id))
    xs, ys = x.events, y.events
    if xs[-1][0] != EVENT_END or ys[-1][0] != EVENT_END:
        raise ValueError("add requires scalar operands")
    return _interval(_span(xs) + _span(ys), max(xs[-1][1], ys[-1][1]),
                     x.clock)


def mul_dilate(x: TimedMessage, k: int) -> TimedMessage:
    """Multiply by dilating the interval: re-measure x under a
    k-times-faster reference, so every tick stretches into k.

    Under `x.clock.scaled(k)`, of frequency k*p/q where x's clock has
    p/q, `measure_interval` counts L*(k*p)*q // (q*p) = L*k pulses for a
    span of L ticks, whatever p/q is: the count is exact integer
    arithmetic, so it is computed as L*k without building that clock.
    """
    if not isinstance(k, int):
        raise ValueError("dilation factor must be an int, not %r" % (k,))
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    events = x.events
    if events[-1][0] != EVENT_END:
        raise ValueError("mul requires a scalar operand")
    return _interval(_span(events) * k, events[-1][1], x.clock)


def _race(lanes: Sequence[TimedMessage],
          pick: Callable[[list[int]], int]) -> TimedMessage:
    """The span `pick` chooses among the lanes' spans, starting when the
    last lane ends. The lanes must be scalars on one clock. One pass
    reads each lane's clock, span and last tick."""
    if not lanes:
        raise ValueError("race needs at least one lane")
    first_events, clock, _amplitudes = lanes[0]
    end = first_events[-1][1]   # ticks may be negative: not 0
    spans = []
    for events, lane_clock, _amplitudes in lanes:
        if lane_clock is not clock and lane_clock != clock:
            raise ValueError("race lanes must share one clock")
        role, last = events[-1]
        if role != EVENT_END:
            raise ValueError("race requires scalar lanes")
        spans.append(last - events[0][1])
        if last > end:
            end = last
    return _interval(pick(spans), end, clock)


def min_race(lanes: Sequence[TimedMessage]) -> TimedMessage:
    """First arrival among synchronous lanes (OR-gate semantics)."""
    return _race(lanes, min)


def max_race(lanes: Sequence[TimedMessage]) -> TimedMessage:
    """Last arrival among synchronous lanes (AND-gate semantics)."""
    return _race(lanes, max)


def mux(lanes: Sequence[TimedMessage]) -> TimedMessage:
    """Overlay the lanes' values, their spans, on one channel as a value
    set, through the checked `TimedMessage.multiplexed`: it refuses a
    repeated value and a 0. The lanes must be scalars on one clock.

    Equivalent to OR-ing the individual interval codes: shared leading
    spans are reused, which is what makes the packing efficient.
    """
    if not lanes:
        raise ValueError("mux needs at least one value")
    clock = lanes[0].clock
    for m in lanes:
        if m.clock is not clock and m.clock != clock:
            raise ValueError("mux lanes must share one clock")
        if m.events[-1][0] != EVENT_END:
            raise ValueError("mux requires scalar lanes")
    return TimedMessage.multiplexed([_span(m.events) for m in lanes],
                                    max(m.events[-1][1] for m in lanes),
                                    clock)


def demux(msg: TimedMessage) -> set[int]:
    """Recover the value set: every value pulse's offset is one member."""
    if msg.amplitudes or msg.events[-1][0] != EVENT_VALUE:
        raise ValueError("demux requires a value set")
    return set(_offsets(msg.events))


def mv_merge(msgs: Sequence[TimedMessage]) -> MultiValentTrain:
    """Overlay multi-valent messages into one train; equal positions sum
    their amplitudes.

    Multiplexing extended to duplicates: p*v1 + p*v2 = p*(v1+v2), so the
    merge preserves the dot product.
    """
    if not msgs:
        return MultiValentTrain()
    clock = msgs[0].clock
    merged: dict[int, int] = {}
    for events, msg_clock, amplitudes in msgs:
        if msg_clock is not clock and msg_clock != clock:
            raise ValueError("merge requires one shared clock")
        if not amplitudes:
            raise ValueError("merge requires multi-valent messages")
        for pos, amp in zip(_offsets(events), amplitudes):
            merged[pos] = merged.get(pos, 0) + amp
    # Valid messages give positions >= 0 and amplitude sums >= 1.
    return tuple.__new__(MultiValentTrain,
                         (tuple(sorted(merged.items())), clock))


def madd(train: MultiValentTrain) -> int:
    """Dot product of a multi-valent train: sum of position * amplitude.

    Single systolic sweep from the highest occupied position down to 0:
    the running amplitude sum S picks up each bucket as the sweep enters
    its tick and is added to the accumulator once per tick, so each
    amplitude a at position b is counted exactly b times. The simulated
    sweep still costs max position + C0 ticks; the host skips the empty
    ticks, where S is constant, and adds S once per gap between occupied
    buckets, so it runs in O(occupied buckets).
    """
    total = running = last = 0  # last: lowest occupied position so far
    for pos, amp in reversed(train.items):
        total += running * (last - pos)
        running += amp
        last = pos
    return total + running * last
