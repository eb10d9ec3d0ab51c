"""Arithmetic on temporal codes.

Addition is concatenation of mark runs, multiplication is dilation under
a faster reference, min/max fall out of racing parallel lanes, and the
multi-valent train turns a dot product into a single counting sweep.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, Iterable, Sequence, Set

from .core import (
    DEFAULT_CLOCK,
    ClockRef,
    IntervalValue,
    MultiValentTrain,
    UnaryTrain,
    measure_interval,
)
from .errors import (
    ClockMismatch,
    DuplicateValue,
    EmptyInput,
    ModeMismatch,
    ZeroValue,
)


class MuxChannel(namedtuple("MuxChannel", "value_pulses clock")):
    """Several duplicate-free values sharing one channel.

    The channel is the pulse-wise OR of the members' interval codes from
    a common start marker at tick 0; a shorter value literally reuses the
    leading span of a longer one.
    """

    __slots__ = ()

    def __new__(cls, value_pulses: Iterable[int],
                clock: ClockRef = DEFAULT_CLOCK):
        pulses = frozenset(int(p) for p in value_pulses)
        if any(p <= 0 for p in pulses):
            raise ValueError("value pulses must be positive ticks")
        return tuple.__new__(cls, (pulses, clock))


def add_concat(x: UnaryTrain, y: UnaryTrain) -> UnaryTrain:
    """Add by concatenating mark runs; cost is linear in the operands."""
    if x.clock is not y.clock and x.clock != y.clock:
        raise ClockMismatch(
            "cannot concatenate %s with %s" % (x.clock.id, y.clock.id))
    return UnaryTrain._trusted(x.length + y.length, x.clock)


def mul_dilate(x: UnaryTrain, k: int) -> UnaryTrain:
    """Multiply by dilating the run: re-measure x under a k-times-faster
    reference, so every mark stretches into k."""
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    if k == 1:
        return x
    fast = x.clock.scaled(k)
    span = IntervalValue._trusted(0, x.length, x.clock)
    return UnaryTrain._trusted(measure_interval(span, fast), x.clock)


def _check_race_lanes(lanes: Sequence[IntervalValue]) -> None:
    if not lanes:
        raise EmptyInput("race needs at least one lane")
    start, clock = lanes[0].start, lanes[0].clock
    for lane in lanes[1:]:
        if lane.start != start:
            raise ModeMismatch(
                "synchronous race requires a shared start tick")
        if lane.clock is not clock and lane.clock != clock:
            raise ModeMismatch("race lanes must share one clock")


def min_race(lanes: Sequence[IntervalValue]) -> int:
    """First arrival among synchronous lanes (OR-gate semantics)."""
    lanes = list(lanes)
    _check_race_lanes(lanes)
    return min(lane.end for lane in lanes) - lanes[0].start


def max_race(lanes: Sequence[IntervalValue]) -> int:
    """Last arrival among synchronous lanes (AND-gate semantics)."""
    lanes = list(lanes)
    _check_race_lanes(lanes)
    return max(lane.end for lane in lanes) - lanes[0].start


def mux(values: Iterable[int], clock: ClockRef = DEFAULT_CLOCK) -> MuxChannel:
    """Overlay a duplicate-free set of positive values on one channel.

    Equivalent to OR-ing the individual interval codes: shared leading
    spans are reused, which is what makes the packing efficient.
    """
    values = list(values)
    if not values:
        raise EmptyInput("mux needs at least one value")
    if len(set(values)) != len(values):
        raise DuplicateValue("mux requires duplicate-free values")
    if any(v == 0 for v in values):
        raise ZeroValue("0 collides with the start marker")
    if any(v < 0 for v in values):
        raise ValueError("mux values must be positive")
    return MuxChannel(frozenset(values), clock)


def demux(ch: MuxChannel) -> Set[int]:
    """Recover the value set: every value pulse position is one member."""
    return set(ch.value_pulses)


def mv_merge(trains: Sequence[MultiValentTrain]) -> MultiValentTrain:
    """Overlay multi-valent trains; equal positions sum their amplitudes.

    Multiplexing extended to duplicates: p*v1 + p*v2 = p*(v1+v2), so the
    merge preserves the dot product.
    """
    if not trains:
        return MultiValentTrain()
    clock = trains[0].clock
    merged: Dict[int, int] = {}
    for train in trains:
        if train.clock is not clock and train.clock != clock:
            raise ClockMismatch("merge requires one shared clock")
        for pos, amp in train.items:
            merged[pos] = merged.get(pos, 0) + amp
    # Valid trains give unique positions >= 0 and amplitude sums >= 1.
    return MultiValentTrain._trusted(tuple(sorted(merged.items())), clock)


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
