"""Arithmetic on temporal codes.

Addition is concatenation of mark runs, multiplication is dilation under
a faster reference, min/max fall out of racing parallel lanes, and the
multi-valent train turns a dot product into a single counting sweep.
A race's lanes are `UnaryTrain` runs, which all start at tick 0, so
they start together by construction; only their clock is checked.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from .core import DEFAULT_CLOCK, ClockRef, MultiValentTrain, UnaryTrain


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
        raise ValueError(
            "cannot concatenate %s with %s" % (x.clock.id, y.clock.id))
    return tuple.__new__(UnaryTrain, (x.length + y.length, x.clock))


def mul_dilate(x: UnaryTrain, k: int) -> UnaryTrain:
    """Multiply by dilating the run: re-measure x under a k-times-faster
    reference, so every mark stretches into k.

    Under `x.clock.scaled(k)`, of frequency k*p/q where x's clock has
    p/q, `measure_interval` counts L*(k*p)*q // (q*p) = L*k pulses for a
    run of L marks, whatever p/q is: the count is exact integer
    arithmetic, so it is computed as L*k without building that clock.
    """
    if not isinstance(k, int):
        raise ValueError("dilation factor must be an int, not %r" % (k,))
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    return tuple.__new__(UnaryTrain, (x.length * k, x.clock))


def _race_lengths(lanes: Iterable[UnaryTrain]) -> tuple[int, ...]:
    """The lanes' lengths. Every run starts at tick 0, so the lanes start
    together; they must share one clock."""
    columns = tuple(zip(*lanes))
    if not columns:
        raise ValueError("race needs at least one lane")
    lengths, clocks = columns
    if clocks.count(clocks[0]) != len(clocks):
        raise ValueError("race lanes must share one clock")
    return lengths


def min_race(lanes: Sequence[UnaryTrain]) -> int:
    """First arrival among synchronous lanes (OR-gate semantics)."""
    return min(_race_lengths(lanes))


def max_race(lanes: Sequence[UnaryTrain]) -> int:
    """Last arrival among synchronous lanes (AND-gate semantics)."""
    return max(_race_lengths(lanes))


def mux(values: Iterable[int], clock: ClockRef = DEFAULT_CLOCK) -> MuxChannel:
    """Overlay a duplicate-free set of positive values on one channel.

    Equivalent to OR-ing the individual interval codes: shared leading
    spans are reused, which is what makes the packing efficient.
    """
    values = list(values)
    if not values:
        raise ValueError("mux needs at least one value")
    if not all(isinstance(v, int) for v in values):
        raise ValueError("mux values must be integers")
    if len(set(values)) != len(values):
        raise ValueError("mux requires duplicate-free values")
    if any(v == 0 for v in values):
        raise ValueError("0 collides with the start marker")
    if any(v < 0 for v in values):
        raise ValueError("mux values must be positive")
    return tuple.__new__(MuxChannel, (frozenset(values), clock))


def demux(ch: MuxChannel) -> set[int]:
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
    merged: dict[int, int] = {}
    for train in trains:
        if train.clock is not clock and train.clock != clock:
            raise ValueError("merge requires one shared clock")
        for pos, amp in train.items:
            merged[pos] = merged.get(pos, 0) + amp
    # Valid trains give unique positions >= 0 and amplitude sums >= 1.
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
