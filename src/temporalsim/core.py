"""Time references, signal carriers, and integer <-> temporal codecs.

A value is carried as the length of a time interval, counted in pulses of
a reference clock. Every interval starts at tick 0, so one `UnaryTrain`
(length, clock) holds the datum: its start and end events are ticks 0
and `length`. Everything here is an immutable value type plus pure
functions; nothing touches global state.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence
from fractions import Fraction


class ClockRef(namedtuple("ClockRef", "id frequency")):
    """A named time reference with an exact rational frequency.

    Frequencies are abstract pulses-per-unit-time; only ratios between
    clocks ever matter, like exchange rates between currencies.
    """

    __slots__ = ()

    def __new__(cls, id: str, frequency: int | Fraction = Fraction(1)):
        freq = Fraction(frequency)
        if freq <= 0:
            raise ValueError("clock %r frequency must be > 0" % id)
        return tuple.__new__(cls, (id, freq))

    def scaled(self, k: int) -> "ClockRef":
        """A derived reference running k times faster, named by k."""
        if not isinstance(k, int):
            raise ValueError("scale factor must be an int, not %r" % (k,))
        if k < 1:
            raise ValueError("scale factor must be >= 1")
        # A positive frequency times an int >= 1 needs no re-check.
        return tuple.__new__(ClockRef, ("%sx%d" % (self.id, k),
                                        self.frequency * k))


DEFAULT_CLOCK = ClockRef("main", Fraction(1))


class PulseTrain(namedtuple("PulseTrain", "pulses clock")):
    """Pulses at strictly increasing tick positions on one channel."""

    __slots__ = ()

    def __new__(cls, pulses: Sequence[int], clock: ClockRef = DEFAULT_CLOCK):
        pulses = tuple(int(p) for p in pulses)
        if any(p < 0 for p in pulses):
            raise ValueError("pulse positions must be non-negative")
        if any(b <= a for a, b in zip(pulses, pulses[1:])):
            raise ValueError("pulse positions must be strictly increasing")
        return tuple.__new__(cls, (pulses, clock))


class UnaryTrain(namedtuple("UnaryTrain", "length clock")):
    """A run of contiguous marks starting at tick 0; length is the value."""

    __slots__ = ()

    def __new__(cls, length: int, clock: ClockRef = DEFAULT_CLOCK):
        if length < 0:
            raise ValueError("unary length must be non-negative")
        return tuple.__new__(cls, (length, clock))


class MultiValentTrain(namedtuple("MultiValentTrain", "items clock")):
    """Marks with integer amplitudes: position -> amplitude buckets.

    An amplitude a at position b encodes the product contribution a*b.
    Stored as a sorted tuple of (position, amplitude) pairs so the value
    is hashable; absent positions mean amplitude 0. The amplitudes of
    pairs at an equal position sum, as `mv_merge` sums them.
    """

    __slots__ = ()

    def __new__(cls, items: Sequence[tuple[int, int]] = (),
                clock: ClockRef = DEFAULT_CLOCK):
        buckets: dict[int, int] = {}
        for pos, amp in sorted((int(p), int(a)) for p, a in items):
            if pos < 0:
                raise ValueError("bucket position must be non-negative")
            if amp < 1:
                raise ValueError("bucket amplitude must be >= 1")
            buckets[pos] = buckets.get(pos, 0) + amp
        return tuple.__new__(cls, (tuple(buckets.items()), clock))

    @classmethod
    def from_buckets(cls, buckets: Mapping[int, int],
                     clock: ClockRef = DEFAULT_CLOCK) -> "MultiValentTrain":
        return cls(tuple(buckets.items()), clock)


# ---------------------------------------------------------------------------
# Codecs


def encode_unary(n: int, clock: ClockRef = DEFAULT_CLOCK) -> UnaryTrain:
    """Encode n as a run of n contiguous marks."""
    if n < 0:
        raise ValueError("cannot encode negative value in unary")
    return UnaryTrain(n, clock)


def encode_pim(n: int, clock: ClockRef = DEFAULT_CLOCK) -> PulseTrain:
    """Pulse-interval code: start delimiter at tick 0, end pulse at tick n.

    n = 0 collapses both delimiters onto a single pulse at tick 0.
    """
    if n < 0:
        raise ValueError("cannot encode negative value as interval")
    if n == 0:
        return PulseTrain((0,), clock)
    return PulseTrain((0, n), clock)


def decode_pim(t: PulseTrain) -> int:
    """Gap between the two delimiter pulses; single pulse decodes to 0."""
    if len(t.pulses) not in (1, 2):
        raise ValueError(
            "interval code needs 1 or 2 pulses, got %d" % len(t.pulses))
    if t.pulses[0] != 0:
        raise ValueError("interval code must start at tick 0")
    return t.pulses[-1] - t.pulses[0]


def measure_interval(x: UnaryTrain, ref: ClockRef) -> int:
    """Count whole reference pulses falling inside the run's interval.

    Exact when ref is the run's own clock; otherwise floor of the
    rational rescaling (a counter only completes whole pulses).
    """
    ref_f, x_f = ref.frequency, x.clock.frequency
    return (x.length * ref_f.numerator * x_f.denominator
            // (ref_f.denominator * x_f.numerator))


def encode_hybrid(n: int, base: int,
                  clock: ClockRef = DEFAULT_CLOCK) -> tuple[UnaryTrain, ...]:
    """Positional digits, little-endian, each digit kept in unary.

    Trades the log-scaling of positional codes against the arithmetic
    simplicity of unary digits (cf. binary-coded decimal).
    """
    if base < 2:
        raise ValueError("base must be >= 2, got %d" % base)
    if n < 0:
        raise ValueError("cannot encode negative value")
    digits = [UnaryTrain(n % base, clock)]
    n //= base
    while n:
        digits.append(UnaryTrain(n % base, clock))
        n //= base
    return tuple(digits)


def decode_hybrid(digits: Sequence[UnaryTrain], base: int) -> int:
    """Inverse of encode_hybrid: sum of digit * base**index."""
    if base < 2:
        raise ValueError("base must be >= 2, got %d" % base)
    total = 0
    for i, digit in enumerate(digits):
        if digit.length >= base:
            raise ValueError(
                "digit %d has length %d >= base %d" % (i, digit.length, base))
        total += digit.length * base ** i
    return total
