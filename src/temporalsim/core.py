"""Time references, signal carriers, and integer <-> temporal codecs.

A value is carried as the length of a time interval, counted in pulses of
a reference clock. Everything here is an immutable value type plus pure
functions; nothing touches global state.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from typing import Mapping, Sequence, Tuple, Union

from .errors import DigitOverflow, InvalidBase, MalformedCode

Rational = Union[int, Fraction]


class ClockRef(namedtuple("ClockRef", "id frequency")):
    """A named time reference with an exact rational frequency.

    Frequencies are abstract pulses-per-unit-time; only ratios between
    clocks ever matter, like exchange rates between currencies.
    """

    __slots__ = ()

    def __new__(cls, id: str, frequency: Rational = Fraction(1)):
        freq = Fraction(frequency)
        if freq <= 0:
            raise ValueError("clock %r frequency must be > 0" % id)
        return tuple.__new__(cls, (id, freq))

    def ratio_to(self, other: "ClockRef") -> Fraction:
        """Exact frequency ratio self/other."""
        return self.frequency / other.frequency

    @classmethod
    def _trusted(cls, id: str, frequency: Fraction) -> "ClockRef":
        """A clock already known to be valid (a positive `Fraction`),
        built without the check."""
        return tuple.__new__(cls, (id, frequency))

    def scaled(self, k: int) -> "ClockRef":
        """A derived reference running k times faster."""
        if k < 1:
            raise ValueError("scale factor must be >= 1")
        # A positive frequency times a factor >= 1 needs no re-check.
        return ClockRef._trusted("%sx%d" % (self.id, k),
                                 self.frequency * Fraction(k))


DEFAULT_CLOCK = ClockRef("main", Fraction(1))


class DeliveryMode(enum.Enum):
    """How a collection of time delays is laid out on channels."""

    SERIAL = "serial"
    SERIAL_DISCONTINUOUS = "serial_discontinuous"
    PARALLEL_SYNCHRONOUS = "parallel_synchronous"
    PARALLEL_ASYNCHRONOUS = "parallel_asynchronous"


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

    @classmethod
    def _trusted(cls, length: int, clock: ClockRef) -> "UnaryTrain":
        """A train already known to be valid, built without the check."""
        return tuple.__new__(cls, (length, clock))


class IntervalValue(namedtuple("IntervalValue", "start end clock")):
    """One datum as a (start, end) event pair; value = end - start."""

    __slots__ = ()

    def __new__(cls, start: int, end: int, clock: ClockRef = DEFAULT_CLOCK):
        if start < 0:
            raise ValueError("interval start must be non-negative")
        if end < start:
            raise ValueError("interval end precedes start")
        return tuple.__new__(cls, (start, end, clock))

    @classmethod
    def _trusted(cls, start: int, end: int,
                 clock: ClockRef) -> "IntervalValue":
        """An interval already known to be valid, built without the
        check."""
        return tuple.__new__(cls, (start, end, clock))

    @property
    def length(self) -> int:
        return self.end - self.start


class MultiValentTrain(namedtuple("MultiValentTrain", "items clock")):
    """Marks with integer amplitudes: position -> amplitude buckets.

    An amplitude a at position b encodes the product contribution a*b.
    Stored as a sorted tuple of (position, amplitude) pairs so the value
    is hashable; absent positions mean amplitude 0.
    """

    __slots__ = ()

    def __new__(cls, items: Sequence[Tuple[int, int]] = (),
                clock: ClockRef = DEFAULT_CLOCK):
        items = tuple(sorted((int(p), int(a)) for p, a in items))
        for pos, amp in items:
            if pos < 0:
                raise ValueError("bucket position must be non-negative")
            if amp < 1:
                raise ValueError("bucket amplitude must be >= 1")
        if len({p for p, _ in items}) != len(items):
            raise ValueError("duplicate bucket positions")
        return tuple.__new__(cls, (items, clock))

    @classmethod
    def _trusted(cls, items: Tuple[Tuple[int, int], ...],
                 clock: ClockRef) -> "MultiValentTrain":
        """A train whose items are already a tuple of int pairs sorted by
        unique position >= 0, each amplitude >= 1; built without the
        check."""
        return tuple.__new__(cls, (items, clock))

    @classmethod
    def from_buckets(cls, buckets: Mapping[int, int],
                     clock: ClockRef = DEFAULT_CLOCK) -> "MultiValentTrain":
        return cls(tuple(buckets.items()), clock)

    @property
    def buckets(self) -> dict:
        return dict(self.items)


# ---------------------------------------------------------------------------
# Codecs


def encode_unary(n: int, clock: ClockRef = DEFAULT_CLOCK) -> UnaryTrain:
    """Encode n as a run of n contiguous marks."""
    if n < 0:
        raise ValueError("cannot encode negative value in unary")
    return UnaryTrain(n, clock)


def decode_unary(t: UnaryTrain) -> int:
    """The mark-run length is the value."""
    return t.length


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
        raise MalformedCode(
            "interval code needs 1 or 2 pulses, got %d" % len(t.pulses))
    if t.pulses[0] != 0:
        raise MalformedCode("interval code must start at tick 0")
    return t.pulses[-1] - t.pulses[0]


def measure_interval(iv: IntervalValue, ref: ClockRef) -> int:
    """Count whole reference pulses falling inside the interval.

    Exact when ref is the interval's own clock; otherwise floor of the
    rational rescaling (a counter only completes whole pulses).
    """
    ref_f, iv_f = ref.frequency, iv.clock.frequency
    return ((iv.end - iv.start) * ref_f.numerator * iv_f.denominator
            // (ref_f.denominator * iv_f.numerator))


def encode_hybrid(n: int, base: int,
                  clock: ClockRef = DEFAULT_CLOCK) -> Tuple[UnaryTrain, ...]:
    """Positional digits, little-endian, each digit kept in unary.

    Trades the log-scaling of positional codes against the arithmetic
    simplicity of unary digits (cf. binary-coded decimal).
    """
    if base < 2:
        raise InvalidBase("base must be >= 2, got %d" % base)
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
        raise InvalidBase("base must be >= 2, got %d" % base)
    total = 0
    for i, digit in enumerate(digits):
        if digit.length >= base:
            raise DigitOverflow(
                "digit %d has length %d >= base %d" % (i, digit.length, base))
        total += digit.length * base ** i
    return total
