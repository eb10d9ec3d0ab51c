"""Time references, the timed message, and integer <-> temporal codecs.

A value is carried as the span of a time interval, counted in pulses of
a reference clock: a `TimedMessage` of start and end events, the one
type that carries every sort of value. Everything here is an immutable
value type plus pure functions; nothing touches global state.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
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


EVENT_START = "start"
EVENT_END = "end"
EVENT_VALUE = "value-pulse"

# The sorts of message `TimedMessage.decoded` tells apart: a start/end
# interval, a value set, a multi-valent train.
SCALAR, MUX, MV = "scalar", "mux", "mv"


class TimedMessage(namedtuple("TimedMessage", "events clock amplitudes")):
    """A sequence of (role, emission tick) events: a start event, then
    either one end event (a scalar) or one or more value pulses (a value
    set, or a multi-valent message when each pulse has one amplitude).

    The payload is implicit in the spacing: a scalar decodes to the gap
    between its start and end, and value pulses decode by their offset
    from the start. Only a multi-valent message has `amplitudes`; every
    other message leaves it empty. A value set holds what `mux` sends:
    distinct pulses after its start.
    """

    __slots__ = ()

    def __new__(cls, events: Sequence[tuple[str, int]],
                clock: ClockRef = DEFAULT_CLOCK,
                amplitudes: Sequence[int] = ()):
        events = tuple((r, t) for r, t in events)
        if not events or events[0][0] != EVENT_START:
            raise ValueError("message must open with a start event")
        ticks = [t for _r, t in events]
        if not all(isinstance(t, int) for t in ticks):
            raise ValueError("event ticks must be integers")
        if any(b < a for a, b in zip(ticks, ticks[1:])):
            raise ValueError("events must be in non-decreasing order")
        roles = [r for r, _t in events[1:]]
        if roles == [EVENT_END]:
            pulses = []
        elif roles and roles.count(EVENT_VALUE) == len(roles):
            pulses = ticks[1:]
        else:
            raise ValueError(
                "a start must be followed by one end or by value pulses")
        amplitudes = tuple(int(a) for a in amplitudes)
        if amplitudes:
            if len(amplitudes) != len(pulses) or min(amplitudes) < 1:
                raise ValueError("need one amplitude >= 1 per value pulse")
        elif pulses:
            # A value set holds only what `mux` sends; refused in its texts.
            if len(set(pulses)) != len(pulses):
                raise ValueError("mux requires duplicate-free values")
            if pulses[0] == ticks[0]:
                raise ValueError("0 collides with the start marker")
        return tuple.__new__(cls, (events, clock, amplitudes))

    @classmethod
    def interval(cls, value: int, start: int = 0,
                 clock: ClockRef = DEFAULT_CLOCK) -> "TimedMessage":
        return cls(((EVENT_START, start), (EVENT_END, start + value)), clock)

    @classmethod
    def multiplexed(cls, values: Iterable[int], start: int = 0,
                    clock: ClockRef = DEFAULT_CLOCK) -> "TimedMessage":
        """A value set as one value pulse per member after the start."""
        return cls(_pulses(start, sorted(values)), clock)

    @classmethod
    def multivalent(cls, items: Iterable[tuple[int, int]], start: int = 0,
                    clock: ClockRef = DEFAULT_CLOCK) -> "TimedMessage":
        """(position, amplitude) buckets as amplitude-carrying pulses."""
        items = sorted(items)
        return cls(_pulses(start, [p for p, _a in items]), clock,
                   [a for _p, a in items])

    def decoded(self):
        """The payload: a position->amplitude map when the message carries
        amplitudes, a value set when its last event is a value pulse, and
        otherwise the span from its start to its end. Amplitudes at a
        repeated position sum, as `mv_merge` sums them."""
        events = self.events
        if self.amplitudes:
            buckets: dict[int, int] = {}
            for pos, amp in zip(_offsets(events), self.amplitudes):
                buckets[pos] = buckets.get(pos, 0) + amp
            return buckets
        if events[-1][0] == EVENT_VALUE:
            return set(_offsets(events))
        return _span(events)


def _span(events) -> int:
    """The final event's tick minus the start event's."""
    return events[-1][1] - events[0][1]


def _offsets(events) -> list[int]:
    """Each value pulse's tick minus the start event's."""
    start = events[0][1]
    return [tick - start for role, tick in events if role == EVENT_VALUE]


def _interval(value: int, start: int, clock: ClockRef) -> TimedMessage:
    """The interval message `TimedMessage.interval` builds, unchecked: for
    a derived count `value` >= 0 and a checked start and clock."""
    return tuple.__new__(TimedMessage, (
        ((EVENT_START, start), (EVENT_END, start + value)), clock, ()))


def _pulses(start: int, offsets) -> tuple[tuple[str, int], ...]:
    """A start event, then one value pulse per sorted offset."""
    return ((EVENT_START, start),) + tuple((EVENT_VALUE, start + v)
                                           for v in offsets)


# ---------------------------------------------------------------------------
# Codecs


def encode_unary(n: int, clock: ClockRef = DEFAULT_CLOCK) -> TimedMessage:
    """Encode n as an interval of n ticks from tick 0."""
    if n < 0:
        raise ValueError("cannot encode negative value in unary")
    return TimedMessage.interval(n, 0, clock)


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


def measure_interval(x: TimedMessage, ref: ClockRef) -> int:
    """Count whole reference pulses falling inside the message's span.

    Exact when ref is the message's own clock; otherwise floor of the
    rational rescaling (a counter only completes whole pulses).
    """
    return _rescale(_span(x.events), x.clock, ref)


def _rescale(count: int, src: ClockRef, dst: ClockRef) -> int:
    """floor(count * f_dst / f_src): a count of `src` pulses in `dst`'s."""
    dst_f, src_f = dst.frequency, src.frequency
    return (count * dst_f.numerator * src_f.denominator
            // (dst_f.denominator * src_f.numerator))


def encode_hybrid(n: int, base: int,
                  clock: ClockRef = DEFAULT_CLOCK) -> tuple[TimedMessage, ...]:
    """Positional digits, little-endian, each digit an interval from tick 0.

    Trades the log-scaling of positional codes against the arithmetic
    simplicity of unary digits (cf. binary-coded decimal).
    """
    if base < 2:
        raise ValueError("base must be >= 2, got %d" % base)
    if n < 0:
        raise ValueError("cannot encode negative value")
    digits = [TimedMessage.interval(n % base, 0, clock)]
    n //= base
    while n:
        digits.append(TimedMessage.interval(n % base, 0, clock))
        n //= base
    return tuple(digits)


def decode_hybrid(digits: Sequence[TimedMessage], base: int) -> int:
    """Inverse of encode_hybrid: sum of digit * base**index."""
    if base < 2:
        raise ValueError("base must be >= 2, got %d" % base)
    total = 0
    for i, digit in enumerate(digits):
        length = digit.decoded()
        if not isinstance(length, int):
            raise ValueError("digit %d is not an interval" % i)
        if length >= base:
            raise ValueError(
                "digit %d has length %d >= base %d" % (i, length, base))
        total += length * base ** i
    return total
