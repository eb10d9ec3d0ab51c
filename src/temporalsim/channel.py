"""Asynchronous inter-block transport.

Data rides as the spacing between events, so a link may delay a message
arbitrarily as long as the delay holds still between the message's first
and last event. The module also lays values out on one channel in the
two serial delivery modes and reads them back.
"""

from __future__ import annotations

from collections import namedtuple
from types import MappingProxyType
from typing import (Iterable, List, Mapping, Optional, Sequence, Tuple,
                    Union)

from .core import DEFAULT_CLOCK, ClockRef, DeliveryMode, PulseTrain
from .errors import GapCountMismatch, MalformedStream, StabilityError

EVENT_START = "start"
EVENT_END = "end"
EVENT_VALUE = "value-pulse"


class TimedMessage(namedtuple("TimedMessage", "events clock amplitudes")):
    """A sequence of (role, emission tick) events; one start event first.

    The payload is implicit in the spacing: the decoded value is the gap
    between the start and the final event, and any value pulses decode
    by their offset from the start. A multi-valent message also carries
    one amplitude per value pulse; every other message leaves
    `amplitudes` empty.
    """

    __slots__ = ()

    def __new__(cls, events: Sequence[Tuple[str, int]],
                clock: ClockRef = DEFAULT_CLOCK,
                amplitudes: Sequence[int] = ()):
        events = tuple((str(r), int(t)) for r, t in events)
        if not events or events[0][0] != EVENT_START:
            raise ValueError("message must open with a start event")
        ticks = [t for _, t in events]
        if any(b < a for a, b in zip(ticks, ticks[1:])):
            raise ValueError("events must be in non-decreasing order")
        if amplitudes:
            amplitudes = tuple(int(a) for a in amplitudes)
            pulses = sum(1 for r, _t in events if r == EVENT_VALUE)
            if len(amplitudes) != pulses or min(amplitudes) < 1:
                raise ValueError("need one amplitude >= 1 per value pulse")
        return tuple.__new__(cls, (events, clock, amplitudes))

    @classmethod
    def _trusted(cls, events: Tuple[Tuple[str, int], ...], clock: ClockRef,
                 amplitudes: Tuple[int, ...] = ()) -> "TimedMessage":
        """A message already known to be valid, built without the
        re-check. The constructors below check only what their arguments
        can break, then build through this."""
        return tuple.__new__(cls, (events, clock, amplitudes))

    @classmethod
    def interval(cls, value: int, start: int = 0,
                 clock: ClockRef = DEFAULT_CLOCK) -> "TimedMessage":
        start, end = int(start), int(start + value)
        if end < start:
            raise ValueError("events must be in non-decreasing order")
        return cls._trusted(((EVENT_START, start), (EVENT_END, end)), clock)

    @classmethod
    def multiplexed(cls, values: Iterable[int], start: int = 0,
                    clock: ClockRef = DEFAULT_CLOCK) -> "TimedMessage":
        """A value set as one value pulse per member after the start."""
        return cls._trusted(_pulses(start, sorted(values)), clock)

    @classmethod
    def multivalent(cls, items: Iterable[Tuple[int, int]], start: int = 0,
                    clock: ClockRef = DEFAULT_CLOCK) -> "TimedMessage":
        """(position, amplitude) buckets as amplitude-carrying pulses."""
        items = sorted(items)
        events = _pulses(start, [p for p, _a in items])
        amps = tuple(int(a) for _p, a in items)
        if amps and min(amps) < 1:
            raise ValueError("need one amplitude >= 1 per value pulse")
        return cls._trusted(events, clock, amps)

    @property
    def kind(self) -> str:
        """scalar (start/end interval), mux (value set) or mv."""
        if self.amplitudes:
            return "mv"
        return "mux" if self.events[-1][0] == EVENT_VALUE else "scalar"

    @property
    def start_tick(self) -> int:
        return self.events[0][1]

    @property
    def last_tick(self) -> int:
        return self.events[-1][1]

    def decode(self) -> int:
        """Interval length from start to the final event."""
        return self.last_tick - self.start_tick

    def value_offsets(self) -> Tuple[int, ...]:
        """Value-pulse positions relative to the start marker."""
        start = self.start_tick
        return tuple(t - start for r, t in self.events if r == EVENT_VALUE)

    def decoded(self):
        """The payload: an int, a value set, or a position->amplitude map."""
        kind = self.kind
        if kind == "scalar":
            return self.decode()
        if kind == "mux":
            return set(self.value_offsets())
        return dict(zip(self.value_offsets(), self.amplitudes))


def _pulses(start: int, offsets) -> Tuple[Tuple[str, int], ...]:
    """A start event, then one value pulse per sorted offset."""
    ticks = [int(start + v) for v in offsets]
    start = int(start)
    if ticks and ticks[0] < start:
        raise ValueError("events must be in non-decreasing order")
    return ((EVENT_START, start),) + tuple((EVENT_VALUE, t) for t in ticks)


class Link(namedtuple("Link", "default table")):
    """A one-way path: an event emitted at tick t arrives `table[t]` ticks
    later, or `default` ticks where the table does not list t. The table
    is a read-only copy, so links compare and hash by value."""

    __slots__ = ()

    def __new__(cls, default: int, table: Mapping[int, int]):
        if default < 0 or any(d < 0 for d in table.values()):
            raise ValueError("link delays must be non-negative")
        return tuple.__new__(cls, (default, MappingProxyType(dict(table))))

    def __hash__(self):
        return hash((self.default, frozenset(self.table.items())))

    def delay(self, t: int) -> int:
        return self.table.get(t, self.default)

    @classmethod
    def constant(cls, delay: int) -> "Link":
        if delay < 0:
            raise ValueError("link delay must be non-negative")
        return cls(delay, {})

    @classmethod
    def from_table(cls, table: Mapping[int, int], default: int = 0) -> "Link":
        return cls(default, table)


class StabilityViolation(namedtuple("StabilityViolation",
                                   "original distorted_events")):
    """Diagnosis of a link whose delay changed inside the data interval.

    Not an exception: the distorted events and the induced value error
    are reported so callers can decide what to do with the corruption.
    The distorted events keep their emission (role) order, which may no
    longer match arrival order; the distorted value may even be negative
    when the final event overtakes the start marker.
    """

    __slots__ = ()

    @property
    def distorted_value(self) -> int:
        return self.distorted_events[-1][1] - self.distorted_events[0][1]

    @property
    def value_error(self) -> int:
        return self.distorted_value - self.original.decode()


def transmit_checked(msg: TimedMessage,
                     link: Link) -> Union[TimedMessage, StabilityViolation]:
    """Send a message, diagnosing in-span delay instability.

    The delay only has to hold still between this message's first and
    last event; drift outside that span (or between messages) is legal.
    """
    table, delay = link.table, link.default
    if table:
        delays = [table.get(t, delay) for _, t in msg.events]
        delay = delays[0]
        if any(d != delay for d in delays):
            return StabilityViolation(msg, tuple(
                (r, t + d) for (r, t), d in zip(msg.events, delays)))
    if delay == 0:
        return msg
    # A uniform shift keeps a valid message valid.
    return TimedMessage._trusted(tuple((r, t + delay) for r, t in msg.events),
                                 msg.clock, msg.amplitudes)


def transmit(msg: TimedMessage, link: Link) -> TimedMessage:
    """Send a message over a link that is stable across the message span.

    The decoded value is latency-invariant: every event shifts by the
    same delay, so the spacing (and hence the data) survives any route.
    """
    out = transmit_checked(msg, link)
    if isinstance(out, StabilityViolation):
        raise StabilityError(
            "link delay varies inside the message span "
            "(value error %+d)" % out.value_error)
    return out


# ---------------------------------------------------------------------------
# Delivery-mode serialization


def serialize_stream(values: Sequence[int], mode: DeliveryMode,
                     gaps: Optional[Sequence[int]] = None,
                     clock: ClockRef = DEFAULT_CLOCK) -> PulseTrain:
    """Lay out values on one channel in a serial delivery mode.

    Serial: zero idle time, interior pulses double as end-of-one and
    start-of-next delimiters (which is why concatenation adds). Serial
    discontinuous: each value keeps its own delimiters, separated by
    caller-specified idle gaps. Values must be >= 1 in both modes; a
    zero-length code collapses to a single pulse and cannot be parsed
    back unambiguously.
    """
    if any(v < 1 for v in values):
        raise MalformedStream("stream values must be >= 1")
    if mode is DeliveryMode.SERIAL:
        if gaps:
            raise GapCountMismatch("serial mode takes no gaps")
        pulses = [0]
        for v in values:
            pulses.append(pulses[-1] + v)
        return PulseTrain(tuple(pulses), clock)
    if mode is DeliveryMode.SERIAL_DISCONTINUOUS:
        gaps = list(gaps or [])
        boundaries = max(len(values) - 1, 0)
        if len(gaps) != boundaries:
            raise GapCountMismatch(
                "need %d gaps for %d values, got %d"
                % (boundaries, len(values), len(gaps)))
        if any(g < 1 for g in gaps):
            raise MalformedStream("idle gaps must be >= 1")
        pulses = []
        cursor = 0
        for i, v in enumerate(values):
            pulses.extend((cursor, cursor + v))
            cursor += v
            if i < boundaries:
                cursor += gaps[i]
        return PulseTrain(tuple(pulses) if pulses else (0,), clock)
    raise ValueError("not a serial delivery mode: %r" % (mode,))


def parse_stream(t: PulseTrain, mode: DeliveryMode) -> List[int]:
    """Read a serial channel back into its value sequence (right inverse
    of serialize_stream for the same mode)."""
    pulses = t.pulses
    if mode is DeliveryMode.SERIAL:
        if not pulses or pulses[0] != 0:
            raise MalformedStream("serial stream must start at tick 0")
        return [b - a for a, b in zip(pulses, pulses[1:])]
    if mode is DeliveryMode.SERIAL_DISCONTINUOUS:
        if pulses == (0,):
            return []
        if len(pulses) % 2 != 0:
            raise MalformedStream(
                "discontinuous stream needs paired delimiters")
        return [pulses[i + 1] - pulses[i] for i in range(0, len(pulses), 2)]
    raise ValueError("not a serial delivery mode: %r" % (mode,))
