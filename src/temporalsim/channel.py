"""Asynchronous inter-block transport.

Data rides as the spacing between events, so a link may delay a message
arbitrarily as long as the delay holds still between the message's first
and last event.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from types import MappingProxyType

from .core import DEFAULT_CLOCK, ClockRef

EVENT_START = "start"
EVENT_END = "end"
EVENT_VALUE = "value-pulse"

# The sorts of message `TimedMessage.decoded` tells apart: a start/end
# interval, a value set, a multi-valent train.
SCALAR, MUX, MV = "scalar", "mux", "mv"


class TimedMessage(namedtuple("TimedMessage", "events clock amplitudes")):
    """A sequence of (role, emission tick) events; one start event first.

    The payload is implicit in the spacing: the decoded value is the gap
    between the start and the final event, and any value pulses decode
    by their offset from the start. A multi-valent message also carries
    one amplitude per value pulse; every other message leaves
    `amplitudes` empty. A value set, a message without amplitudes whose
    last event is a value pulse, has distinct pulses after its start.
    """

    __slots__ = ()

    def __new__(cls, events: Sequence[tuple[str, int]],
                clock: ClockRef = DEFAULT_CLOCK,
                amplitudes: Sequence[int] = ()):
        events = tuple((str(r), int(t)) for r, t in events)
        if not events or events[0][0] != EVENT_START:
            raise ValueError("message must open with a start event")
        ticks = [t for _, t in events]
        if any(b < a for a, b in zip(ticks, ticks[1:])):
            raise ValueError("events must be in non-decreasing order")
        amplitudes = tuple(int(a) for a in amplitudes)
        pulses = [t for r, t in events if r == EVENT_VALUE]
        if amplitudes:
            if len(amplitudes) != len(pulses) or min(amplitudes) < 1:
                raise ValueError("need one amplitude >= 1 per value pulse")
        elif events[-1][0] == EVENT_VALUE:
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
        otherwise the span from its start to its final event. Amplitudes
        at a repeated position sum, as `mv_merge` sums them."""
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


def _pulses(start: int, offsets) -> tuple[tuple[str, int], ...]:
    """A start event, then one value pulse per sorted offset."""
    return ((EVENT_START, start),) + tuple((EVENT_VALUE, start + v)
                                           for v in offsets)


# Read-only, so every constant link shares it.
_EMPTY = MappingProxyType({})


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

    @classmethod
    def constant(cls, delay: int) -> "Link":
        if delay < 0:
            raise ValueError("link delay must be non-negative")
        # Unchecked: the delay was checked above, and the table is empty.
        return tuple.__new__(cls, (delay, _EMPTY))

    @classmethod
    def from_table(cls, table: Mapping[int, int], default: int = 0) -> "Link":
        return cls(default, table)


class StabilityViolation(namedtuple("StabilityViolation",
                                   "original distorted_events")):
    """Diagnosis of a link whose delay changed inside the data interval.

    Not an exception: the distorted events and the induced value error
    are reported so callers can decide what to do with the corruption.
    The distorted events keep their emission (role) order, which may no
    longer match arrival order; the distorted span may even be negative
    when the final event overtakes the start marker.
    """

    __slots__ = ()

    @property
    def value_error(self) -> int:
        """The distorted span, first to final event, minus the original's."""
        return _span(self.distorted_events) - _span(self.original.events)


def transmit_checked(msg: TimedMessage,
                     link: Link) -> TimedMessage | StabilityViolation:
    """Send a message, diagnosing in-span delay instability.

    The delay only has to hold still between this message's first and
    last event; drift outside that span (or between messages) is legal.
    A stable send shifts every event by one delay, so the spacing, and
    hence the data, survives any route.
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
    return tuple.__new__(TimedMessage, (
        tuple([(r, t + delay) for r, t in msg.events]), msg.clock,
        msg.amplitudes))
