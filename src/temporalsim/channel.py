"""Asynchronous inter-block transport.

Data rides as the spacing between events, so a link may delay a message
arbitrarily as long as the delay holds still between the message's first
and last event. The module also lays values out on one channel in the
two serial delivery modes and reads them back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from .core import (
    DEFAULT_CLOCK,
    ClockRef,
    DeliveryMode,
    PulseTrain,
)
from .errors import (
    GapCountMismatch,
    MalformedStream,
    StabilityError,
)

EVENT_START = "start"
EVENT_END = "end"
EVENT_VALUE = "value-pulse"


@dataclass(frozen=True)
class TimedMessage:
    """A sequence of (role, emission tick) events; one start event first.

    The payload is implicit in the spacing: the decoded value is the gap
    between the start and the final event, and any value pulses decode
    by their offset from the start. A multi-valent message also carries
    one amplitude per value pulse; every other message leaves
    `amplitudes` empty.
    """

    events: Tuple[Tuple[str, int], ...]
    clock: ClockRef = DEFAULT_CLOCK
    amplitudes: Tuple[int, ...] = ()

    def __post_init__(self):
        events = tuple((str(r), int(t)) for r, t in self.events)
        if not events or events[0][0] != EVENT_START:
            raise ValueError("message must open with a start event")
        ticks = [t for _, t in events]
        if any(b < a for a, b in zip(ticks, ticks[1:])):
            raise ValueError("events must be in non-decreasing order")
        object.__setattr__(self, "events", events)
        if self.amplitudes:
            amps = tuple(int(a) for a in self.amplitudes)
            if len(amps) != len(self.value_offsets()) or min(amps) < 1:
                raise ValueError("need one amplitude >= 1 per value pulse")
            object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _trusted(cls, events: Tuple[Tuple[str, int], ...], clock: ClockRef,
                 amplitudes: Tuple[int, ...] = ()) -> "TimedMessage":
        """A message already known to be valid, built without the
        re-check. The constructors below check only what their arguments
        can break, then build through this."""
        msg = object.__new__(cls)
        object.__setattr__(msg, "events", events)
        object.__setattr__(msg, "clock", clock)
        object.__setattr__(msg, "amplitudes", amplitudes)
        return msg

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


@dataclass(frozen=True)
class Link:
    """A one-way path whose delay may depend on the emission tick.

    The delay function must be deterministic. A link made by `constant`
    also records its delay in `fixed`, so transport skips the per-event
    lookups.
    """

    delay: Callable[[int], int]
    fixed: Optional[int] = field(default=None, init=False)

    @classmethod
    def constant(cls, delay: int) -> "Link":
        if delay < 0:
            raise ValueError("link delay must be non-negative")
        link = cls(lambda _t, _d=delay: _d)
        object.__setattr__(link, "fixed", delay)
        return link

    @classmethod
    def from_table(cls, table: Dict[int, int], default: int = 0) -> "Link":
        if default < 0 or any(d < 0 for d in table.values()):
            raise ValueError("link delays must be non-negative")
        frozen = dict(table)
        return cls(lambda t: frozen.get(t, default))


@dataclass(frozen=True)
class StabilityViolation:
    """Diagnosis of a link whose delay changed inside the data interval.

    Not an exception: the distorted events and the induced value error
    are reported so callers can decide what to do with the corruption.
    The distorted events keep their emission (role) order, which may no
    longer match arrival order; the distorted value may even be negative
    when the final event overtakes the start marker.
    """

    original: TimedMessage
    distorted_events: Tuple[Tuple[str, int], ...]
    value_error: int

    @property
    def distorted_value(self) -> int:
        return self.distorted_events[-1][1] - self.distorted_events[0][1]


def transmit_checked(msg: TimedMessage,
                     link: Link) -> Union[TimedMessage, StabilityViolation]:
    """Send a message, diagnosing in-span delay instability.

    The delay only has to hold still between this message's first and
    last event; drift outside that span (or between messages) is legal.
    """
    delay = link.fixed
    if delay is None:
        delays = [link.delay(t) for _, t in msg.events]
        delay = delays[0]
        if any(d != delay for d in delays):
            shifted = tuple((r, t + d)
                            for (r, t), d in zip(msg.events, delays))
            distorted_value = shifted[-1][1] - shifted[0][1]
            return StabilityViolation(msg, shifted,
                                      distorted_value - msg.decode())
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
