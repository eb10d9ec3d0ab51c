"""Asynchronous inter-block transport of `TimedMessage`s.

Data rides as the spacing between events, so a link may delay a message
arbitrarily as long as the delay holds still between the message's first
and last event.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from types import MappingProxyType

from .core import TimedMessage, _span

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
