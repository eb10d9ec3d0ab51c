"""Latency-invariant transport, stability checking, message
constructors and exchange rates between references."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from temporalsim import (
    ClockRef,
    Link,
    StabilityViolation,
    TimedMessage,
    convert_reference,
    transmit_checked,
)


class TestTransmit:
    def test_uniform_shift_preserves_value(self):
        msg = TimedMessage.interval(7)
        out = transmit_checked(msg, Link.constant(13))
        assert out.events == (("start", 13), ("end", 20))
        assert out.decoded() == 7

    def test_zero_latency_identity(self):
        msg = TimedMessage.interval(7)
        assert transmit_checked(msg, Link.constant(0)) == msg

    def test_random_constant_links_preserve_decode(self):
        rng = random.Random(301)
        for _ in range(10 ** 3):
            msg = TimedMessage.interval(rng.randint(0, 10 ** 4),
                                        start=rng.randint(0, 100))
            out = transmit_checked(msg,
                                   Link.constant(rng.randint(0, 10 ** 3)))
            assert out.decoded() == msg.decoded()

    def test_route_independence(self):
        msg = TimedMessage.interval(42)
        a = transmit_checked(msg, Link.constant(5))
        b = transmit_checked(msg, Link.constant(900))
        assert a.decoded() == b.decoded()
        assert a.events[0][1] != b.events[0][1]


class TestTransmitChecked:
    def test_in_span_change_is_diagnosed(self):
        # delay 5 at the start event, 8 at the end event
        link = Link.from_table({0: 5, 7: 8})
        out = transmit_checked(TimedMessage.interval(7), link)
        assert isinstance(out, StabilityViolation)
        assert out.value_error == 3
        assert out.distorted_events == (("start", 5), ("end", 15))

    def test_an_end_delayed_less_shortens_the_value(self):
        # delay 8 at the start event, 5 at the end event
        out = transmit_checked(TimedMessage.interval(7),
                               Link.from_table({0: 8, 7: 5}))
        assert isinstance(out, StabilityViolation)
        assert out.value_error == -3

    def test_constant_links_never_violate(self):
        rng = random.Random(302)
        for _ in range(10 ** 3):
            msg = TimedMessage.interval(rng.randint(0, 10 ** 3))
            out = transmit_checked(msg, Link.constant(rng.randint(0, 50)))
            assert isinstance(out, TimedMessage)

    def test_out_of_span_jitter_is_legal(self):
        # table varies elsewhere, but both event ticks see delay 4
        link = Link.from_table({0: 4, 7: 4, 3: 99}, default=4)
        out = transmit_checked(TimedMessage.interval(7), link)
        assert isinstance(out, TimedMessage)
        assert out.decoded() == 7


class TestValueSets:
    """A message without amplitudes whose last event is a value pulse is
    a value set: it holds what `mux` sends, and the constructor refuses
    the rest in `mux`'s texts. A multi-valent message may repeat a
    position, or use the start tick: `mv_merge` sums coinciding pulses."""

    @pytest.mark.parametrize("ticks, text", [
        ((4, 9), "0 collides with the start marker"),
        ((6, 6), "mux requires duplicate-free values"),
        ((5, 9, 9), "mux requires duplicate-free values"),
        ((4, 4), "mux requires duplicate-free values"),
    ], ids=["on-start", "repeated", "repeated-last", "repeated-on-start"])
    def test_refused_as_a_value_set_but_not_as_multivalent(self, ticks,
                                                             text):
        events = (("start", 4),) + tuple(("value-pulse", t) for t in ticks)
        with pytest.raises(ValueError) as err:
            TimedMessage(events)
        assert str(err.value) == text
        amplitudes = tuple(range(1, len(ticks) + 1))
        msg = TimedMessage(events, amplitudes=amplitudes)
        assert (msg.events, msg.amplitudes) == (events, amplitudes)


CLOCKS = st.sampled_from((ClockRef("main", Fraction(1)),
                          ClockRef("fast", Fraction(4)),
                          ClockRef("slow", Fraction(1, 3))))
TICKS = st.integers(0, 10 ** 6)
MESSAGES = st.one_of(
    st.builds(TimedMessage.interval, TICKS, TICKS, CLOCKS),
    # A value set's members are positive, as `mux` sends them.
    st.builds(TimedMessage.multiplexed,
              st.sets(st.integers(1, 10 ** 6), max_size=6), TICKS, CLOCKS),
    st.builds(TimedMessage.multivalent,
              st.dictionaries(TICKS, st.integers(1, 10 ** 6), min_size=1,
                              max_size=6).map(dict.items), TICKS, CLOCKS))


class TestConstantLinks:
    @given(MESSAGES, st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    @example(TimedMessage.interval(7, 2), 0, 1)
    @example(TimedMessage.multiplexed({5, 7}), 0, 0)
    @example(TimedMessage.multivalent([(2, 3), (3, 4)]), 0, 5)
    def test_uniform_shift_matches_the_per_event_lookups(self, msg, d, d2):
        # A table listing every event tick takes the per-event path, with
        # a delay that holds still across the message.
        table = Link.from_table({t: d for _r, t in msg.events}, default=d2)
        fast = transmit_checked(msg, Link.constant(d))
        slow = transmit_checked(msg, table)
        assert isinstance(fast, TimedMessage)
        assert fast.events == slow.events
        assert fast.events == tuple((r, t + d) for r, t in msg.events)
        assert (fast.clock, fast.amplitudes) == (slow.clock, slow.amplitudes)
        assert type(fast.decoded()) is type(slow.decoded()) is \
            type(msg.decoded())
        assert fast.decoded() == slow.decoded() == msg.decoded()

    def test_zero_delay_delivers_the_message_itself(self):
        msg = TimedMessage.interval(7)
        assert transmit_checked(msg, Link.constant(0)) is msg
        assert transmit_checked(msg, Link.from_table({0: 0, 7: 0}, 3)) is msg

    def test_links_are_values(self):
        assert Link.constant(3) == Link.from_table({}, default=3)
        assert hash(Link.constant(3)) == hash(Link.from_table({}, 3))
        assert Link.from_table({0: 5}) == Link.from_table({0: 5})
        assert hash(Link.from_table({0: 5})) == hash(Link.from_table({0: 5}))
        assert Link.from_table({0: 5}) != Link.from_table({0: 6})
        assert Link.constant(3) != Link.constant(4)
        assert "default=3" in repr(Link.from_table({0: 5}, 3))
        assert "{0: 5}" in repr(Link.from_table({0: 5}, 3))
        table = {0: 5}
        link = Link.from_table(table)
        table[0] = 9
        table[7] = 1
        assert (dict(link.table), link.default) == ({0: 5}, 0)
        with pytest.raises(TypeError):
            link.table[0] = 1
        with pytest.raises(ValueError, match="delays must be non-negative"):
            Link(-1, {})


def _checked(events, clock, amplitudes=()):
    """The message a direct, fully checked TimedMessage call builds, or
    the ValueError it raises."""
    try:
        return TimedMessage(tuple(events), clock, tuple(amplitudes))
    except ValueError as exc:
        return str(exc)


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


# Rationals too: both paths floor them to int ticks the same way.
SIGNED = st.one_of(st.integers(-50, 50),
                   st.fractions(-50, 50, max_denominator=4))


class TestConstructors:
    """Each shape builder lays out its events and runs the full check; it
    accepts and rejects exactly what a direct TimedMessage call does."""

    @given(SIGNED, SIGNED)
    def test_interval(self, value, start):
        clk = ClockRef("main", Fraction(1))
        assert _outcome(lambda: TimedMessage.interval(value, start, clk)) \
            == _checked((("start", start), ("end", start + value)), clk)

    @given(st.lists(SIGNED, max_size=5), SIGNED)
    def test_multiplexed(self, values, start):
        clk = ClockRef("main", Fraction(1))
        events = [("start", start)] + [("value-pulse", start + v)
                                       for v in sorted(values)]
        assert _outcome(
            lambda: TimedMessage.multiplexed(values, start, clk)) \
            == _checked(events, clk)

    @given(st.lists(st.tuples(SIGNED, st.integers(-2, 5)), max_size=5),
           SIGNED)
    def test_multivalent(self, items, start):
        clk = ClockRef("main", Fraction(1))
        ordered = sorted(items)
        events = [("start", start)] + [("value-pulse", start + p)
                                       for p, _a in ordered]
        assert _outcome(
            lambda: TimedMessage.multivalent(items, start, clk)) \
            == _checked(events, clk, [a for _p, a in ordered])

    def test_empty_amplitudes_are_a_tuple(self):
        # A list would make the message unhashable and unequal to the same
        # message built with the default.
        msg = TimedMessage([("start", 0), ("end", 3)],
                           ClockRef("main", Fraction(1)), [])
        assert msg.amplitudes == ()
        assert msg == TimedMessage.interval(3)
        assert hash(msg) == hash(TimedMessage.interval(3))
        assert TimedMessage.multivalent([]).amplitudes == ()

    def test_bad_arguments_raise(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            TimedMessage.interval(-1)
        with pytest.raises(ValueError, match="non-decreasing"):
            TimedMessage.multiplexed([3, -1])
        with pytest.raises(ValueError, match="non-decreasing"):
            TimedMessage.multivalent([(-1, 3)])
        with pytest.raises(ValueError, match="amplitude"):
            TimedMessage.multivalent([(2, 3), (4, 0)])


class TestNegotiateReference:
    def test_rational_reduction(self):
        # 6 pulses of `a` span 4 of `b`: the exchange rate is 2/3.
        a = ClockRef("a", Fraction(6))
        b = ClockRef("b", Fraction(4))
        assert [convert_reference(v, a, b) for v in (3, 4, 9)] == [2, 2, 6]

