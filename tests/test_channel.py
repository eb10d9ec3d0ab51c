"""Latency-invariant transport, stability checking, exchange rates
between references, and serial delivery-mode (de)serialization."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from temporalsim import (
    ClockRef,
    DeliveryMode,
    Link,
    PulseTrain,
    StabilityViolation,
    TimedMessage,
    parse_stream,
    serialize_stream,
    transmit,
    transmit_checked,
)
from temporalsim.errors import (
    GapCountMismatch,
    MalformedStream,
    StabilityError,
)


class TestTransmit:
    def test_uniform_shift_preserves_value(self):
        msg = TimedMessage.interval(7)
        out = transmit(msg, Link.constant(13))
        assert out.events == (("start", 13), ("end", 20))
        assert out.decode() == 7

    def test_zero_latency_identity(self):
        msg = TimedMessage.interval(7)
        assert transmit(msg, Link.constant(0)) == msg

    def test_random_constant_links_preserve_decode(self):
        rng = random.Random(301)
        for _ in range(10 ** 3):
            msg = TimedMessage.interval(rng.randint(0, 10 ** 4),
                                        start=rng.randint(0, 100))
            out = transmit(msg, Link.constant(rng.randint(0, 10 ** 3)))
            assert out.decode() == msg.decode()

    def test_route_independence(self):
        msg = TimedMessage.interval(42)
        a = transmit(msg, Link.constant(5))
        b = transmit(msg, Link.constant(900))
        assert a.decode() == b.decode()
        assert a.start_tick != b.start_tick

    def test_unstable_link_raises(self):
        link = Link.from_table({0: 5, 7: 8})
        with pytest.raises(StabilityError):
            transmit(TimedMessage.interval(7), link)


class TestTransmitChecked:
    def test_in_span_change_is_diagnosed(self):
        # delay 5 at the start event, 8 at the end event
        link = Link.from_table({0: 5, 7: 8})
        out = transmit_checked(TimedMessage.interval(7), link)
        assert isinstance(out, StabilityViolation)
        assert out.distorted_value == 10
        assert out.value_error == 3
        assert out.distorted_events == (("start", 5), ("end", 15))

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
        assert out.decode() == 7


CLOCKS = st.sampled_from((ClockRef("main", Fraction(1)),
                          ClockRef("fast", Fraction(4)),
                          ClockRef("slow", Fraction(1, 3))))
TICKS = st.integers(0, 10 ** 6)
MESSAGES = st.one_of(
    st.builds(TimedMessage.interval, TICKS, TICKS, CLOCKS),
    st.builds(TimedMessage.multiplexed, st.sets(TICKS, max_size=6), TICKS,
              CLOCKS),
    st.builds(TimedMessage.multivalent,
              st.dictionaries(TICKS, st.integers(1, 10 ** 6), min_size=1,
                              max_size=6).map(dict.items), TICKS, CLOCKS))


class TestConstantLinks:
    @given(MESSAGES, st.integers(0, 10 ** 6))
    @example(TimedMessage.interval(7, 2), 0)
    @example(TimedMessage.multiplexed({5, 7}), 0)
    @example(TimedMessage.multivalent([(2, 3), (3, 4)]), 0)
    def test_recorded_delay_matches_the_delay_function(self, msg, d):
        fast = transmit_checked(msg, Link.constant(d))
        slow = transmit_checked(msg, Link(lambda _t: d))
        assert isinstance(fast, TimedMessage)
        assert fast.events == slow.events
        assert fast.events == tuple((r, t + d) for r, t in msg.events)
        assert (fast.clock, fast.amplitudes) == (slow.clock, slow.amplitudes)
        assert fast.kind == slow.kind == msg.kind
        assert fast.decoded() == slow.decoded() == msg.decoded()

    def test_zero_delay_delivers_the_message_itself(self):
        msg = TimedMessage.interval(7)
        assert transmit_checked(msg, Link.constant(0)) is msg
        assert transmit_checked(msg, Link(lambda _t: 0)) is msg

    def test_only_constant_links_record_their_delay(self):
        assert Link.constant(3).fixed == 3
        assert Link(lambda _t: 3).fixed is None
        assert Link.from_table({}, default=3).fixed is None


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
    """Each constructor checks only what its arguments can break; it
    accepts and rejects exactly what the full check does."""

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
    def test_shared_reference(self):
        f = ClockRef("f", Fraction(4))
        assert f.ratio_to(f) == 1

    def test_triple(self):
        f = ClockRef("f", Fraction(2))
        f3 = ClockRef("f3", Fraction(6))
        assert f3.ratio_to(f) == 3

    def test_rational_reduction(self):
        a = ClockRef("a", Fraction(6))
        b = ClockRef("b", Fraction(4))
        assert b.ratio_to(a) == Fraction(2, 3)


class TestSerialStreams:
    def test_serial_concatenation_adds(self):
        t = serialize_stream([3, 4], DeliveryMode.SERIAL)
        assert t.pulses == (0, 3, 7)
        assert parse_stream(t, DeliveryMode.SERIAL) == [3, 4]
        assert t.pulses[-1] == 7  # last pulse reads off the sum

    def test_empty_serial(self):
        t = serialize_stream([], DeliveryMode.SERIAL)
        assert t.pulses == (0,)
        assert parse_stream(t, DeliveryMode.SERIAL) == []

    def test_discontinuous_offsets(self):
        t = serialize_stream([5, 2], DeliveryMode.SERIAL_DISCONTINUOUS,
                             gaps=[4])
        assert t.pulses == (0, 5, 9, 11)
        assert parse_stream(t, DeliveryMode.SERIAL_DISCONTINUOUS) == [5, 2]

    def test_gap_count_mismatch(self):
        with pytest.raises(GapCountMismatch):
            serialize_stream([5, 2], DeliveryMode.SERIAL_DISCONTINUOUS,
                             gaps=[4, 4])
        with pytest.raises(GapCountMismatch):
            serialize_stream([1, 2], DeliveryMode.SERIAL, gaps=[1])

    def test_zero_values_rejected(self):
        with pytest.raises(MalformedStream):
            serialize_stream([3, 0], DeliveryMode.SERIAL)

    def test_malformed_streams(self):
        with pytest.raises(MalformedStream):
            parse_stream(PulseTrain((1, 4)), DeliveryMode.SERIAL)
        with pytest.raises(MalformedStream):
            parse_stream(PulseTrain((0, 2, 5)),
                         DeliveryMode.SERIAL_DISCONTINUOUS)

    def test_round_trip_random_streams(self):
        rng = random.Random(303)
        for _ in range(10 ** 3):
            values = [rng.randint(1, 100)
                      for _ in range(rng.randint(0, 10))]
            serial = serialize_stream(values, DeliveryMode.SERIAL)
            assert parse_stream(serial, DeliveryMode.SERIAL) == values
            gaps = [rng.randint(1, 20) for _ in range(max(len(values) - 1, 0))]
            disc = serialize_stream(values,
                                    DeliveryMode.SERIAL_DISCONTINUOUS, gaps)
            assert parse_stream(
                disc, DeliveryMode.SERIAL_DISCONTINUOUS) == values
