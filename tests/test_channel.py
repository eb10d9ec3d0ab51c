"""Latency-invariant transport, stability checking, reference
negotiation, and delivery-mode (de)serialization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from temporalsim import (
    ClockRef,
    DeliveryMode,
    Link,
    PulseTrain,
    StabilityViolation,
    TimedMessage,
    deliver_parallel,
    measure_parallel,
    negotiate_reference,
    parse_stream,
    serialize_stream,
    transmit,
    transmit_checked,
)
from temporalsim.errors import (
    GapCountMismatch,
    MalformedStream,
    OffsetCountMismatch,
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


class TestNegotiateReference:
    def test_shared_reference(self):
        f = ClockRef("f", Fraction(4))
        assert negotiate_reference(f, f) == 1

    def test_triple(self):
        f = ClockRef("f", Fraction(2))
        f3 = ClockRef("f3", Fraction(6))
        assert negotiate_reference(f, f3) == 3

    def test_rational_reduction(self):
        a = ClockRef("a", Fraction(6))
        b = ClockRef("b", Fraction(4))
        assert negotiate_reference(a, b) == Fraction(2, 3)


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


class TestParallelDelivery:
    def test_synchronous_lanes_share_origin(self):
        lanes = deliver_parallel([5, 7], DeliveryMode.PARALLEL_SYNCHRONOUS)
        assert [(l.start, l.end) for l in lanes] == [(0, 5), (0, 7)]

    def test_asynchronous_offsets(self):
        lanes = deliver_parallel([5, 7], DeliveryMode.PARALLEL_ASYNCHRONOUS,
                                 offsets=[2, 0])
        assert [(l.start, l.end) for l in lanes] == [(2, 7), (0, 7)]

    def test_empty(self):
        assert deliver_parallel([], DeliveryMode.PARALLEL_SYNCHRONOUS) == []

    def test_offset_count_mismatch(self):
        with pytest.raises(OffsetCountMismatch):
            deliver_parallel([1, 2], DeliveryMode.PARALLEL_ASYNCHRONOUS,
                             offsets=[0])
        with pytest.raises(OffsetCountMismatch):
            deliver_parallel([1], DeliveryMode.PARALLEL_SYNCHRONOUS,
                             offsets=[3])

    @given(st.lists(st.integers(0, 10 ** 4), max_size=16), st.data())
    def test_measure_inverts_both_modes(self, values, data):
        sync = deliver_parallel(values, DeliveryMode.PARALLEL_SYNCHRONOUS)
        assert measure_parallel(sync) == values
        offsets = data.draw(st.lists(st.integers(0, 100),
                                     min_size=len(values),
                                     max_size=len(values)))
        asyn = deliver_parallel(values, DeliveryMode.PARALLEL_ASYNCHRONOUS,
                                offsets=offsets)
        assert measure_parallel(asyn) == values
