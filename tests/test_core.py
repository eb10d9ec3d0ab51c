"""Codecs and interval metrology."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from temporalsim import (
    ClockRef,
    PulseTrain,
    TimedMessage,
    decode_hybrid,
    decode_pim,
    encode_hybrid,
    encode_pim,
    encode_unary,
    measure_interval,
)


class TestUnary:
    def test_value_seven(self):
        assert encode_unary(7).decoded() == 7

    def test_zero_is_empty_train(self):
        assert encode_unary(0).decoded() == 0
        assert encode_unary(0) == TimedMessage.interval(0)

    def test_large_value(self):
        assert encode_unary(10 ** 6).decoded() == 10 ** 6

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_unary(-1)

    def test_round_trip_exhaustive(self):
        for n in range(10 ** 4 + 1):
            assert encode_unary(n).decoded() == n


class TestPim:
    def test_value_seven(self):
        assert encode_pim(7).pulses == (0, 7)
        assert decode_pim(PulseTrain((0, 7))) == 7

    def test_zero_collapses_to_single_pulse(self):
        assert encode_pim(0).pulses == (0,)
        assert decode_pim(PulseTrain((0,))) == 0

    def test_five_by_convention(self):
        t = encode_pim(5)
        assert t.pulses == (0, 5)
        assert decode_pim(t) == 5

    def test_three_pulses_is_malformed(self):
        with pytest.raises(
                ValueError,
                match="^interval code needs 1 or 2 pulses, got 3$"):
            decode_pim(PulseTrain((0, 3, 9)))

    def test_nonzero_start_is_malformed(self):
        with pytest.raises(ValueError,
                           match="^interval code must start at tick 0$"):
            decode_pim(PulseTrain((1, 4)))

    def test_round_trip_exhaustive(self):
        for n in range(10 ** 4 + 1):
            assert decode_pim(encode_pim(n)) == n


class TestPulseTrain:
    def test_strict_increase_enforced(self):
        with pytest.raises(ValueError):
            PulseTrain((0, 5, 5))
        with pytest.raises(ValueError):
            PulseTrain((3, 1))

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            PulseTrain((-1, 2))


class TestMeasureInterval:
    def test_own_clock_is_exact(self):
        clk = ClockRef("f")
        assert measure_interval(encode_unary(7, clk), clk) == 7

    def test_triple_frequency_dilates(self):
        f = ClockRef("f", Fraction(2))
        f3 = ClockRef("f3", Fraction(6))
        assert measure_interval(encode_unary(5, f), f3) == 15

    def test_half_frequency_floors(self):
        # rational oracle: 5 * (1/2) = 5/2, counter completes 2 pulses
        f = ClockRef("f", Fraction(2))
        half = ClockRef("half", Fraction(1))
        assert measure_interval(encode_unary(5, f), half) == 2

    @given(st.integers(0, 10 ** 6))
    def test_unit_ratio_exact(self, length):
        clk = ClockRef("c")
        assert measure_interval(encode_unary(length, clk), clk) == length

    @given(st.integers(0, 10 ** 4), st.integers(0, 10 ** 4),
           st.fractions(min_value=Fraction(1, 97), max_value=100))
    def test_monotone_in_length(self, a, b, ratio):
        clk = ClockRef("c", Fraction(1))
        ref = ClockRef("r", ratio)
        lo, hi = sorted((a, b))
        assert (measure_interval(encode_unary(lo, clk), ref)
                <= measure_interval(encode_unary(hi, clk), ref))

    @given(st.integers(0, 10 ** 5), st.fractions(
        min_value=Fraction(1, 50), max_value=50))
    def test_matches_rational_floor(self, length, ratio):
        clk = ClockRef("c", Fraction(1))
        ref = ClockRef("r", ratio)
        expected = (length * ratio).numerator // (length * ratio).denominator
        assert measure_interval(encode_unary(length, clk), ref) == expected


class TestHybrid:
    def test_single_digit(self):
        digits = encode_hybrid(7, 10)
        assert [d.decoded() for d in digits] == [7]

    def test_two_digits_little_endian(self):
        # base-10 digit oracle: 23 = 3 + 2*10
        assert [d.decoded() for d in encode_hybrid(23, 10)] == [3, 2]

    def test_zero_single_digit(self):
        assert [d.decoded() for d in encode_hybrid(0, 2)] == [0]

    def test_decode_positional(self):
        assert decode_hybrid((encode_unary(3), encode_unary(2)), 10) == 23
        assert decode_hybrid((encode_unary(0),), 2) == 0

    def test_digit_overflow(self):
        with pytest.raises(ValueError,
                           match="^digit 0 has length 5 >= base 4$"):
            decode_hybrid((encode_unary(5),), 4)

    def test_invalid_base(self):
        with pytest.raises(ValueError, match="^base must be >= 2, got 1$"):
            encode_hybrid(7, 1)
        with pytest.raises(ValueError, match="^base must be >= 2, got 0$"):
            decode_hybrid((encode_unary(0),), 0)

    def test_no_leading_zero_digits(self):
        for n in (1, 9, 10, 100, 12345):
            digits = encode_hybrid(n, 10)
            assert digits[-1].decoded() != 0 or n == 0

    @given(st.integers(0, 10 ** 9 - 1), st.integers(2, 16))
    def test_round_trip(self, n, base):
        assert decode_hybrid(encode_hybrid(n, base), base) == n
