"""Arithmetic on temporal codes: concat add, dilation mul, races,
multiplexing, and the multi-valent dot-product sweep."""

import random

import pytest
from hypothesis import example, given, strategies as st

from temporalsim import (
    DEFAULT_CLOCK,
    ClockRef,
    IntervalValue,
    MultiValentTrain,
    PulseTrain,
    add_concat,
    decode_unary,
    demux,
    encode_pim,
    encode_unary,
    madd,
    max_race,
    min_race,
    mul_dilate,
    mux,
    mv_merge,
)
from temporalsim.errors import (
    ClockMismatch,
    DuplicateValue,
    EmptyInput,
    ModeMismatch,
    ZeroValue,
)


class TestAddConcat:
    def test_three_plus_four(self):
        assert add_concat(encode_unary(3), encode_unary(4)).length == 7

    def test_zero_identity(self):
        assert add_concat(encode_unary(0), encode_unary(9)).length == 9

    def test_clock_mismatch(self):
        with pytest.raises(ClockMismatch):
            add_concat(encode_unary(1, ClockRef("a")),
                       encode_unary(1, ClockRef("b")))

    def test_against_integer_addition(self):
        rng = random.Random(101)
        for _ in range(10 ** 3):
            a, b = rng.randint(0, 1000), rng.randint(0, 1000)
            assert add_concat(encode_unary(a), encode_unary(b)).length == a + b

    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    def test_commutative(self, a, b):
        x, y = encode_unary(a), encode_unary(b)
        assert add_concat(x, y) == add_concat(y, x)


class TestMulDilate:
    def test_five_times_three(self):
        assert mul_dilate(encode_unary(5), 3).length == 15

    def test_identity_dilation(self):
        t = encode_unary(42)
        assert mul_dilate(t, 1).length == 42

    def test_against_integer_multiplication(self):
        rng = random.Random(102)
        for _ in range(10 ** 3):
            a, k = rng.randint(0, 500), rng.randint(1, 20)
            assert mul_dilate(encode_unary(a), k).length == a * k

    def test_rejects_zero_factor(self):
        with pytest.raises(ValueError):
            mul_dilate(encode_unary(3), 0)

    @given(st.integers(0, 10 ** 3), st.integers(0, 10 ** 3),
           st.integers(1, 50))
    def test_distributes_over_add(self, a, b, k):
        lhs = mul_dilate(add_concat(encode_unary(a), encode_unary(b)), k)
        rhs = (mul_dilate(encode_unary(a), k).length
               + mul_dilate(encode_unary(b), k).length)
        assert decode_unary(lhs) == rhs


def _lanes(values, start=0):
    return [IntervalValue(start, start + v) for v in values]


class TestRaces:
    def test_first_arrival(self):
        assert min_race(_lanes([5, 7])) == 5

    def test_last_arrival(self):
        assert max_race(_lanes([5, 7])) == 7

    def test_singleton(self):
        assert min_race(_lanes([9])) == 9
        assert max_race(_lanes([9])) == 9

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            min_race([])

    def test_unshared_start_rejected(self):
        with pytest.raises(ModeMismatch):
            min_race([IntervalValue(0, 5), IntervalValue(2, 7)])

    def test_against_integer_min_max(self):
        rng = random.Random(103)
        for _ in range(10 ** 3):
            vals = [rng.randint(0, 10 ** 4)
                    for _ in range(rng.randint(1, 8))]
            assert min_race(_lanes(vals)) == min(vals)
            assert max_race(_lanes(vals)) == max(vals)


def mux_or(values, clock=DEFAULT_CLOCK):
    """Reference construction of mux: literal pulse-wise OR of the
    values' interval codes."""
    pulses = set()
    for v in values:
        pulses.update(encode_pim(v, clock).pulses)
    return PulseTrain(tuple(sorted(pulses)), clock)


def channel_train(ch):
    """The channel's pulses: the start marker at tick 0, then one pulse
    per value."""
    return PulseTrain((0,) + tuple(sorted(ch.value_pulses)), ch.clock)


class TestMux:
    def test_figure_values(self):
        assert channel_train(mux({5, 7})).pulses == (0, 5, 7)

    def test_singleton_degenerates_to_interval_code(self):
        assert channel_train(mux({9})).pulses == (0, 9)

    def test_matches_pulsewise_or(self):
        # independent construction: OR the individual interval codes
        assert channel_train(mux({3, 5, 7, 11})) == mux_or({3, 5, 7, 11})

    def test_zero_rejected(self):
        with pytest.raises(ZeroValue):
            mux({0, 3})

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateValue):
            mux([4, 4])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            mux([])

    def test_demux_inverts(self):
        assert demux(mux({5, 7})) == {5, 7}
        assert demux(mux({4})) == {4}

    def test_round_trip_random_sets(self):
        rng = random.Random(104)
        for _ in range(10 ** 3):
            size = rng.randint(1, 64)
            values = set(rng.sample(range(1, 10 ** 4 + 1), size))
            assert demux(mux(values)) == values

    @given(st.sets(st.integers(1, 10 ** 4), min_size=1, max_size=64))
    def test_order_independent(self, values):
        shuffled = sorted(values, reverse=True)
        assert mux(values) == mux(shuffled)
        assert channel_train(mux(values)) == mux_or(values)


class TestMultiValent:
    # A tuple a*b is amplitude a at position b: the bucket (b, a).
    def test_place_figure_tuples(self):
        assert MultiValentTrain(((5, 3),)).buckets == {5: 3}
        assert MultiValentTrain(((3, 4),)).buckets == {3: 4}

    def test_place_unit_at_origin(self):
        assert MultiValentTrain(((0, 1),)).buckets == {0: 1}

    def test_merge_disjoint(self):
        merged = mv_merge([MultiValentTrain(((2, 3),)),
                           MultiValentTrain(((3, 4),))])
        assert merged.buckets == {2: 3, 3: 4}

    def test_merge_empty_identity(self):
        t = MultiValentTrain(((5, 3),))
        assert mv_merge([t, MultiValentTrain()]).buckets == {5: 3}

    def test_merge_sums_duplicate_positions(self):
        merged = mv_merge([MultiValentTrain(((4, 2),)),
                           MultiValentTrain(((4, 5),))])
        assert merged.buckets == {4: 7}
        assert madd(merged) == 4 * 2 + 4 * 5  # distributivity

    def test_merge_clock_mismatch(self):
        with pytest.raises(ClockMismatch):
            mv_merge([MultiValentTrain(((1, 1),), ClockRef("a")),
                      MultiValentTrain(((1, 1),), ClockRef("b"))])

    def test_amplitude_invariants(self):
        with pytest.raises(ValueError):
            MultiValentTrain(((2, 0),))
        with pytest.raises(ValueError):
            MultiValentTrain(((-1, 2),))


def _random_train(rng):
    positions = rng.sample(range(0, 10 ** 3 + 1), rng.randint(1, 32))
    return MultiValentTrain(
        tuple((p, rng.randint(1, 255)) for p in positions))


def madd_tick_by_tick(train):
    """Reference sweep: one step per simulated tick, from the highest
    occupied position down to 1, adding the running amplitude sum."""
    buckets = train.buckets
    total = running = 0
    for tick in range(max(buckets, default=0), 0, -1):
        running += buckets.get(tick, 0)
        total += running
    return total


def _trains(max_position, max_amplitude):
    return st.dictionaries(st.integers(0, max_position),
                           st.integers(1, max_amplitude),
                           max_size=32).map(MultiValentTrain.from_buckets)


class TestMadd:
    @given(_trains(2000, 255))
    @example(MultiValentTrain())
    @example(MultiValentTrain(((0, 5),)))
    @example(MultiValentTrain(((2000, 3),)))
    @example(MultiValentTrain(((0, 2), (1, 4), (2000, 1))))
    def test_matches_tick_by_tick_sweep(self, train):
        dot = sum(p * a for p, a in train.items)
        assert madd(train) == madd_tick_by_tick(train) == dot

    @given(_trains(10 ** 18, 10 ** 18))
    def test_far_positions_match_dot_product(self, train):
        assert madd(train) == sum(p * a for p, a in train.items)

    def test_dot_product_figure(self):
        assert madd(MultiValentTrain(((2, 3), (3, 4)))) == 18

    def test_single_tuple(self):
        assert madd(MultiValentTrain(((5, 3),))) == 15

    def test_empty_train(self):
        assert madd(MultiValentTrain()) == 0

    def test_against_dot_product_oracle(self):
        rng = random.Random(105)
        for _ in range(10 ** 3):
            train = _random_train(rng)
            assert madd(train) == sum(p * a for p, a in train.items)

    def test_merge_preserves_dot_product(self):
        rng = random.Random(106)
        for _ in range(10 ** 3):
            a, b = _random_train(rng), _random_train(rng)
            assert madd(mv_merge([a, b])) == madd(a) + madd(b)
