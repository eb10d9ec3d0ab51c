"""Arithmetic on temporal codes: concat add, dilation mul, races,
multiplexing, and the multi-valent dot-product sweep."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from temporalsim import (
    DEFAULT_CLOCK,
    ClockRef,
    MultiValentTrain,
    PulseTrain,
    TimedMessage,
    add_concat,
    demux,
    encode_pim,
    encode_unary,
    madd,
    max_race,
    measure_interval,
    min_race,
    mul_dilate,
    mux,
    mv_merge,
)


class TestAddConcat:
    def test_three_plus_four(self):
        assert add_concat(encode_unary(3), encode_unary(4)).decoded() == 7

    def test_zero_identity(self):
        assert add_concat(encode_unary(0), encode_unary(9)).decoded() == 9

    def test_clock_mismatch(self):
        with pytest.raises(ValueError,
                           match="^cannot concatenate a with b$"):
            add_concat(encode_unary(1, ClockRef("a")),
                       encode_unary(1, ClockRef("b")))

    def test_against_integer_addition(self):
        rng = random.Random(101)
        for _ in range(10 ** 3):
            a, b = rng.randint(0, 1000), rng.randint(0, 1000)
            assert add_concat(encode_unary(a),
                              encode_unary(b)).decoded() == a + b

    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    def test_commutative(self, a, b):
        x, y = encode_unary(a), encode_unary(b)
        assert add_concat(x, y) == add_concat(y, x)

    def test_starts_when_the_later_operand_ends(self):
        x = TimedMessage.interval(3, 2)
        y = TimedMessage.interval(4, 1)
        assert add_concat(x, y) == TimedMessage.interval(7, 5)


class TestMulDilate:
    def test_five_times_three(self):
        assert mul_dilate(encode_unary(5), 3).decoded() == 15

    def test_identity_dilation(self):
        t = encode_unary(42)
        assert mul_dilate(t, 1) == TimedMessage.interval(42, 42)

    def test_against_integer_multiplication(self):
        rng = random.Random(102)
        for _ in range(10 ** 3):
            a, k = rng.randint(0, 500), rng.randint(1, 20)
            assert mul_dilate(encode_unary(a), k).decoded() == a * k

    def test_rejects_zero_factor(self):
        with pytest.raises(ValueError):
            mul_dilate(encode_unary(3), 0)

    # The reference: re-measuring the span under `scaled(k)`, the clock k
    # times faster, on any clock frequency p/q. `mul_dilate` computes the
    # count as n*k without building that clock.
    @given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6),
           st.integers(0, 10 ** 18), st.integers(1, 10 ** 6))
    @example(999983, 999979, 10 ** 18, 10 ** 6)
    @example(999983, 999979, 10 ** 18 - 1, 999983)
    @example(999979, 999983, 10 ** 18, 1)
    @example(1, 10 ** 6, 10 ** 18, 10 ** 6)
    @example(10 ** 6, 1, 10 ** 18 - 7, 3)
    def test_matches_measuring_under_the_scaled_clock(self, p, q, n, k):
        clock = ClockRef("c", Fraction(p, q))
        fast = clock.scaled(k)
        assert fast.frequency == clock.frequency * k
        x = TimedMessage.interval(n, 0, clock)
        expected = measure_interval(x, fast)
        assert mul_dilate(x, k) == TimedMessage.interval(expected, n, clock)

    @given(st.integers(0, 10 ** 3), st.integers(0, 10 ** 3),
           st.integers(1, 50))
    def test_distributes_over_add(self, a, b, k):
        lhs = mul_dilate(add_concat(encode_unary(a), encode_unary(b)), k)
        rhs = (mul_dilate(encode_unary(a), k).decoded()
               + mul_dilate(encode_unary(b), k).decoded())
        assert lhs.decoded() == rhs


def _lanes(values):
    return [encode_unary(v) for v in values]


class TestRaces:
    def test_first_arrival(self):
        assert min_race(_lanes([5, 7])) == TimedMessage.interval(5, 7)

    def test_last_arrival(self):
        assert max_race(_lanes([5, 7])) == TimedMessage.interval(7, 7)

    def test_singleton(self):
        assert min_race(_lanes([9])).decoded() == 9
        assert max_race(_lanes([9])).decoded() == 9

    def test_empty_rejected(self):
        with pytest.raises(ValueError,
                           match="^race needs at least one lane$"):
            min_race([])

    def test_lanes_with_negative_ticks(self):
        # The result starts when the last lane ends, at a negative tick.
        lanes = [TimedMessage.interval(3, -10), TimedMessage.interval(5, -9)]
        assert max_race(lanes).events == (("start", -4), ("end", 1))
        assert min_race(lanes).events == (("start", -4), ("end", -1))

    def test_equal_clocks_race_on_the_first_lanes_clock(self):
        a, b = ClockRef("f", Fraction(2)), ClockRef("f", Fraction(4, 2))
        assert a is not b
        for race, value in ((min_race, 3), (max_race, 5)):
            out = race([encode_unary(3, a), encode_unary(5, b)])
            assert out.decoded() == value
            assert out.clock is a

    def test_against_integer_min_max(self):
        rng = random.Random(103)
        for _ in range(10 ** 3):
            vals = [rng.randint(0, 10 ** 4)
                    for _ in range(rng.randint(1, 8))]
            assert min_race(_lanes(vals)).decoded() == min(vals)
            assert max_race(_lanes(vals)).decoded() == max(vals)


def mux_or(values, clock=DEFAULT_CLOCK):
    """Reference construction of mux: literal pulse-wise OR of the
    values' interval codes."""
    pulses = set()
    for v in values:
        pulses.update(encode_pim(v, clock).pulses)
    return PulseTrain(tuple(sorted(pulses)), clock)


def channel_train(msg):
    """The channel's pulses from its start: the start marker at tick 0,
    then one pulse per value."""
    start = msg.events[0][1]
    return PulseTrain(tuple(t - start for _r, t in msg.events), msg.clock)


class TestMux:
    def test_figure_values(self):
        assert channel_train(mux(_lanes([5, 7]))).pulses == (0, 5, 7)
        assert mux(_lanes([5, 7])) == TimedMessage.multiplexed({5, 7}, 7)

    def test_singleton_degenerates_to_interval_code(self):
        assert channel_train(mux(_lanes([9]))).pulses == (0, 9)

    def test_matches_pulsewise_or(self):
        # independent construction: OR the individual interval codes
        assert channel_train(mux(_lanes([3, 5, 7, 11]))) == \
            mux_or({3, 5, 7, 11})

    def test_zero_rejected(self):
        with pytest.raises(ValueError,
                           match="^0 collides with the start marker$"):
            mux(_lanes([0, 3]))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError,
                           match="^mux requires duplicate-free values$"):
            mux(_lanes([4, 4]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError,
                           match="^mux needs at least one lane$"):
            mux([])

    @pytest.mark.parametrize("values", [[1.5, 2], [2.0], [Fraction(3)],
                                        [1.5, 1.5], [4, 3.0]])
    def test_non_integer_rejected(self, values):
        # A pulse is a tick: a value set's builder refuses a value that is
        # not an int, not floored, before any other rule reads it.
        with pytest.raises(ValueError) as err:
            TimedMessage.multiplexed(values)
        assert type(err.value) is ValueError
        assert str(err.value) == "event ticks must be integers"

    def test_demux_inverts(self):
        assert demux(mux(_lanes([5, 7]))) == {5, 7}
        assert demux(mux(_lanes([4]))) == {4}

    def test_round_trip_random_sets(self):
        rng = random.Random(104)
        for _ in range(10 ** 3):
            size = rng.randint(1, 64)
            values = set(rng.sample(range(1, 10 ** 4 + 1), size))
            assert demux(mux(_lanes(values))) == values

    @given(st.sets(st.integers(1, 10 ** 4), min_size=1, max_size=64))
    def test_order_independent(self, values):
        shuffled = sorted(values, reverse=True)
        assert mux(_lanes(values)) == mux(_lanes(shuffled))
        assert channel_train(mux(_lanes(values))) == mux_or(values)


class TestMultiValent:
    # A tuple a*b is amplitude a at position b: the bucket (b, a).
    def test_place_figure_tuples(self):
        assert dict(MultiValentTrain(((5, 3),)).items) == {5: 3}
        assert dict(MultiValentTrain(((3, 4),)).items) == {3: 4}

    def test_place_unit_at_origin(self):
        assert dict(MultiValentTrain(((0, 1),)).items) == {0: 1}

    def test_merge_disjoint(self):
        merged = mv_merge([TimedMessage.multivalent([(2, 3)]),
                           TimedMessage.multivalent([(3, 4)])])
        assert dict(merged.items) == {2: 3, 3: 4}

    def test_merge_empty_identity(self):
        # Positions are offsets from each message's own start.
        t = TimedMessage.multivalent([(5, 3)], 4)
        assert mv_merge([t]) == MultiValentTrain(((5, 3),))

    def test_merge_of_no_trains_is_the_empty_train(self):
        empty = mv_merge([])
        assert empty == MultiValentTrain() and empty.clock is DEFAULT_CLOCK
        assert madd(empty) == 0

    def test_merge_sums_duplicate_positions(self):
        merged = mv_merge([TimedMessage.multivalent([(4, 2)]),
                           TimedMessage.multivalent([(4, 5)])])
        assert dict(merged.items) == {4: 7}
        assert madd(merged) == 4 * 2 + 4 * 5  # distributivity

    def test_merge_clock_mismatch(self):
        with pytest.raises(ValueError,
                           match="^merge requires one shared clock$"):
            mv_merge([TimedMessage.multivalent([(1, 1)], 0, ClockRef("a")),
                      TimedMessage.multivalent([(1, 1)], 0, ClockRef("b"))])

    def test_amplitude_invariants(self):
        with pytest.raises(ValueError):
            MultiValentTrain(((2, 0),))
        with pytest.raises(ValueError):
            MultiValentTrain(((-1, 2),))


def _random_items(rng):
    positions = rng.sample(range(0, 10 ** 3 + 1), rng.randint(1, 32))
    return [(p, rng.randint(1, 255)) for p in positions]


def madd_tick_by_tick(train):
    """Reference sweep: one step per simulated tick, from the highest
    occupied position down to 1, adding the running amplitude sum."""
    buckets = dict(train.items)
    total = running = 0
    for tick in range(max(buckets, default=0), 0, -1):
        running += buckets.get(tick, 0)
        total += running
    return total


def _trains(max_position, max_amplitude):
    return st.dictionaries(st.integers(0, max_position),
                           st.integers(1, max_amplitude),
                           max_size=32).map(
                               lambda buckets: MultiValentTrain(
                                   buckets.items()))


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
            train = MultiValentTrain(_random_items(rng))
            assert madd(train) == sum(p * a for p, a in train.items)

    def test_merge_preserves_dot_product(self):
        rng = random.Random(106)
        for _ in range(10 ** 3):
            a, b = (TimedMessage.multivalent(_random_items(rng))
                    for _ in range(2))
            assert madd(mv_merge([a, b])) == \
                madd(mv_merge([a])) + madd(mv_merge([b]))
