"""Where values are checked: public constructors and paper operations
reject bad input, while fire functions build the same values unchecked
from inputs that were checked where they entered the library."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from temporalsim import (
    AccumulatorConfig,
    AccumulatorModel,
    ClockRef,
    IntervalValue,
    MultiValentTrain,
    TimedMessage,
    UnaryTrain,
    add_concat,
    convert_reference,
    max_race,
    min_race,
    mul_dilate,
    mv_merge,
)
from temporalsim.blocks import KINDS, Firing
from temporalsim.errors import (
    ClockMismatch,
    EmptyInput,
    ModeMismatch,
    SimulationError,
)

MAIN = ClockRef("main", Fraction(1))
FAST = ClockRef("fast", Fraction(3))

# (call, exception type, exact text). Where an input breaks two rules,
# the case pins which one is reported.
REJECTED = {
    "interval start": (lambda: IntervalValue(-1, 3), ValueError,
                       "interval start must be non-negative"),
    "interval end": (lambda: IntervalValue(5, 3), ValueError,
                     "interval end precedes start"),
    "interval start before end": (lambda: IntervalValue(-1, -2), ValueError,
                                  "interval start must be non-negative"),
    "unary length": (lambda: UnaryTrain(-1), ValueError,
                     "unary length must be non-negative"),
    "mv position": (lambda: MultiValentTrain(((-1, 2),)), ValueError,
                    "bucket position must be non-negative"),
    "mv amplitude": (lambda: MultiValentTrain(((2, 0),)), ValueError,
                     "bucket amplitude must be >= 1"),
    "mv duplicate": (lambda: MultiValentTrain(((2, 1), (2, 3))), ValueError,
                     "duplicate bucket positions"),
    "mv sorts before checking": (
        lambda: MultiValentTrain(((3, 0), (-1, 2))), ValueError,
        "bucket position must be non-negative"),
    "mv amplitude before duplicate": (
        lambda: MultiValentTrain(((2, 1), (2, 0))), ValueError,
        "bucket amplitude must be >= 1"),
    "from_buckets position": (
        lambda: MultiValentTrain.from_buckets({-1: 2}), ValueError,
        "bucket position must be non-negative"),
    "from_buckets amplitude": (
        lambda: MultiValentTrain.from_buckets({4: 1, 2: 0}), ValueError,
        "bucket amplitude must be >= 1"),
    "clock frequency": (lambda: ClockRef("c", Fraction(0)), ValueError,
                        "clock 'c' frequency must be > 0"),
    "scaled factor": (lambda: MAIN.scaled(0), ValueError,
                      "scale factor must be >= 1"),
    "config depth": (lambda: AccumulatorConfig(chain_depth=0), ValueError,
                     "chain depth must be >= 1"),
    "config rate": (lambda: AccumulatorConfig(rate=Fraction(0)), ValueError,
                    "rate must be > 0"),
    "config flux": (lambda: AccumulatorConfig(flux=Fraction(-1)), ValueError,
                    "flux must be > 0"),
    "config depth before rate": (
        lambda: AccumulatorConfig(chain_depth=0, rate=0), ValueError,
        "chain depth must be >= 1"),
    "add clocks": (lambda: add_concat(UnaryTrain(3, MAIN),
                                      UnaryTrain(4, FAST)),
                   ClockMismatch, "cannot concatenate main with fast"),
    "mul factor": (lambda: mul_dilate(UnaryTrain(3), 0), ValueError,
                   "dilation factor must be >= 1"),
    "merge clocks": (lambda: mv_merge([MultiValentTrain(((1, 1),), MAIN),
                                       MultiValentTrain(((2, 1),), FAST)]),
                     ClockMismatch, "merge requires one shared clock"),
    "race empty": (lambda: min_race([]), EmptyInput,
                   "race needs at least one lane"),
    "min race starts": (lambda: min_race([IntervalValue(0, 3),
                                          IntervalValue(1, 5)]),
                        ModeMismatch,
                        "synchronous race requires a shared start tick"),
    "max race starts": (lambda: max_race([IntervalValue(0, 3),
                                          IntervalValue(1, 5)]),
                        ModeMismatch,
                        "synchronous race requires a shared start tick"),
    "race clocks": (lambda: max_race([IntervalValue(0, 3, MAIN),
                                      IntervalValue(0, 5, FAST)]),
                    ModeMismatch, "race lanes must share one clock"),
    "race start before clock": (
        lambda: min_race([IntervalValue(0, 3, MAIN),
                          IntervalValue(1, 5, FAST)]),
        ModeMismatch, "synchronous race requires a shared start tick"),
    "convert value": (lambda: convert_reference(-1, MAIN, FAST), ValueError,
                      "value must be non-negative"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_public_entry_points_reject(case):
    call, exc_type, text = REJECTED[case]
    with pytest.raises(exc_type) as err:
        call()
    assert type(err.value) is exc_type
    assert str(err.value) == text


def test_equal_clocks_need_not_be_one_object():
    a, b = ClockRef("f", Fraction(2)), ClockRef("f", Fraction(4, 2))
    assert a is not b
    assert add_concat(UnaryTrain(3, a), UnaryTrain(4, b)).length == 7
    assert mv_merge([MultiValentTrain(((1, 2),), a),
                     MultiValentTrain(((1, 3),), b)]).items == ((1, 5),)
    assert min_race([IntervalValue(0, 3, a), IntervalValue(0, 5, b)]) == 3


def _madd_fire(*messages):
    return KINDS["madd"].fire(Firing("x", {}, list(messages), 0, None,
                                     None, None))


def test_madd_fire_rejects_a_repeated_position():
    repeated = TimedMessage.multivalent([(2, 1), (2, 3)])
    with pytest.raises(ValueError, match="^duplicate bucket positions$"):
        _madd_fire(TimedMessage.multivalent([(1, 1)]), repeated)


def test_fire_rejects_the_wrong_sort_of_message():
    with pytest.raises(SimulationError,
                       match="^expected multi-valent messages$"):
        _madd_fire(TimedMessage.interval(3))
    ends_in_end = TimedMessage(
        (("start", 0), ("value-pulse", 2), ("end", 5)), MAIN, (1,))
    for msg, sort in ((TimedMessage.multivalent([(2, 1)]), "mv"),
                      (ends_in_end, "mv"),
                      (TimedMessage.multiplexed([2, 5]), "mux")):
        with pytest.raises(SimulationError,
                           match="^expected a scalar message, got %s$"
                           % sort):
            KINDS["mul"].fire(Firing("x", {"k": 2}, [msg], 0, None, None,
                                     None))


# ---------------------------------------------------------------------------
# A value built the trusted way is the value the public constructor builds.

COUNTS = st.integers(0, 10 ** 6)
FREQS = st.fractions(min_value=Fraction(1, 100), max_value=100)
CLOCKS = st.builds(ClockRef, st.sampled_from(["main", "fast", "c"]), FREQS)
BUCKETS = st.dictionaries(COUNTS, st.integers(1, 50), max_size=8)


def _same(trusted, public):
    return (trusted == public and public == trusted
            and hash(trusted) == hash(public))


@given(st.text(min_size=1, max_size=4), FREQS)
def test_trusted_clock(name, freq):
    assert _same(ClockRef._trusted(name, freq), ClockRef(name, freq))


@given(COUNTS, CLOCKS)
def test_trusted_unary(length, clock):
    assert _same(UnaryTrain._trusted(length, clock),
                 UnaryTrain(length, clock))


@given(COUNTS, COUNTS, CLOCKS)
def test_trusted_interval(start, length, clock):
    assert _same(IntervalValue._trusted(start, start + length, clock),
                 IntervalValue(start, start + length, clock))


@given(BUCKETS, CLOCKS)
def test_trusted_multivalent(buckets, clock):
    items = tuple(sorted(buckets.items()))
    public = MultiValentTrain(tuple(reversed(items)), clock)
    assert _same(MultiValentTrain._trusted(items, clock), public)
    assert _same(public, MultiValentTrain.from_buckets(dict(items), clock))


@given(st.lists(BUCKETS, min_size=1, max_size=4), CLOCKS)
def test_merge_builds_the_public_train(trains, clock):
    merged = {}
    for buckets in trains:
        for pos, amp in buckets.items():
            merged[pos] = merged.get(pos, 0) + amp
    assert _same(mv_merge([MultiValentTrain.from_buckets(buckets, clock)
                           for buckets in trains]),
                 MultiValentTrain.from_buckets(merged, clock))


@given(st.sampled_from(list(AccumulatorModel)), st.integers(1, 64), FREQS,
       FREQS, st.none() | COUNTS)
def test_trusted_config(model, depth, rate, flux, seed):
    assert _same(AccumulatorConfig._trusted(model, depth, rate, flux, seed),
                 AccumulatorConfig(model, depth, rate, flux, seed))


@given(COUNTS, COUNTS, CLOCKS)
def test_trusted_message(value, start, clock):
    events = (("start", start), ("end", start + value))
    assert _same(TimedMessage._trusted(events, clock),
                 TimedMessage(events, clock))


@given(CLOCKS, st.integers(1, 50) | st.fractions(min_value=1, max_value=50))
def test_scaled_builds_the_public_clock(clock, k):
    assert _same(clock.scaled(k), ClockRef("%sx%d" % (clock.id, k),
                                           clock.frequency * k))


def test_scaled_takes_a_non_integer_factor():
    assert MAIN.scaled(2.5) == ClockRef("mainx2", Fraction(5, 2))
    assert mul_dilate(UnaryTrain(3), 2.5).length == 7
