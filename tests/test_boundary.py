"""Where values are checked: public constructors and paper operations
reject bad input, while fire functions build the same values unchecked
from inputs that were checked where they entered the library."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from temporalsim import (
    AccumulatorConfig,
    AccumulatorModel,
    BinaryWord,
    ClockRef,
    IntervalValue,
    Link,
    MultiValentTrain,
    MuxChannel,
    PulseTrain,
    StabilityViolation,
    TimedMessage,
    UnaryTrain,
    add_concat,
    convert_reference,
    max_race,
    min_race,
    mul_dilate,
    mv_merge,
)
from temporalsim.blocks import KINDS, Firing, Kind, Param
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


# ---------------------------------------------------------------------------
# The value types are tuple records. Each keeps the field names, repr and
# constructor errors it had as a frozen dataclass, cannot be assigned to,
# and hashes by its fields. Each example passes what the constructor
# normalises (an int frequency, lists, a set) in the loose form.

_M = "ClockRef(id='main', frequency=Fraction(1, 1))"
_MSG = "TimedMessage(events=(('start', 0), ('end', 3)), clock=%s, " \
       "amplitudes=())" % _M

# class: (example, field names, repr, [(call, exception type, text)]).
# A text of None pins the type only: a missing argument's TypeError
# names the function that reports it.
VALUE_TYPES = {
    ClockRef: (
        lambda: ClockRef("fast", 3), ("id", "frequency"),
        "ClockRef(id='fast', frequency=Fraction(3, 1))",
        [(lambda: ClockRef("c", Fraction(0)), ValueError,
          "clock 'c' frequency must be > 0"),
         (lambda: ClockRef("c", -2), ValueError,
          "clock 'c' frequency must be > 0")]),
    PulseTrain: (
        lambda: PulseTrain([0, 5]), ("pulses", "clock"),
        "PulseTrain(pulses=(0, 5), clock=%s)" % _M,
        [(lambda: PulseTrain((-1, 2)), ValueError,
          "pulse positions must be non-negative"),
         (lambda: PulseTrain((3, 3)), ValueError,
          "pulse positions must be strictly increasing")]),
    UnaryTrain: (
        lambda: UnaryTrain(3), ("length", "clock"),
        "UnaryTrain(length=3, clock=%s)" % _M,
        [(lambda: UnaryTrain(-1), ValueError,
          "unary length must be non-negative")]),
    IntervalValue: (
        lambda: IntervalValue(2, 5), ("start", "end", "clock"),
        "IntervalValue(start=2, end=5, clock=%s)" % _M,
        [(lambda: IntervalValue(-1, 3), ValueError,
          "interval start must be non-negative"),
         (lambda: IntervalValue(5, 3), ValueError,
          "interval end precedes start")]),
    MultiValentTrain: (
        lambda: MultiValentTrain(((3, 1), (1, 2))), ("items", "clock"),
        "MultiValentTrain(items=((1, 2), (3, 1)), clock=%s)" % _M,
        [(lambda: MultiValentTrain(((-1, 2),)), ValueError,
          "bucket position must be non-negative"),
         (lambda: MultiValentTrain(((2, 0),)), ValueError,
          "bucket amplitude must be >= 1"),
         (lambda: MultiValentTrain(((2, 1), (2, 3))), ValueError,
          "duplicate bucket positions")]),
    TimedMessage: (
        lambda: TimedMessage([("start", 0), ("end", 3)]),
        ("events", "clock", "amplitudes"), _MSG,
        [(lambda: TimedMessage(()), ValueError,
          "message must open with a start event"),
         (lambda: TimedMessage((("end", 0),)), ValueError,
          "message must open with a start event"),
         (lambda: TimedMessage((("start", 3), ("end", 2))), ValueError,
          "events must be in non-decreasing order"),
         (lambda: TimedMessage((("start", 0), ("value-pulse", 2)), MAIN,
                               (1, 2)), ValueError,
          "need one amplitude >= 1 per value pulse"),
         (lambda: TimedMessage((("start", 0), ("value-pulse", 2)), MAIN,
                               (0,)), ValueError,
          "need one amplitude >= 1 per value pulse")]),
    Link: (
        lambda: Link(2, {0: 1}), ("default", "table"),
        "Link(default=2, table=mappingproxy({0: 1}))",
        [(lambda: Link(-1, {}), ValueError,
          "link delays must be non-negative"),
         (lambda: Link(0, {1: -1}), ValueError,
          "link delays must be non-negative"),
         (lambda: Link.constant(-1), ValueError,
          "link delay must be non-negative")]),
    StabilityViolation: (
        lambda: StabilityViolation(TimedMessage.interval(3),
                                   (("start", 1), ("end", 3))),
        ("original", "distorted_events"),
        "StabilityViolation(original=%s, distorted_events=(('start', 1), "
        "('end', 3)))" % _MSG,
        [(lambda: StabilityViolation(TimedMessage.interval(3)), TypeError,
          None)]),
    MuxChannel: (
        lambda: MuxChannel({5, 2}), ("value_pulses", "clock"),
        "MuxChannel(value_pulses=frozenset({2, 5}), clock=%s)" % _M,
        [(lambda: MuxChannel({0, 2}), ValueError,
          "value pulses must be positive ticks")]),
    AccumulatorConfig: (
        AccumulatorConfig,
        ("model", "chain_depth", "rate", "flux", "noise_seed"),
        "AccumulatorConfig(model=<AccumulatorModel.DIGITAL_COUNTER: "
        "'digital'>, chain_depth=8, rate=Fraction(1, 1), "
        "flux=Fraction(1, 1), noise_seed=None)",
        [(lambda: AccumulatorConfig(chain_depth=0), ValueError,
          "chain depth must be >= 1"),
         (lambda: AccumulatorConfig(rate=0), ValueError, "rate must be > 0"),
         (lambda: AccumulatorConfig(flux=Fraction(-1)), ValueError,
          "flux must be > 0")]),
    BinaryWord: (
        lambda: BinaryWord((1, 0, 1)), ("bits",),
        "BinaryWord(bits=(1, 0, 1))",
        [(lambda: BinaryWord((1, 2)), ValueError, "bits must be 0 or 1"),
         (lambda: BinaryWord(()), ValueError, "width must be >= 1")]),
    Param: (
        lambda: Param(int, True), ("parse", "required"),
        "Param(parse=<class 'int'>, required=True)",
        [(lambda: Param(), TypeError, None)]),
    Kind: (
        lambda: Kind(("a",), len),
        ("inputs", "fire", "oracle", "params", "clocked", "outputs",
         "check"),
        "Kind(inputs=('a',), fire=<built-in function len>, oracle=None, "
        "params={}, clocked=False, outputs=('out',), check=None)",
        [(lambda: Kind(("a",)), TypeError, None)]),
}


@pytest.mark.parametrize("cls", list(VALUE_TYPES),
                         ids=lambda cls: cls.__name__)
def test_value_type_contract(cls):
    example, fields, text, rejected = VALUE_TYPES[cls]
    value, twin = example(), example()
    assert type(value) is cls and value is not twin
    assert cls._fields == fields
    assert repr(value) == text
    for name in (fields[0], "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert value == twin
    if cls is Kind:     # its params are a dict, as they always were
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(value)
    else:
        assert hash(value) == hash(twin)
    for call, exc_type, message in rejected:
        with pytest.raises(exc_type) as err:
            call()
        assert type(err.value) is exc_type
        if message is not None:
            assert str(err.value) == message
