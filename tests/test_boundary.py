"""Where values are checked: public constructors and paper operations
reject bad input, while the package builds the same values unchecked,
with `tuple.__new__(X, (...))`, the C call inside namedtuple's `_make`,
from inputs that were checked where they entered the library."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from temporalsim import (
    BinaryWord,
    ClockRef,
    Link,
    MultiValentTrain,
    MuxChannel,
    Netlist,
    PulseTrain,
    StabilityViolation,
    TimedMessage,
    Trace,
    UnaryTrain,
    accumulate_analog,
    accumulate_photonic,
    add_concat,
    convert_reference,
    encode_hybrid,
    encode_pim,
    madd,
    max_race,
    min_race,
    mul_dilate,
    mux,
    mv_merge,
    toggle_chain,
)
from temporalsim.blocks import C0, KINDS, Kind, Param
from temporalsim.engine import TraceStats
from temporalsim.errors import ClockMismatch, EmptyInput

MAIN = ClockRef("main", Fraction(1))
FAST = ClockRef("fast", Fraction(3))

# (call, exception type, exact text). Where an input breaks two rules,
# the case pins which one is reported.
REJECTED = {
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
    "scaled non-int factor": (lambda: MAIN.scaled(2.5), ValueError,
                              "scale factor must be an int, not 2.5"),
    "toggle_chain depth": (lambda: toggle_chain(3, 0), ValueError,
                           "chain depth must be >= 1"),
    "toggle_chain count": (lambda: toggle_chain(-1, 3), ValueError,
                           "pulse count must be non-negative"),
    "toggle_chain depth before count": (
        lambda: toggle_chain(-1, 0), ValueError, "chain depth must be >= 1"),
    "analog rate": (lambda: accumulate_analog(UnaryTrain(1), MAIN, 0),
                    ValueError, "rate must be > 0"),
    "photonic flux": (
        lambda: accumulate_photonic(UnaryTrain(1), MAIN, Fraction(-1)),
        ValueError, "flux must be > 0"),
    # Its 32-bit words would never run out: -1 >> 32 == -1.
    "photonic seed": (
        lambda: accumulate_photonic(UnaryTrain(1), MAIN, 1, noise_seed=-1),
        ValueError, "noise seed -1 is negative"),
    "pim negative": (lambda: encode_pim(-1), ValueError,
                     "cannot encode negative value as interval"),
    "hybrid negative": (lambda: encode_hybrid(-1, 10), ValueError,
                        "cannot encode negative value"),
    "mux negative": (lambda: mux([3, -1]), ValueError,
                     "mux values must be positive"),
    "add clocks": (lambda: add_concat(UnaryTrain(3, MAIN),
                                      UnaryTrain(4, FAST)),
                   ClockMismatch, "cannot concatenate main with fast"),
    "mul factor": (lambda: mul_dilate(UnaryTrain(3), 0), ValueError,
                   "dilation factor must be >= 1"),
    "mul non-int factor": (lambda: mul_dilate(UnaryTrain(3), 2.5), ValueError,
                           "dilation factor must be an int, not 2.5"),
    "merge clocks": (lambda: mv_merge([MultiValentTrain(((1, 1),), MAIN),
                                       MultiValentTrain(((2, 1),), FAST)]),
                     ClockMismatch, "merge requires one shared clock"),
    "race empty": (lambda: min_race([]), EmptyInput,
                   "race needs at least one lane"),
    "race clocks": (lambda: max_race([UnaryTrain(3, MAIN),
                                      UnaryTrain(5, FAST)]),
                    ClockMismatch, "race lanes must share one clock"),
    "min race clocks": (lambda: min_race([UnaryTrain(3, MAIN),
                                          UnaryTrain(4, MAIN),
                                          UnaryTrain(5, FAST)]),
                        ClockMismatch, "race lanes must share one clock"),
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
    assert min_race([UnaryTrain(3, a), UnaryTrain(5, b)]) == 3


def _madd_fire(*messages):
    # The output clock is the first input's, as validation resolves it.
    return KINDS["madd"].fire("x", {}, list(messages), 0, messages[0].clock,
                              None)


def test_madd_fire_sums_a_repeated_position():
    # No netlist emits one, but a direct call merges it as `mv_merge`
    # does: 2*1 + 2*3 = 2*(1+3), so the dot product is 1*1 + 2*4.
    repeated = TimedMessage.multivalent([(2, 1), (2, 3)])
    msg, cost, found = _madd_fire(TimedMessage.multivalent([(1, 1)]),
                                  repeated)
    assert msg == TimedMessage.interval(9)
    assert (cost, found) == (2 + C0, ())
    merged = mv_merge([MultiValentTrain(((1, 1),)),
                       MultiValentTrain(((2, 4),))])
    assert msg.decoded() == madd(merged)


# ---------------------------------------------------------------------------
# A value built unchecked, with `_make` or with `tuple.__new__` as the
# package does, is the value the public constructor builds.

COUNTS = st.integers(0, 10 ** 6)
FREQS = st.fractions(min_value=Fraction(1, 100), max_value=100)
CLOCKS = st.builds(ClockRef, st.sampled_from(["main", "fast", "c"]), FREQS)
BUCKETS = st.dictionaries(COUNTS, st.integers(1, 50), max_size=8)


def _same(made, public):
    return (made == public and public == made
            and hash(made) == hash(public))


def _same_unchecked(cls, fields, public):
    """Both unchecked builds of `fields` are `cls` values equal to, and
    hashing like, `public`."""
    return all(type(made) is cls and _same(made, public)
               for made in (cls._make(fields), tuple.__new__(cls, fields)))


@given(st.text(min_size=1, max_size=4), FREQS)
def test_trusted_clock(name, freq):
    assert _same_unchecked(ClockRef, (name, freq), ClockRef(name, freq))


@given(COUNTS, CLOCKS)
def test_trusted_unary(length, clock):
    assert _same_unchecked(UnaryTrain, (length, clock),
                           UnaryTrain(length, clock))


@given(BUCKETS, CLOCKS)
def test_trusted_multivalent(buckets, clock):
    items = tuple(sorted(buckets.items()))
    public = MultiValentTrain(tuple(reversed(items)), clock)
    assert _same_unchecked(MultiValentTrain, (items, clock), public)
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


@given(COUNTS, COUNTS, CLOCKS)
def test_trusted_message(value, start, clock):
    events = (("start", start), ("end", start + value))
    assert _same_unchecked(TimedMessage, (events, clock, ()),
                           TimedMessage(events, clock))


@given(COUNTS)
def test_constant_builds_the_public_link(delay):
    link = Link.constant(delay)
    assert type(link) is Link and _same(link, Link(delay, {}))
    with pytest.raises(TypeError):
        link.table[0] = 1


@given(CLOCKS, st.integers(1, 50))
def test_scaled_builds_the_public_clock(clock, k):
    assert _same(clock.scaled(k), ClockRef("%sx%d" % (clock.id, k),
                                           clock.frequency * k))


def test_scaled_rejects_a_non_integer_factor():
    # A clock is named by its factor: 2.5 would take the name of 2's
    # clock, at another frequency. 1.0 is refused before mul_dilate's
    # shortcut for 1.
    for k in (2.5, Fraction(5, 2), 1.0):
        with pytest.raises(ValueError, match=r"^scale factor must be an int"):
            MAIN.scaled(k)
        with pytest.raises(ValueError,
                           match=r"^dilation factor must be an int"):
            mul_dilate(UnaryTrain(3), k)


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
        lambda: Kind(("a",), len, max),
        ("inputs", "fire", "oracle", "params", "clocked", "outputs",
         "check", "takes", "emits"),
        "Kind(inputs=('a',), fire=<built-in function len>, "
        "oracle=<built-in function max>, params={}, clocked=False, "
        "outputs=('out',), check=None, takes='scalar', emits='scalar')",
        [(lambda: Kind(("a",), len), TypeError, None)]),
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


# ---------------------------------------------------------------------------
# The mutable records are plain classes. Each instance builds its own
# dicts and lists; `Netlist` and `TraceStats` compare by their fields and,
# like any record that defines equality, do not hash.

def _containers(record):
    """Every dict and list a record holds, its stats' included."""
    found = []
    for value in vars(record).values():
        if isinstance(value, TraceStats):
            found += _containers(value)
        elif isinstance(value, (dict, list)):
            found.append(value)
    return found


# How many dicts and lists each record holds.
CONTAINERS = {Netlist: 9, Trace: 5, TraceStats: 3}


@pytest.mark.parametrize("cls", list(CONTAINERS),
                         ids=lambda cls: cls.__name__)
def test_records_share_no_container(cls):
    one, two = _containers(cls()), _containers(cls())
    assert len(one) == len(two) == CONTAINERS[cls]
    assert not {id(c) for c in one} & {id(c) for c in two}


def _changed(value):
    """A value of `value`'s type that differs from it."""
    if isinstance(value, dict):
        return {"x": 1}
    if isinstance(value, list):
        return ["x"]
    return not value if isinstance(value, bool) else value + 1


@pytest.mark.parametrize("cls, field", [
    (cls, field) for cls in (Netlist, TraceStats) for field in vars(cls())])
def test_records_that_differ_in_one_field_compare_unequal(cls, field):
    one, two = cls(), cls()
    assert one == two and not one != two
    setattr(two, field, _changed(getattr(two, field)))
    assert one != two and not one == two
    if cls is TraceStats:
        assert Trace(stats=one) != Trace(stats=two)
    with pytest.raises(TypeError, match="unhashable type"):
        hash(one)


@pytest.mark.parametrize("cls", list(CONTAINERS),
                         ids=lambda cls: cls.__name__)
def test_records_are_unequal_to_a_non_record(cls):
    record, other = cls(), object()
    assert record != other and not record == other


def test_records_print_their_fields():
    assert repr(Netlist()) == (
        "Netlist(clocks={}, blocks={}, wires=[], probes=[], params={}, "
        "clock_of={}, inputs={}, outputs={}, order=[])")
    assert repr(Trace()) == (
        "Trace(delivered={}, results={}, stats=TraceStats(total_ticks=0, "
        "event_count=0, block_costs={}, block_warnings=[], "
        "stability_violations=[], budget_exhausted=False))")
