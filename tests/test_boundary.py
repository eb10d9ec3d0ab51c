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
    Netlist,
    PulseTrain,
    StabilityViolation,
    TimedMessage,
    Trace,
    accumulate_analog,
    accumulate_photonic,
    add_concat,
    convert_reference,
    decode_hybrid,
    demux,
    encode_hybrid,
    encode_pim,
    encode_unary,
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

MAIN = ClockRef("main", Fraction(1))
FAST = ClockRef("fast", Fraction(3))

# (call, exact text of the ValueError it raises). Where an input breaks
# two rules, the case pins which one is reported.
REJECTED = {
    "mv position": (lambda: MultiValentTrain(((-1, 2),)),
                    "bucket position must be non-negative"),
    "mv amplitude": (lambda: MultiValentTrain(((2, 0),)),
                     "bucket amplitude must be >= 1"),
    "mv sorts before checking": (
        lambda: MultiValentTrain(((3, 0), (-1, 2))),
        "bucket position must be non-negative"),
    "mv amplitude before duplicate": (
        lambda: MultiValentTrain(((2, 1), (2, 0))),
        "bucket amplitude must be >= 1"),
    "clock frequency": (lambda: ClockRef("c", Fraction(0)),
                        "clock 'c' frequency must be > 0"),
    "scaled factor": (lambda: MAIN.scaled(0), "scale factor must be >= 1"),
    "scaled non-int factor": (lambda: MAIN.scaled(2.5),
                              "scale factor must be an int, not 2.5"),
    "toggle_chain depth": (lambda: toggle_chain(3, 0),
                           "chain depth must be >= 1"),
    "toggle_chain count": (lambda: toggle_chain(-1, 3),
                           "pulse count must be non-negative"),
    "toggle_chain depth before count": (lambda: toggle_chain(-1, 0),
                                        "chain depth must be >= 1"),
    "analog rate": (lambda: accumulate_analog(encode_unary(1), MAIN, 0),
                    "rate must be > 0"),
    "photonic flux": (
        lambda: accumulate_photonic(encode_unary(1), MAIN, Fraction(-1)),
        "flux must be > 0"),
    # Its 32-bit words would never run out: -1 >> 32 == -1.
    "photonic seed": (
        lambda: accumulate_photonic(encode_unary(1), MAIN, 1,
                                    noise_seed=-1),
        "noise seed -1 is negative"),
    "pim negative": (lambda: encode_pim(-1),
                     "cannot encode negative value as interval"),
    "hybrid negative": (lambda: encode_hybrid(-1, 10),
                        "cannot encode negative value"),
    "hybrid digit of another sort": (
        lambda: decode_hybrid((encode_unary(1), TimedMessage.multiplexed([3])),
                              10),
        "digit 1 is not an interval"),
    # A value set's members are `mux`'s values; the constructor checks them.
    "mux negative": (lambda: TimedMessage.multiplexed([3, -1]),
                     "events must be in non-decreasing order"),
    "add clocks": (lambda: add_concat(encode_unary(3, MAIN),
                                      encode_unary(4, FAST)),
                   "cannot concatenate main with fast"),
    "mul factor": (lambda: mul_dilate(encode_unary(3), 0),
                   "dilation factor must be >= 1"),
    "mul non-int factor": (lambda: mul_dilate(encode_unary(3), 2.5),
                           "dilation factor must be an int, not 2.5"),
    "merge clocks": (lambda: mv_merge([
        TimedMessage.multivalent([(1, 1)], 0, MAIN),
        TimedMessage.multivalent([(2, 1)], 0, FAST)]),
                     "merge requires one shared clock"),
    "merge a scalar": (lambda: mv_merge([
        TimedMessage.multivalent([(1, 1)]), encode_unary(3)]),
        "merge requires multi-valent messages"),
    "demux a scalar": (lambda: demux(encode_unary(3)),
                       "demux requires a value set"),
    "demux a multi-valent message": (
        lambda: demux(TimedMessage.multivalent([(1, 1)])),
        "demux requires a value set"),
    "race empty": (lambda: min_race([]), "race needs at least one lane"),
    "race clocks": (lambda: max_race([encode_unary(3, MAIN),
                                      encode_unary(5, FAST)]),
                    "race lanes must share one clock"),
    "min race clocks": (lambda: min_race([encode_unary(3, MAIN),
                                          encode_unary(4, MAIN),
                                          encode_unary(5, FAST)]),
                        "race lanes must share one clock"),
    "mux clocks": (lambda: mux([encode_unary(3, MAIN),
                                encode_unary(5, FAST)]),
                   "mux lanes must share one clock"),
    # Each scalar operation refuses an operand of another sort, which it
    # would otherwise read by its span.
    "add a value set": (
        lambda: add_concat(TimedMessage.multiplexed([2, 5]), encode_unary(3)),
        "add requires scalar operands"),
    "mul a multi-valent message": (
        lambda: mul_dilate(TimedMessage.multivalent([(2, 1)]), 3),
        "mul requires a scalar operand"),
    "race a value set": (
        lambda: max_race([encode_unary(3), TimedMessage.multiplexed([2, 5])]),
        "race requires scalar lanes"),
    "mux a value set": (
        lambda: mux([TimedMessage.multiplexed([2, 5]), encode_unary(3)]),
        "mux requires scalar lanes"),
    "convert value": (lambda: convert_reference(-1, MAIN, FAST),
                      "value must be non-negative"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_public_entry_points_reject(case):
    call, text = REJECTED[case]
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError
    assert str(err.value) == text


def test_equal_clocks_need_not_be_one_object():
    a, b = ClockRef("f", Fraction(2)), ClockRef("f", Fraction(4, 2))
    assert a is not b
    assert add_concat(encode_unary(3, a), encode_unary(4, b)).decoded() == 7
    assert mv_merge([TimedMessage.multivalent([(1, 2)], 0, a),
                     TimedMessage.multivalent([(1, 3)], 0, b)]).items == \
        ((1, 5),)
    assert min_race([encode_unary(3, a), encode_unary(5, b)]).decoded() == 3
    assert mux([encode_unary(3, a), encode_unary(5, b)]).decoded() == {3, 5}


def test_a_repeated_bucket_position_sums_its_amplitudes():
    # As `mv_merge` overlays two trains and a repeated position decodes:
    # 2*1 + 2*3 = 2*(1+3).
    repeated = MultiValentTrain(((2, 1), (2, 3)))
    assert repeated == MultiValentTrain(((2, 4),)) == mv_merge(
        [TimedMessage.multivalent([(2, 1)]),
         TimedMessage.multivalent([(2, 3)])])
    assert dict(repeated.items) == \
        TimedMessage.multivalent([(2, 1), (2, 3)]).decoded()


def _madd_fire(*messages):
    # The output clock is the first input's, as validation resolves it.
    return KINDS["madd"].fire("x", {}, list(messages), 0, messages[0].clock,
                              None)


def test_madd_fire_sums_a_repeated_position():
    # No netlist emits one, but a direct call merges it as `mv_merge`
    # does: 2*1 + 2*3 = 2*(1+3), so the dot product is 1*1 + 2*4. The
    # message decodes to the same sum.
    repeated = TimedMessage.multivalent([(2, 1), (2, 3)])
    assert repeated.decoded() == {2: 4}
    msg, cost, found = _madd_fire(TimedMessage.multivalent([(1, 1)]),
                                  repeated)
    assert msg == TimedMessage.interval(9)
    assert (cost, found) == (2 + C0, ())
    assert msg.decoded() == madd(mv_merge(
        [TimedMessage.multivalent([(1, 1)]), repeated]))


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


@given(BUCKETS, CLOCKS)
def test_trusted_multivalent(buckets, clock):
    items = tuple(sorted(buckets.items()))
    public = MultiValentTrain(tuple(reversed(items)), clock)
    assert _same_unchecked(MultiValentTrain, (items, clock), public)
    assert _same(public, MultiValentTrain(buckets.items(), clock))


# A multi-valent message holds at least one pulse.
@given(st.lists(BUCKETS.filter(bool), min_size=1, max_size=4), CLOCKS)
def test_merge_builds_the_public_train(trains, clock):
    merged = {}
    for buckets in trains:
        for pos, amp in buckets.items():
            merged[pos] = merged.get(pos, 0) + amp
    assert _same(mv_merge([TimedMessage.multivalent(buckets.items(), 0, clock)
                           for buckets in trains]),
                 MultiValentTrain(merged.items(), clock))


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
            mul_dilate(encode_unary(3), k)


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
    MultiValentTrain: (
        lambda: MultiValentTrain(((3, 1), (1, 2))), ("items", "clock"),
        "MultiValentTrain(items=((1, 2), (3, 1)), clock=%s)" % _M,
        [(lambda: MultiValentTrain(((-1, 2),)), ValueError,
          "bucket position must be non-negative"),
         (lambda: MultiValentTrain(((2, 0),)), ValueError,
          "bucket amplitude must be >= 1")]),
    TimedMessage: (
        lambda: TimedMessage([("start", 0), ("end", 3)]),
        ("events", "clock", "amplitudes"), _MSG,
        [(lambda: TimedMessage(()), ValueError,
          "message must open with a start event"),
         (lambda: TimedMessage((("end", 0),)), ValueError,
          "message must open with a start event"),
         (lambda: TimedMessage((("start", 3), ("end", 2))), ValueError,
          "events must be in non-decreasing order"),
         (lambda: TimedMessage((("start", 0),)), ValueError,
          "a start must be followed by one end or by value pulses"),
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
        ("inputs", "fire", "oracle", "params", "check", "takes", "emits"),
        "Kind(inputs=('a',), fire=<built-in function len>, "
        "oracle=<built-in function max>, params=mappingproxy({}), "
        "check=None, takes='scalar', emits='scalar')",
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
    if cls is Kind:     # its params are a mapping, read-only by default
        with pytest.raises(TypeError,
                           match="unhashable type: 'mappingproxy'"):
            hash(value)
        # The default schema is shared, so no kind may write to it.
        assert value.params is twin.params
        with pytest.raises(TypeError):
            value.params["k"] = Param(int)
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
