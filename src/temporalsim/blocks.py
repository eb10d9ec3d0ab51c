"""Every block kind, defined once.

`KINDS` maps a kind name to its input ports, its parameter schema,
whether it needs a clock, the sort of message it takes and emits, the
fire function the engine runs and the integer oracle function `check`
compares against. The validator, the engine and the oracle read this
table and nothing else. The engine calls a fire function as
`fire(block_id, params, inputs, t, clock, seed)`: the block's id, its
parsed params (only the keys the netlist sets), its input messages in
sorted port order, its fire tick (the last input arrival), the clock
it emits on (`net.clock_of`) and the run's `--seed`. It returns all it
found as one tuple `(message, cost, warnings)`: its output (None for a
probe), its cost in ticks and its warning texts, `()` when there are
none. An oracle is called as `oracle(params, ins, rate, seed)`.

Fire functions compute with the library's paper operations: add by
concatenation, multiply by dilation, min/max by racing synchronous
lanes, the multiplexed channel, the multi-valent merge and sweep, the
accumulator models and reference conversion. Oracle functions use plain
int and `Fraction` arithmetic only, so the two stay independent.
"""

from __future__ import annotations

import re
import zlib
from collections import namedtuple
from collections.abc import Callable, Mapping
from fractions import Fraction

from . import arith
from .accumulators import (
    MAX_CHAIN_DEPTH,
    AccumulatorModel,
    accumulate_analog,
    accumulate_photonic,
    convert_reference,
    toggle_chain,
    toggle_chain_overflowed,
)
from .channel import (EVENT_END, EVENT_START, EVENT_VALUE, MUX, MV, SCALAR,
                      TimedMessage, _offsets, _pulses, _span)
from .core import ClockRef, MultiValentTrain, UnaryTrain, measure_interval

# Per-block constant tick overhead for delimiter handling.
C0 = 1


class Param(namedtuple("Param", "parse required", defaults=(False,))):
    """A parameter's parser, which raises ValueError on a bad value, and
    whether the netlist must set it."""

    __slots__ = ()


class Kind(namedtuple("Kind", "inputs fire oracle params clocked outputs "
                             "check takes emits")):
    """A block kind. `inputs` lists its ports, or is VARIADIC for in0,
    in1, ...; `fire` and `oracle` are called as the module docstring
    says; without clock=, a `clocked` kind runs on the netlist's
    default clock and any other kind on its first input's clock; `check`
    is a rule across parameters that returns a problem, or None when
    they agree. Every input takes the sort `takes` (None: any sort);
    `emits` is the output's sort, or a function from the block's params,
    as the netlist writes them, to that sort."""

    __slots__ = ()

    def __new__(cls, inputs: tuple[str, ...] | None,
                fire: Callable[..., tuple],
                oracle: Callable[..., object],
                params: dict[str, Param] | None = None,
                clocked: bool = False, outputs: tuple[str, ...] = ("out",),
                check: Callable[[dict], str | None] | None = None,
                takes: str | None = SCALAR,
                emits: str | Callable[[Mapping[str, str]], str] = SCALAR):
        # Each kind gets its own params dict, never a shared default.
        return tuple.__new__(cls, (inputs, fire, oracle,
                                   {} if params is None else params,
                                   clocked, outputs, check, takes, emits))


VARIADIC = None


# `integer` and `positive_fraction` read every number token the package
# reads; a bad one raises ValueError with the reason, and the caller names
# the token. CPython converts at most 4300 decimal digits to an int by
# default: a longer token is refused before conversion, on any interpreter.
MAX_NUMBER_CHARS = 4300


def _too_long(token: str) -> str | None:
    """Why a number token is too long to convert, or None."""
    if len(token) <= MAX_NUMBER_CHARS:
        return None
    return "is too long (%d characters, at most %d)" % (len(token),
                                                        MAX_NUMBER_CHARS)


def _too_big(token: str) -> str | None:
    """Why a rational token is too long, or its decimal exponent too large
    in magnitude, to convert; or None. `Fraction("1e99999999")` would
    build 10**99999999, so the exponent is read before `Fraction` runs."""
    problem = _too_long(token)
    if problem:
        return problem
    head, e, exponent = token.replace("E", "e").rpartition("e")
    if not e:
        return None
    try:
        # Zeroing the exponent's digits keeps the token's shape, so this
        # accepts exactly what `Fraction` accepts on this interpreter.
        Fraction(head + e + re.sub(r"\d", "0", exponent))
    except ValueError:
        return None
    power = int(exponent)
    if abs(power) <= MAX_NUMBER_CHARS:
        return None
    return "is too large (exponent %d, at most %d)" % (power,
                                                       MAX_NUMBER_CHARS)


def quote(token: str) -> str:
    """A token as an error message echoes it: cut short when long."""
    return repr(token) if len(token) <= 40 else repr(token[:20]) + "..."


def integer(minimum: int | None = None,
            maximum: int | None = None) -> Callable[[str], int]:
    """A reader of an integer token as `int()` reads it, within the
    bounds given."""
    def parse(text: str) -> int:
        if len(text) > MAX_NUMBER_CHARS:
            raise ValueError(_too_long(text))
        try:
            value = int(text)
        except ValueError:
            raise ValueError("is not an integer") from None
        if minimum is not None and value < minimum:
            raise ValueError("must be >= %d" % minimum)
        if maximum is not None and value > maximum:
            raise ValueError("must be <= %d" % maximum)
        return value
    return parse


def positive_fraction(text: str) -> Fraction:
    """A rational token as `Fraction` reads it, > 0."""
    # The common spelling, ASCII digits or ASCII digits/ASCII digits, is
    # read by `int`; every other spelling, and every error, by `Fraction`
    # after `_too_big`.
    num, slash, den = text.partition("/")
    if (len(text) <= MAX_NUMBER_CHARS and num.isascii() and num.isdigit()
            and (not slash or den.isascii() and den.isdigit())):
        p, q = int(num), int(den) if slash else 1
        if p and q:
            return Fraction(p, q)
    reason = _too_big(text)
    if reason:
        raise ValueError(reason)
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError("is not rational") from None
    if value <= 0:
        raise ValueError("must be > 0")
    return value


_MODELS = {model.value: model for model in AccumulatorModel}


def _model(text: str) -> AccumulatorModel:
    model = _MODELS.get(text)
    if model is None:
        raise ValueError("must be one of %s" % ", ".join(_MODELS))
    return model


def parse_params(block) -> tuple[dict[str, object], list[str]]:
    """Parse a block's params by its kind's schema: (values, errors).
    A key the schema does not list is an error."""
    bid, name, raw = block
    kind = KINDS[name]
    schema = kind.params
    if not raw and not schema:
        return {}, []
    values: dict[str, object] = {}
    errors: list[str] = []
    for key, (parse, required) in schema.items():
        text = raw.get(key)
        if text is None:
            if required:
                errors.append("block %r (%s) missing param %r"
                              % (bid, name, key))
            continue
        try:
            values[key] = parse(text)
        except ValueError as exc:
            errors.append("block %r param %s=%s: %s"
                          % (bid, key, quote(text), exc))
    check = kind.check
    problem = check(values) if check and not errors else None
    if problem:
        errors.append("block %r (%s): %s" % (bid, name, problem))
    # With no error, every schema key in `raw` is in `values`, so equal
    # counts mean no unknown key.
    if errors or len(values) != len(raw):
        errors += ["block %r (%s) unknown param %r" % (bid, name, key)
                   for key in raw if key not in schema]
    return values, errors


# Fire functions build their values unchecked, with the C call
# `tuple.__new__(X, (...))` that namedtuple's `_make` makes: every input
# message was checked where it was built, its sort where the netlist was
# validated, and parameters where they were parsed, so a value derived
# from them is valid.


def _out(value: int, t: int, clock: ClockRef) -> TimedMessage:
    # value >= 0: every fire function's result is a count.
    return tuple.__new__(TimedMessage, (
        ((EVENT_START, t), (EVENT_END, t + value)), clock, ()))


def _source(_bid, params, _inputs, t, clock, _seed):
    value = params["value"]
    if "position" in params:
        pos = params["position"]
        msg = tuple.__new__(TimedMessage, (
            ((EVENT_START, t), (EVENT_VALUE, t + pos)), clock, (value,)))
        return msg, pos + C0, ()
    return _out(value, t, clock), value + C0, ()


def _unary(msg: TimedMessage) -> UnaryTrain:
    return tuple.__new__(UnaryTrain, (_span(msg.events), msg.clock))


def _add(_bid, _params, inputs, t, clock, _seed):
    a, b = map(_unary, inputs)
    total = arith.add_concat(a, b).length
    return _out(total, t, clock), total + C0, ()


def _mul(_bid, params, inputs, t, clock, _seed):
    (msg,) = inputs
    out = arith.mul_dilate(_unary(msg), params["k"]).length
    return _out(out, t, clock), out + C0, ()


def _race(race) -> Callable[..., tuple]:
    """A race's fire function. Each input is one `UnaryTrain` lane of its
    span on the fire's output clock, so the lanes race raw counts."""
    new = tuple.__new__

    def fire(_bid, _params, inputs, t, clock, _seed):
        out = race([new(UnaryTrain, (events[-1][1] - events[0][1], clock))
                    for events, _clock, _amplitudes in inputs])
        return _out(out, t, clock), out + C0, ()
    return fire


def _mux(_bid, _params, inputs, t, clock, _seed):
    channel = arith.mux([_span(m.events) for m in inputs], clock)
    pulses = sorted(channel.value_pulses)
    return (tuple.__new__(TimedMessage, (_pulses(t, pulses), clock, ())),
            pulses[-1] + C0, ())


def _demux(_bid, _params, inputs, t, clock, _seed):
    ((events, in_clock, _amplitudes),) = inputs
    # A distorted delivery was rebuilt by the checked constructor, so
    # every value set holds distinct positive offsets.
    channel = tuple.__new__(arith.MuxChannel,
                            (frozenset(_offsets(events)), in_clock))
    values = sorted(arith.demux(channel))
    return (tuple.__new__(TimedMessage, (_pulses(t, values), clock, ())),
            values[-1] + C0, ())


def _madd(_bid, _params, inputs, t, clock, _seed):
    # An input may repeat a position; `mv_merge` sums the amplitudes at
    # an equal position, within one input as across inputs.
    new, trains = tuple.__new__, []
    for events, in_clock, amplitudes in inputs:
        trains.append(new(MultiValentTrain, (
            tuple(zip(_offsets(events), amplitudes)), in_clock)))
    merged = arith.mv_merge(trains)
    sweep = merged.items[-1][0] if merged.items else 0
    return _out(arith.madd(merged), t, clock), sweep + C0, ()


def _accumulator(bid, p, inputs, t, ref, run_seed):
    (msg,) = inputs
    x = _unary(msg)
    model = p.get("model", AccumulatorModel.DIGITAL_COUNTER)
    found = ()
    if model is AccumulatorModel.ANALOG_INTEGRATOR:
        out = accumulate_analog(x, ref, p.get("rate", 1))[1]
    elif model is AccumulatorModel.PHOTON_COUNTER:
        seed = p.get("seed")
        if seed is None and run_seed is not None:
            seed = run_seed ^ zlib.crc32(bid.encode())
        out = accumulate_photonic(x, ref, p.get("flux", 1), seed)
    else:
        out = measure_interval(x, ref)
        if model is AccumulatorModel.TOGGLE_CHAIN:
            depth = p["depth"]  # validation requires it with toggle
            if toggle_chain_overflowed(out, depth):
                found = ("toggle chain overflowed",)
            out = toggle_chain(out, depth).value
    return _out(out, t, ref), x.length + C0, found


def _convert(_bid, _params, inputs, t, clock, _seed):
    ((events, in_clock, _amplitudes),) = inputs
    out = convert_reference(_span(events), in_clock, clock)
    return _out(out, t, clock), C0, ()


def _source_oracle(p, *_):
    return {p["position"]: p["value"]} if "position" in p else p["value"]


def _mux_oracle(_p, ins, *_):
    # The engine's rules and texts, checked here with plain sets.
    values = list(ins.values())
    members = set(values)
    if len(members) != len(values):
        raise ValueError("mux requires duplicate-free values")
    if 0 in members:
        raise ValueError("0 collides with the start marker")
    return members


def _accumulator_oracle(p, ins, rate, seed):
    count = ins["in"] * rate // 1     # whole reference pulses
    model = p.get("model")
    if model is AccumulatorModel.TOGGLE_CHAIN:
        return count % (1 << p["depth"])
    if model is AccumulatorModel.ANALOG_INTEGRATOR:
        return count * p.get("rate", 1) // 1
    if model is AccumulatorModel.PHOTON_COUNTER:
        if "seed" in p or seed is not None:
            return None     # a Poisson draw
        return count * p.get("flux", 1) // 1
    return count


def _source_sort(raw: Mapping[str, str]) -> str:
    return MV if "position" in raw else SCALAR


def _one_amplitude(p) -> str | None:
    if "position" in p and p["value"] < 1:
        return "multi-valent amplitude value=0 must be >= 1"
    return None


def _toggle_depth(p) -> str | None:
    if p.get("model") is AccumulatorModel.TOGGLE_CHAIN and "depth" not in p:
        return "missing param 'depth' (model=toggle)"
    return None


COUNT = integer(0)
_CLOCK = Param(str)

KINDS: dict[str, Kind] = {
    "source": Kind((), _source, _source_oracle, clocked=True,
                   params={"value": Param(COUNT, True),
                           "position": Param(COUNT), "clock": _CLOCK},
                   check=_one_amplitude, emits=_source_sort),
    "add": Kind(("a", "b"), _add, lambda _p, ins, *_: sum(ins.values())),
    "mul": Kind(("in",), _mul, lambda p, ins, *_: ins["in"] * p["k"],
                params={"k": Param(integer(1), True)}),
    "min": Kind(VARIADIC, _race(arith.min_race),
                lambda _p, ins, *_: min(ins.values())),
    "max": Kind(VARIADIC, _race(arith.max_race),
                lambda _p, ins, *_: max(ins.values())),
    "mux": Kind(VARIADIC, _mux, _mux_oracle, emits=MUX),
    "demux": Kind(("in",), _demux, lambda _p, ins, *_: ins["in"], takes=MUX,
                  emits=MUX),
    "madd": Kind(VARIADIC, _madd,
                 lambda _p, ins, *_: sum(pos * amp for mv in ins.values()
                                         for pos, amp in mv.items()),
                 takes=MV),
    "accumulator": Kind(("in",), _accumulator, _accumulator_oracle,
                        params={"model": Param(_model),
                                "depth": Param(integer(1, MAX_CHAIN_DEPTH)),
                                "rate": Param(positive_fraction),
                                "flux": Param(positive_fraction),
                                "seed": Param(COUNT), "clock": _CLOCK},
                        check=_toggle_depth),
    "convert": Kind(("in",), _convert,
                    lambda _p, ins, rate, _: ins["in"] * rate // 1,
                    clocked=True, params={"clock": Param(str, True)}),
    "probe": Kind(("in",), lambda *_: (None, 0, ()),
                  lambda _p, ins, *_: ins["in"], outputs=(), takes=None),
}
