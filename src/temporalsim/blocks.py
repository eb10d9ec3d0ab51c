"""Every block kind, defined once.

`KINDS` maps a kind name to its input ports, its parameter schema, the
sort of message it takes and emits, the fire function the engine runs
and the integer oracle function `check` compares against. The validator,
the engine and the oracle read this table and nothing else. The engine
calls a fire function as `fire(block_id, params, inputs, t, clock,
seed)`: the block's id, its parsed params (only the keys the netlist
sets), its input messages in sorted port order, its fire tick (the last
input arrival), the clock it emits on (`net.clock_of`) and the run's
`--seed`. It returns all it found as one tuple `(message, cost,
warnings)`: its output (None for a probe), its cost in ticks and its
warning texts, `()` when there are none. An oracle is called as
`oracle(params, ins, rate, seed)`, with `ins` the list of its input
values in the fire's sorted port order.

Fire functions compute with the library's paper operations: add by
concatenation, multiply by dilation, min/max by racing synchronous
lanes, the multiplexed channel, the multi-valent merge and sweep, the
accumulator models and reference conversion. Oracle functions use plain
int and `Fraction` arithmetic only, so the two stay independent.
Validation checks every wire's sort, so no fire meets a wrong one; the
scalar operations refuse one anyway (`add requires scalar operands`,
`mul requires a scalar operand`, `race requires scalar lanes`, `mux
requires scalar lanes`).
"""

from __future__ import annotations

import zlib
from collections import namedtuple
from collections.abc import Callable, Mapping
from fractions import Fraction
from types import MappingProxyType

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
from .core import (EVENT_START, EVENT_VALUE, MUX, MV, SCALAR, TimedMessage,
                   _interval, _span, measure_interval)

# Per-block constant tick overhead for delimiter handling.
C0 = 1


class Param(namedtuple("Param", "parse required", defaults=(False,))):
    """A parameter's parser, which raises ValueError on a bad value, and
    whether the netlist must set it."""

    __slots__ = ()


# Read-only, so no kind can change another kind's schema.
_NO_PARAMS = MappingProxyType({})


class Kind(namedtuple("Kind", "inputs fire oracle params check takes emits",
                      defaults=(_NO_PARAMS, None, SCALAR, SCALAR))):
    """A block kind. `inputs` lists its ports, or is VARIADIC for in0,
    in1, ...; `fire` and `oracle` are called as the module docstring
    says; `check` is a rule across parameters that returns a problem, or
    None when they agree. Every input takes the sort `takes` (None: any
    sort). `emits` is the sort of the kind's one output port, `out`: a
    sort, a function from the block's params, as the netlist writes
    them, to that sort, or None for a kind with no output. Without
    clock=, a kind with no inputs runs on the netlist's default clock
    and any other kind on its first input's clock."""

    __slots__ = ()


VARIADIC = None


# `integer` and `positive_fraction` read every number token the package
# reads: ASCII digits, after an optional `-` for an integer, and `p` or
# `p/q` for a rational. A bad one raises ValueError with the reason, and
# the caller names the token. CPython converts at most 4300 decimal digits
# to an int by default: a longer token is refused before conversion, on
# any interpreter.
MAX_NUMBER_CHARS = 4300


def _too_long(token: str) -> ValueError:
    return ValueError("is too long (%d characters, at most %d)"
                      % (len(token), MAX_NUMBER_CHARS))


def quote(token: str) -> str:
    """A token as an error message echoes it: cut short when long."""
    return repr(token) if len(token) <= 40 else repr(token[:20]) + "..."


def integer(minimum: int | None = None,
            maximum: int | None = None) -> Callable[[str], int]:
    """A reader of an integer token, ASCII digits after an optional `-`,
    within the bounds given."""
    def parse(text: str) -> int:
        if not (text.isdigit() and text.isascii()):
            digits = text[1:] if text[:1] == "-" else ""
            if not (digits.isdigit() and digits.isascii()):
                raise ValueError("is not an integer")
        if len(text) > MAX_NUMBER_CHARS:
            raise _too_long(text)
        value = int(text)
        if minimum is not None and value < minimum:
            raise ValueError("must be >= %d" % minimum)
        if maximum is not None and value > maximum:
            raise ValueError("must be <= %d" % maximum)
        return value
    return parse


def positive_fraction(text: str) -> Fraction:
    """A rational token `p` or `p/q` in ASCII digits, > 0."""
    num, den = text, ""
    if not (text.isdigit() and text.isascii()):
        num, _slash, den = text.partition("/")
        if not (num.isdigit() and num.isascii() and den.isdigit()
                and den.isascii()):
            raise ValueError("is not rational")
    if len(text) > MAX_NUMBER_CHARS:
        raise _too_long(text)
    p, q = int(num), int(den) if den else 1
    if not q:
        raise ValueError("is not rational")
    if not p:
        raise ValueError("must be > 0")
    return Fraction(p, q)


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


# A fire function that builds a value itself builds it unchecked, with
# the C call `tuple.__new__(X, (...))` that namedtuple's `_make` makes:
# every input message was checked where it was built, its sort where the
# netlist was validated, and parameters where they were parsed, so a
# value derived from them is valid. Each paper operation returns its
# result message starting at the fire tick t, the tick its last operand
# ends.


def _source(_bid, params, _inputs, t, clock, _seed):
    value = params["value"]
    if "position" in params:
        pos = params["position"]
        msg = tuple.__new__(TimedMessage, (
            ((EVENT_START, t), (EVENT_VALUE, t + pos)), clock, (value,)))
        return msg, pos + C0, ()
    return _interval(value, t, clock), value + C0, ()


def _add(_bid, _params, inputs, _t, _clock, _seed):
    out = arith.add_concat(*inputs)
    return out, _span(out.events) + C0, ()


def _mul(_bid, params, inputs, _t, _clock, _seed):
    out = arith.mul_dilate(inputs[0], params["k"])
    return out, _span(out.events) + C0, ()


def _lanes(operation: str) -> Callable[..., tuple]:
    """The fire of a race or a mux: `arith.<operation>`, looked up when
    it fires, over the inputs as lanes on the output clock."""
    new = tuple.__new__

    def fire(_bid, _params, inputs, _t, clock, _seed):
        for lane in inputs:
            if lane.clock is not clock:
                # A lane on another clock is relabelled onto the output
                # clock, so lanes on two clocks race or multiplex raw
                # counts (ROADMAP item 2).
                inputs = [m if m.clock is clock else new(TimedMessage, (
                    m.events, clock, m.amplitudes)) for m in inputs]
                break
        out = getattr(arith, operation)(inputs)
        return out, _span(out.events) + C0, ()
    return fire


def _demux(_bid, _params, inputs, t, clock, _seed):
    out = TimedMessage.multiplexed(arith.demux(inputs[0]), t, clock)
    return out, _span(out.events) + C0, ()


def _madd(_bid, _params, inputs, t, clock, _seed):
    # An input may repeat a position; `mv_merge` sums the amplitudes at
    # an equal position, within one input as across inputs.
    merged = arith.mv_merge(inputs)
    sweep = merged.items[-1][0]
    return _interval(arith.madd(merged), t, clock), sweep + C0, ()


def _accumulator(bid, p, inputs, t, ref, run_seed):
    (x,) = inputs
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
    return _interval(out, t, ref), _span(x.events) + C0, found


def _convert(_bid, _params, inputs, t, clock, _seed):
    ((events, in_clock, _amplitudes),) = inputs
    out = convert_reference(_span(events), in_clock, clock)
    return _interval(out, t, clock), C0, ()


def _source_oracle(p, *_):
    return {p["position"]: p["value"]} if "position" in p else p["value"]


def _mux_oracle(_p, ins, *_):
    # The engine's rules and texts, checked here with plain sets.
    members = set(ins)
    if len(members) != len(ins):
        raise ValueError("mux requires duplicate-free values")
    if 0 in members:
        raise ValueError("0 collides with the start marker")
    return members


def _accumulator_oracle(p, ins, rate, seed):
    count = ins[0] * rate // 1     # whole reference pulses
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
    "source": Kind((), _source, _source_oracle,
                   params={"value": Param(COUNT, True),
                           "position": Param(COUNT), "clock": _CLOCK},
                   check=_one_amplitude, emits=_source_sort),
    "add": Kind(("a", "b"), _add, lambda _p, ins, *_: sum(ins)),
    "mul": Kind(("in",), _mul, lambda p, ins, *_: ins[0] * p["k"],
                params={"k": Param(integer(1), True)}),
    "min": Kind(VARIADIC, _lanes("min_race"), lambda _p, ins, *_: min(ins)),
    "max": Kind(VARIADIC, _lanes("max_race"), lambda _p, ins, *_: max(ins)),
    "mux": Kind(VARIADIC, _lanes("mux"), _mux_oracle, emits=MUX),
    "demux": Kind(("in",), _demux, lambda _p, ins, *_: ins[0], takes=MUX,
                  emits=MUX),
    "madd": Kind(VARIADIC, _madd,
                 lambda _p, ins, *_: sum(pos * amp for mv in ins
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
                    lambda _p, ins, rate, _: ins[0] * rate // 1,
                    params={"clock": Param(str, True)}),
    "probe": Kind(("in",), lambda *_: (None, 0, ()),
                  lambda _p, ins, *_: ins[0], takes=None, emits=None),
}
