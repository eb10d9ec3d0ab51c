"""Every block kind, defined once.

`KINDS` maps a kind name to its input ports, its parameter schema,
whether it needs a clock, the fire function the engine runs and the
integer oracle function `check` compares against. The validator, the
engine and the oracle read this table and nothing else.

Fire functions compute with the library's paper operations: add by
concatenation, multiply by dilation, min/max by racing synchronous
lanes, the multiplexed channel, the multi-valent merge and sweep, the
accumulator models and reference conversion. Oracle functions use plain
integer arithmetic only, so the two stay independent.
"""

from __future__ import annotations

import zlib
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import arith
from .accumulators import (
    MAX_CHAIN_DEPTH,
    AccumulatorConfig,
    AccumulatorModel,
    accumulate,
    accumulate_digital,
    convert_reference,
    toggle_chain_overflowed,
)
from .channel import EVENT_END, EVENT_START, EVENT_VALUE, TimedMessage
from .core import ClockRef, IntervalValue, MultiValentTrain, UnaryTrain
from .errors import SimulationError

# Per-block constant tick overhead for delimiter handling.
C0 = 1


class Param(namedtuple("Param", "parse required", defaults=(False,))):
    """A parameter's parser, which raises ValueError on a bad value, and
    whether the netlist must set it."""

    __slots__ = ()


@dataclass
class Firing:
    """What a fire function sees: one block, its inputs and the run."""

    block_id: str
    params: Dict[str, object]          # only the keys the netlist sets
    inputs: List[TimedMessage]         # in sorted input-port order
    t: int                             # fire tick: the last input arrival
    clock: Optional[ClockRef]          # clock=, else the default if clocked
    seed: Optional[int]                # the run's --seed
    stats: object                      # engine.TraceStats


Fire = Callable[[Firing], Tuple[Optional[TimedMessage], int]]
Oracle = Callable[[Dict[str, object], Dict[str, object]], object]


class Kind(namedtuple("Kind", "inputs fire oracle params clocked outputs "
                             "check")):
    """A block kind. `inputs` lists its ports, or is VARIADIC for in0,
    in1, ...; without clock=, a `clocked` kind runs on the netlist's
    default clock; `check` is a rule across parameters that returns a
    problem, or None when they agree."""

    __slots__ = ()

    def __new__(cls, inputs: Optional[Tuple[str, ...]], fire: Fire,
                oracle: Optional[Oracle] = None,
                params: Optional[Dict[str, Param]] = None,
                clocked: bool = False, outputs: Tuple[str, ...] = ("out",),
                check: Optional[Callable[[Dict[str, object]],
                                         Optional[str]]] = None):
        # Each kind gets its own params dict, never a shared default.
        return tuple.__new__(cls, (inputs, fire, oracle,
                                   {} if params is None else params,
                                   clocked, outputs, check))


VARIADIC = None


# CPython converts at most 4300 decimal digits to an int by default. A
# longer number token is refused before conversion, on any interpreter.
MAX_NUMBER_CHARS = 4300


def too_long(token: str) -> Optional[str]:
    """Why a number token is too long to convert, or None."""
    if len(token) <= MAX_NUMBER_CHARS:
        return None
    return "is too long (%d characters, at most %d)" % (len(token),
                                                        MAX_NUMBER_CHARS)


def quote(token: str) -> str:
    """A token as an error message echoes it: cut short when long."""
    return repr(token) if len(token) <= 40 else repr(token[:20]) + "..."


def _number(convert: Callable[[str], object], text: str, problem: str):
    """`convert(text)`, or a ValueError: `problem`, or that the token is
    too long to convert."""
    if too_long(text):
        raise ValueError(too_long(text))
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(problem) from None


def _int_in(minimum: int,
            maximum: Optional[int] = None) -> Callable[[str], int]:
    def parse(text: str) -> int:
        value = _number(int, text, "is not an integer")
        if value < minimum:
            raise ValueError("must be >= %d" % minimum)
        if maximum is not None and value > maximum:
            raise ValueError("must be <= %d" % maximum)
        return value
    return parse


def _positive_fraction(text: str) -> Fraction:
    value = _number(Fraction, text, "is not rational")
    if value <= 0:
        raise ValueError("must be > 0")
    return value


def _model(text: str) -> AccumulatorModel:
    try:
        return AccumulatorModel(text)
    except ValueError:
        raise ValueError("must be one of %s" % ", ".join(
            model.value for model in AccumulatorModel)) from None


def parse_params(block) -> Tuple[Dict[str, object], List[str]]:
    """Parse a block's params by its kind's schema: (values, errors).
    A key the schema does not list is an error."""
    kind = KINDS[block.kind]
    raw, schema = block.params, kind.params
    if not raw and not schema:
        return {}, []
    values: Dict[str, object] = {}
    errors: List[str] = []
    for key, param in schema.items():
        text = raw.get(key)
        if text is None:
            if param.required:
                errors.append("block %r (%s) missing param %r"
                              % (block.id, block.kind, key))
            continue
        try:
            values[key] = param.parse(text)
        except ValueError as exc:
            errors.append("block %r param %s=%s: %s"
                          % (block.id, key, quote(text), exc))
    problem = kind.check(values) if kind.check and not errors else None
    if problem:
        errors.append("block %r (%s): %s" % (block.id, block.kind, problem))
    # With no error, every schema key in `raw` is in `values`, so equal
    # counts mean no unknown key.
    if errors or len(values) != len(raw):
        errors += ["block %r (%s) unknown param %r"
                   % (block.id, block.kind, key)
                   for key in raw if key not in schema]
    return values, errors


# Fire functions build their values with the `_trusted` constructors:
# every input message was checked where it was built, and parameters
# where the netlist was parsed, so a value derived from them is valid.


def _scalar(msg: TimedMessage) -> int:
    events = msg.events
    role, end = events[-1]
    if msg.amplitudes or role == EVENT_VALUE:
        raise SimulationError("expected a scalar message, got %s" % msg.kind)
    return end - events[0][1]


def _out(value: int, f: Firing, clock: ClockRef) -> TimedMessage:
    # value >= 0: every fire function's result is a count.
    return TimedMessage._trusted(
        ((EVENT_START, f.t), (EVENT_END, f.t + value)), clock)


def _source(f: Firing):
    value = f.params["value"]
    if "position" in f.params:
        pos = f.params["position"]
        msg = TimedMessage._trusted(
            ((EVENT_START, f.t), (EVENT_VALUE, f.t + pos)), f.clock, (value,))
        return msg, pos + C0
    return _out(value, f, f.clock), value + C0


def _add(f: Firing):
    a, b = (UnaryTrain._trusted(_scalar(m), m.clock) for m in f.inputs)
    total = arith.add_concat(a, b).length
    return _out(total, f, a.clock), total + C0


def _mul(f: Firing):
    (msg,) = f.inputs
    out = arith.mul_dilate(UnaryTrain._trusted(_scalar(msg), msg.clock),
                           f.params["k"]).length
    return _out(out, f, msg.clock), out + C0


def _race(race) -> Fire:
    # Lanes start together on the first port's clock and race raw counts.
    def fire(f: Firing):
        clock = f.inputs[0].clock
        out = race([IntervalValue._trusted(0, _scalar(m), clock)
                    for m in f.inputs])
        return _out(out, f, clock), out + C0
    return fire


def _mux(f: Firing):
    clock = f.inputs[0].clock
    channel = arith.mux([_scalar(m) for m in f.inputs], clock)
    pulses = channel.value_pulses
    return (TimedMessage.multiplexed(pulses, f.t, clock), max(pulses) + C0)


def _demux(f: Firing):
    (msg,) = f.inputs
    if msg.kind != "mux":
        raise SimulationError("expected a multiplexed message")
    values = msg.decoded()
    return TimedMessage.multiplexed(values, f.t, msg.clock), max(values) + C0


def _madd(f: Firing):
    trains = []
    for msg in f.inputs:
        amplitudes = msg.amplitudes
        if not amplitudes:
            raise SimulationError("expected multi-valent messages")
        # A checked message's events never go back in time, so its value
        # pulses are sorted positions >= 0; only a repeat can be wrong.
        events = msg.events
        start = events[0][1]
        positions = [t - start for role, t in events if role == EVENT_VALUE]
        if len(set(positions)) != len(positions):
            raise ValueError("duplicate bucket positions")
        trains.append(MultiValentTrain._trusted(
            tuple(zip(positions, amplitudes)), msg.clock))
    merged = arith.mv_merge(trains)
    sweep = merged.items[-1][0] if merged.items else 0
    return _out(arith.madd(merged), f, merged.clock), sweep + C0


def _accumulator(f: Firing):
    (msg,) = f.inputs
    value = _scalar(msg)
    ref = f.clock or msg.clock
    p = f.params
    model = p.get("model", AccumulatorModel.DIGITAL_COUNTER)
    noise_seed = p.get("seed")
    if (noise_seed is None and f.seed is not None
            and model is AccumulatorModel.PHOTON_COUNTER):
        noise_seed = f.seed ^ zlib.crc32(f.block_id.encode())
    config = AccumulatorConfig._trusted(
        model, p.get("depth", 8), p.get("rate", 1), p.get("flux", 1),
        noise_seed)
    iv = IntervalValue._trusted(0, value, msg.clock)
    if model is AccumulatorModel.TOGGLE_CHAIN and toggle_chain_overflowed(
            accumulate_digital(iv, ref), config.chain_depth):
        f.stats.overflow_flags.append(f.block_id)
    return _out(accumulate(iv, ref, config), f, ref), value + C0


def _convert(f: Firing):
    (msg,) = f.inputs
    return _out(convert_reference(_scalar(msg), msg.clock, f.clock), f,
                f.clock), C0


def _source_oracle(p, _ins):
    return {p["position"]: p["value"]} if "position" in p else p["value"]


def _inputs(ins: Dict[str, object], maps: bool = False) -> list:
    """An oracle's input values: ints, or {position: amplitude} maps from
    multi-valent sources; the wrong sort is an error, as in firing."""
    values = list(ins.values())
    if any(isinstance(v, dict) != maps for v in values):
        raise SimulationError("expected multi-valent messages" if maps
                              else "expected a scalar message, got mv")
    return values


def _one_amplitude(p) -> Optional[str]:
    if "position" in p and p["value"] < 1:
        return "multi-valent amplitude value=0 must be >= 1"
    return None


def _toggle_depth(p) -> Optional[str]:
    if p.get("model") is AccumulatorModel.TOGGLE_CHAIN and "depth" not in p:
        return "missing param 'depth' (model=toggle)"
    return None


_COUNT = _int_in(0)
_CLOCK = Param(str)

KINDS: Dict[str, Kind] = {
    "source": Kind((), _source, _source_oracle, clocked=True,
                   params={"value": Param(_COUNT, True),
                           "position": Param(_COUNT), "clock": _CLOCK},
                   check=_one_amplitude),
    "add": Kind(("a", "b"), _add, lambda _p, ins: sum(_inputs(ins))),
    "mul": Kind(("in",), _mul, lambda p, ins: _inputs(ins)[0] * p["k"],
                params={"k": Param(_int_in(1), True)}),
    "min": Kind(VARIADIC, _race(arith.min_race),
                lambda _p, ins: min(_inputs(ins))),
    "max": Kind(VARIADIC, _race(arith.max_race),
                lambda _p, ins: max(_inputs(ins))),
    "mux": Kind(VARIADIC, _mux),
    "demux": Kind(("in",), _demux),
    "madd": Kind(VARIADIC, _madd,
                 lambda _p, ins: sum(pos * amp
                                     for mv in _inputs(ins, maps=True)
                                     for pos, amp in mv.items())),
    "accumulator": Kind(("in",), _accumulator,
                        params={"model": Param(_model),
                                "depth": Param(_int_in(1, MAX_CHAIN_DEPTH)),
                                "rate": Param(_positive_fraction),
                                "flux": Param(_positive_fraction),
                                "seed": Param(_COUNT), "clock": _CLOCK},
                        check=_toggle_depth),
    "convert": Kind(("in",), _convert, clocked=True,
                    params={"clock": Param(str, True)}),
    "probe": Kind(("in",), lambda _f: (None, 0), lambda _p, ins: ins["in"],
                  outputs=()),
}
