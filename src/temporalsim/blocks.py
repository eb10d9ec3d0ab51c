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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import arith
from .accumulators import (
    AccumulatorConfig,
    AccumulatorModel,
    accumulate,
    accumulate_digital,
    convert_reference,
    toggle_chain_overflowed,
)
from .channel import TimedMessage
from .core import ClockRef, IntervalValue, MultiValentTrain, UnaryTrain
from .errors import SimulationError

# Per-block constant tick overhead for delimiter handling.
C0 = 1


@dataclass(frozen=True)
class Param:
    parse: Callable[[str], object]     # raises ValueError on a bad value
    required: bool = False


@dataclass
class Firing:
    """What a fire function sees: one block, its inputs and the run."""

    block_id: str
    params: Dict[str, object]          # only the keys the netlist sets
    inputs: List[TimedMessage]         # in sorted input-port order
    t: int                             # fire tick: the last input arrival
    clock: Optional[ClockRef]          # clock=, else the netlist default
    seed: Optional[int]                # the run's --seed
    stats: object                      # engine.TraceStats


Fire = Callable[[Firing], Tuple[Optional[TimedMessage], int]]
Oracle = Callable[[Dict[str, object], Dict[str, object]], object]


@dataclass(frozen=True)
class Kind:
    inputs: Optional[Tuple[str, ...]]  # VARIADIC: in0, in1, ...
    fire: Fire
    oracle: Optional[Oracle] = None
    params: Dict[str, Param] = field(default_factory=dict)
    clocked: bool = False              # needs clock= or a netlist default
    outputs: Tuple[str, ...] = ("out",)
    # A rule across parameters: returns a problem, or None when they agree.
    check: Optional[Callable[[Dict[str, object]], Optional[str]]] = None


VARIADIC = None


def _int_at_least(minimum: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError("is not an integer") from None
        if value < minimum:
            raise ValueError("must be >= %d" % minimum)
        return value
    return parse


def _positive_fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError("is not rational") from None
    if value <= 0:
        raise ValueError("must be > 0")
    return value


def parse_params(block) -> Tuple[Dict[str, object], List[str]]:
    """Parse a block's params by its kind's schema: (values, errors)."""
    kind = KINDS[block.kind]
    values: Dict[str, object] = {}
    errors: List[str] = []
    for key, param in kind.params.items():
        if key not in block.params:
            if param.required:
                errors.append("block %r (%s) missing param %r"
                              % (block.id, block.kind, key))
            continue
        try:
            values[key] = param.parse(block.params[key])
        except ValueError as exc:
            errors.append("block %r param %s=%r: %s"
                          % (block.id, key, block.params[key], exc))
    problem = kind.check(values) if kind.check and not errors else None
    if problem:
        errors.append("block %r (%s): %s" % (block.id, block.kind, problem))
    return values, errors


def _scalar(msg: TimedMessage) -> int:
    if msg.kind != "scalar":
        raise SimulationError("expected a scalar message, got %s" % msg.kind)
    return msg.decode()


def _out(value: int, f: Firing, clock: ClockRef) -> TimedMessage:
    return TimedMessage.interval(value, f.t, clock)


def _source(f: Firing):
    value = f.params["value"]
    if "position" in f.params:
        pos = f.params["position"]
        msg = TimedMessage.multivalent(((pos, value),), f.t, f.clock)
        return msg, pos + C0
    return _out(value, f, f.clock), value + C0


def _add(f: Firing):
    a, b = (UnaryTrain(_scalar(m), m.clock) for m in f.inputs)
    total = arith.add_concat(a, b).length
    return _out(total, f, a.clock), total + C0


def _mul(f: Firing):
    (msg,) = f.inputs
    out = arith.mul_dilate(UnaryTrain(_scalar(msg), msg.clock),
                           f.params["k"]).length
    return _out(out, f, msg.clock), out + C0


def _race(race) -> Fire:
    # Lanes start together on the first port's clock and race raw counts.
    def fire(f: Firing):
        clock = f.inputs[0].clock
        out = race([IntervalValue(0, _scalar(m), clock) for m in f.inputs])
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
        if msg.kind != "mv":
            raise SimulationError("expected multi-valent messages")
        trains.append(MultiValentTrain(
            tuple(zip(msg.value_offsets(), msg.amplitudes)), msg.clock))
    merged = arith.mv_merge(trains)
    sweep = max((p for p, _a in merged.items), default=0)
    return _out(arith.madd(merged), f, merged.clock), sweep + C0


def _accumulator(f: Firing):
    (msg,) = f.inputs
    value = _scalar(msg)
    ref = f.clock if "clock" in f.params else msg.clock
    p = f.params
    model = p.get("model", AccumulatorModel.DIGITAL_COUNTER)
    noise_seed = p.get("seed")
    if (noise_seed is None and f.seed is not None
            and model is AccumulatorModel.PHOTON_COUNTER):
        noise_seed = f.seed ^ zlib.crc32(f.block_id.encode())
    config = AccumulatorConfig(model, p.get("depth", 8), p.get("rate", 1),
                               p.get("flux", 1), noise_seed)
    iv = IntervalValue(0, value, msg.clock)
    if model is AccumulatorModel.TOGGLE_CHAIN and toggle_chain_overflowed(
            accumulate_digital(iv, ref), config.chain_depth):
        f.stats.overflow_flags.append(f.block_id)
    return _out(accumulate(iv, ref, config), f, ref), value + C0


def _convert(f: Firing):
    (msg,) = f.inputs
    return _out(convert_reference(_scalar(msg), msg.clock, f.clock), f,
                f.clock), C0


def _source_oracle(p, _ins):
    return (p["position"], p["value"]) if "position" in p else p["value"]


def _inputs(ins: Dict[str, object], pairs: bool = False) -> list:
    """An oracle's input values: ints, or (position, amplitude) pairs from
    multi-valent sources; the wrong sort is an error, as in firing."""
    values = list(ins.values())
    if any(isinstance(v, tuple) != pairs for v in values):
        raise SimulationError("expected multi-valent messages" if pairs
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


_COUNT = _int_at_least(0)
_CLOCK = Param(str)

KINDS: Dict[str, Kind] = {
    "source": Kind((), _source, _source_oracle, clocked=True,
                   params={"value": Param(_COUNT, True),
                           "position": Param(_COUNT), "clock": _CLOCK},
                   check=_one_amplitude),
    "add": Kind(("a", "b"), _add, lambda _p, ins: sum(_inputs(ins))),
    "mul": Kind(("in",), _mul, lambda p, ins: _inputs(ins)[0] * p["k"],
                params={"k": Param(_int_at_least(1), True)}),
    "min": Kind(VARIADIC, _race(arith.min_race),
                lambda _p, ins: min(_inputs(ins))),
    "max": Kind(VARIADIC, _race(arith.max_race),
                lambda _p, ins: max(_inputs(ins))),
    "mux": Kind(VARIADIC, _mux),
    "demux": Kind(("in",), _demux),
    "madd": Kind(VARIADIC, _madd,
                 lambda _p, ins: sum(pos * amp for pos, amp
                                     in _inputs(ins, pairs=True))),
    "accumulator": Kind(("in",), _accumulator, clocked=True,
                        params={"model": Param(AccumulatorModel),
                                "depth": Param(_int_at_least(1)),
                                "rate": Param(_positive_fraction),
                                "flux": Param(_positive_fraction),
                                "seed": Param(_COUNT), "clock": _CLOCK},
                        check=_toggle_depth),
    "convert": Kind(("in",), _convert, clocked=True,
                    params={"clock": Param(str, True)}),
    "probe": Kind(("in",), lambda _f: (None, 0), lambda _p, ins: ins["in"],
                  outputs=()),
}
