"""Independent evaluator of a generated netlist's probe values.

Plain integer and `Fraction` arithmetic over the generator's own data
(`workloads.Spec`); it never calls the engine or `oracle_results`, so a
benchmark job is checked against something the library did not compute.
It follows the documented block semantics:

- add, mul, min, max, madd (sum of position * amplitude over the merged
  multi-valent inputs);
- mux/demux carry the duplicate-free set of positive input values;
- an accumulator counts floor(v * f_ref / f_in) reference pulses, where
  the reference is its `clock=` or else the input's clock; `toggle` keeps
  that count mod 2**depth, `analog` and noiseless `photon` floor
  rate * count and flux * count;
- convert re-denominates floor(v * f_dst / f_src);
- variadic blocks take the clock of port in0, add the clock of port a.

A photon counter with `seed=` draws Poisson noise, so its value is
`Unchecked`: only the run-to-run repeat check covers it.

Stdlib only, like the generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple


@dataclass(frozen=True)
class Unchecked:
    """A seeded photon count: known only as a Poisson draw of this mean."""

    mean: Fraction

    @property
    def bound(self) -> int:
        # Far above any draw a Poisson sampler returns for this mean.
        return 4 * math.ceil(self.mean) + 100


class EvaluationError(ValueError):
    """The netlist breaks a rule the engine would reject at run time."""


def default_clock(clocks: Dict[str, Fraction]):
    if "main" in clocks:
        return "main"
    return next(iter(clocks)) if len(clocks) == 1 else None


def _scalar(value, block) -> int:
    if not isinstance(value, int):
        raise EvaluationError("block %s needs a scalar input" % block.id)
    return value


def fire(block, ins: Dict[str, Tuple[str, object]],
         clocks: Dict[str, Fraction]) -> Tuple[str, object]:
    """(clock id, value) on a block's output; a probe passes its input.

    A value is an int, a frozenset (mux/demux), a tuple of (position,
    amplitude) pairs (multi-valent source) or `Unchecked`.
    """
    kind, params = block.kind, block.params
    if kind == "source":
        clock = params.get("clock", default_clock(clocks))
        if "position" in params:
            return clock, ((int(params["position"]), int(params["value"])),)
        return clock, int(params["value"])
    if kind == "probe":
        return ins["in"]
    # The engine orders variadic ports by name, so port in0 comes first.
    first_clock = ins[min(ins)][0]
    values = [ins[port][1] for port in sorted(ins)]
    if kind == "add":
        (ca, a), (cb, b) = ins["a"], ins["b"]
        if ca != cb:
            raise EvaluationError("add %s mixes clocks" % block.id)
        return ca, _scalar(a, block) + _scalar(b, block)
    if kind == "mul":
        clock, a = ins["in"]
        return clock, _scalar(a, block) * int(params["k"])
    if kind in ("min", "max"):
        scalars = [_scalar(v, block) for v in values]
        return first_clock, min(scalars) if kind == "min" else max(scalars)
    if kind == "mux":
        scalars = [_scalar(v, block) for v in values]
        if len(set(scalars)) != len(scalars) or min(scalars) < 1:
            raise EvaluationError("mux %s needs distinct positive values"
                                  % block.id)
        return first_clock, frozenset(scalars)
    if kind == "demux":
        clock, members = ins["in"]
        if not isinstance(members, frozenset):
            raise EvaluationError("demux %s needs a mux input" % block.id)
        return clock, members
    if kind == "madd":
        merged: Dict[int, int] = {}
        for port in sorted(ins):
            clock, pairs = ins[port]
            if clock != first_clock or not isinstance(pairs, tuple):
                raise EvaluationError("madd %s needs multi-valent inputs "
                                      "on one clock" % block.id)
            for pos, amp in pairs:
                merged[pos] = merged.get(pos, 0) + amp
        return first_clock, sum(pos * amp for pos, amp in merged.items())
    if kind == "accumulator":
        clock, value = ins["in"]
        ref = params.get("clock", clock)
        count = math.floor(_scalar(value, block) * clocks[ref]
                           / clocks[clock])
        model = params.get("model", "digital")
        if model == "digital":
            return ref, count
        if model == "toggle":
            return ref, count % (1 << int(params.get("depth", 8)))
        if model == "analog":
            return ref, math.floor(Fraction(params.get("rate", 1)) * count)
        mean = Fraction(params.get("flux", 1)) * count
        if "seed" in params:
            return ref, Unchecked(mean)
        return ref, math.floor(mean)
    if kind == "convert":
        clock, value = ins["in"]
        dst = params["clock"]
        return dst, math.floor(_scalar(value, block) * clocks[dst]
                               / clocks[clock])
    raise EvaluationError("unknown block kind %r" % kind)


def _span(value) -> int:
    """Ticks from a message's start event to its last event."""
    if isinstance(value, int):
        return value
    if isinstance(value, frozenset):
        return max(value)
    if isinstance(value, tuple):
        return max(pos for pos, _amp in value)
    return value.bound


def _decoded(value):
    """The value as the engine reports a probe: sets, dicts, ints."""
    if isinstance(value, tuple):
        return dict(value)
    return value


def evaluate(spec) -> Tuple[Dict[str, object], int]:
    """Expected probe results, keyed as the engine keys them, and the
    latest event tick any block's output can reach.

    Blocks fire when their last input arrives (t = 0 for sources); an
    output's last event lands its span after the fire tick, and a wire
    shifts every event by its constant latency.
    """
    outs: Dict[str, Tuple[str, object]] = {}
    last: Dict[str, int] = {}
    results: Dict[str, object] = {}
    for block in spec.blocks:
        try:
            ins = {port: outs[src] for port, src, _lat in block.inputs}
        except KeyError as exc:
            raise EvaluationError("block %s reads %s before it is defined"
                                  % (block.id, exc)) from None
        t_fire = max((last[src] + (lat or 0)
                      for _port, src, lat in block.inputs), default=0)
        outs[block.id] = fire(block, ins, spec.clocks)
        if block.kind == "probe":
            last[block.id] = t_fire
            results["%s.in" % block.id] = _decoded(outs[block.id][1])
        else:
            last[block.id] = t_fire + _span(outs[block.id][1])
    for bid, port in spec.probes:
        if port == "out":
            value = outs[bid][1]
        else:
            src = next(s for p, s, _l in _block(spec, bid).inputs
                       if p == port)
            value = outs[src][1]
        results["%s.%s" % (bid, port)] = _decoded(value)
    return results, max(last.values(), default=0)


def _block(spec, bid):
    return next(b for b in spec.blocks if b.id == bid)
