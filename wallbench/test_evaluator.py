"""Tests for the benchmark's generators and independent evaluator.

    python3 -m pytest wallbench/test_evaluator.py -q
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from evaluator import EvaluationError, Unchecked, evaluate
from workloads import (
    WORKLOADS,
    Block,
    Spec,
    dag_netlist,
    golden_specs,
    job_pool,
    madd_netlist,
    mesh_netlist,
    spec_from_text,
)

SRC = Path(__file__).resolve().parent.parent / "src"
CLOCKS = {"main": Fraction(1), "fast": Fraction(3, 2)}


def _spec(*blocks, probes=None, clocks=CLOCKS):
    blocks = [Block(bid, kind, params, inputs)
              for bid, kind, params, inputs in blocks]
    return Spec("t", dict(clocks), blocks,
                probes if probes is not None
                else [(blocks[-1].id, "out")])


def _value(*blocks, **kw):
    results, _tick = evaluate(_spec(*blocks, **kw))
    return results


def _src(bid, value, clock="main"):
    return (bid, "source", {"value": str(value), "clock": clock}, [])


def test_mux_carries_the_value_set_through_demux():
    got = _value(_src("a", 5), _src("b", 7),
                 ("x", "mux", {}, [("in0", "a", None), ("in1", "b", None)]),
                 ("d", "demux", {}, [("in", "x", 2)]))
    assert got == {"d.out": {5, 7}}


@pytest.mark.parametrize("values", [(5, 5), (0, 3)])
def test_mux_rejects_duplicates_and_zero(values):
    with pytest.raises(EvaluationError):
        _value(_src("a", values[0]), _src("b", values[1]),
               ("x", "mux", {}, [("in0", "a", None), ("in1", "b", None)]))


@pytest.mark.parametrize("value,depth,want", [(13, 3, 5), (8, 3, 0),
                                              (7, 3, 7), (37, 5, 5)])
def test_toggle_keeps_count_mod_two_to_the_depth(value, depth, want):
    got = _value(_src("a", value),
                 ("t", "accumulator", {"model": "toggle",
                                       "depth": str(depth)},
                  [("in", "a", None)]))
    assert got == {"t.out": want}


@pytest.mark.parametrize("model,key", [("analog", "rate"),
                                       ("photon", "flux")])
def test_analog_and_noiseless_photon_floor(model, key):
    got = _value(_src("a", 7),
                 ("c", "accumulator", {"model": model, key: "2/3"},
                  [("in", "a", None)]))
    assert got == {"c.out": 4}                     # floor(14/3)


def test_accumulator_counts_under_its_own_reference():
    got = _value(_src("a", 5),
                 ("c", "accumulator", {"clock": "fast"},
                  [("in", "a", None)]))
    assert got == {"c.out": 7}                     # floor(5 * 3/2)


@pytest.mark.parametrize("src,dst,value,want", [("main", "fast", 5, 7),
                                                ("fast", "main", 5, 3),
                                                ("fast", "main", 6, 4)])
def test_convert_floors_the_exchange(src, dst, value, want):
    got = _value(_src("a", value, src),
                 ("c", "convert", {"clock": dst}, [("in", "a", None)]))
    assert got == {"c.out": want}


def test_convert_output_lives_on_the_target_clock():
    with pytest.raises(EvaluationError):
        _value(_src("a", 4), _src("b", 4),
               ("c", "convert", {"clock": "fast"}, [("in", "a", None)]),
               ("s", "add", {}, [("a", "c", None), ("b", "b", None)]))


def test_madd_merges_equal_positions():
    mv = [(b, "source", {"value": str(v), "position": str(p)}, [])
          for b, v, p in (("t0", 3, 2), ("t1", 4, 3), ("t2", 2, 3))]
    got = _value(*mv, ("d", "madd", {},
                       [("in%d" % i, "t%d" % i, None) for i in range(3)]))
    assert got == {"d.out": 3 * 2 + 6 * 3}


def test_seeded_photon_is_unchecked_and_bounded():
    results, tick = evaluate(_spec(
        _src("a", 10),
        ("c", "accumulator", {"model": "photon", "flux": "3",
                              "seed": "9"}, [("in", "a", 4)])))
    assert results == {"c.out": Unchecked(Fraction(30))}
    assert tick == 14 + Unchecked(Fraction(30)).bound


def test_last_tick_follows_fire_times_and_latency():
    _results, tick = evaluate(_spec(
        _src("a", 3), _src("b", 4),
        ("s", "add", {}, [("a", "a", 5), ("b", "b", 1)]),
        ("m", "mul", {"k": "2"}, [("in", "s", 2)])))
    # s fires at max(3+5, 4+1) = 8, ends at 15; m fires at 17, ends at 31
    assert tick == 31


def test_probe_block_records_its_input():
    got = _value(_src("a", 7), ("p", "probe", {}, [("in", "a", None)]),
                 probes=[("p", "in")])
    assert got == {"p.in": 7}


def test_golden_figures():
    got = {spec.name: evaluate(spec)[0] for spec in golden_specs()}
    assert got == {
        "unary7.net": {"p.in": 7},
        "add34.net": {"sum.out": 7},
        "mul5x3.net": {"m.out": 15},
        "mux57.net": {"x.out": {5, 7}, "d.out": {5, 7}},
        "madd.net": {"d.out": 18},
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pool_is_a_pure_function_of_the_seed(name):
    first = [s.text() for s in job_pool(name, 3)]
    assert first == [s.text() for s in job_pool(name, 3)]
    assert first != [s.text() for s in job_pool(name, 4)]
    assert len(first) == WORKLOADS[name].pool


def test_text_round_trip_keeps_the_evaluation():
    rng = random.Random(5)
    for spec in (mesh_netlist(rng, 60, "m"), dag_netlist(rng, 120, "d")):
        assert evaluate(spec_from_text("r", spec.text())) == evaluate(spec)


def _small_specs():
    rng = random.Random(11)
    return ([dag_netlist(rng, n, "dag%d" % n) for n in (40, 90, 200)]
            + [madd_netlist(rng, n, "madd%d" % n) for n in (1, 8, 9, 21)]
            + [mesh_netlist(rng, n, "mesh%d" % i)
               for i, n in enumerate([5, 12, 30, 45, 80] * 6)]
            + golden_specs())


def test_evaluator_agrees_with_the_library():
    sys.path.insert(0, str(SRC))
    from temporalsim import oracle_results, parse_netlist, run
    for spec in _small_specs():
        expected, last_tick = evaluate(spec)
        net = parse_netlist(spec.text())
        trace = run(net, budget=2 * last_tick + 100)
        assert not trace.stats.budget_exhausted, spec.name
        assert max(e[0] for e in trace.events) <= last_tick, spec.name
        assert set(trace.results) == set(expected), spec.name
        for key, want in expected.items():
            if not isinstance(want, Unchecked):
                assert trace.results[key] == want, (spec.name, key)
        if all(b.kind in ("source", "add", "mul", "min", "max", "madd")
               for b in spec.blocks):
            assert oracle_results(net) == expected, spec.name
