"""Discrete-event execution: block semantics, costs, determinism, and
the integer-DAG oracle."""

import random

import pytest

from temporalsim import oracle_results, parse_netlist, run
from temporalsim.blocks import C0
from temporalsim.engine import (
    trace_from_csv,
    trace_to_csv,
    trace_to_waveform,
)
from temporalsim.errors import SimulationError

from dagutil import random_dag_netlist

ADD_NET = """\
clock main 1
block a source value=3 clock=main
block b source value=4 clock=main
block s add
wire a.out s.a
wire b.out s.b
probe s.out
"""


def _run_text(text, **kwargs):
    return run(parse_netlist(text), **kwargs)


class TestBlockSemantics:
    def test_add(self):
        trace = _run_text(ADD_NET)
        assert trace.results == {"s.out": 7}
        assert trace.stats.block_costs["s"] == 7 + C0

    def test_mul(self):
        trace = _run_text(
            "clock main 1\n"
            "block a source value=5 clock=main\n"
            "block m mul k=3\n"
            "wire a.out m.in\nprobe m.out\n")
        assert trace.results == {"m.out": 15}

    def test_min_max(self):
        text = ("clock main 1\n"
                "block a source value=5 clock=main\n"
                "block b source value=7 clock=main\n"
                "block lo min\nblock hi max\n"
                "wire a.out lo.in0\nwire b.out lo.in1\n"
                "wire a.out hi.in0\nwire b.out hi.in1\n"
                "probe lo.out\nprobe hi.out\n")
        trace = _run_text(text)
        assert trace.results == {"lo.out": 5, "hi.out": 7}

    def test_min_max_race_raw_counts_across_clocks(self):
        text = ("clock main 1\nclock fast 3/2\n"
                "block a source value=5 clock=main\n"
                "block b source value=4 clock=fast\n"
                "block lo min\nblock hi max\n"
                "wire a.out lo.in0\nwire b.out lo.in1\n"
                "wire a.out hi.in0\nwire b.out hi.in1\n"
                "probe lo.out\nprobe hi.out\n")
        trace = _run_text(text)
        assert trace.results == {"lo.out": 4, "hi.out": 5}
        assert trace.stats.block_costs["lo"] == 5
        assert trace.stats.block_costs["hi"] == 6

    def test_mux_demux(self):
        text = ("clock main 1\n"
                "block a source value=5 clock=main\n"
                "block b source value=7 clock=main\n"
                "block x mux\nblock d demux\n"
                "wire a.out x.in0\nwire b.out x.in1\nwire x.out d.in\n"
                "probe d.out\n")
        trace = _run_text(text)
        assert trace.results == {"d.out": {5, 7}}

    def test_madd(self):
        text = ("clock main 1\n"
                "block t0 source value=3 position=2 clock=main\n"
                "block t1 source value=4 position=3 clock=main\n"
                "block d madd\n"
                "wire t0.out d.in0\nwire t1.out d.in1\n"
                "probe d.out\n")
        trace = _run_text(text)
        assert trace.results == {"d.out": 18}
        assert trace.stats.block_costs["d"] == 3 + C0  # sweep to max position

    def test_accumulator_with_fast_reference(self):
        text = ("clock main 1\nclock fast 3\n"
                "block a source value=5 clock=main\n"
                "block acc accumulator clock=fast\n"
                "wire a.out acc.in\nprobe acc.out\n")
        assert _run_text(text).results == {"acc.out": 15}

    def test_toggle_accumulator_flags_overflow(self):
        text = ("clock main 1\n"
                "block a source value=18 clock=main\n"
                "block acc accumulator model=toggle depth=3\n"
                "wire a.out acc.in\nprobe acc.out\n")
        trace = _run_text(text)
        assert trace.results == {"acc.out": 2}
        assert trace.stats.overflow_flags == ["acc"]

    def test_convert_block(self):
        text = ("clock main 1\nclock fast 3\n"
                "block a source value=5 clock=main\n"
                "block c convert clock=fast\n"
                "wire a.out c.in\nprobe c.out\n")
        assert _run_text(text).results == {"c.out": 15}

    def test_add_rejects_mixed_clocks(self):
        text = ("clock main 1\nclock other 2\n"
                "block a source value=3 clock=main\n"
                "block b source value=4 clock=other\n"
                "block s add\n"
                "wire a.out s.a\nwire b.out s.b\nprobe s.out\n")
        with pytest.raises(SimulationError):
            _run_text(text)

    def test_probe_block_records_input(self):
        text = ("clock main 1\n"
                "block a source value=9 clock=main\n"
                "block p probe\n"
                "wire a.out p.in\nprobe p.in\n")
        assert _run_text(text).results == {"p.in": 9}


class TestTransport:
    def test_constant_latency_preserves_value(self):
        text = ("clock main 1\n"
                "block a source value=3 clock=main\n"
                "block b source value=4 clock=main\n"
                "block s add\n"
                "wire a.out s.a latency=13\nwire b.out s.b latency=900\n"
                "probe s.out\n")
        trace = _run_text(text)
        assert trace.results == {"s.out": 7}
        assert not trace.stats.stability_violations

    def test_table_latency_violation_is_flagged(self, tmp_path):
        table = tmp_path / "jitter.tbl"
        table.write_text("0 5\n7 8\ndefault 5\n")
        text = ("clock main 1\n"
                "block a source value=7 clock=main\n"
                "block p probe\n"
                "wire a.out p.in table=%s\nprobe p.in\n" % table)
        trace = _run_text(text)
        assert len(trace.stats.stability_violations) == 1
        assert "+3" in trace.stats.stability_violations[0]
        assert trace.results == {"p.in": 10}  # distorted value delivered


class TestEngineContract:
    def test_determinism_byte_identical(self):
        rng = random.Random(401)
        for _ in range(20):
            text = random_dag_netlist(rng)
            net = parse_netlist(text)
            assert trace_to_csv(run(net, seed=7)) == \
                   trace_to_csv(run(net, seed=7))

    def test_causality(self):
        trace = _run_text(ADD_NET)
        arrivals = [t for t, b, _p, _r in trace.events if b == "s"]
        assert min(arrivals) >= 0
        # output consumed downstream never precedes inputs
        text = ADD_NET.replace("probe s.out",
                               "block p probe\nwire s.out p.in\nprobe p.in")
        trace = _run_text(text)
        in_last = max(t for t, b, _p, _r in trace.events if b == "s")
        out_first = min(t for t, b, _p, _r in trace.events if b == "p")
        assert out_first >= in_last

    def test_budget_exhaustion_flagged(self):
        text = ("clock main 1\n"
                "block a source value=1000 clock=main\n"
                "block b source value=1000 clock=main\n"
                "block s add\n"
                "wire a.out s.a\nwire b.out s.b\nprobe s.out\n")
        trace = _run_text(text, budget=3)
        assert trace.stats.budget_exhausted
        assert "s.out" not in trace.results

    def test_quiescence_within_computable_budget(self):
        trace = _run_text(ADD_NET, budget=7 + 1)
        assert not trace.stats.budget_exhausted
        assert trace.results == {"s.out": 7}

    def test_event_order_is_total(self):
        trace = _run_text(ADD_NET)
        keys = [(t, b, p) for t, b, p, _r in trace.events]
        assert keys == sorted(keys)


class TestOracle:
    def test_matches_sim_on_random_dags(self):
        rng = random.Random(402)
        for _ in range(200):
            net = parse_netlist(random_dag_netlist(rng))
            assert run(net).results == oracle_results(net)

    def test_rejects_unsupported_kind(self):
        text = ("clock main 1\n"
                "block a source value=5 clock=main\n"
                "block acc accumulator\n"
                "wire a.out acc.in\nprobe acc.out\n")
        with pytest.raises(SimulationError):
            oracle_results(parse_netlist(text))

    @pytest.mark.parametrize("tail,error", [
        ("block d madd\nwire s.out d.in0\nprobe d.out\n",
         "block 'd' (madd): expected multi-valent messages"),
        ("block v source value=2 position=3 clock=main\nblock m mul k=2\n"
         "wire v.out m.in\nprobe m.out\n",
         "block 'm' (mul): expected a scalar message, got mv"),
    ], ids=["scalar-into-madd", "mv-into-mul"])
    def test_wrong_sort_of_input_names_the_block(self, tail, error):
        with pytest.raises(SimulationError) as err:
            oracle_results(parse_netlist(ADD_NET + tail))
        assert str(err.value) == error

    def test_deep_chain_agrees_with_run(self):
        depth = 1500
        text = "clock main 1\nblock m0 source value=2\n" + "".join(
            "block m%d mul k=1\nwire m%d.out m%d.in\n" % (i, i - 1, i)
            for i in range(1, depth + 1)) + "probe m%d.out\n" % depth
        net = parse_netlist(text)
        assert oracle_results(net) == run(net).results == {
            "m%d.out" % depth: 2}


class TestStatsAndExport:
    def test_add_overhead_is_constant(self):
        stats = _run_text(ADD_NET).stats
        assert stats.block_costs == {"a": 3 + C0, "b": 4 + C0, "s": 7 + C0}

    def test_cost_slope_is_two_per_unit(self):
        costs = {}
        for a in (10, 100, 1000, 10000):
            text = ("clock main 1\n"
                    "block x source value=%d clock=main\n"
                    "block y source value=%d clock=main\n"
                    "block s add\n"
                    "wire x.out s.a\nwire y.out s.b\nprobe s.out\n" % (a, a))
            costs[a] = _run_text(text).stats.block_costs["s"]
        assert all(costs[a] - 2 * a == C0 for a in costs)

    def test_empty_trace_summary_is_zeroed(self):
        trace = _run_text("clock main 1\nblock a source value=5 clock=main\n")
        assert trace.stats.total_ticks == 0
        assert trace.stats.event_count == 0
        assert trace.stats.block_costs == {"a": 5 + C0}

    def test_csv_round_trip(self):
        trace = _run_text(ADD_NET)
        text = trace_to_csv(trace)
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert text.splitlines()[0] == "tick,block,port,role"
        again = trace_from_csv(text)
        assert again.events == trace.events
        assert again.results == {"s.out": "7"}

    def test_waveform_shape(self):
        wave = trace_to_waveform(_run_text(ADD_NET))
        lines = wave.splitlines()
        assert lines[0] == "$timescale 1 tick $end"
        assert any(line.startswith("$var wire 1 ") for line in lines)
        assert any(line.startswith("#") for line in lines)
        assert wave.endswith("\n")
