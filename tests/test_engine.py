"""Discrete-event execution: block semantics, costs, determinism, and
the integer-DAG oracle."""

import random
import zlib
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from temporalsim import (
    ClockRef,
    IntervalValue,
    accumulate_photonic,
    blocks,
    oracle_results,
    parse_netlist,
    run,
)
from temporalsim import cli
from temporalsim.blocks import C0
from temporalsim.cli import main
from temporalsim.engine import (
    format_result,
    trace_from_csv,
    trace_to_csv,
    trace_to_waveform,
)
from temporalsim.errors import SimulationError

from dagutil import random_dag_netlist

GOLDEN = Path(__file__).parent / "golden"

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


_ROLE_RANK = {"start": 0, "value-pulse": 1, "end": 2}


def _full_key(event):
    """The trace order spelled out: tick, block, port, then role."""
    tick, block, port, role = event
    return tick, block, port, _ROLE_RANK[role]


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

    def test_madd_far_position(self):
        far = 10 ** 12
        text = ("clock main 1\n"
                "block t source value=7 position=%d clock=main\n"
                "block d madd\n"
                "wire t.out d.in0\nprobe d.out\n" % far)
        trace = _run_text(text, budget=10 ** 13)
        assert trace.results == {"d.out": 7 * far}
        assert trace.stats.block_costs["d"] == far + C0

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

    @pytest.mark.parametrize("value, flags", [(8, ["acc"]), (7, [])])
    def test_toggle_chain_wraps_at_two_to_the_depth(self, value, flags):
        # depth=3 holds 2**3 - 1 pulses; the 8th wraps the chain to 0.
        text = ("clock main 1\n"
                "block a source value=%d clock=main\n"
                "block acc accumulator model=toggle depth=3\n"
                "wire a.out acc.in\nprobe acc.out\n" % value)
        trace = _run_text(text)
        assert trace.results == {"acc.out": value % 8}
        assert trace.stats.overflow_flags == flags

    def test_convert_block(self):
        text = ("clock main 1\nclock fast 3\n"
                "block a source value=5 clock=main\n"
                "block c convert clock=fast\n"
                "wire a.out c.in\nprobe c.out\n")
        trace = _run_text(text)
        assert trace.results == {"c.out": 15}
        assert trace.stats.block_costs["c"] == C0

    def test_photon_counters_draw_from_their_own_seeds(self):
        text = ("clock main 1\n"
                "block a source value=40 clock=main\n"
                "block p accumulator model=photon flux=3\n"
                "block q accumulator model=photon flux=3\n"
                "wire a.out p.in\nwire a.out q.in\n"
                "probe p.out\nprobe q.out\n")
        seed = 1234
        main_clock = ClockRef("main", 1)
        trace = _run_text(text, seed=seed)
        for bid in ("p", "q"):
            assert trace.results[bid + ".out"] == accumulate_photonic(
                IntervalValue(0, 40, main_clock), main_clock, 3,
                noise_seed=seed ^ zlib.crc32(bid.encode()))

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

    @given(st.integers(0, 2 ** 32 - 1))
    def test_event_order_is_total_on_random_dags(self, seed):
        trace = run(parse_netlist(random_dag_netlist(random.Random(seed))))
        assert trace.events == sorted(trace.events, key=_full_key)

    @pytest.mark.parametrize("text, port, expected", [
        ("block z source value=0 clock=main\nblock p probe\n"
         "wire z.out p.in\nprobe p.in\n",
         ("p", "in"), [(0, "start"), (0, "end")]),
        ("block v source value=3 position=0 clock=main\n"
         "block w source value=2 position=4 clock=main\nblock d madd\n"
         "wire v.out d.in0\nwire w.out d.in1\nprobe d.out\n",
         ("d", "in0"), [(0, "start"), (0, "value-pulse")]),
        # The table delays the start by 3 and the end by 1: both land on 3.
        ("block a source value=2 clock=main\nblock p probe\n"
         "wire a.out p.in table={table}\nprobe p.in\n",
         ("p", "in"), [(3, "start"), (3, "end")]),
    ], ids=["zero-value", "mv-position-0", "distorting-table"])
    def test_events_sharing_a_tick_keep_role_order(self, text, port,
                                                   expected, tmp_path):
        table = tmp_path / "delays.tbl"
        table.write_text("0 3\n2 1\n")
        trace = _run_text("clock main 1\n" + text.format(table=table))
        assert [(t, r) for t, b, p, r in trace.events
                if (b, p) == port] == expected
        assert trace.events == sorted(trace.events, key=_full_key)

    def test_fire_sees_inputs_in_port_order_at_the_last_arrival(
            self, monkeypatch):
        race = blocks.KINDS["min"]
        seen = []

        def spy(firing):
            seen.append(([m.decode() for m in firing.inputs], firing.t))
            return race.fire(firing)

        monkeypatch.setitem(blocks.KINDS, "min",
                            race._replace(fire=spy))
        # Port in<i> carries 20 + i. The wires are listed backwards and
        # delayed so that neither order matches the sorted-port order
        # in0, in1, in10, in2, ..., in9.
        lines = ["clock main 1", "block m min", "probe m.out"]
        arrivals = []
        for i in reversed(range(11)):
            latency = (7 * i) % 11 * 3
            lines += ["block s%d source value=%d clock=main" % (i, 20 + i),
                      "wire s%d.out m.in%d latency=%d" % (i, i, latency)]
            arrivals.append(20 + i + latency)
        trace = _run_text("\n".join(lines) + "\n")
        ports = sorted("in%d" % i for i in range(11))
        assert seen == [([20 + int(p[2:]) for p in ports], max(arrivals))]
        assert trace.results == {"m.out": 20}


class TestBudget:
    @pytest.mark.parametrize("budget, exhausted, code", [
        (4, False, 0), (3, True, 2)])
    def test_an_event_at_the_budget_is_delivered(self, budget, exhausted,
                                                 code, capsys):
        # add34's last event, the end of b's 4 at sum.b, is at tick 4.
        path = str(GOLDEN / "add34.net")
        with open(path) as fh:
            trace = _run_text(fh.read(), budget=budget)
        assert trace.stats.budget_exhausted is exhausted
        assert trace.stats.total_ticks == min(budget, 4)
        assert main(["run", path, "--budget", str(budget)]) == code

    @given(st.integers(0, 2 ** 32 - 1), st.data())
    def test_a_budget_cut_run_is_a_prefix_of_the_full_run(self, seed,
                                                          data):
        net = parse_netlist(random_dag_netlist(random.Random(seed)))
        full = run(net)
        total = full.stats.total_ticks
        budget = data.draw(st.integers(1, max(total, 1)), label="budget")
        cut = run(net, budget=budget)
        rest = iter(full.events)
        assert all(e[0] <= budget and e in rest for e in cut.events)
        for part, whole in ((cut.stats.block_costs, full.stats.block_costs),
                            (cut.results, full.results)):
            assert part == {k: whole[k] for k in part}
        assert cut.stats.budget_exhausted is (budget < total)
        assert trace_to_csv(run(net, budget=max(total, 1))) == \
            trace_to_csv(full)


class TestReportOrder:
    """Warnings are listed, and of several failing blocks the one raised
    is chosen, by (fire tick, block id), whatever the netlist order."""

    # `late` is declared first; its source ends at 20, `early`'s at 5.
    TWO_SOURCES = ("clock main 1\n"
                   "block late {kind}\nblock early {kind}\n"
                   "block s20 source value=20\nblock s5 source value=5\n"
                   "wire s20.out late.in\nwire s5.out early.in\n")

    def test_warnings_by_fire_tick(self):
        text = self.TWO_SOURCES.format(kind="accumulator model=toggle depth=2")
        assert _run_text(text).stats.overflow_flags == ["early", "late"]

    def test_the_earliest_failure_is_raised(self):
        with pytest.raises(SimulationError) as err:
            _run_text(self.TWO_SOURCES.format(kind="demux"))
        assert str(err.value).startswith("block 'early' (demux): ")

    def test_same_tick_fires_by_block_id(self, tmp_path):
        # d fires at 5 with a zero-length output, so a's last input also
        # arrives at 5, as b's does; both outputs end at 10 and the table
        # delays that end by 3.
        table = tmp_path / "late_end.tbl"
        table.write_text("5 0\n10 3\n")
        text = ("clock main 1\n"
                "block s5 source value=5\nblock s0 source value=0\n"
                "block d min\nwire s5.out d.in0\nwire s0.out d.in1\n"
                "block a add\nwire s5.out a.a\nwire d.out a.b\n"
                "block b mul k=1\nwire s5.out b.in\n"
                "block pa probe\nblock pb probe\n"
                "wire a.out pa.in table={0}\nwire b.out pb.in table={0}\n"
                .format(table))
        assert _run_text(text).stats.stability_violations == [
            "a.out->pa.in value error +3", "b.out->pb.in value error +3"]


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

    def test_multivalent_values_match_the_engine(self, tmp_path):
        text = ("clock main 1\n"
                "block t0 source value=3 position=2\n"
                "block t1 source value=4 position=3\n"
                "block d madd\n"
                "wire t0.out d.in0\nwire t1.out d.in1\n"
                "probe d.out\nprobe t0.out\nprobe d.in1\n")
        net = parse_netlist(text)
        assert oracle_results(net) == run(net).results == {
            "d.out": 18, "t0.out": {2: 3}, "d.in1": {3: 4}}
        path = tmp_path / "mv.net"
        path.write_text(text)
        assert main(["check", str(path)]) == 0

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


FIGURES = ("unary7", "add34", "mul5x3", "mux57", "madd")
# The five golden figures and random `dagutil` netlists.
NETLISTS = st.one_of(
    st.sampled_from([(GOLDEN / (f + ".net")).read_text() for f in FIGURES]),
    st.integers(0, 2 ** 32 - 1).map(
        lambda seed: random_dag_netlist(random.Random(seed))))


class TestTraceContract:
    """A trace keeps the messages its run delivered; its event list is
    derived from them on first read and never built by `run` itself."""

    @given(NETLISTS)
    def test_stats_and_exports_agree_with_the_events(self, text):
        net = parse_netlist(text)
        trace, unread = run(net), run(net)
        events, stats = trace.events, trace.stats
        assert stats.event_count == len(events)
        assert stats.total_ticks == (events[-1][0] if events else 0)
        assert events == sorted(events, key=_full_key)
        csv = trace_to_csv(trace)
        assert "events" not in vars(unread)
        assert trace_to_csv(unread) == csv
        again = trace_from_csv(csv)
        assert again.delivered == {}
        assert again.events == events
        assert again.results == {k: format_result(v)
                                 for k, v in trace.results.items()}
        assert trace_to_waveform(again) == trace_to_waveform(trace)

    def test_run_builds_no_event_list(self):
        trace = _run_text(ADD_NET)
        assert "events" not in vars(trace)
        assert list(trace.delivered) == [("s", "a"), ("s", "b")]
        assert trace.stats.event_count == 4
        assert trace.stats.total_ticks == 4
        assert "events" not in vars(trace)

    def test_check_builds_no_event_list(self, monkeypatch, capsys):
        traces, cli_run = [], cli.run

        def keep(*args, **kwargs):
            traces.append(cli_run(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(cli, "run", keep)
        assert main(["check", str(GOLDEN / "add34.net")]) == 0
        assert capsys.readouterr().out == "ok sum.out=7\n"
        assert len(traces) == 1 and "events" not in vars(traces[0])

    def test_a_message_cut_by_the_budget_is_absent(self):
        text = ("clock main 1\n"
                "block a source value=10 clock=main\n"
                "block b source value=2 clock=main\n"
                "block p probe\nblock q probe\n"
                "wire a.out p.in\nwire b.out q.in\n"
                "probe p.in\nprobe q.in\n")
        trace = _run_text(text, budget=5)
        assert trace.stats.budget_exhausted
        assert list(trace.delivered) == [("q", "in")]
        assert trace.events == [(0, "q", "in", "start"),
                                (2, "q", "in", "end")]
        assert trace.results == {"q.in": 2}

    def test_counts_are_the_delivered_messages(self):
        # m fans out over a zero-latency wire and over a delayed one; the
        # budget cuts the delayed copy, which must count for nothing.
        text = ("clock main 1\n"
                "block a source value=3 clock=main\n"
                "block m mul k=2\n"
                "block p probe\nblock q probe\n"
                "wire a.out m.in\n"
                "wire m.out p.in\nwire m.out q.in latency=10\n")
        trace = _run_text(text, budget=12)
        delivered, stats = trace.delivered, trace.stats
        assert stats.budget_exhausted
        assert list(delivered) == [("m", "in"), ("p", "in")]
        assert stats.event_count == sum(len(m.events)
                                        for m in delivered.values()) == 4
        assert stats.total_ticks == max(m.events[-1][1]
                                        for m in delivered.values()) == 9

    def test_csv_traces_differing_in_one_row_are_unequal(self):
        text = trace_to_csv(_run_text(ADD_NET))
        assert trace_from_csv(text) == trace_from_csv(text)
        other = text.replace("4,s,b,end", "5,s,b,end")
        assert other != text
        assert trace_from_csv(other) != trace_from_csv(text)
