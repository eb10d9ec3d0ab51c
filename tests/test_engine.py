"""Discrete-event execution: block semantics, costs, determinism, and
the integer-DAG oracle."""

import random
import re
import tempfile
import zlib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from temporalsim import (
    ClockRef,
    TimedMessage,
    accumulate_photonic,
    blocks,
    oracle_results,
    parse_netlist,
    run,
)
from temporalsim import cli, engine
from temporalsim.blocks import C0
from temporalsim.cli import main
from temporalsim.engine import (
    Trace,
    format_result,
    trace_from_csv,
    trace_to_csv,
    trace_to_waveform,
)
from temporalsim.errors import NetlistValidationError, SimulationError

from dagutil import random_dag_netlist
from timeline import check_timeline

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


def _observer_forms(text):
    """A `dagutil` netlist, whose last line is `probe X.out`, with X.out
    observed three ways: by that line, by a zero-latency probe block `p`
    on it, or by both."""
    head, probe = text.rstrip("\n").rsplit("\n", 1)
    block = "block p probe\nwire %s p.in\nprobe p.in" % probe.split()[1]
    return {"out": text, "block": "%s\n%s\n" % (head, block),
            "both": "%s\n%s\n%s\n" % (head, block, probe)}


def _observe_every_output(text, base_dir=None):
    """The netlist with a zero-latency probe block on every block's
    output, so that every message a block emits is delivered too."""
    lines = [text.rstrip("\n")]
    for bid, kind, _params in parse_netlist(text, base_dir).blocks.values():
        if blocks.KINDS[kind].emits is not None:
            lines += ["block seen_%s probe" % bid,
                      "wire %s.out seen_%s.in" % (bid, bid)]
    return "\n".join(lines) + "\n"


def _with_latency(text, delta):
    """The netlist with `delta` more ticks on every wire: `latency=<d>`
    becomes `latency=<d + delta>`, and a wire without an option gets
    `latency=<delta>`."""
    return re.sub(r"^(wire \S+ \S+)(?: latency=(\d+))?$",
                  lambda m: "%s latency=%d" % (m[1], int(m[2] or 0) + delta),
                  text, flags=re.M)


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

    def test_mux_raw_counts_across_clocks(self):
        # As the races: the fire relabels the `fast` lane onto `main`.
        text = ("clock main 1\nclock fast 3/2\n"
                "block a source value=5 clock=main\n"
                "block b source value=4 clock=fast\n"
                "block x mux\nblock d demux\n"
                "wire a.out x.in0\nwire b.out x.in1\nwire x.out d.in\n"
                "probe d.out\n")
        trace = _run_text(text)
        assert trace.results == {"d.out": {4, 5}}
        assert trace.stats.block_costs["x"] == 6

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
        # An analog integrator charges rate * 5 = 7.5 and reads the floor.
        trace = _run_text("clock main 1\nblock a source value=5\n"
                          "block acc accumulator model=analog rate=3/2\n"
                          "wire a.out acc.in\nprobe acc.out\n")
        assert trace.results == {"acc.out": 7}
        assert trace.stats.block_costs == {"a": 6, "acc": 6}

    def test_toggle_accumulator_flags_overflow(self):
        text = ("clock main 1\n"
                "block a source value=18 clock=main\n"
                "block acc accumulator model=toggle depth=3\n"
                "wire a.out acc.in\nprobe acc.out\n")
        trace = _run_text(text)
        assert trace.results == {"acc.out": 2}
        assert trace.stats.block_warnings == [
            "block 'acc': toggle chain overflowed"]

    @pytest.mark.parametrize("value, flags", [(8, ["acc"]), (7, [])])
    def test_toggle_chain_wraps_at_two_to_the_depth(self, value, flags):
        # depth=3 holds 2**3 - 1 pulses; the 8th wraps the chain to 0.
        text = ("clock main 1\n"
                "block a source value=%d clock=main\n"
                "block acc accumulator model=toggle depth=3\n"
                "wire a.out acc.in\nprobe acc.out\n" % value)
        trace = _run_text(text)
        assert trace.results == {"acc.out": value % 8}
        assert trace.stats.block_warnings == [
            "block %r: toggle chain overflowed" % bid for bid in flags]

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
                TimedMessage.interval(40, 0, main_clock), main_clock, 3,
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
        # A blank line and a comment-only line are skipped.
        table.write_text("0 5\n\n# the end is 3 ticks later\n7 8\n"
                         "default 5\n")
        text = ("clock main 1\n"
                "block a source value=7 clock=main\n"
                "block p probe\n"
                "wire a.out p.in table=%s\nprobe p.in\n" % table)
        trace = _run_text(text)
        assert len(trace.stats.stability_violations) == 1
        assert "+3" in trace.stats.stability_violations[0]
        assert trace.results == {"p.in": 10}  # distorted value delivered


def _count_sends(monkeypatch):
    """The links `run` sends over, one entry per `transmit_checked` call."""
    links, send = [], engine.transmit_checked

    def counted(msg, link):
        links.append(link)
        return send(msg, link)

    monkeypatch.setattr(engine, "transmit_checked", counted)
    return links


FAN_OUT = ("clock main 1\n"
           "block a source value=7 clock=main\n"
           "block p probe\nblock q probe\nblock r probe\n"
           "wire a.out r.in%s\nwire a.out q.in%s\nwire a.out p.in%s\n")


class TestSendOnce:
    """A block's out-wires on one Link object share one send."""

    @pytest.mark.parametrize("options, sends, delays", [
        (("", "", ""), 1, {"p": 0, "q": 0, "r": 0}),
        ((" latency=3", " latency=2", " latency=2"), 2,
         {"p": 2, "q": 2, "r": 3}),
    ], ids=["no-option", "latency-2-2-3"])
    def test_one_send_per_run_of_a_shared_link(self, monkeypatch, options,
                                               sends, delays):
        links = _count_sends(monkeypatch)
        trace = _run_text(FAN_OUT % options)
        assert len(links) == sends
        assert trace.results == {"p.in": 7, "q.in": 7, "r.in": 7}
        assert {block: msg.events
                for (block, _port), msg in trace.delivered.items()} == {
            block: (("start", delay), ("end", 7 + delay))
            for block, delay in delays.items()}
        assert trace.stats.event_count == 6
        assert trace.stats.total_ticks == 7 + max(delays.values())

    def test_each_run_of_one_link_is_one_call_at_call_time(self,
                                                          monkeypatch):
        # `run` reads `engine.transmit_checked` when it runs, so a wrapper
        # installed after import sees every send. The out-wires go in
        # destination order: a and b share the no-option link, c and d
        # one `latency=2` link, and e starts a third run on the first.
        delays, send = [], engine.transmit_checked

        def counted(msg, link):
            out = send(msg, link)
            delays.append(out.events[0][1] - msg.events[0][1])
            return out

        monkeypatch.setattr(engine, "transmit_checked", counted)
        trace = _run_text(
            "clock main 1\nblock s source value=3\n"
            + "".join("block %s probe\n" % bid for bid in "edcba")
            + "wire s.out e.in\nwire s.out d.in latency=2\n"
            "wire s.out c.in latency=2\nwire s.out b.in\nwire s.out a.in\n")
        assert delays == [0, 2, 0]
        assert trace.results == dict.fromkeys(
            ("%s.in" % bid for bid in "abcde"), 3)

    def test_a_distorted_send_is_reported_per_wire(self, tmp_path,
                                                   monkeypatch, capsys):
        # Both wires name one table, so they share its Link; its delay
        # moves inside the message span, and each wire warns.
        (tmp_path / "jitter.tbl").write_text("0 5\n7 8\ndefault 5\n")
        path = tmp_path / "jitter.net"
        path.write_text("clock main 1\n"
                        "block a source value=7 clock=main\n"
                        "block p probe\nblock q probe\n"
                        "wire a.out q.in table=jitter.tbl\n"
                        "wire a.out p.in table=jitter.tbl\n")
        links = _count_sends(monkeypatch)
        assert main(["run", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out == "probe p.in=10\nprobe q.in=10\n"
        assert err == ("warning: unstable link a.out->p.in value error +3\n"
                       "warning: unstable link a.out->q.in value error +3\n")
        assert len(links) == 2 and links[0] is links[1]

    def test_a_misread_multivalent_message_names_both_values(self,
                                                            tmp_path):
        # A message that is not a scalar is named by its value as sent
        # and as read, each printed as `check` prints a probe.
        table = tmp_path / "late.tbl"
        table.write_text("3 2\n")
        trace = _run_text("clock main 1\n"
                          "block a source value=2 position=3\n"
                          "block p probe\nwire a.out p.in table=%s\n" % table)
        assert trace.stats.stability_violations == [
            "a.out->p.in value {3:2} read as {5:2}"]
        assert trace.results == {"p.in": {5: 2}}

    def test_a_shared_send_past_the_budget_drops_every_wire(self):
        trace = _run_text(FAN_OUT % ("", "", ""), budget=5)
        assert trace.stats.budget_exhausted
        assert list(trace.delivered) == []
        assert trace.results == {}
        assert (trace.stats.event_count, trace.stats.total_ticks) == (0, 0)


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
        # s fires at tick 4, when b's 4 ends, and its 7 ends at tick 11.
        trace = _run_text(ADD_NET, budget=11)
        assert not trace.stats.budget_exhausted
        assert trace.results == {"s.out": 7}
        trace = _run_text(ADD_NET, budget=10)
        assert trace.stats.budget_exhausted
        assert "s.out" not in trace.results

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

        def spy(bid, params, inputs, t, clock, seed):
            seen.append(([m.decoded() for m in inputs], t))
            return race.fire(bid, params, inputs, t, clock, seed)

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
        (11, False, 0), (10, True, 2), (3, True, 2)])
    def test_an_event_at_the_budget_is_delivered(self, budget, exhausted,
                                                 code, capsys):
        # add34's sources end at ticks 3 and 4, and the 7 that `sum`
        # emits ends at tick 11: each message kept within the budget
        # counts in total_ticks, delivered or not.
        path = str(GOLDEN / "add34.net")
        with open(path) as fh:
            trace = _run_text(fh.read(), budget=budget)
        assert trace.stats.budget_exhausted is exhausted
        assert trace.stats.total_ticks == (11 if budget >= 11
                                           else min(budget, 4))
        assert main(["run", path, "--budget", str(budget)]) == code

    def test_a_budget_below_one_is_refused(self):
        net = parse_netlist((GOLDEN / "add34.net").read_text())
        with pytest.raises(ValueError, match=r"^budget must be >= 1$"):
            run(net, budget=0)

    @given(st.integers(0, 2 ** 32 - 1), st.data())
    def test_a_budget_cut_run_is_a_prefix_of_the_full_run(self, seed,
                                                          data):
        text = random_dag_netlist(random.Random(seed))
        net = parse_netlist(text)
        full = run(net)
        # Observed through a probe block, the output's end is a delivered
        # event too, so that run's last tick is the least budget that
        # covers every event and the probe.
        total = _run_text(_observer_forms(text)["block"]).stats.total_ticks
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

    @given(st.integers(0, 2 ** 32 - 1), st.data())
    def test_an_observer_does_not_change_what_is_measured(self, seed, data):
        text = random_dag_netlist(random.Random(seed))
        x_out = text.split()[-1]    # the last line is `probe X.out`
        forms = {how: parse_netlist(form)
                 for how, form in _observer_forms(text).items()}
        total = run(forms["block"]).stats.total_ticks
        budget = data.draw(st.integers(1, 2 * max(total, 1)), label="budget")
        seen = {}
        for how, net in forms.items():
            trace = run(net, budget=budget)
            # The probes of the one port X.out give one value, or none;
            # every other probe reads the same in each form.
            others = dict(trace.results)
            values = {others.pop(key, None)
                      for key in {"%s.%s" % probe for probe in net.probes}
                      & {x_out, "p.in"}}
            costs = {b: c for b, c in trace.stats.block_costs.items()
                     if b != "p"}
            seen[how] = (values, others, costs, trace.stats.total_ticks,
                         trace.stats.budget_exhausted)
        assert seen["out"] == seen["block"] == seen["both"]


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
        assert _run_text(text).stats.block_warnings == [
            "block 'early': toggle chain overflowed",
            "block 'late': toggle chain overflowed"]

    @pytest.mark.parametrize("latency, flags", [
        (0, ["z", "a"]), (30, ["a", "z"])])
    def test_overflow_flags_follow_the_fire_tick_not_the_id(self, latency,
                                                            flags):
        # `a` fires at 20; `z` fires when its delayed input ends, at 5 or
        # 35.
        text = ("clock main 1\n"
                "block a accumulator model=toggle depth=2\n"
                "block z accumulator model=toggle depth=2\n"
                "block s20 source value=20\nblock s5 source value=5\n"
                "wire s20.out a.in\nwire s5.out z.in latency=%d\n"
                % latency)
        assert _run_text(text).stats.block_warnings == [
            "block %r: toggle chain overflowed" % bid for bid in flags]

    def test_the_earliest_failure_is_raised(self):
        # A mux over two equal values fails when it fires; `early` fires
        # at 5 and `late` at 20.
        text = ("clock main 1\n"
                "block late mux\nblock early mux\n"
                "block s20 source value=20\nblock s5 source value=5\n"
                "wire s20.out late.in0\nwire s20.out late.in1\n"
                "wire s5.out early.in0\nwire s5.out early.in1\n")
        with pytest.raises(SimulationError) as err:
            _run_text(text)
        assert str(err.value) == ("block 'early' (mux): mux requires "
                                  "duplicate-free values")

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

    def test_mux_and_demux_are_sets(self):
        net = parse_netlist((GOLDEN / "mux57.net").read_text()
                            + "probe x.in1\n")
        assert oracle_results(net) == run(net).results == {
            "x.out": {5, 7}, "d.out": {5, 7}, "x.in1": 7}

    @pytest.mark.parametrize("values, error", [
        ((5, 5), "mux requires duplicate-free values"),
        ((0, 7), "0 collides with the start marker"),
        ((0, 0), "mux requires duplicate-free values"),
    ], ids=["repeated", "zero", "repeated-zero"])
    def test_a_bad_mux_is_the_engines_error(self, values, error):
        net = parse_netlist("clock main 1\nblock x mux\nblock d demux\n"
                            "wire x.out d.in\nprobe d.out\n" + "".join(
                                "block s%d source value=%d\n"
                                "wire s%d.out x.in%d\n" % (i, v, i, i)
                                for i, v in enumerate(values)))
        with pytest.raises(SimulationError) as ran:
            run(net)
        with pytest.raises(SimulationError) as judged:
            oracle_results(net)
        assert str(judged.value) == str(ran.value) == (
            "block 'x' (mux): " + error)

    def test_roadmap_item_28_two_bad_muxes_name_two_blocks(self):
        # The oracle raises for the first failing block in `net.plan`,
        # `z`; the engine for the least (fire tick, block id), `y`, which
        # fires at 2 to `z`'s 5. An oracle that computes ticks can pick
        # the engine's block.
        net = parse_netlist(
            "clock main 1\nblock z mux\nblock y mux\n"
            "block z0 source value=5\nblock z1 source value=5\n"
            "block y0 source value=0\nblock y1 source value=2\n"
            "wire z0.out z.in0\nwire z1.out z.in1\n"
            "wire y0.out y.in0\nwire y1.out y.in1\nprobe z.out\n")
        order = [row[0] for row in net.plan]
        assert order.index("z") < order.index("y")
        with pytest.raises(SimulationError) as ran:
            run(net)
        with pytest.raises(SimulationError) as judged:
            oracle_results(net)
        assert str(ran.value) == (
            "block 'y' (mux): 0 collides with the start marker")
        assert str(judged.value) == (
            "block 'z' (mux): mux requires duplicate-free values")

    # A wrong sort never reaches the oracle: validation rejects it.
    @pytest.mark.parametrize("tail,error", [
        ("block d madd\nwire s.out d.in0\nprobe d.out\n",
         "block 'd' (madd) input 'in0' takes mv, got scalar from 's.out'"),
        ("block v source value=2 position=3 clock=main\nblock m mul k=2\n"
         "wire v.out m.in\nprobe m.out\n",
         "block 'm' (mul) input 'in' takes scalar, got mv from 'v.out'"),
    ], ids=["scalar-into-madd", "mv-into-mul"])
    def test_wrong_sort_of_input_names_the_block(self, tail, error):
        with pytest.raises(NetlistValidationError) as err:
            parse_netlist(ADD_NET + tail)
        assert err.value.violations == [error]

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
        # Nothing is delivered; the source's emission still ends at 5.
        trace = _run_text("clock main 1\nblock a source value=5 clock=main\n")
        assert trace.stats.total_ticks == 5
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


class TestDifferential:
    """`dagutil` draws every kind on two clocks: the oracle judges every
    one, and each message is on the clock validation fixed for its
    sender."""

    @given(st.integers(0, 2 ** 32 - 1))
    def test_the_oracle_agrees_with_the_run(self, seed):
        net = parse_netlist(random_dag_netlist(random.Random(seed)))
        assert oracle_results(net) == run(net).results

    @given(NETLISTS)
    def test_every_block_has_an_output_clock(self, text):
        net = parse_netlist(text)
        assert net.clock_of.keys() == net.blocks.keys()
        assert None not in net.clock_of.values()
        # A block's plan row carries that clock.
        assert {row[0]: row[3] for row in net.plan} == net.clock_of

    @given(NETLISTS)
    def test_a_message_is_on_its_senders_clock(self, text):
        net = parse_netlist(text)
        sender = {(dst, port): src for src, _sp, dst, port, _l in net.slots}
        for (dst, port), msg in run(net).delivered.items():
            assert msg.clock is net.clock_of[sender[dst, port]]


class TestLatencyInvariance:
    """Acceptance criterion 5 end to end: a uniform extra latency on every
    wire moves when blocks fire, never what they compute or charge."""

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 50))
    def test_extra_latency_changes_no_value_cost_or_warning(self, seed,
                                                             delta):
        text = random_dag_netlist(random.Random(seed))
        near = run(parse_netlist(text))
        far = run(parse_netlist(_with_latency(text, delta)))
        assert far.results == near.results
        assert far.stats.block_costs == near.stats.block_costs
        # Warnings are listed by fire tick, which latency moves.
        assert sorted(far.stats.block_warnings) == \
            sorted(near.stats.block_warnings)

    def test_extra_latency_may_reorder_warnings_by_fire_tick(self):
        # n2 sits one block deeper than n3, so each extra tick of latency
        # delays it twice: it warns first without the delay, last with it.
        text = ("clock main 1\n"
                "block s0 source value=10\nblock s1 source value=30\n"
                "block n1 mul k=1\nwire s0.out n1.in\n"
                "block n2 accumulator model=toggle depth=2\n"
                "wire n1.out n2.in\n"
                "block n3 accumulator model=toggle depth=2\n"
                "wire s1.out n3.in\nprobe n3.out\n")
        warned = ["block 'n2': toggle chain overflowed",
                  "block 'n3': toggle chain overflowed"]
        assert run(parse_netlist(text)).stats.block_warnings == warned
        far = run(parse_netlist(_with_latency(text, 50)))
        assert far.stats.block_warnings == warned[::-1]


def _permute_inputs(text, bid, ports):
    """The netlist with each input wire of block `bid` moved from its
    port in sorted order to the port at the same index of `ports`."""
    to = dict(zip(sorted(ports), ports))
    lines = []
    for line in text.splitlines():
        words = line.split()
        if words[:1] == ["wire"]:
            block, _dot, port = words[2].partition(".")
            if block == bid:
                words[2] = "%s.%s" % (bid, to[port])
        lines.append(" ".join(words))
    return "\n".join(lines) + "\n"


# Clock frequencies for the value laws: whole, fractional above and
# below 1.
CLOCK_RATES = st.sampled_from(("1", "3/2", "7", "2/5"))


class TestMetamorphicLaws:
    """Laws between two netlists, which need no restatement of what a
    block computes (ROADMAP item 25)."""

    @given(st.integers(0, 2 ** 32 - 1), st.data())
    def test_permuting_inputs_keeps_values_costs_and_ticks(self, seed, data):
        # A race over two clocks takes its first port's clock (ROADMAP
        # item 2), so only blocks whose inputs share one clock are drawn.
        text = random_dag_netlist(random.Random(seed))
        net = parse_netlist(text)
        inputs = {bid: net.slots[first:end]
                  for bid, _kind, _p, _clock, first, end, _outs in net.plan}
        drawn = sorted(
            bid for bid, kind, _params in net.blocks.values()
            if kind in ("add", "min", "max", "mux", "madd")
            and len({net.clock_of[wire[0]] for wire in inputs[bid]}) == 1)
        if not drawn:
            return
        bid = data.draw(st.sampled_from(drawn), label="block")
        ports = data.draw(st.permutations([wire[3] for wire in inputs[bid]]),
                          label="ports")
        before = run(net)
        after = run(parse_netlist(_permute_inputs(text, bid, ports)))
        assert after.results == before.results
        assert after.stats.block_costs == before.stats.block_costs
        assert after.stats.total_ticks == before.stats.total_ticks

    @given(st.integers(0, 10 ** 6), st.integers(1, 1000),
           st.integers(1, 1000), CLOCK_RATES)
    def test_two_muls_give_the_value_of_one_mul_by_the_product(
            self, value, a, b, rate):
        # A budget past every product's end, so both runs keep n.out.
        head = ("clock main 1\nclock c %s\nblock s source value=%d clock=c\n"
                % (rate, value))
        two = _run_text(head + "block m mul k=%d\nblock n mul k=%d\n"
                        "wire s.out m.in\nwire m.out n.in\nprobe n.out\n"
                        % (a, b), budget=10 ** 18)
        one = _run_text(head + "block n mul k=%d\nwire s.out n.in\n"
                        "probe n.out\n" % (a * b), budget=10 ** 18)
        assert two.results == one.results == {"n.out": value * a * b}

    @given(st.integers(0, 10 ** 6), CLOCK_RATES)
    def test_a_convert_or_count_on_the_inputs_own_clock_is_identity(
            self, value, rate):
        same = _run_text("clock main 1\nclock c %s\n"
                         "block s source value=%d clock=c\n"
                         "block v convert clock=c\nwire s.out v.in\n"
                         "block d accumulator model=digital clock=c\n"
                         "wire s.out d.in\nprobe v.out\nprobe d.out\n"
                         % (rate, value))
        assert same.results == {"v.out": value, "d.out": value}

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 50),
           st.integers(1, 50))
    def test_scaling_every_clock_keeps_values_stats_and_trace(self, seed, p,
                                                             q):
        # Only ratios between clocks matter (`ClockRef`'s docstring): every
        # frequency times p/q, written unreduced as `num/den`.
        def scaled(match):
            num, _slash, den = match[2].partition("/")
            return "clock %s %d/%d" % (match[1], int(num) * p,
                                       int(den or 1) * q)
        text = random_dag_netlist(random.Random(seed))
        net = parse_netlist(text)
        other = parse_netlist(re.sub(r"^clock (\S+) (\S+)$", scaled, text,
                                     flags=re.M))
        assert [c.frequency for c in other.clocks.values()] == [
            c.frequency * Fraction(p, q) for c in net.clocks.values()]
        before, after = run(net), run(other)
        assert after.results == before.results
        assert after.stats == before.stats
        assert trace_to_csv(after) == trace_to_csv(before)
        assert oracle_results(other) == oracle_results(net)

    @given(st.sampled_from(("min", "max")),
           st.lists(st.integers(0, 1000), min_size=3, max_size=6), st.data())
    def test_one_race_and_nested_two_lane_races_give_one_value(
            self, kind, values, data):
        # Values only: a nested race ends later today (ROADMAP item 1, the
        # test below). The nesting is drawn: any two open lanes race next.
        head = "clock main 1\n" + "".join(
            "block s%d source value=%d\n" % lane for lane in enumerate(values))
        lanes = ["s%d" % i for i in range(len(values))]
        one = _run_text(head + "block r %s\n" % kind + "".join(
            "wire %s.out r.in%d\n" % (src, i) for i, src in enumerate(lanes))
            + "probe r.out\n")
        nested = head
        while len(lanes) > 1:
            a = lanes.pop(data.draw(st.integers(0, len(lanes) - 1)))
            b = lanes.pop(data.draw(st.integers(0, len(lanes) - 1)))
            race = "n%d" % len(lanes)
            nested += ("block %s %s\nwire %s.out %s.in0\nwire %s.out %s.in1\n"
                       % (race, kind, a, race, b, race))
            lanes.append(race)
        nested = _run_text(nested + "probe %s.out\n" % lanes[0])
        value = (min if kind == "min" else max)(values)
        assert one.results == {"r.out": value}
        assert nested.results == {"%s.out" % lanes[0]: value}

    @given(st.lists(st.tuples(st.integers(0, 100), st.integers(1, 100)),
                    min_size=2, max_size=8), st.data())
    def test_one_madd_is_the_sum_of_madds_over_a_split(self, buckets, data):
        # The sweep is linear: madd(X ∪ Y) = add(madd(X), madd(Y)). A
        # position may repeat, within X and Y or across them.
        cut = data.draw(st.integers(1, len(buckets) - 1), label="cut")
        head = "clock main 1\n" + "".join(
            "block s%d source value=%d position=%d\n" % (i, amp, pos)
            for i, (pos, amp) in enumerate(buckets))

        def madd(bid, lanes):
            return "block %s madd\n%s" % (bid, "".join(
                "wire s%d.out %s.in%d\n" % (i, bid, port)
                for port, i in enumerate(lanes)))
        lanes = range(len(buckets))
        one = _run_text(head + madd("m", lanes) + "probe m.out\n")
        two = _run_text(head + madd("x", lanes[:cut]) + madd("y", lanes[cut:])
                        + "block m add\nwire x.out m.a\nwire y.out m.b\n"
                        "probe m.out\n")
        assert one.results == two.results == {
            "m.out": sum(pos * amp for pos, amp in buckets)}

    def test_roadmap_item_1_a_nested_race_ends_later_than_one_race(self):
        # Today's number, not race logic's: `min` fires when its last lane
        # ends and emits the winner from that tick, so the 3-lane race
        # ends at 5 + 3 and the nested one at 5 + 3 + 3. Race logic ends
        # both at tick 3, the first arrival; ROADMAP item 1 restates this.
        sources = ("clock main 1\nblock a source value=5\n"
                   "block b source value=3\nblock c source value=4\n")
        one = sources + ("block m min\nwire a.out m.in0\nwire b.out m.in1\n"
                         "wire c.out m.in2\nprobe m.out\n")
        nested = sources + ("block n min\nwire a.out n.in0\n"
                            "wire b.out n.in1\nblock m min\n"
                            "wire n.out m.in0\nwire c.out m.in1\n"
                            "probe m.out\n")
        one, nested = _run_text(one), _run_text(nested)
        assert one.results == nested.results == {"m.out": 3}
        assert one.stats.total_ticks == 8
        assert nested.stats.total_ticks == 11


def _judge_with_tables(seed):
    """Run a `dagutil` DAG with latency tables, each output seen by a
    probe block. Either the run keeps the timeline's laws, whose
    transport law lists exactly the distorted wires, or it refuses a
    distortion it cannot read, naming a `table=` wire, or a mux refuses
    the repeated or zero value that a distorted input gave it. Returns
    the outcome: "stable", "value error" or "read as" (the kind of the
    last violation listed), "unreadable" or "mux refused"."""
    with tempfile.TemporaryDirectory() as tables:
        text = random_dag_netlist(random.Random(seed), value_max=8,
                                  tables=tables)
        net = parse_netlist(_observe_every_output(text, tables), tables)
        try:
            trace = run(net)
        except SimulationError as exc:
            found = re.fullmatch(r"wire (\S+)->(\S+): distorted message "
                                 r"is unreadable: .+", str(exc))
            if found:
                assert re.search(r"^wire %s %s table=" % (
                    re.escape(found[1]), re.escape(found[2])), text,
                    re.M), exc
                return "unreadable"
            # The generator draws a mux's values distinct and above 0, so
            # only a distorted input can repeat one or make one 0.
            found = re.fullmatch(r"block '(\w+)' \(mux\): (mux requires "
                                 r"duplicate-free values|0 collides with "
                                 r"the start marker)", str(exc))
            assert found, str(exc)
            into = re.compile(r"\S+->%s\.in\d+ value error " % found[1])
            assert any(map(into.match, exc.stats.stability_violations)), (
                exc, exc.stats.stability_violations)
            return "mux refused"
    check_timeline(net, trace)
    violations = trace.stats.stability_violations
    if not violations:
        return "stable"
    return "read as" if " read as " in violations[-1] else "value error"


class TestTimeline:
    """`tests/timeline.py` judges each run's ticks (ROADMAP item 17): a
    wire delivers its source's emission shifted by its link, a block
    emits from its fire tick on, and the stats count what was
    delivered."""

    @pytest.mark.parametrize("name", sorted(
        path.stem for path in GOLDEN.glob("*.net")))
    def test_every_golden_figure_keeps_the_laws(self, name):
        text = (GOLDEN / (name + ".net")).read_text()
        net = parse_netlist(_observe_every_output(text, GOLDEN), GOLDEN)
        check_timeline(net, run(net))

    @given(st.integers(0, 2 ** 32 - 1))
    def test_a_random_dag_keeps_the_laws(self, seed):
        text = random_dag_netlist(random.Random(seed))
        net = parse_netlist(_observe_every_output(text))
        check_timeline(net, run(net))

    @given(st.integers(0, 2 ** 32 - 1))
    def test_a_random_dag_with_latency_tables_keeps_the_laws(self, seed):
        # ROADMAP items 3 and 17: `table=` wires distort some messages.
        _judge_with_tables(seed)

    def test_latency_tables_reach_every_outcome(self):
        # The property above is not vacuous: its DAGs distort scalars and
        # value sets readably, and some distortions are unreadable.
        outcomes = {_judge_with_tables(seed) for seed in range(200)}
        assert outcomes == {"stable", "value error", "read as",
                            "unreadable"}

    def test_a_distorted_mux_input_can_be_refused(self):
        # Rarer than the four above: a `table=` wire into a mux moves a
        # value onto another lane's, or to 0, and the mux refuses it.
        assert _judge_with_tables(57505983) == "mux refused"

    def test_the_checker_refuses_a_broken_law(self):
        # links: a=4 reaches s.a over latency=2 as (2, 6), b.out->q.in is
        # unstable, and s fires at 6 and emits 7 as (6, 13): an 8 from
        # tick 6 breaks only the value law.
        text = (GOLDEN / "links.net").read_text()
        net = parse_netlist(_observe_every_output(text, GOLDEN), GOLDEN)
        for change in (
                lambda trace: trace.delivered.update(
                    {("s", "a"): TimedMessage.interval(4, 3)}),
                lambda trace: trace.stats.stability_violations.clear(),
                lambda trace: trace.delivered.update(
                    {("seen_s", "in"): TimedMessage.interval(8, 5)}),
                lambda trace: trace.delivered.update(
                    {("seen_s", "in"): TimedMessage.interval(8, 6)}),
                lambda trace: setattr(trace.stats, "event_count",
                                      trace.stats.event_count + 1),
                lambda trace: setattr(trace.stats, "total_ticks",
                                      trace.stats.total_ticks + 1)):
            trace = run(net)
            check_timeline(net, trace)
            change(trace)
            with pytest.raises(AssertionError):
                check_timeline(net, trace)


class TestTraceContract:
    """A trace keeps the messages its run delivered; its event list is
    derived from them on first read and never built by `run` itself."""

    @given(NETLISTS)
    def test_stats_and_exports_agree_with_the_events(self, text):
        net = parse_netlist(text)
        trace, unread = run(net), run(net)
        events, stats = trace.events, trace.stats
        assert stats.event_count == len(events)
        # Observed by a probe block, each emission is an event too.
        seen = run(parse_netlist(_observe_every_output(text))).events
        assert stats.total_ticks == (seen[-1][0] if seen else 0)
        assert events == sorted(events, key=_full_key)
        csv = trace_to_csv(trace)
        assert "events" not in vars(unread)
        assert trace_to_csv(unread) == csv
        again = trace_from_csv(csv)
        # The CSV lists deliveries only: it cannot carry total_ticks.
        assert again.stats.total_ticks == 0
        assert again.stats.event_count == stats.event_count
        assert again.delivered == {}
        assert again.events == events
        assert again.results == {k: format_result(v)
                                 for k, v in trace.results.items()}
        assert trace_to_waveform(again) == trace_to_waveform(trace)

    @given(NETLISTS, st.integers(0, 3))
    def test_delivered_messages_pass_the_checked_constructor(self, text,
                                                             latency):
        # Fire functions and a uniform delay build each message unchecked;
        # the checked constructor must accept it and build the same value.
        delivered = run(parse_netlist(_with_latency(text, latency))).delivered
        assert delivered
        for msg in delivered.values():
            checked = TimedMessage(msg.events, msg.clock, msg.amplitudes)
            assert type(msg) is TimedMessage
            assert msg == checked and hash(msg) == hash(checked)

    def test_run_builds_no_event_list(self):
        trace = _run_text(ADD_NET)
        assert "events" not in vars(trace)
        assert list(trace.delivered) == [("s", "a"), ("s", "b")]
        assert trace.stats.event_count == 4
        assert trace.stats.total_ticks == 11
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


# The export algorithms as they were first written, kept as the
# reference: an event list sorted by a (tick, block, port) key, and a
# waveform built from one dict of code values per tick.


def _reference_events(delivered):
    events = [(tick, block, port, role)
              for (block, port), msg in delivered.items()
              for role, tick in msg.events]
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    return events


def _reference_code(index):
    chars = []
    index += 1
    while index:
        index, rem = divmod(index - 1, 94)
        chars.append(chr(33 + rem))
    return "".join(reversed(chars))


def _reference_waveform(events):
    signals = sorted({(b, p) for _t, b, p, _r in events})
    codes = {sig: _reference_code(i) for i, sig in enumerate(signals)}
    changes = {}
    for tick, block, port, _role in events:
        code = codes[(block, port)]
        changes.setdefault(tick, {})[code] = 1
        changes.setdefault(tick + 1, {}).setdefault(code, 0)
    lines = ["$timescale 1 tick $end", "$scope module netlist $end"]
    for (block, port), code in sorted(codes.items()):
        lines.append("$var wire 1 %s %s.%s $end" % (code, block, port))
    lines.extend(["$upscope $end", "$enddefinitions $end"])
    for tick in sorted(changes):
        lines.append("#%d" % tick)
        for code in sorted(changes[tick]):
            lines.append("%d%s" % (changes[tick][code], code))
    return "\n".join(lines) + "\n"


def _csv_rows(text):
    lines = text.splitlines()
    rows = [line for line in lines[1:] if "=" not in line]
    return lines[0], rows, [line for line in lines[1:] if "=" in line]


# 100 sources of distinct values race into one min: 100 signals, so
# codes from index 94 on are two characters long.
WIDE_NET = "clock main 1\n" + "".join(
    "block s%d source value=%d\nwire s%d.out m.in%d\n"
    % (i, 100 - i, i, i) for i in range(100)) + "block m min\nprobe m.out\n"


class TestExportMatchesTheReference:
    """The event list, the CSV and the waveform equal what the reference
    algorithms above give, byte for byte."""

    @given(NETLISTS, st.integers(0, 3))
    def test_run_traces(self, text, latency):
        trace = _run_text(_with_latency(text, latency))
        assert trace.events == _reference_events(trace.delivered)
        assert trace_to_waveform(trace) == _reference_waveform(trace.events)
        again = trace_from_csv(trace_to_csv(trace))
        assert trace_to_waveform(again) == trace_to_waveform(trace)

    @given(NETLISTS, st.randoms(use_true_random=False))
    def test_csv_rows_in_any_order(self, text, rng):
        trace = _run_text(text)
        header, rows, footer = _csv_rows(trace_to_csv(trace))
        rng.shuffle(rows)
        shuffled = trace_from_csv("\n".join([header] + rows + footer))
        assert trace_to_waveform(shuffled) == trace_to_waveform(trace)
        assert trace_to_waveform(shuffled) == _reference_waveform(
            shuffled.events)

    def test_duplicated_csv_rows(self):
        trace = _run_text(ADD_NET)
        header, rows, footer = _csv_rows(trace_to_csv(trace))
        # A blank line between rows is skipped.
        doubled = trace_from_csv("\n".join([header] + rows[::-1] + [""]
                                           + rows + footer))
        assert len(doubled.events) == 2 * len(trace.events)
        assert trace_to_waveform(doubled) == trace_to_waveform(trace) == \
            _reference_waveform(doubled.events)

    def test_negative_ticks(self):
        # No run or trace CSV holds a tick below 0, so the events are set
        # directly, in this order, to pin the waveform's order on them.
        trace = Trace()
        trace.events = [(0, "b", "in", "end"), (-3, "a", "in", "start"),
                        (-2, "a", "in", "end"), (-1, "b", "in", "start"),
                        (-12, "c", "in", "start"), (-11, "c", "in", "end")]
        wave = trace_to_waveform(trace)
        assert wave == _reference_waveform(trace.events)
        assert wave.split("$enddefinitions $end\n")[1] == (
            "#-12\n1#\n#-11\n1#\n#-10\n0#\n#-3\n1!\n#-2\n1!\n"
            "#-1\n0!\n1\"\n#0\n1\"\n#1\n0\"\n")

    def test_multi_character_codes(self):
        trace = _run_text(WIDE_NET)
        wave = trace_to_waveform(trace)
        assert wave == _reference_waveform(trace.events)
        assert wave.count("$var wire") == 100
        # Signal 0 is m.in0 (code !), 1 is m.in1 ("), 94 is m.in94 (!!)
        # and 95 is m.in95 (!"). Within a tick the changes follow the code
        # strings, so the two-character codes come between ! and ".
        assert "$var wire 1 !! m.in94 $end" in wave
        assert '#0\n1!\n1!!\n1!"\n1!#\n1!$\n1!%\n1!&\n1"\n' in wave

    def test_three_character_codes(self):
        # 94 + 94 ** 2 = 8930 codes have at most two characters; no run
        # this size is needed, so the events are set directly.
        trace = Trace()
        trace.events = [(i % 7, "b%05d" % i, "in", "start")
                        for i in range(9000)]
        wave = trace_to_waveform(trace)
        # Compared by line: pytest's diff of two long strings is slow.
        assert wave.splitlines() == \
            _reference_waveform(trace.events).splitlines()
        assert "$var wire 1 ~~ b08929.in $end" in wave
        assert "$var wire 1 !!! b08930.in $end" in wave
        assert "$var wire 1 !!f b08999.in $end" in wave

    @given(st.integers(1, 200), st.data())
    def test_random_events(self, signals, data):
        # Ticks 0-30, drawn one by one and as runs of consecutive ticks,
        # repeats included; past 94 signals the codes run from ~ to !!.
        first = data.draw(st.lists(st.integers(0, 30), min_size=signals,
                                   max_size=signals), label="first ticks")
        runs = data.draw(st.lists(st.tuples(
            st.integers(0, signals - 1), st.integers(0, 30),
            st.integers(1, 5)), max_size=40), label="runs")
        trace = Trace()
        trace.events = [(tick, "b%d" % i, "in", "start")
                        for i, tick in enumerate(first)] + [
            (tick, "b%d" % i, "in", "end")
            for i, start, length in runs
            for tick in range(start, start + length)]
        assert trace_to_waveform(trace).splitlines() == \
            _reference_waveform(trace.events).splitlines()

    def test_empty_trace(self):
        trace = _run_text("clock main 1\nblock a source value=5\n")
        assert trace.events == _reference_events(trace.delivered) == []
        assert trace_to_waveform(trace) == _reference_waveform([]) == (
            "$timescale 1 tick $end\n$scope module netlist $end\n"
            "$upscope $end\n$enddefinitions $end\n")
        assert trace_to_waveform(trace_from_csv(trace_to_csv(trace))) == \
            trace_to_waveform(trace)
