"""Command-line interface: subcommands, exit codes, byte-stable output."""

import errno
import io
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from temporalsim import TimedMessage, blocks
from temporalsim.cli import main

from dagutil import random_dag_netlist

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def add_net(tmp_path):
    path = tmp_path / "add.net"
    path.write_text((GOLDEN / "add34.net").read_text())
    return str(path)


class TestRun:
    def test_add_example(self, add_net, capsys):
        assert main(["run", add_net]) == 0
        assert "probe sum.out=7" in capsys.readouterr().out

    def test_malformed_netlist_positioned_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.net"
        bad.write_text("clock main 1\nclock oops x/y\n")
        assert main(["run", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "empty.net"
        bad.write_text("")
        assert main(["run", str(bad)]) == 1
        assert "no blocks" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.net")]) == 1

    def test_budget_exhausted_exit_code(self, tmp_path, capsys):
        net = tmp_path / "big.net"
        net.write_text("clock main 1\n"
                       "block a source value=1000 clock=main\n"
                       "block b source value=1000 clock=main\n"
                       "block s add\n"
                       "wire a.out s.a\nwire b.out s.b\nprobe s.out\n")
        assert main(["run", str(net), "--budget", "3"]) == 2

    def test_trace_and_waveform_outputs(self, add_net, tmp_path, capsys):
        trace = tmp_path / "out.csv"
        wave = tmp_path / "out.vcd"
        assert main(["run", add_net, "--trace", str(trace),
                     "--waveform", str(wave)]) == 0
        capsys.readouterr()
        assert trace.read_text().startswith("tick,block,port,role\n")
        assert wave.read_text().startswith("$timescale 1 tick $end\n")

    def test_byte_stable_across_invocations(self, add_net, tmp_path, capsys):
        outs = []
        stdouts = set()
        for name in ("t1.csv", "t2.csv"):
            path = tmp_path / name
            assert main(["--seed", "5", "run", add_net,
                         "--trace", str(path)]) == 0
            outs.append(path.read_bytes())
            stdouts.add(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert stdouts == {"probe sum.out=7\n"}

    @pytest.mark.parametrize("net", [
        "block a source value=3 clock=main\n"
        "block b source value=4 clock=main\n"
        "block s add\nblock acc accumulator\n"
        "wire a.out s.a table=%s\nwire b.out s.b\nwire s.out acc.in\n"
        "probe acc.out\n",
        "block t source value=3 position=2 clock=main\n"
        "block d madd\n"
        "wire t.out d.in0 table=%s\nprobe d.out\n",
    ], ids=["add-accumulator", "madd"])
    def test_unreadable_distortion_is_an_error(self, net, tmp_path, capsys):
        # the start marker is held back 10 ticks past the final event
        table = tmp_path / "late_start.tbl"
        table.write_text("default 0\n0 10\n")
        path = tmp_path / "distorted.net"
        path.write_text("clock main 1\n" + net % table)
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: wire ")
        assert "distorted" in err and "Traceback" not in err

    @pytest.mark.parametrize("cwd, netlist", [
        ("", "nets/add.net"), ("elsewhere", "../nets/add.net")],
        ids=["relative", "from-a-sibling"])
    def test_table_beside_the_netlist(self, cwd, netlist, tmp_path,
                                      monkeypatch, capsys):
        nets = tmp_path / "nets"
        nets.mkdir()
        (nets / "late.tbl").write_text("default 2\n")
        (nets / "add.net").write_text(
            (GOLDEN / "add34.net").read_text().replace(
                "wire a.out sum.a", "wire a.out sum.a table=late.tbl"))
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / cwd)
        assert main(["run", netlist, "--trace", "-"]) == 0
        out, err = capsys.readouterr()
        assert err == "probe sum.out=7\n"
        assert "2,sum,a,start\n" in out and out.endswith("sum.out=7\n")

    # Each table delays the end event at its tick 5 ticks more than the
    # start (a readable distortion), and 12 overflows a two-stage toggle
    # chain. In the second netlist the chain fires at tick 12 and the
    # distorted link at 20: the unstable links still come first.
    @pytest.mark.parametrize("table, net, out, link", [
        ("default 0\n3 5\n",
         "block a source value=3 clock=main\n"
         "block b source value=4 clock=main\n"
         "block s add\n"
         "block acc accumulator model=toggle depth=2\n"
         "wire a.out s.a table=late_end.tbl\n"
         "wire b.out s.b\nwire s.out acc.in\n"
         "probe s.out\nprobe acc.out\n",
         "probe acc.out=0\nprobe s.out=12\n", "a.out->s.a"),
        ("default 0\n40 5\n",
         "block s12 source value=12\n"
         "block acc accumulator model=toggle depth=2\n"
         "block s20 source value=20\nblock m mul k=1\nblock p probe\n"
         "wire s12.out acc.in\nwire s20.out m.in\n"
         "wire m.out p.in table=late_end.tbl\n"
         "probe acc.out\nprobe p.in\n",
         "probe acc.out=0\nprobe p.in=25\n", "m.out->p.in"),
    ], ids=["link-fires-first", "chain-fires-first"])
    def test_warnings_go_to_stderr(self, table, net, out, link, tmp_path,
                                   capsys):
        (tmp_path / "late_end.tbl").write_text(table)
        path = tmp_path / "warn.net"
        path.write_text("clock main 1\n" + net)
        assert main(["run", str(path)]) == 0
        assert capsys.readouterr() == (
            out, "warning: unstable link %s value error +5\n"
                 "warning: block 'acc': toggle chain overflowed\n" % link)

    def test_trace_on_stdout_is_the_trace_alone(self, capsys):
        net = str(GOLDEN / "add34.net")
        assert main(["run", net, "--trace", "-", "--stats"]) == 0
        out, err = capsys.readouterr()
        assert out == (GOLDEN / "add34.csv").read_text()
        assert err.startswith("probe sum.out=7\ntotal_ticks=")
        assert main(["run", net, "--waveform", "-"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("$timescale") and "probe" not in out
        assert err == "probe sum.out=7\n"
        # Both on stdout would interleave two formats.
        assert main(["run", net, "--trace", "-", "--waveform", "-"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_seeded_photon_count_without_numpy(self, tmp_path, monkeypatch,
                                               capsys):
        # The count numpy drew for this netlist and seed.
        path = tmp_path / "photon.net"
        path.write_text("clock main 1\nblock a source value=5\n"
                        "block acc accumulator model=photon\n"
                        "wire a.out acc.in\nprobe acc.out\n")
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert main(["--seed", "3", "run", str(path)]) == 0
        assert capsys.readouterr().out == "probe acc.out=3\n"

    def test_accumulator_counts_on_its_input_clock(self, tmp_path, capsys):
        # No `main` and two clocks: no netlist default, and none needed.
        path = tmp_path / "acc.net"
        path.write_text("clock a 1\nclock b 2\n"
                        "block s source value=6 clock=a\n"
                        "block acc accumulator\n"
                        "wire s.out acc.in\nprobe acc.out\n")
        assert main(["run", str(path)]) == 0
        assert capsys.readouterr().out == "probe acc.out=6\n"

    def test_stats_output(self, add_net, capsys):
        assert main(["run", add_net, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "cost sum=8" in out
        assert "overhead_per_block=1" in out


class TestCheck:
    def test_golden_madd_matches(self, capsys):
        assert main(["check", str(GOLDEN / "madd.net")]) == 0
        assert "ok d.out=18" in capsys.readouterr().out

    def test_golden_mux57_matches(self, capsys):
        assert main(["check", str(GOLDEN / "mux57.net")]) == 0
        assert capsys.readouterr().out == "ok d.out={5,7}\nok x.out={5,7}\n"

    def test_injected_fault_detected(self, add_net, capsys, monkeypatch):
        add = blocks.KINDS["add"]

        def biased(bid, params, inputs, t, clock, seed):
            out, cost, found = add.fire(bid, params, inputs, t, clock, seed)
            return (TimedMessage.interval(out.decoded() + 1, t, out.clock),
                    cost, found)

        monkeypatch.setitem(blocks.KINDS, "add",
                            add._replace(fire=biased))
        assert main(["check", add_net]) == 3
        out = capsys.readouterr().out
        assert "MISMATCH sum.out expected=7 actual=8" in out

    def test_random_dags_all_match(self, tmp_path, capsys):
        rng = random.Random(501)
        for i in range(100):
            path = tmp_path / ("dag%d.net" % i)
            path.write_text(random_dag_netlist(rng))
            assert main(["check", str(path)]) == 0
        capsys.readouterr()

    def test_scalar_into_madd_is_an_error(self, tmp_path, capsys):
        net = tmp_path / "madd.net"
        net.write_text((GOLDEN / "add34.net").read_text()
                       + "block d madd\nwire sum.out d.in0\nprobe d.out\n")
        assert main(["check", str(net)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: block 'd' (madd) input 'in0' takes "
                                "mv, got scalar from 'sum.out'\n")
        assert captured.out == ""

    def test_warnings_go_to_stderr(self, tmp_path, capsys):
        (tmp_path / "late_end.tbl").write_text("default 0\n3 5\n")
        path = tmp_path / "warn.net"
        path.write_text((GOLDEN / "add34.net").read_text().replace(
            "wire a.out sum.a", "wire a.out sum.a table=late_end.tbl"))
        assert main(["check", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == "MISMATCH sum.out expected=7 actual=12\n"
        assert err == "warning: unstable link a.out->sum.a value error +5\n"

    def test_budget_cut_is_reported_before_the_oracle(self, tmp_path,
                                                      capsys):
        # the run stops before d fires, so nothing is judged
        net = tmp_path / "acc.net"
        net.write_text((GOLDEN / "add34.net").read_text()
                       + "block d accumulator\nwire sum.out d.in\n"
                       "probe d.out\n")
        assert main(["check", str(net), "--budget", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: tick budget exhausted\n"
        assert captured.out == ""
        assert main(["check", str(net)]) == 0
        assert capsys.readouterr() == ("ok d.out=7\nok sum.out=7\n", "")

    # A photon counter that draws has no oracle value: `check` prints a
    # `skip` line for it and for each value computed from it.
    PHOTON = ("clock main 1\nblock src source value=1000\n"
              "block acc accumulator model=photon flux=3/2%s\n"
              "wire src.out acc.in\nprobe acc.out\n")
    SUM = "block s add\nwire acc.out s.a\nwire src.out s.b\nprobe s.out\n"

    @pytest.mark.parametrize("seed, block_seed, tail, out", [
        ([], " seed=5", "", "skip acc.out=1538 (seeded draw)\n"),
        (["--seed", "42"], "", "", "skip acc.out=1534 (seeded draw)\n"),
        (["--seed", "42"], "", SUM, "skip acc.out=1534 (seeded draw)\n"
         "skip s.out=2534 (seeded draw)\n"),
        ([], "", SUM, "ok acc.out=1500\nok s.out=2500\n"),
    ], ids=["block-seed", "run-seed", "computed-from-a-draw", "no-seed"])
    def test_a_seeded_draw_is_skipped(self, seed, block_seed, tail, out,
                                      tmp_path, capsys):
        path = tmp_path / "photon.net"
        path.write_text(self.PHOTON % block_seed + tail)
        assert main(seed + ["check", str(path)]) == 0
        assert capsys.readouterr() == (out, "")

    def test_a_mismatch_beside_a_skip_still_fails(self, tmp_path, capsys,
                                                  monkeypatch):
        mul = blocks.KINDS["mul"]

        def biased(bid, params, inputs, t, clock, seed):
            out, cost, found = mul.fire(bid, params, inputs, t, clock, seed)
            return (TimedMessage.interval(out.decoded() + 1, t, out.clock),
                    cost, found)

        monkeypatch.setitem(blocks.KINDS, "mul", mul._replace(fire=biased))
        path = tmp_path / "photon.net"
        path.write_text(self.PHOTON % " seed=5" + "block m mul k=2\n"
                        "wire src.out m.in\nprobe m.out\n")
        assert main(["check", str(path)]) == 3
        assert capsys.readouterr().out == (
            "skip acc.out=1538 (seeded draw)\n"
            "MISMATCH m.out expected=2000 actual=2001\n")

    def test_probe_block_is_judged(self, tmp_path, capsys):
        net = tmp_path / "probe.net"
        net.write_text("clock main 1\nblock a source value=3\n"
                       "block p probe\nwire a.out p.in\n")
        assert main(["check", str(net)]) == 0
        assert capsys.readouterr().out == "ok p.in=3\n"

    def test_probes_on_input_ports(self, tmp_path, capsys):
        net = tmp_path / "ports.net"
        net.write_text((GOLDEN / "add34.net").read_text()
                       + "probe sum.a\nprobe sum.b\n")
        assert main(["check", str(net)]) == 0
        assert main(["run", str(net)]) == 0
        out = capsys.readouterr().out
        assert "ok sum.a=3" in out and "ok sum.b=4" in out
        assert "probe sum.a=3" in out and "probe sum.b=4" in out


class TestEncode:
    def test_unary(self, capsys):
        assert main(["encode", "--scheme", "unary", "7"]) == 0
        assert capsys.readouterr().out == "value=7 scheme=unary length=7\n"

    def test_pim(self, capsys):
        assert main(["encode", "--scheme", "pim", "7", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["value=7 scheme=pim pulses=0,7",
                       "value=0 scheme=pim pulses=0"]

    def test_hybrid(self, capsys):
        assert main(["encode", "--scheme", "hybrid", "--base", "10",
                     "23"]) == 0
        assert capsys.readouterr().out == \
            "value=23 scheme=hybrid base=10 digits=3,2\n"

    def test_bad_base(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["encode", "--scheme", "hybrid", "--base", "1", "3"])
        assert err.value.code == 1
        assert capsys.readouterr().err == (
            "error: argument --base: '1' must be >= 2\n")

    def test_unknown_flag_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["encode", "--scheme", "unary", "--bogus", "7"])
        assert err.value.code == 1


class TestBench:
    def test_add_sweep_linear(self, capsys):
        assert main(["bench", "--op", "add", "--sizes", "10,100,1000"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "size,ticks"
        parsed = [tuple(map(int, r.split(","))) for r in rows[1:]]
        assert all(ticks - 2 * size == parsed[0][1] - 2 * parsed[0][0]
                   for size, ticks in parsed)

    def test_madd_sweep_tracks_position(self, capsys):
        assert main(["bench", "--op", "madd", "--sizes", "10,20,40"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        parsed = [tuple(map(int, r.split(","))) for r in rows]
        assert [t - s for s, t in parsed] == [1, 1, 1]

    def test_madd_far_position_row(self, capsys):
        assert main(["bench", "--op", "madd", "--sizes", "10000000"]) == 0
        assert capsys.readouterr().out == "size,ticks\n10000000,10000001\n"

    def test_mul_minimal_row(self, capsys):
        assert main(["bench", "--op", "mul", "--sizes", "1", "--k",
                     "1"]) == 0
        assert capsys.readouterr().out == "size,ticks\n1,2\n"

    def test_csv_file_output(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--op", "add", "--sizes", "10",
                     "--out", str(out)]) == 0
        assert out.read_text() == "size,ticks\n10,21\n"

    def test_bad_sizes(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--op", "add", "--sizes", "0"])
        assert err.value.code == 1
        assert capsys.readouterr().err == (
            "error: argument --sizes: '0' must be >= 1\n")

    @pytest.mark.parametrize("argv, size", [
        (["--op", "add", "--sizes", "3,200000000"], 200000000),
        (["--op", "mul", "--sizes", "5", "--budget", "3"], 5),
        (["--op", "mul", "--sizes", "5", "--k", "100", "--budget", "10"], 5),
    ], ids=["add-past-default-budget", "mul-past-budget",
            "mul-output-past-budget"])
    def test_a_size_past_the_budget_is_exit_2_and_no_csv(self, argv, size,
                                                        capsys):
        assert main(["bench"] + argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: tick budget exhausted at size %d\n" % size


class TestExport:
    def test_waveform_from_trace(self, add_net, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        main(["run", add_net, "--trace", str(trace)])
        capsys.readouterr()
        assert main(["export", str(trace)]) == 0
        assert capsys.readouterr().out.startswith("$timescale 1 tick $end\n")

    def test_probe_line_is_not_a_result(self, tmp_path, capsys):
        # What `run --trace -` printed before the probe lines moved to
        # stderr: a trace with a `probe sum.out=7` line after its footer.
        mixed = tmp_path / "mixed.csv"
        mixed.write_text((GOLDEN / "add34.csv").read_text()
                         + "probe sum.out=7\n")
        assert main(["export", str(mixed)]) == 1
        assert capsys.readouterr().err == (
            "error: malformed trace row 'probe sum.out=7'\n")

    def test_a_long_malformed_row_is_echoed_cut_short(self, tmp_path,
                                                      capsys):
        bad = tmp_path / "long.csv"
        bad.write_text("tick,block,port,role\n%s,a,out\n" % ("7" * 5000))
        assert main(["export", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "error: malformed trace row '77777777777777777777'...\n")

    def test_bad_trace_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("nonsense\n")
        assert main(["export", str(bad)]) == 1


# Outputs of x that end past the budget: 1000 * 200 ends at tick
# 200,000, and an analog accumulator's 10**300 at tick 10**300.
LATE_OUTPUTS = {
    "mul": ("clock main 1\nblock a source value=1000 clock=main\n"
            "block x mul k=200\nwire a.out x.in\n", ["--budget", "5000"]),
    "analog": ("clock main 1\nblock a source value=1\n"
               "block x accumulator model=analog rate=1%s\n"
               "wire a.out x.in\n" % ("0" * 300), []),
}
# An output that nothing observes was not computed within the budget
# either.
OBSERVERS = {"probe-out": "probe x.out\n",
             "probe-block": "block p probe\nwire x.out p.in\n",
             "unobserved": ""}


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("observer", sorted(OBSERVERS))
@pytest.mark.parametrize("late", sorted(LATE_OUTPUTS))
def test_an_output_past_the_budget_is_exit_2_however_observed(
        late, observer, command, tmp_path, capsys):
    text, budget = LATE_OUTPUTS[late]
    net = tmp_path / "late.net"
    net.write_text(text + OBSERVERS[observer])
    assert main([command, str(net)] + budget) == 2
    assert capsys.readouterr() == ("", "error: tick budget exhausted\n")


NOT_UTF8 = b"clock main 1\n# caf\xe9\n"
# A photon mean past a float's range, with and without the block's seed.
FLUX_PAST_FLOAT = b"1" + b"0" * 400
PHOTON = (b"clock main 1\nblock s source value=3\n"
          b"block acc accumulator model=photon flux=" + FLUX_PAST_FLOAT
          + b"%s\nwire s.out acc.in\nprobe acc.out\n")
BAD_TICK = b"tick,block,port,role\nx,a,out,start\n"


@pytest.mark.parametrize("argv, content", [
    (["export", "{file}"], BAD_TICK),
    (["run", "{file}"], NOT_UTF8),
    (["check", "{file}"], NOT_UTF8),
    (["export", "{file}"], NOT_UTF8),
    (["run", "{add34}", "--budget", "0"], None),
    (["check", "{add34}", "--budget", "0"], None),
    (["run", "{file}"], PHOTON % b" seed=1"),
    (["--seed", "1", "run", "{file}"], PHOTON % b""),
], ids=["export-bad-tick", "run-not-utf8", "check-not-utf8",
        "export-not-utf8", "run-budget-0", "check-budget-0",
        "run-huge-photon-mean", "run-seed-huge-photon-mean"])
def test_bad_input_is_one_error_line_not_a_traceback(argv, content,
                                                       tmp_path, capsys):
    # An exception escaping main is what the console script prints as a
    # traceback.
    path = tmp_path / "input"
    if content is not None:
        path.write_bytes(content)
    argv = [a.format(file=path, add34=GOLDEN / "add34.net") for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:   # a usage error, such as --budget 0
        code = exc.code
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


# One text for a mean no draw can take: past numpy's Poisson bound and
# past a float's range.
@pytest.mark.parametrize("flux", [b"1" + b"0" * 30, FLUX_PAST_FLOAT],
                         ids=["past-poisson-bound", "past-float-range"])
def test_a_photon_mean_too_large_to_draw_has_one_text(flux, tmp_path,
                                                      capsys):
    path = tmp_path / "photon.net"
    path.write_bytes(PHOTON.replace(FLUX_PAST_FLOAT, flux) % b" seed=1")
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: block 'acc' (accumulator): photon mean is too large to "
        "draw\n")


LONG = "7" * 5000   # past CPython's 4300-digit int conversion limit


@pytest.mark.parametrize("netlist, table", [
    ("block a source value={long}\n", None),
    ("block a source value=3\nblock c accumulator model=analog rate={long}\n"
     "wire a.out c.in\n", None),
    ("block a source value=3\nblock c accumulator model=photon flux={long}\n"
     "wire a.out c.in\n", None),
    ("block a source value=3\nblock p probe\nwire a.out p.in latency={long}\n",
     None),
    ("block a source value=3\nblock p probe\nwire a.out p.in table=t.tbl\n",
     "{long} 2\n"),
    ("clock fast {long}\nblock a source value=3\n", None),
], ids=["value", "rate", "flux", "latency", "table-tick", "frequency"])
def test_an_overlong_number_is_one_short_error_line(netlist, table, tmp_path,
                                                    capsys):
    if table is not None:
        (tmp_path / "t.tbl").write_text(table.format(long=LONG))
    path = tmp_path / "long.net"
    path.write_text("clock main 1\n" + netlist.format(long=LONG))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "is too long (5000 characters" in err and len(err.encode()) < 200


@pytest.mark.parametrize("netlist, error", [
    ("clock main 1e99999999\nblock a source value=3\n",
     "line 1:12: frequency '1e99999999' is not rational"),
    ("clock main 1\nblock a source value=3\nblock c accumulator "
     "model=analog rate=1e-99999999\nwire a.out c.in\n",
     "block 'c' param rate='1e-99999999': is not rational"),
], ids=["frequency", "rate"])
def test_a_huge_exponent_is_one_error_line(netlist, error, tmp_path, capsys):
    # No exponent is read, so no 10**99999999 is built.
    path = tmp_path / "exp.net"
    path.write_text(netlist)
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % error)


@pytest.mark.parametrize("argv", [
    ["run", "{add34}", "--trace", "{out}"],
    ["run", "{add34}", "--waveform", "{out}"],
    ["export", "{csv}", "--out", "{out}"],
    ["bench", "--op", "add", "--sizes", "3", "--out", "{out}"],
], ids=["run-trace", "run-waveform", "export-out", "bench-out"])
def test_unwritable_output_is_one_error_line(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "out.txt"
    argv = [a.format(add34=GOLDEN / "add34.net", csv=GOLDEN / "add34.csv",
                     out=out) for a in argv]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: %s: %s\n" % (
        out, os.strerror(errno.ENOENT))


def test_a_bad_model_is_one_short_error_line(tmp_path, capsys):
    path = tmp_path / "model.net"
    path.write_text("clock main 1\nblock a source value=3\n"
                    "block c accumulator model=%s\nwire a.out c.in\n"
                    % ("x" * 5000))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: block 'c' param model='xxxxxxxxxxxxxxxxxxxx'...: "
                   "must be one of digital, toggle, analog, photon\n")
    assert len(err.encode()) < 200


# The mux sends 2 and 6 as pulses at ticks 8 and 12 after its start at 6.
# A `table=` wire can distort that value set into one that `mux` never
# sends; the checked constructor refuses it in `mux`'s own texts.
DISTORTED_MUX = """\
clock main 1
block a source value=2
block b source value=6
block x mux
block d {reader}
wire a.out x.in0
wire b.out x.in1
wire x.out d.in table=d.tbl
"""
DEMUX_ON_START = DISTORTED_MUX.format(reader="demux") + "probe d.out\n"


# The table delays ticks 6 and 8 to 11 and leaves 12 at 12, so a value
# pulse lands on the start marker.
@pytest.mark.parametrize("command", ["run", "check"])
def test_demux_refuses_a_value_pulse_on_its_start_marker(command, tmp_path,
                                                         capsys):
    (tmp_path / "d.tbl").write_text("6 5\n8 3\n")
    net = tmp_path / "d.net"
    net.write_text(DEMUX_ON_START)
    assert main([command, str(net)]) == 1
    assert capsys.readouterr() == (
        "", "error: wire x.out->d.in: distorted message is unreadable: "
        "0 collides with the start marker\n")


# The table delays tick 8 to 12, so both value pulses land on tick 12:
# into a `demux` or a probe, the value set is refused, not collapsed.
@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("net", [DEMUX_ON_START,
                                 DISTORTED_MUX.format(reader="probe")],
                         ids=["demux", "probe"])
def test_a_value_set_distorted_onto_one_tick_is_refused(command, net,
                                                        tmp_path, capsys):
    (tmp_path / "d.tbl").write_text("8 4\n")
    path = tmp_path / "d.net"
    path.write_text(net)
    assert main([command, str(path)]) == 1
    assert capsys.readouterr() == (
        "", "error: wire x.out->d.in: distorted message is unreadable: "
        "mux requires duplicate-free values\n")


@pytest.mark.parametrize("argv, message", [
    (["run", "{add34}", "--budget", "abc"],
     "error: argument --budget: 'abc' is not an integer\n"),
    (["run", "{add34}", "--bogus"],
     "error: unrecognized arguments: '--bogus'\n"),
    (["run", "{add34}", "--budget", LONG],
     "error: argument --budget: '77777777777777777777'... is too long "
     "(5000 characters, at most 4300)\n"),
    (["encode", "--scheme", "unary", LONG],
     "error: argument values: '77777777777777777777'... is too long "
     "(5000 characters, at most 4300)\n"),
    (["run", "{add34}", "--bogus=" + LONG],
     "error: unrecognized arguments: '--bogus=777777777777'...\n"),
    (["encode", "--scheme", "x" * 5000, "7"],
     "error: argument --scheme: 'xxxxxxxxxxxxxxxxxxxx'... is not one of "
     "unary, pim, hybrid\n"),
    (["x" * 5000],
     "error: argument command: 'xxxxxxxxxxxxxxxxxxxx'... is not one of "
     "run, check, encode, bench, export\n"),
    (["bench", "--op", "add", "--sizes", "1,abc"],
     "error: argument --sizes: 'abc' is not an integer\n"),
    (["bench", "--op", "add", "--sizes", "1," + LONG],
     "error: argument --sizes: '77777777777777777777'... is too long "
     "(5000 characters, at most 4300)\n"),
    (["bench", "--op", "add", "--sizes", ","],
     "error: argument --sizes: ',' holds no integer\n"),
    (["export", "{add34}", "--format", "waveform"],
     "error: unrecognized arguments: '--format' 'waveform'\n"),
], ids=["budget-abc", "unknown-flag", "long-budget", "long-encode",
        "long-unknown-flag", "long-choice", "long-command", "sizes-abc",
        "long-sizes", "no-sizes", "export-format"])
def test_a_usage_error_is_one_error_line_and_exit_1(argv, message, capsys):
    # Exit code 2 means the budget ran out, so a usage error must not use it.
    with pytest.raises(SystemExit) as err:
        main([a.format(add34=GOLDEN / "add34.net") for a in argv])
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)
    assert len(message.encode()) < 200


# One number rule at every site that reads a number token: (argv, the
# input file, a table file, the error line, a token below the site's
# range and its reason, or None). {tok} is the token; the error line
# holds its echo {q} and the reason.
GE0, GE1 = ("-1", "must be >= 0"), ("0", "must be >= 1")
NUMBER_SITES = {
    "param": (["run", "{net}"], "clock main 1\nblock a source value={tok}\n",
              None, "block 'a' param value={q}: {reason}", GE0),
    "frequency": (["run", "{net}"],
                  "clock main {tok}\nblock a source value=3\n", None,
                  "line 1:12: frequency {q} {reason}", ("0", "must be > 0")),
    "rate": (["run", "{net}"],
             "clock main 1\nblock a source value=3\nblock c accumulator "
             "model=analog rate={tok}\nwire a.out c.in\n", None,
             "block 'c' param rate={q}: {reason}", ("0", "must be > 0")),
    "flux": (["run", "{net}"],
             "clock main 1\nblock a source value=3\nblock c accumulator "
             "model=photon flux={tok}\nwire a.out c.in\n", None,
             "block 'c' param flux={q}: {reason}", ("0", "must be > 0")),
    "latency": (["run", "{net}"],
                "clock main 1\nblock a source value=3\nblock p probe\n"
                "wire a.out p.in latency={tok}\n", None,
                "line 4:25: latency {q} {reason}", GE0),
    "table-tick": (["run", "{net}"],
                   "clock main 1\nblock a source value=3\nblock p probe\n"
                   "wire a.out p.in table=t.tbl\n", "{tok} 2\n",
                   "line 4:17: latency table t.tbl: line 1: {q} {reason}",
                   None),
    "table-delay": (["run", "{net}"],
                    "clock main 1\nblock a source value=3\nblock p probe\n"
                    "wire a.out p.in table=t.tbl\n", "0 {tok}\n",
                    "line 4:17: latency table t.tbl: line 1: {q} {reason}",
                    GE0),
    "trace-tick": (["export", "{net}"],
                   "tick,block,port,role\n{tok},a,out,start\n", None,
                   "trace tick {q} {reason}", GE0),
    "--seed": (["--seed", "{tok}", "run", "{add34}"], None, None,
               "argument --seed: {q} {reason}", GE0),
    "--budget": (["check", "{add34}", "--budget", "{tok}"], None, None,
                 "argument --budget: {q} {reason}", GE1),
    "--base": (["encode", "--scheme", "hybrid", "--base", "{tok}", "7"],
               None, None, "argument --base: {q} {reason}",
               ("1", "must be >= 2")),
    "--k": (["bench", "--op", "mul", "--sizes", "3", "--k", "{tok}"], None,
            None, "argument --k: {q} {reason}", GE1),
    "--amplitude": (["bench", "--op", "madd", "--sizes", "3",
                     "--amplitude", "{tok}"], None, None,
                    "argument --amplitude: {q} {reason}", GE1),
    "--sizes": (["bench", "--op", "add", "--sizes", "3,{tok}"], None, None,
                "argument --sizes: {q} {reason}", GE1),
    "encode-value": (["encode", "--scheme", "unary", "{tok}"], None, None,
                     "argument values: {q} {reason}", GE0),
}


RATIONAL_SITES = ("frequency", "rate", "flux")
# A number token is ASCII digits; a rational site also reads `p/q`.
NOT_A_NUMBER = {"not-a-number": "x", "plus-sign": "+3",
                "underscore": "1_000", "arabic-indic-3": "\u0663"}
NOT_RATIONAL = {"decimal-point": "0.5", "exponent": "1e3"}


def _number_cases():
    for site, (*_rest, below) in NUMBER_SITES.items():
        yield pytest.param(site, "7" * 4301, "'77777777777777777777'...",
                           "is too long (4301 characters, at most 4300)",
                           id=site + "-long")
        rational = site in RATIONAL_SITES
        bad = dict(NOT_A_NUMBER, **NOT_RATIONAL) if rational else NOT_A_NUMBER
        for name, tok in bad.items():
            yield pytest.param(site, tok, repr(tok),
                               "is not rational" if rational
                               else "is not an integer", id=site + "-" + name)
        if below is not None:
            yield pytest.param(site, below[0], repr(below[0]), below[1],
                               id=site + "-below-range")


@pytest.mark.parametrize("site, tok, q, reason", _number_cases())
def test_every_number_site_reads_by_one_rule(site, tok, q, reason, tmp_path,
                                             capsys):
    argv, net, table, line, _below = NUMBER_SITES[site]
    if net is not None:
        (tmp_path / "input").write_text(net.format(tok=tok))
    if table is not None:
        (tmp_path / "t.tbl").write_text(table.format(tok=tok))
    argv = [a.format(tok=tok, net=tmp_path / "input",
                     add34=GOLDEN / "add34.net") for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:   # argparse's usage error
        code = exc.code
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % line.format(q=q, reason=reason)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("usage: temporalsim run")


@given(st.integers(0, 2 ** 32 - 1))
def test_a_random_dag_exits_0_to_3_with_byte_stable_exports(seed):
    # A function-scoped fixture would outlive Hypothesis' examples, so each
    # example makes its own directory and captures its own output.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dag.net")
        with open(path, "w") as fh:
            fh.write(random_dag_netlist(random.Random(seed)))
        exports = []
        for attempt in ("1", "2"):
            csv, vcd = (os.path.join(tmp, attempt + ext)
                        for ext in (".csv", ".vcd"))
            with redirect_stdout(io.StringIO()), \
                    redirect_stderr(io.StringIO()):
                assert main(["run", path, "--trace", csv,
                             "--waveform", vcd]) in range(4)
                assert main(["check", path]) in range(4)
            exports.append([Path(out).read_bytes() for out in (csv, vcd)])
        assert exports[0] == exports[1]
