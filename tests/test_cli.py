"""Command-line interface: subcommands, exit codes, byte-stable output."""

import errno
import os
import random
import sys
from pathlib import Path

import pytest

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

    def test_warnings_go_to_stderr(self, tmp_path, capsys):
        # The end event is delayed 5 ticks more than the start (a readable
        # distortion), and 12 overflows a two-stage toggle chain.
        (tmp_path / "late_end.tbl").write_text("default 0\n3 5\n")
        path = tmp_path / "warn.net"
        path.write_text("clock main 1\n"
                        "block a source value=3 clock=main\n"
                        "block b source value=4 clock=main\n"
                        "block s add\n"
                        "block acc accumulator model=toggle depth=2\n"
                        "wire a.out s.a table=late_end.tbl\n"
                        "wire b.out s.b\nwire s.out acc.in\n"
                        "probe s.out\nprobe acc.out\n")
        assert main(["run", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out == "probe acc.out=0\nprobe s.out=12\n"
        assert err == ("warning: unstable link a.out->s.a value error +5\n"
                       "warning: block 'acc': toggle chain overflowed\n")

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
        path = tmp_path / "photon.net"
        path.write_text("clock main 1\nblock a source value=5\n"
                        "block acc accumulator model=photon\n"
                        "wire a.out acc.in\nprobe acc.out\n")
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert main(["--seed", "3", "run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: block 'acc' (accumulator): a seeded "
                              "photon count needs numpy: ")
        assert err.count("\n") == 1

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

    def test_injected_fault_detected(self, add_net, capsys, monkeypatch):
        add = blocks.KINDS["add"]

        def biased(firing):
            out, cost = add.fire(firing)
            return (TimedMessage.interval(out.decode() + 1, firing.t,
                                          out.clock), cost)

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

    def test_unsupported_kind_is_an_error(self, tmp_path, capsys):
        net = tmp_path / "acc.net"
        net.write_text("clock main 1\n"
                       "block a source value=5 clock=main\n"
                       "block acc accumulator\n"
                       "wire a.out acc.in\nprobe acc.out\n")
        assert main(["check", str(net)]) == 1

    def test_scalar_into_madd_is_an_error(self, tmp_path, capsys):
        net = tmp_path / "madd.net"
        net.write_text((GOLDEN / "add34.net").read_text()
                       + "block d madd\nwire sum.out d.in0\nprobe d.out\n")
        assert main(["check", str(net)]) == 1
        assert ("block 'd' (madd): expected multi-valent messages"
                in capsys.readouterr().err)

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
        # the run stops before d fires, so the oracle is never asked
        net = tmp_path / "madd.net"
        net.write_text((GOLDEN / "add34.net").read_text()
                       + "block d madd\nwire sum.out d.in0\nprobe d.out\n")
        assert main(["check", str(net), "--budget", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: tick budget exhausted\n"
        assert captured.out == ""

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
        assert main(["encode", "--scheme", "hybrid", "--base", "1",
                     "3"]) == 1

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
        assert main(["bench", "--op", "add", "--sizes", "0"]) == 1

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
        assert main(["export", str(trace), "--format", "waveform"]) == 0
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

    def test_bad_trace_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("nonsense\n")
        assert main(["export", str(bad)]) == 1


NOT_UTF8 = b"clock main 1\n# caf\xe9\n"
BAD_TICK = b"tick,block,port,role\nx,a,out,start\n"


@pytest.mark.parametrize("argv, content", [
    (["export", "{file}"], BAD_TICK),
    (["run", "{file}"], NOT_UTF8),
    (["check", "{file}"], NOT_UTF8),
    (["export", "{file}"], NOT_UTF8),
    (["run", "{add34}", "--budget", "0"], None),
    (["check", "{add34}", "--budget", "0"], None),
], ids=["export-bad-tick", "run-not-utf8", "check-not-utf8",
        "export-not-utf8", "run-budget-0", "check-budget-0"])
def test_bad_input_is_one_error_line_not_a_traceback(argv, content,
                                                       tmp_path, capsys):
    # An exception escaping main is what the console script prints as a
    # traceback.
    path = tmp_path / "input"
    if content is not None:
        path.write_bytes(content)
    argv = [a.format(file=path, add34=GOLDEN / "add34.net") for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


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
], ids=["budget-abc", "unknown-flag", "long-budget", "long-encode",
        "long-unknown-flag", "long-choice", "long-command"])
def test_a_usage_error_is_one_error_line_and_exit_1(argv, message, capsys):
    # Exit code 2 means the budget ran out, so a usage error must not use it.
    with pytest.raises(SystemExit) as err:
        main([a.format(add34=GOLDEN / "add34.net") for a in argv])
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)
    assert len(message.encode()) < 200


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("usage: temporalsim run")
