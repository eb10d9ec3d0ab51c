"""Byte lock on the ten figure netlists: the `run --trace` CSV, the
`run --waveform` text and the `run --stats` stdout must match the files
committed beside them, `export` of the committed CSV must give the
committed waveform, and `check` must judge every probe as the integer
oracle does. Each figure's exit codes and stderr are pinned too."""

from pathlib import Path

import pytest

from temporalsim.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIGURES = ("unary7", "add34", "mul5x3", "mux57", "madd", "race3", "metro",
           "race2clk", "links", "budget")

UNSTABLE = "warning: unstable link b.out->q.in value error +2\n"
EXHAUSTED = "error: tick budget exhausted\n"
# Figure -> ((exit code, stderr) of `run`, the same of `check`, `check`'s
# stdout). A figure not listed exits 0 with an empty stderr, and `check`
# prints only `ok` lines.
OUTCOMES = {
    "links": ((0, UNSTABLE), (3, UNSTABLE),
              "MISMATCH q.in expected=3 actual=5\nok s.out=7\n"),
    "budget": ((2, EXHAUSTED), (2, EXHAUSTED), ""),
}
CLEAN = ((0, ""), (0, ""), None)


@pytest.mark.parametrize("name", FIGURES)
def test_trace_and_stats_match_golden_bytes(name, tmp_path, capsys):
    (code, err), _check, _out = OUTCOMES.get(name, CLEAN)
    net = str(GOLDEN / (name + ".net"))
    trace = tmp_path / "trace.csv"
    assert main(["run", net, "--trace", str(trace)]) == code
    assert capsys.readouterr().err == err
    assert trace.read_bytes() == (GOLDEN / (name + ".csv")).read_bytes()
    assert main(["run", net, "--stats"]) == code
    out, stats_err = capsys.readouterr()
    assert out.encode() == (GOLDEN / (name + ".stats")).read_bytes()
    assert stats_err == err


@pytest.mark.parametrize("name", FIGURES)
def test_waveform_matches_golden_bytes(name, tmp_path, capsys):
    (code, err), _check, _out = OUTCOMES.get(name, CLEAN)
    golden = (GOLDEN / (name + ".vcd")).read_bytes()
    wave = tmp_path / "wave.vcd"
    assert main(["run", str(GOLDEN / (name + ".net")),
                 "--waveform", str(wave)]) == code
    assert capsys.readouterr().err == err
    assert wave.read_bytes() == golden
    exported = tmp_path / "export.vcd"
    assert main(["export", str(GOLDEN / (name + ".csv")),
                 "--out", str(exported)]) == 0
    capsys.readouterr()
    assert exported.read_bytes() == golden


@pytest.mark.parametrize("name", FIGURES)
def test_check_passes_every_golden_figure(name, capsys):
    _run, (code, err), expected = OUTCOMES.get(name, CLEAN)
    assert main(["check", str(GOLDEN / (name + ".net"))]) == code
    out, check_err = capsys.readouterr()
    assert check_err == err
    if expected is None:
        assert out
        assert all(line.startswith("ok ") for line in out.splitlines())
    else:
        assert out == expected
