"""Byte lock on the seven figure netlists: the `run --trace` CSV, the
`run --waveform` text and the `run --stats` stdout must match the files
committed beside them, `export` of the committed CSV must give the
committed waveform, and `check` must find every probe as the integer
oracle does."""

from pathlib import Path

import pytest

from temporalsim.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIGURES = ("unary7", "add34", "mul5x3", "mux57", "madd", "race3", "metro")


@pytest.mark.parametrize("name", FIGURES)
def test_trace_and_stats_match_golden_bytes(name, tmp_path, capsys):
    net = str(GOLDEN / (name + ".net"))
    trace = tmp_path / "trace.csv"
    assert main(["run", net, "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert trace.read_bytes() == (GOLDEN / (name + ".csv")).read_bytes()
    assert main(["run", net, "--stats"]) == 0
    assert (capsys.readouterr().out.encode()
            == (GOLDEN / (name + ".stats")).read_bytes())


@pytest.mark.parametrize("name", FIGURES)
def test_waveform_matches_golden_bytes(name, tmp_path, capsys):
    golden = (GOLDEN / (name + ".vcd")).read_bytes()
    wave = tmp_path / "wave.vcd"
    assert main(["run", str(GOLDEN / (name + ".net")),
                 "--waveform", str(wave)]) == 0
    assert wave.read_bytes() == golden
    exported = tmp_path / "export.vcd"
    assert main(["export", str(GOLDEN / (name + ".csv")),
                 "--out", str(exported)]) == 0
    capsys.readouterr()
    assert exported.read_bytes() == golden


@pytest.mark.parametrize("name", FIGURES)
def test_check_passes_every_golden_figure(name, capsys):
    assert main(["check", str(GOLDEN / (name + ".net"))]) == 0
    out, err = capsys.readouterr()
    assert out and err == ""
    assert all(line.startswith("ok ") for line in out.splitlines())
