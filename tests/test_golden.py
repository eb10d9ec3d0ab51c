"""Byte lock on the five figure netlists: the `run --trace` CSV and the
`run --stats` stdout must match the files committed beside them."""

from pathlib import Path

import pytest

from temporalsim.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIGURES = ("unary7", "add34", "mul5x3", "mux57", "madd")


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
