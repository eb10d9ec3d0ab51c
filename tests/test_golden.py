"""Byte lock on the ten figure netlists: the `run --trace` CSV, the
`run --waveform` text and the `run --stats` stdout must match the files
committed beside them, `export` of the committed CSV must give the
committed waveform, and `check` must judge every probe as the integer
oracle does. Each figure's exit codes and stderr are pinned too, in the
outcome table of `tests/golden_cli.py`, whose every command also runs
here in-process."""

import pytest

from golden_cli import CLI, FIGURES, GOLDEN, OUTCOMES, arguments, rows, \
    write_files
from temporalsim.cli import main


@pytest.mark.parametrize("name", FIGURES)
def test_trace_and_stats_match_golden_bytes(name, tmp_path, capsys):
    (code, err), _check, _out = OUTCOMES[name]
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
    (code, err), _check, _out = OUTCOMES[name]
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
    _run, (code, err), expected = OUTCOMES[name]
    assert main(["check", str(GOLDEN / (name + ".net"))]) == code
    out, check_err = capsys.readouterr()
    assert check_err == err
    assert out == expected


# The rows that `tests/golden_cli.py` runs under `python -S`, run here
# in-process; the import check is `tests/test_api.py`'s.
CLI_ROWS = [row for row in rows() if row[2][:2] == CLI]


@pytest.mark.parametrize("row", CLI_ROWS, ids=[row[0] for row in CLI_ROWS])
def test_every_pinned_command(row, tmp_path, capsys):
    _name, files, args, code, out, err = row
    write_files(files, str(tmp_path))
    assert main(arguments(args, str(tmp_path))[2:]) == code
    assert capsys.readouterr() == (out, err)
