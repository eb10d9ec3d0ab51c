"""Every CLI outcome the repository pins, and a standard-library runner
that checks them.

Run it from any directory as `python -S tests/golden_cli.py`: it needs no
pytest, numpy or typing. For each golden figure it runs `run`, `run
--stats`, `run --trace -`, `run --waveform -`, `check` and `export`, and
then each hand case of `CASES`, every one as `python -S -m
temporalsim.cli ...` on the package under `src/`. It compares each
command's exit code, stdout and stderr with the golden files and with
`OUTCOMES` and `CASES`, prints one line per difference and exits 1 if
there is any. `tests/test_golden.py` imports the same table and runs its
commands in-process.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FIGURES = ("unary7", "add34", "mul5x3", "mux57", "madd", "race3", "metro",
           "race2clk", "links", "budget")

UNSTABLE = "warning: unstable link b.out->q.in value error +2\n"
EXHAUSTED = "error: tick budget exhausted\n"
# Figure -> ((exit code, stderr) of every `run`, the same of `check`,
# `check`'s stdout). The stderr of `run` holds only warnings and errors:
# with `--trace -` or `--waveform -` the probe lines go there too, after
# the warnings and before the errors.
OUTCOMES = {
    "unary7": ((0, ""), (0, ""), "ok p.in=7\n"),
    "add34": ((0, ""), (0, ""), "ok sum.out=7\n"),
    "mul5x3": ((0, ""), (0, ""), "ok m.out=15\n"),
    "mux57": ((0, ""), (0, ""), "ok d.out={5,7}\nok x.out={5,7}\n"),
    "madd": ((0, ""), (0, ""), "ok d.out=18\n"),
    "race3": ((0, ""), (0, ""), "ok hi.out=8\nok lo.out=3\n"),
    "metro": ((0, ""), (0, ""),
              "ok ana.out=12\nok back.out=15\nok dig.out=17\nok down.out=2\n"
              "ok pho.out=11\nok sum.out=32\nok tog.out=17\nok up.out=17\n"),
    # Two clocks race raw counts (ROADMAP item 2).
    "race2clk": ((0, ""), (0, ""), "ok m.out=3\n"),
    "links": ((0, UNSTABLE), (3, UNSTABLE),
              "MISMATCH q.in expected=3 actual=5\nok s.out=7\n"),
    "budget": ((2, EXHAUSTED), (2, EXHAUSTED), ""),
}

PHOTON = ("clock main 1\nblock src source value=1000\n"
          "block acc accumulator model=photon flux=3/2\n"
          "wire src.out acc.in\nprobe acc.out\n")
LATE = ("clock main 1\nblock a source value=1000 clock=main\n"
        "block m mul k=200\nwire a.out m.in\nprobe m.out\n")
DISTORTED = ("clock main 1\nblock a source value=2\nblock b source value=6\n"
             "block x mux\nblock d demux\nwire a.out x.in0\nwire b.out x.in1\n"
             "wire x.out d.in table=distorted.tbl\nprobe d.out\n")
# Importing the package and its CLI loads none of these.
IMPORT_CHECK = (
    "import sys, temporalsim, temporalsim.cli\n"
    "loaded = [m for m in ('typing', 'dataclasses', 'inspect', 'numpy')"
    " if m in sys.modules]\n"
    "sys.exit('loaded at import: %s' % loaded if loaded else None)\n")

# Hand cases: name -> (files written to a fresh directory, the arguments
# after `python -S`, with {tmp} naming that directory, exit code, stdout,
# stderr).
CASES = {
    "import loads no code generator": (
        {}, ["-c", IMPORT_CHECK], 0, "", ""),
    # numpy's Poisson stream, drawn without numpy; `check` skips it.
    "seeded photon run": (
        {"photon.net": PHOTON},
        ["--seed", "42", "run", "{tmp}/photon.net"], 0,
        "probe acc.out=1534\n", ""),
    "seeded photon check": (
        {"photon.net": PHOTON},
        ["--seed", "42", "check", "{tmp}/photon.net"], 0,
        "skip acc.out=1534 (seeded draw)\n", ""),
    # A `probe X.out` whose value ends past the budget prints nothing.
    "out probe past the budget": (
        {"late.net": LATE},
        ["run", "{tmp}/late.net", "--budget", "5000"], 2, "", EXHAUSTED),
    # A table that lands the mux's two value pulses on one tick.
    "distorted value set": (
        {"distorted.net": DISTORTED, "distorted.tbl": "8 4\n"},
        ["run", "{tmp}/distorted.net"], 1, "",
        "error: wire x.out->d.in: distorted message is unreadable: "
        "mux requires duplicate-free values\n"),
    # A table that moves the smaller member: the warning names both sets.
    "misread value set": (
        {"distorted.net": DISTORTED, "distorted.tbl": "8 2\n"},
        ["run", "{tmp}/distorted.net"], 0, "probe d.out={4,6}\n",
        "warning: unstable link x.out->d.in value {2,6} read as {4,6}\n"),
    "decimal frequency": (
        {"decimal.net": "clock main 0.5\nblock a source value=3\n"},
        ["run", "{tmp}/decimal.net"], 1, "",
        "error: line 1:12: frequency '0.5' is not rational\n"),
    "encode": (
        {}, ["encode", "--scheme", "hybrid", "--base", "10", "305"], 0,
        "value=305 scheme=hybrid base=10 digits=5,0,3\n", ""),
    # The costs that `mul_dilate` computes.
    "bench": (
        {}, ["bench", "--op", "mul", "--k", "200", "--sizes", "1,10,100"], 0,
        "size,ticks\n1,201\n10,2001\n100,20001\n", ""),
}

CLI = ["-m", "temporalsim.cli"]


def _golden(name, suffix):
    return (GOLDEN / (name + suffix)).read_text(encoding="utf-8")


def _figure_rows(name):
    (code, err), (check_code, check_err), check_out = OUTCOMES[name]
    net, stats = str(GOLDEN / (name + ".net")), _golden(name, ".stats")
    probes = "".join(line + "\n" for line in stats.splitlines()
                     if line.startswith("probe "))
    warned = "".join(line + "\n" for line in err.splitlines()
                     if line.startswith("warning: "))
    # With an export on stdout, the probe lines go to stderr.
    report = warned + probes + err[len(warned):]
    return [
        ("%s run" % name, {}, CLI + ["run", net], code, probes, err),
        ("%s run --stats" % name, {}, CLI + ["run", net, "--stats"], code,
         stats, err),
        ("%s run --trace -" % name, {}, CLI + ["run", net, "--trace", "-"],
         code, _golden(name, ".csv"), report),
        ("%s run --waveform -" % name, {},
         CLI + ["run", net, "--waveform", "-"], code, _golden(name, ".vcd"),
         report),
        ("%s check" % name, {}, CLI + ["check", net], check_code, check_out,
         check_err),
        ("%s export" % name, {},
         CLI + ["export", str(GOLDEN / (name + ".csv"))], 0,
         _golden(name, ".vcd"), ""),
    ]


def rows():
    """Every pinned command: (name, files, arguments after `python -S`,
    exit code, stdout, stderr)."""
    table = [row for name in FIGURES for row in _figure_rows(name)]
    for name, (files, args, code, out, err) in CASES.items():
        if args[0] != "-c":
            args = CLI + args
        table.append((name, files, args, code, out, err))
    return table


def arguments(args, tmp):
    return [arg.replace("{tmp}", tmp) for arg in args]


def write_files(files, tmp):
    for file_name, text in files.items():
        with open(os.path.join(tmp, file_name), "w", encoding="utf-8") as fh:
            fh.write(text)


def run_row(row, tmp):
    """Run one row under `python -S` in directory `tmp`: (exit code,
    stdout, stderr)."""
    _name, files, args, _code, _out, _err = row
    write_files(files, tmp)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-S"] + arguments(args, tmp),
                          env=env, cwd=tmp, capture_output=True, timeout=120)
    return (done.returncode, done.stdout.decode("utf-8"),
            done.stderr.decode("utf-8"))


def _difference(have, want):
    """Where `have` first differs from `want`: the value itself for an
    exit code, else the first line that differs."""
    if not isinstance(want, str):
        return "%r, not %r" % (have, want)
    got, expected = have.splitlines(True), want.splitlines(True)
    line = next((i for i, pair in enumerate(zip(got, expected))
                 if pair[0] != pair[1]), min(len(got), len(expected)))
    return "line %d is %r, not %r" % (
        line + 1, got[line] if line < len(got) else "<end>",
        expected[line] if line < len(expected) else "<end>")


def main():
    failed = 0
    table = rows()
    for row in table:
        name, _files, _args, code, out, err = row
        with tempfile.TemporaryDirectory() as tmp:
            got = run_row(row, tmp)
        for field, want, have in zip(("exit code", "stdout", "stderr"),
                                     (code, out, err), got):
            if have != want:
                failed += 1
                print("FAIL %s: %s %s" % (name, field,
                                          _difference(have, want)))
    print("%d commands, %d differences" % (len(table), failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
