"""Text mutants of the golden inputs end in an exit code, never a crash.

Each golden `.net`, `.tbl` and `.csv` file is mutated by a seeded
generator: tokens and lines are deleted, duplicated or swapped, number
tokens become boundary numbers and port names become bad ones. Every
mutant runs in-process through `run` (plain, and with `--trace`,
`--waveform` and `--stats`) and `check`, or through `export` for a trace
CSV. Each command must exit 0-3 with at most one `error:` line on stderr
and raise nothing: an exception here is a traceback on the command line.
The mutants are the same on every run, so a failure names its file and
mutant number and reproduces.
"""

import io
import random
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from temporalsim.cli import main

GOLDEN = Path(__file__).parent / "golden"
FILES = sorted(p.name for p in GOLDEN.iterdir()
               if p.suffix in (".net", ".tbl", ".csv"))
MUTANTS_PER_FILE = 15

# A word is a run of characters between whitespace, and a token a run
# between separators, so the words `value=5`, `s.a` and `0,sum,a,start`
# each hold tokens. A mutant keeps the whitespace or separators.
_WORDS = re.compile(r"(\s+)")
_TOKENS = re.compile(r"([\s,=.:/]+)")
BOUNDARY_NUMBERS = (
    "0", "1", "-1", "2", "00", "+1", "1/0", "0/1", "3/2", "1.5", "1e3",
    "99999999", "100000000", "100000001", "9" * 4301, "\u0663",
)
BAD_PORTS = ("zz", "in", "in99", "in-1", "out", "a", "in00", "")


def _mutate_lines(rng, text):
    lines = text.splitlines(keepends=True)
    if not lines:
        return text
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    op = rng.choice(("delete", "duplicate", "swap"))
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(j, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return "".join(lines)


def _mutate_tokens(rng, text):
    parts = rng.choice((_WORDS, _TOKENS)).split(text)
    tokens = [k for k in range(0, len(parts), 2) if parts[k]]
    if not tokens:
        return text
    i, j = rng.choice(tokens), rng.choice(tokens)
    op = rng.choice(("delete", "duplicate", "swap", "number", "port"))
    if op == "delete":
        parts[i] = ""
    elif op == "duplicate":
        parts[i] = parts[i] + " " + parts[i]
    elif op == "swap":
        parts[i], parts[j] = parts[j], parts[i]
    elif op == "number":
        parts[i] = rng.choice(BOUNDARY_NUMBERS)
    else:
        # A token after a dot is a port name in a wire or a probe.
        ports = [k for k in tokens if k and parts[k - 1] == "."]
        parts[rng.choice(ports or tokens)] = rng.choice(BAD_PORTS)
    return "".join(parts)


def mutants(name):
    """The file's mutants, each one to three mutations of its lines,
    words or tokens."""
    rng = random.Random(name)
    text = (GOLDEN / name).read_text(encoding="utf-8")
    for _ in range(MUTANTS_PER_FILE):
        mutant = text
        for _ in range(rng.randint(1, 3)):
            mutate = rng.choice((_mutate_lines, _mutate_tokens,
                                 _mutate_tokens))
            mutant = mutate(rng, mutant)
        yield mutant


def _commands(name, tmp):
    """The commands a mutant of `name`, written to its place under `tmp`,
    runs through."""
    if name.endswith(".csv"):
        return [["export", str(tmp / name)]]
    # A mutated table is read by the netlist that names it.
    net = str(tmp / ("links.net" if name.endswith(".tbl") else name))
    return [["run", net],
            ["run", net, "--trace", str(tmp / "out.csv"),
             "--waveform", str(tmp / "out.vcd"), "--stats"],
            ["check", net]]


def _exit(argv):
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's usage error
            code = exc.code
    return code, stderr.getvalue()


@pytest.mark.parametrize("name", FILES)
def test_every_mutant_ends_in_an_exit_code(name, tmp_path):
    shutil.copy(GOLDEN / "links.tbl", tmp_path / "links.tbl")
    shutil.copy(GOLDEN / "links.net", tmp_path / "links.net")
    for number, mutant in enumerate(mutants(name)):
        (tmp_path / name).write_text(mutant, encoding="utf-8")
        for argv in _commands(name, tmp_path):
            code, err = _exit(argv)
            where = "%s mutant %d, %s:\n%s" % (name, number, argv[0], mutant)
            assert code in range(4), where
            errors = [line for line in err.splitlines()
                      if line.startswith("error:")]
            assert len(errors) <= 1, where
