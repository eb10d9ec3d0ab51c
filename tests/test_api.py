"""The documented library surface: the names `import temporalsim`
exposes, the README's quick tour and its CLI examples."""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import temporalsim
from temporalsim.blocks import KINDS, VARIADIC
from temporalsim.core import MUX, MV, SCALAR
from temporalsim.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# Growing or shrinking the public API is a deliberate edit of this list.
PUBLIC_NAMES = [
    "AccumulatorModel", "BinaryWord", "ClockRef",
    "DEFAULT_CLOCK", "Link", "MultiValentTrain",
    "Netlist", "PulseTrain", "StabilityViolation",
    "TemporalError", "TimedMessage", "Trace",
    "accumulate_analog", "accumulate_photonic", "accumulators",
    "add_concat", "arith", "blocks", "channel", "convert_reference", "core",
    "decode_hybrid", "decode_pim", "demux", "encode_hybrid", "encode_pim",
    "encode_unary", "engine", "errors", "madd", "max_race",
    "measure_interval", "min_race", "mul_dilate", "mux", "mv_merge",
    "netlist", "oracle_results", "parse_netlist", "run", "toggle_chain",
    "toggle_chain_overflowed", "trace_to_csv", "trace_to_waveform",
    "transmit_checked",
]


def test_public_names_are_pinned():
    # A fresh interpreter: importing a submodule such as `temporalsim.cli`
    # elsewhere in the session would add it to the package's names.
    code = ("import temporalsim\n"
            "print(' '.join(sorted(n for n in dir(temporalsim)"
            " if not n.startswith('_'))))\n")
    src = str(Path(temporalsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == sorted(PUBLIC_NAMES)


# Each public class's own public attributes: those that no base from
# outside the package (object, tuple, Enum, Exception) has, and on a
# plain class the fields its `__init__` sets. Growing or shrinking one
# is a deliberate edit of this table.
PUBLIC_ATTRIBUTES = {
    "AccumulatorModel": "ANALOG_INTEGRATOR DIGITAL_COUNTER PHOTON_COUNTER "
                        "TOGGLE_CHAIN",
    "BinaryWord": "bits value",
    "ClockRef": "frequency id scaled",
    "Link": "constant default from_table table",
    "MultiValentTrain": "clock items",
    "Netlist": "blocks clock_of clocks inputs order outputs params probes "
               "wires",
    "PulseTrain": "clock pulses",
    "StabilityViolation": "distorted_events original value_error",
    "TemporalError": "",
    "TimedMessage": "amplitudes clock decoded events interval multiplexed "
                    "multivalent",
    "Trace": "delivered events results stats",
}


def test_public_attributes_are_pinned():
    classes = sorted(name for name in PUBLIC_NAMES
                     if isinstance(getattr(temporalsim, name), type))
    assert classes == sorted(PUBLIC_ATTRIBUTES)
    for name in classes:
        cls = getattr(temporalsim, name)
        names = set(dir(cls))
        if "__init__" in vars(cls):
            names.update(vars(cls()))
        foreign = {attr for base in cls.__mro__
                   if base.__module__.split(".")[0] != "temporalsim"
                   for attr in dir(base)}
        assert sorted(attr for attr in names - foreign
                      if not attr.startswith("_")) == \
            PUBLIC_ATTRIBUTES[name].split(), name


def test_error_classes_are_pinned():
    # A bad argument raises ValueError; a bad netlist, run or trace CSV
    # raises one of these. Growing or shrinking the set is a deliberate
    # edit of this test.
    errors = temporalsim.errors
    classes = {name: obj for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert sorted(classes) == ["NetlistParseError", "NetlistValidationError",
                               "SimulationError", "TemporalError"]
    assert all(cls.__bases__ == (errors.TemporalError,)
               for name, cls in classes.items() if name != "TemporalError")
    assert errors.TemporalError.__bases__ == (Exception,)


def test_readme_names_every_public_name():
    # The README's API paragraph names each public name in backticks, as
    # the kind table states each entry of `KINDS`, and names no other
    # identifier there.
    section = README.read_text(encoding="utf-8").split(
        "## Library API", 1)[1].split("\n## ", 1)[0]
    named = {span for span in _quoted(section) if span.isidentifier()}
    assert sorted(set(PUBLIC_NAMES) - named) == []
    assert sorted(named - set(PUBLIC_NAMES)) == []


def test_import_loads_no_code_generator():
    # `-S` leaves site-packages off the path, so only the standard library
    # and the package itself can load. `dataclasses` and `typing.NamedTuple`
    # generate and compile source on every import, and bring in `inspect`;
    # annotations are never evaluated, so they need no `typing`; numpy is
    # never needed, and the Poisson generator only by a seeded photon
    # count, when it runs. A `run`, a `check` and an `export` run too, so
    # their code paths load none of them either.
    code = ("import os, sys, temporalsim\n"
            "from temporalsim.cli import main\n"
            "assert main(['run', 'tests/golden/add34.net']) == 0\n"
            "assert main(['check', 'tests/golden/madd.net']) == 0\n"
            "assert main(['export', 'tests/golden/add34.csv',"
            " '--out', os.devnull]) == 0\n"
            "print(' '.join(m for m in ('typing', 'dataclasses', 'inspect',"
            " 'numpy', 'temporalsim._poisson') if m in sys.modules))\n")
    src = str(Path(temporalsim.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         cwd=README.parent, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "probe sum.out=7\nok d.out=18\n\n"


def _quick_tour() -> str:
    section = README.read_text(encoding="utf-8").split(
        "## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_tour_values():
    # Run the block statement by statement; each bare expression must
    # equal the value its `# ...` comment ends with.
    source = _quick_tour()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        line = lines[node.end_lineno - 1]
        assert "#" in line, "no value comment on %r" % code
        expected = ast.literal_eval(line.split("#", 1)[1].rsplit("=", 1)[-1]
                                    .strip())
        assert eval(code, namespace) == expected, code
        checked += 1
    assert checked


def test_readme_cli_outputs(monkeypatch, capsys):
    # Each command whose `# ...` comment states an output (it holds `=`)
    # runs from the repository root and prints exactly that comment.
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(README.parent)
    checked = 0
    for line in block.splitlines():
        command, _hash, comment = line.partition("#")
        if "=" not in comment:
            continue
        argv = shlex.split(command)
        assert argv[0] == "temporalsim", line
        assert main(argv[1:]) == 0, line
        assert capsys.readouterr().out == comment.strip() + "\n", line
        checked += 1
    assert checked >= 2


def _kind_table() -> dict[str, list[str]]:
    """The README's kind table: each kind's name -> its other cells."""
    text = README.read_text(encoding="utf-8")
    table = text.split("\n| kind |", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines()[2:]:   # past the header rule
        name, *cells = (cell.strip() for cell in line.strip("|").split("|"))
        rows[name.strip("`")] = cells
    return rows


def _quoted(cell: str) -> list[str]:
    return re.findall(r"`([^`]*)`", cell)


def test_readme_kind_table_matches_kinds():
    # Each row states what `KINDS` declares: ports, param names and
    # which are required, the sorts it takes and emits, and whether it
    # has an output; its clock cell states the rule validation derives
    # from the ports and the `clock` param.
    rows = _kind_table()
    assert list(rows) == list(KINDS)
    for name, (ports, params, clock, sorts, _cost) in rows.items():
        kind = KINDS[name]
        if kind.inputs is VARIADIC:
            assert ports == "`in0`, `in1`, …", name
        else:
            assert ports == (", ".join("`%s`" % port for port in kind.inputs)
                             or "none"), name
        declared = {} if params == "none" else {
            _quoted(part)[0]: "required" in part
            for part in params.split("; ")}
        assert declared == {key: param.required
                            for key, param in kind.params.items()}, name
        derived = "the default" if kind.inputs == () else "first input's"
        clock_param = kind.params.get("clock")
        if clock_param is not None:
            derived = ("`clock=`" if clock_param.required
                       else "`clock=`, else " + derived)
        assert clock == derived, name
        takes, emits = sorts.split(" → ")
        if kind.inputs == ():
            assert takes == "none", name
        else:
            assert takes == ("any" if kind.takes is None
                             else "`%s`" % kind.takes), name
        if kind.emits is None:
            can_emit = set()
        elif isinstance(kind.emits, str):
            can_emit = {kind.emits}
        else:   # the sort with no optional param, and with every one set
            can_emit = {kind.emits({}),
                        kind.emits(dict.fromkeys(kind.params, "1"))}
        assert (emits == "none") is (kind.emits is None), name
        assert {s for s in _quoted(emits) if s in (SCALAR, MUX, MV)} == \
            can_emit, name
