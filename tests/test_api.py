"""The documented library surface: the names `import temporalsim`
exposes, and the README's quick tour."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import temporalsim

README = Path(__file__).resolve().parent.parent / "README.md"

# Growing or shrinking the public API is a deliberate edit of this list.
PUBLIC_NAMES = [
    "AccumulatorConfig", "AccumulatorModel", "BinaryWord", "BlockSpec",
    "ClockRef", "DEFAULT_CLOCK", "DeliveryMode", "IntervalValue", "Link",
    "MultiValentTrain", "MuxChannel", "Netlist", "PulseTrain",
    "StabilityViolation", "TemporalError", "TimedMessage", "Trace",
    "UnaryTrain", "Wire", "accumulate", "accumulate_analog",
    "accumulate_digital", "accumulate_photonic", "accumulators",
    "add_concat", "arith", "blocks", "channel", "convert_reference", "core",
    "decode_hybrid", "decode_pim", "decode_unary", "demux", "encode_hybrid",
    "encode_pim", "encode_unary", "engine", "errors", "madd", "max_race",
    "measure_interval", "min_race", "mul_dilate", "mux", "mv_merge",
    "netlist", "oracle_results", "parse_netlist", "parse_stream", "run",
    "serialize_stream", "toggle_chain", "toggle_chain_overflowed",
    "trace_to_csv", "trace_to_waveform", "transmit", "transmit_checked",
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
