"""The block table: every kind validates, fires, and agrees with its
oracle function wherever it has one."""

import pytest

from temporalsim import oracle_results, parse_netlist, run
from temporalsim.blocks import KINDS

_AB = ("block a source value=5 clock=main\n"
       "block b source value=7 clock=main\n")

# One minimal netlist per kind, with block `x` of that kind, and the
# probe results it must produce.
MINIMAL = {
    "source": ("block x source value=3\nprobe x.out\n", {"x.out": 3}),
    "add": (_AB + "block x add\nwire a.out x.a\nwire b.out x.b\n"
            "probe x.out\n", {"x.out": 12}),
    "mul": (_AB + "block x mul k=3\nwire a.out x.in\nprobe x.out\n",
            {"x.out": 15}),
    "min": (_AB + "block x min\nwire a.out x.in0\nwire b.out x.in1\n"
            "probe x.out\n", {"x.out": 5}),
    "max": (_AB + "block x max\nwire a.out x.in0\nwire b.out x.in1\n"
            "probe x.out\n", {"x.out": 7}),
    "mux": (_AB + "block x mux\nwire a.out x.in0\nwire b.out x.in1\n"
            "probe x.out\n", {"x.out": {5, 7}}),
    "demux": (_AB + "block m mux\nblock x demux\nwire a.out m.in0\n"
              "wire b.out m.in1\nwire m.out x.in\nprobe x.out\n",
              {"x.out": {5, 7}}),
    "madd": ("block t0 source value=3 position=2\n"
             "block t1 source value=4 position=3\n"
             "block x madd\nwire t0.out x.in0\nwire t1.out x.in1\n"
             "probe x.out\n", {"x.out": 18}),
    "accumulator": (_AB + "block x accumulator model=toggle depth=2\n"
                    "wire a.out x.in\nprobe x.out\n", {"x.out": 1}),
    "convert": ("clock fast 3\n" + _AB + "block x convert clock=fast\n"
                "wire a.out x.in\nprobe x.out\n", {"x.out": 15}),
    "probe": (_AB + "block x probe\nwire a.out x.in\nprobe x.in\n",
              {"x.in": 5}),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_kind_validates_runs_and_matches_oracle(kind):
    text, expected = MINIMAL[kind]
    net = parse_netlist("clock main 1\n" + text)
    assert net.blocks["x"].kind == kind
    trace = run(net)
    assert "x" in trace.stats.block_costs
    assert trace.results == expected
    if KINDS[kind].oracle is not None:
        assert oracle_results(net) == expected
