"""The block table: every kind validates, fires, and agrees with its
oracle function, called through `oracle_results` and directly."""

from fractions import Fraction

import pytest

from temporalsim import oracle_results, parse_netlist, run
from temporalsim.blocks import KINDS

_AB = ("block a source value=5 clock=main\n"
       "block b source value=7 clock=main\n")

# Minimal netlists, at least one per kind, each with block `x` of the
# kind its name starts with, the probe results it must produce and x's
# cost in ticks. Source, add, mul, min, max, mux and demux cost their
# output's span + C0; madd costs its sweep (its highest position) + C0,
# an accumulator its input's span + C0, a convert C0 and a probe 0.
MINIMAL = {
    "source": ("block x source value=3\nprobe x.out\n", {"x.out": 3}, 4),
    "add": (_AB + "block x add\nwire a.out x.a\nwire b.out x.b\n"
            "probe x.out\n", {"x.out": 12}, 13),
    "mul": (_AB + "block x mul k=3\nwire a.out x.in\nprobe x.out\n",
            {"x.out": 15}, 16),
    "min": (_AB + "block x min\nwire a.out x.in0\nwire b.out x.in1\n"
            "probe x.out\n", {"x.out": 5}, 6),
    "max": (_AB + "block x max\nwire a.out x.in0\nwire b.out x.in1\n"
            "probe x.out\n", {"x.out": 7}, 8),
    "mux": (_AB + "block x mux\nwire a.out x.in0\nwire b.out x.in1\n"
            "probe x.out\n", {"x.out": {5, 7}}, 8),
    "demux": (_AB + "block m mux\nblock x demux\nwire a.out m.in0\n"
              "wire b.out m.in1\nwire m.out x.in\nprobe x.out\n",
              {"x.out": {5, 7}}, 8),
    "madd": ("block t0 source value=3 position=2\n"
             "block t1 source value=4 position=3\n"
             "block x madd\nwire t0.out x.in0\nwire t1.out x.in1\n"
             "probe x.out\n", {"x.out": 18}, 4),
    # 5 main pulses are 15 pulses of a clock at 3.
    "accumulator": ("clock fast 3\n" + _AB + "block x accumulator "
                    "clock=fast\nwire a.out x.in\nprobe x.out\n",
                    {"x.out": 15}, 6),
    "accumulator-toggle": (_AB + "block x accumulator model=toggle depth=2\n"
                           "wire a.out x.in\nprobe x.out\n", {"x.out": 1}, 6),
    "accumulator-analog": (_AB + "block x accumulator model=analog "
                           "rate=3/2\nwire b.out x.in\nprobe x.out\n",
                           {"x.out": 10}, 8),
    # floor(7 / 2) = 3 pulses of a clock at 1/2, then floor(3 * 2/3).
    "accumulator-photon": ("clock slow 1/2\n" + _AB + "block x accumulator "
                           "model=photon flux=2/3 clock=slow\n"
                           "wire b.out x.in\nprobe x.out\n", {"x.out": 2}, 8),
    "convert": ("clock fast 3\n" + _AB + "block x convert clock=fast\n"
                "wire a.out x.in\nprobe x.out\n", {"x.out": 15}, 1),
    "convert-down": ("clock slow 1/3\n" + _AB + "block x convert "
                     "clock=slow\nwire b.out x.in\nprobe x.out\n",
                     {"x.out": 2}, 1),
    "probe": (_AB + "block x probe\nwire a.out x.in\nprobe x.in\n",
              {"x.in": 5}, 0),
}


# Each case's oracle input, for a direct call of x's oracle: x's input
# values as a list in sorted port order, and its output clock's
# frequency over its first input's.
ORACLE_INS = {
    "source": ([], 1),
    "add": ([5, 7], 1),
    "mul": ([5], 1),
    "min": ([5, 7], 1),
    "max": ([5, 7], 1),
    "mux": ([5, 7], 1),
    "demux": ([{5, 7}], 1),
    "madd": ([{2: 3}, {3: 4}], 1),
    "accumulator": ([5], Fraction(3)),
    "accumulator-toggle": ([5], 1),
    "accumulator-analog": ([7], 1),
    "accumulator-photon": ([7], Fraction(1, 2)),
    "convert": ([5], Fraction(3)),
    "convert-down": ([7], Fraction(1, 3)),
    "probe": ([5], 1),
}


def test_every_kind_has_a_row():
    assert {case.partition("-")[0] for case in MINIMAL} == set(KINDS)
    assert set(ORACLE_INS) == set(MINIMAL)


@pytest.mark.parametrize("case", sorted(MINIMAL))
def test_kind_validates_runs_and_matches_oracle(case):
    text, expected, cost = MINIMAL[case]
    net = parse_netlist("clock main 1\n" + text)
    assert net.blocks["x"][1] == case.partition("-")[0]
    trace = run(net)
    assert trace.stats.block_costs["x"] == cost
    assert trace.results == expected
    assert oracle_results(net) == expected
    ins, rate = ORACLE_INS[case]
    (value,) = expected.values()
    oracle = KINDS[net.blocks["x"][1]].oracle
    assert oracle(net.params["x"], ins, rate, None) == value

