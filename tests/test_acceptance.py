"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
from fractions import Fraction
from pathlib import Path

from temporalsim import (
    ClockRef,
    Link,
    MultiValentTrain,
    StabilityViolation,
    TimedMessage,
    UnaryTrain,
    accumulate_analog,
    accumulate_photonic,
    convert_reference,
    decode_hybrid,
    decode_pim,
    demux,
    encode_hybrid,
    encode_pim,
    encode_unary,
    madd,
    measure_interval,
    mux,
    mv_merge,
    toggle_chain,
    transmit_checked,
)
from temporalsim.cli import bench_rows, main

from dagutil import random_dag_netlist

GOLDEN = Path(__file__).parent / "golden"
CLK = ClockRef("main", Fraction(1))


def _report(criterion, name):
    print("ACCEPTANCE %d (%s): PASS" % (criterion, name))


def test_criterion_1_figure_fixtures(capsys):
    expected = {
        "unary7.net": ["probe p.in=7"],
        "add34.net": ["probe sum.out=7"],
        "mul5x3.net": ["probe m.out=15"],
        "mux57.net": ["probe d.out={5,7}", "probe x.out={5,7}"],
        "madd.net": ["probe d.out=18"],
    }
    for name, lines in expected.items():
        assert main(["run", str(GOLDEN / name)]) == 0
        assert capsys.readouterr().out.splitlines() == lines
    assert main(["encode", "--scheme", "unary", "7"]) == 0
    assert capsys.readouterr().out == "value=7 scheme=unary length=7\n"
    with capsys.disabled():
        _report(1, "figure fixtures via CLI")


def test_criterion_2_round_trips():
    rng = random.Random(1002)
    for _ in range(10 ** 3):
        n = rng.randint(0, 10 ** 4)
        assert encode_unary(n).length == n
        assert decode_pim(encode_pim(n)) == n
        base = rng.randint(2, 16)
        m = rng.randint(0, 10 ** 9 - 1)
        assert decode_hybrid(encode_hybrid(m, base), base) == m
        values = set(rng.sample(range(1, 10 ** 4 + 1), rng.randint(1, 64)))
        assert demux(mux(values)) == values
    _report(2, "round trips, 10^3 cases per codec")


def test_criterion_3_oracle_equivalence(tmp_path, capsys):
    rng = random.Random(1003)
    for i in range(10 ** 3):
        path = tmp_path / ("dag%d.net" % i)
        path.write_text(random_dag_netlist(rng))
        assert main(["check", str(path)]) == 0
        capsys.readouterr()
    with capsys.disabled():
        _report(3, "10^3 random netlists match the integer-DAG oracle")


def test_criterion_4_madd():
    rng = random.Random(1004)
    for _ in range(10 ** 3):
        positions = rng.sample(range(0, 10 ** 3 + 1), rng.randint(1, 32))
        train = MultiValentTrain(
            tuple((p, rng.randint(1, 255)) for p in positions))
        assert madd(train) == sum(p * a for p, a in train.items)
    for _ in range(10 ** 3):
        pair = []
        for _t in range(2):
            positions = rng.sample(range(0, 10 ** 3 + 1), rng.randint(1, 32))
            pair.append(MultiValentTrain(
                tuple((p, rng.randint(1, 255)) for p in positions)))
        assert madd(mv_merge(pair)) == madd(pair[0]) + madd(pair[1])
    _report(4, "MADD exact vs dot-product oracle; merge linearity")


def test_criterion_5_transport_invariance():
    rng = random.Random(1005)
    for _ in range(10 ** 3):
        msg = TimedMessage.interval(rng.randint(0, 10 ** 4),
                                    start=rng.randint(0, 100))
        latency = rng.randint(0, 10 ** 3)
        out = transmit_checked(msg, Link.constant(latency))
        # constant links never flag
        assert isinstance(out, TimedMessage)
        assert out.decoded() == msg.decoded()
    flagged = 0
    for _ in range(10 ** 3):
        value = rng.randint(1, 10 ** 3)
        msg = TimedMessage.interval(value)
        base = rng.randint(0, 100)
        end_delay = rng.randint(0, 100)
        while end_delay == base:
            end_delay = rng.randint(0, 100)
        link = Link.from_table({msg.events[-1][1]: end_delay},
                               default=base)
        if isinstance(transmit_checked(msg, link), StabilityViolation):
            flagged += 1
    assert flagged == 10 ** 3
    _report(5, "decode latency-invariant; in-span drift flagged 100%")


def test_criterion_6_metrology():
    rng = random.Random(1006)
    for _ in range(10 ** 3):
        v = rng.randint(0, 10 ** 6)
        k = rng.randint(1, 20)
        src = ClockRef("s", Fraction(rng.randint(1, 50)))
        dst = ClockRef("d", src.frequency * k)
        assert convert_reference(v, src, dst) == v * k
        assert convert_reference(convert_reference(v, src, dst),
                                 dst, src) == v
    # stagewise ripple-counter oracle, run incrementally to n = 10^5
    depth = 20
    bits = [0] * depth
    assert toggle_chain(0, depth).bits == tuple(bits)
    for n in range(1, 10 ** 5 + 1):
        for i in range(depth):
            bits[i] ^= 1
            if bits[i] == 1:
                break
        assert toggle_chain(n, depth).bits == tuple(bits)
        assert toggle_chain(n, depth).value == n % (1 << depth)
    for _ in range(10 ** 3):
        x = UnaryTrain(rng.randint(0, 10 ** 4), CLK)
        ref = ClockRef("r", Fraction(rng.randint(1, 8)))
        digital = measure_interval(x, ref)
        assert accumulate_analog(x, ref, 1)[1] == digital
        assert accumulate_photonic(x, ref, 1) == digital
    _report(6, "reference conversion, toggle chain, model equivalence")


def test_criterion_7_linear_cost_add():
    sizes = [10, 10 ** 2, 10 ** 3, 10 ** 4]
    rows = bench_rows("add", sizes)
    c0s = {ticks - 2 * size for size, ticks in rows}
    assert len(c0s) == 1          # residual 0 against ticks = 2a + c0
    c0 = c0s.pop()
    assert 0 <= c0 <= 2
    _report(7, "add cost fits 2a + c0, c0 = %d" % c0)


def test_criterion_8_determinism(tmp_path, capsys):
    for name in ("unary7.net", "add34.net", "mul5x3.net", "mux57.net",
                 "madd.net"):
        files = []
        for run_idx in range(2):
            out = tmp_path / ("%s.%d.csv" % (name, run_idx))
            assert main(["--seed", "11", "run", str(GOLDEN / name),
                         "--trace", str(out)]) == 0
            capsys.readouterr()
            files.append(out.read_bytes())
        assert files[0] == files[1]
    with capsys.disabled():
        _report(8, "golden traces byte-identical across runs")
