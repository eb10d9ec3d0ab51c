"""Accumulate-unit models and cross-reference conversion."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import temporalsim
from temporalsim import (
    BinaryWord,
    ClockRef,
    accumulate_analog,
    accumulate_photonic,
    convert_reference,
    encode_unary,
    measure_interval,
    toggle_chain,
    toggle_chain_overflowed,
)

CLK = ClockRef("main", Fraction(1))
# Clock frequencies p/q with p, q up to 10**6.
FREQUENCIES = st.builds(Fraction, st.integers(1, 10 ** 6),
                        st.integers(1, 10 ** 6))


def ripple_counter(pulse_count, depth):
    """Stagewise oracle: each latch toggles when the previous one falls."""
    bits = [0] * depth
    for _ in range(pulse_count):
        for i in range(depth):
            bits[i] ^= 1
            if bits[i] == 1:  # no falling edge, ripple stops
                break
    return tuple(bits)


class TestDigital:
    def test_counts_the_interval(self):
        assert measure_interval(encode_unary(7, CLK), CLK) == 7

    def test_empty_interval(self):
        assert measure_interval(encode_unary(0, CLK), CLK) == 0

    def test_faster_reference_dilates(self):
        fast = ClockRef("fast", Fraction(3))
        assert measure_interval(encode_unary(5, CLK), fast) == 15

    def test_equals_measure_interval(self):
        # The digital counter is `measure_interval`: the floor of the
        # message's span rescaled to the reference.
        rng = random.Random(201)
        for _ in range(500):
            x = encode_unary(rng.randint(0, 1000), CLK)
            ref = ClockRef("r", Fraction(rng.randint(1, 9),
                                         rng.randint(1, 9)))
            assert measure_interval(x, ref) == int(
                x.decoded() * ref.frequency / CLK.frequency)


class TestToggleChain:
    def test_seven_three_stages(self):
        assert toggle_chain(7, 3).bits == (1, 1, 1)

    def test_zero(self):
        assert toggle_chain(0, 4).bits == (0, 0, 0, 0)

    def test_wraps_mod_depth(self):
        word = toggle_chain(18, 4)
        assert word.bits == (0, 1, 0, 0)
        assert word.value == 18 % 16 == 2
        assert toggle_chain_overflowed(18, 4)
        assert not toggle_chain_overflowed(15, 4)

    def test_matches_ripple_counter(self):
        rng = random.Random(202)
        for _ in range(200):
            n, d = rng.randint(0, 500), rng.randint(1, 10)
            assert toggle_chain(n, d).bits == ripple_counter(n, d)

    def test_word_value(self):
        assert BinaryWord((1, 0, 1)).value == 5
        assert BinaryWord((1, 0, 1)).bits == (1, 0, 1)


class TestAnalog:
    def test_unit_rate_recovers_count(self):
        charge, value = accumulate_analog(encode_unary(7, CLK), CLK, 1)
        assert (charge, value) == (7, 7)

    def test_rate_scaling_is_dilation(self):
        charge, _ = accumulate_analog(encode_unary(5, CLK), CLK, 3)
        assert charge == 15

    def test_fractional_rate_quantizes_by_floor(self):
        charge, value = accumulate_analog(
            encode_unary(4, CLK), CLK, Fraction(1, 3))
        assert charge == Fraction(4, 3)
        assert value == 1

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            accumulate_analog(encode_unary(1, CLK), CLK, 0)


class TestPhotonic:
    def test_unit_flux_noiseless(self):
        assert accumulate_photonic(encode_unary(7, CLK), CLK, 1) == 7

    def test_empty_interval(self):
        assert accumulate_photonic(encode_unary(0, CLK), CLK, 5) == 0

    def test_seeded_noise_is_deterministic(self):
        x = encode_unary(100, CLK)
        a = accumulate_photonic(x, CLK, 2, noise_seed=7)
        b = accumulate_photonic(x, CLK, 2, noise_seed=7)
        assert a == b

    def test_noise_mean_tracks_flux(self):
        # law of large numbers: sample mean within 1% of flux * interval
        x = encode_unary(10 ** 4, CLK)
        mean_target = 2 * 10 ** 4
        total = sum(accumulate_photonic(x, CLK, 2, noise_seed=s)
                    for s in range(10 ** 3))
        assert abs(total / 10 ** 3 - mean_target) < 0.01 * mean_target

    def test_seeded_draw_is_pinned(self):
        # numpy's default_rng(seed).poisson(mean), as numpy drew them: any
        # other generator or mean would move every seeded trace. Pinned
        # here, the stream is checked where numpy is not installed.
        x = encode_unary(1000, CLK)
        assert accumulate_photonic(x, CLK, Fraction(3, 2),
                                   noise_seed=42) == 1533
        assert accumulate_photonic(encode_unary(7, CLK), CLK, 1,
                                   noise_seed=0) == 3
        # Below a mean of 10 numpy multiplies uniforms; from 10 on it runs
        # transformed rejection.
        assert accumulate_photonic(encode_unary(5, CLK), CLK,
                                   Fraction(1, 2), noise_seed=5) == 4
        assert accumulate_photonic(encode_unary(0, CLK), CLK, 1,
                                   noise_seed=5) == 0
        # A seed past 64 bits is three 32-bit words of seed entropy.
        assert accumulate_photonic(encode_unary(10, CLK), CLK, 1,
                                   noise_seed=2 ** 64 + 1) == 12
        # numpy's largest mean draws; the next float up is refused.
        bound = 9.223372006484771e18
        x = encode_unary(1, CLK)
        assert accumulate_photonic(x, CLK, Fraction(bound),
                                   noise_seed=1) == 9223372002808777728
        with pytest.raises(ValueError,
                           match="^photon mean is too large to draw$"):
            accumulate_photonic(x, CLK,
                                Fraction(math.nextafter(bound, math.inf)),
                                noise_seed=1)

    def test_only_a_seeded_draw_loads_the_generator(self):
        # numpy never loads; the generator module loads on the first
        # seeded draw, not at import, so a run without one never compiles
        # it.
        code = (
            "import sys\n"
            "import temporalsim as ts\n"
            "x, clk = ts.encode_unary(9), ts.DEFAULT_CLOCK\n"
            "def loaded():\n"
            "    print(*(m in sys.modules\n"
            "            for m in ('numpy', 'temporalsim._poisson')))\n"
            "loaded()\n"
            "ts.accumulate_photonic(x, clk, 2)\n"
            "loaded()\n"
            "ts.accumulate_photonic(x, clk, 2, noise_seed=1)\n"
            "loaded()\n")
        src = str(Path(temporalsim.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split("\n") == [
            "False False", "False False", "False True", ""]


class TestConvertReference:
    def test_triple_rate(self):
        f = ClockRef("f", Fraction(1))
        f3 = ClockRef("f3", Fraction(3))
        assert convert_reference(5, f, f3) == 15

    def test_unit_ratio_identity(self):
        f = ClockRef("f", Fraction(5))
        assert convert_reference(1234, f, f) == 1234

    def test_non_integral_ratio_floors(self):
        # rational oracle: 7 * (2/3) = 14/3 -> 4
        f3 = ClockRef("f3", Fraction(3))
        f2 = ClockRef("f2", Fraction(2))
        assert convert_reference(7, f3, f2) == 4

    def test_round_trip_integral_ratios(self):
        rng = random.Random(203)
        for _ in range(500):
            v = rng.randint(0, 10 ** 6)
            a = ClockRef("a", Fraction(1))
            b = ClockRef("b", Fraction(1))  # ratio 1 both ways is integral
            assert convert_reference(convert_reference(v, a, b), b, a) == v

    @given(st.integers(0, 10 ** 18), FREQUENCIES, FREQUENCIES, st.booleans())
    @example(10 ** 18 - 1, Fraction(999983, 7), Fraction(3, 999979), False)
    @example(10 ** 18, Fraction(10 ** 6, 999999), Fraction(1), True)
    def test_integer_rescaling_equals_fraction_floor(self, value, f_src,
                                                     f_dst, equal):
        # Both rescale in integers; the reference is the Fraction floor.
        f_dst = f_src if equal else f_dst
        src, dst = ClockRef("s", f_src), ClockRef("d", f_dst)
        expected = int(value * Fraction(f_dst / f_src))
        assert measure_interval(encode_unary(value, src), dst) == expected
        assert convert_reference(value, src, dst) == expected

    def test_monotone_in_value(self):
        src = ClockRef("s", Fraction(7))
        dst = ClockRef("d", Fraction(3))
        converted = [convert_reference(v, src, dst) for v in range(200)]
        assert converted == sorted(converted)


class TestModelEquivalence:
    def test_analog_and_photonic_match_digital(self):
        rng = random.Random(204)
        for _ in range(10 ** 3):
            x = encode_unary(rng.randint(0, 10 ** 4), CLK)
            ref = ClockRef("r", Fraction(rng.randint(1, 6)))
            digital = measure_interval(x, ref)
            assert accumulate_analog(x, ref, 1)[1] == digital
            assert accumulate_photonic(x, ref, 1) == digital
