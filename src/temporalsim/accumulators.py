"""Behavioral models of the accumulate unit.

Three idealized realizations of "count what happens during the interval":
a digital pulse counter (optionally folded through a divide-by-2 toggle
chain), an analog integrator charging at a rational rate, and a photon
counter with optional Poisson shot noise. Plus the exchange-rate style
conversion of a count between time references.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from typing import Optional, Tuple

from .core import ClockRef, IntervalValue, measure_interval

# The deepest toggle chain a netlist may ask for. It counts mod 2**256;
# firing a chain builds one bit per stage, so an unbounded depth= could
# exhaust memory on one fire.
MAX_CHAIN_DEPTH = 256


class AccumulatorModel(enum.Enum):
    DIGITAL_COUNTER = "digital"
    TOGGLE_CHAIN = "toggle"
    ANALOG_INTEGRATOR = "analog"
    PHOTON_COUNTER = "photon"


class AccumulatorConfig(namedtuple(
        "AccumulatorConfig", "model chain_depth rate flux noise_seed")):
    __slots__ = ()

    def __new__(cls,
                model: AccumulatorModel = AccumulatorModel.DIGITAL_COUNTER,
                chain_depth: int = 8,           # toggle chain only
                rate: Fraction = Fraction(1),   # analog charge per pulse
                flux: Fraction = Fraction(1),   # expected photons per pulse
                noise_seed: Optional[int] = None):
        if chain_depth < 1:
            raise ValueError("chain depth must be >= 1")
        if Fraction(rate) <= 0:
            raise ValueError("rate must be > 0")
        if Fraction(flux) <= 0:
            raise ValueError("flux must be > 0")
        return tuple.__new__(cls, (model, chain_depth, rate, flux,
                                   noise_seed))

    @classmethod
    def _trusted(cls, model: AccumulatorModel, chain_depth: int,
                 rate: Fraction, flux: Fraction,
                 noise_seed: Optional[int]) -> "AccumulatorConfig":
        """A config whose fields are already known to be valid, built
        without the check."""
        return tuple.__new__(cls, (model, chain_depth, rate, flux,
                                   noise_seed))


class BinaryWord(namedtuple("BinaryWord", "bits")):
    """Least-significant-first bit vector produced by a toggle chain."""

    __slots__ = ()

    def __new__(cls, bits: Tuple[int, ...]):
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        if not bits:
            raise ValueError("width must be >= 1")
        return tuple.__new__(cls, (bits,))

    @property
    def width(self) -> int:
        return len(self.bits)

    @property
    def value(self) -> int:
        return sum(b << i for i, b in enumerate(self.bits))


def accumulate_digital(iv: IntervalValue, ref: ClockRef) -> int:
    """Count reference pulses trapped between the start and end signals.

    Pulses are counted on the half-open span [start, end) so that
    concatenated intervals never double count a boundary pulse.
    """
    return measure_interval(iv, ref)


def toggle_chain(pulse_count: int, depth: int) -> BinaryWord:
    """Feed pulses through a cascade of divide-by-2 latches.

    Each latch halves its input frequency, so bit i of the result toggles
    once per 2**i pulses and the word reads pulse_count mod 2**depth.
    """
    if depth < 1:
        raise ValueError("chain depth must be >= 1")
    if pulse_count < 0:
        raise ValueError("pulse count must be non-negative")
    return BinaryWord(tuple((pulse_count >> i) & 1 for i in range(depth)))


def toggle_chain_overflowed(pulse_count: int, depth: int) -> bool:
    """True when the chain wrapped (count exceeded its 2**depth capacity)."""
    return pulse_count >= (1 << depth)


def accumulate_analog(iv: IntervalValue, ref: ClockRef,
                      rate: Fraction) -> Tuple[Fraction, int]:
    """Ideal integrator: charge grows at `rate` per reference pulse.

    Returns the exact rational charge and its floor as the quantized
    data value. No leakage, no saturation.
    """
    rate = Fraction(rate)
    if rate <= 0:
        raise ValueError("rate must be > 0")
    charge = rate * measure_interval(iv, ref)
    return charge, int(charge)


def accumulate_photonic(iv: IntervalValue, ref: ClockRef, flux: Fraction,
                        noise_seed: Optional[int] = None) -> int:
    """Photon counter: collected count is proportional to interval length.

    Noiseless by default (floor of flux * count). With a seed, draws a
    Poisson sample with that mean from a deterministic generator; numpy
    is imported only then, so a run without one never loads it.
    """
    flux = Fraction(flux)
    if flux <= 0:
        raise ValueError("flux must be > 0")
    mean = flux * measure_interval(iv, ref)
    if noise_seed is None:
        return int(mean)
    try:
        import numpy as np
    except ImportError as exc:
        raise ValueError("a seeded photon count needs numpy: %s"
                         % exc) from None
    rng = np.random.default_rng(noise_seed)
    return int(rng.poisson(float(mean)))


def convert_reference(value: int, src: ClockRef, dst: ClockRef) -> int:
    """Re-denominate a count from one time reference into another.

    The frequency ratio acts like a currency exchange rate; exact when
    the ratio is integral, floored otherwise.
    """
    if value < 0:
        raise ValueError("value must be non-negative")
    return measure_interval(IntervalValue._trusted(0, value, src), dst)


def accumulate(iv: IntervalValue, ref: ClockRef,
               config: AccumulatorConfig) -> int:
    """Dispatch an interval through the configured accumulator model."""
    if config.model is AccumulatorModel.DIGITAL_COUNTER:
        return accumulate_digital(iv, ref)
    if config.model is AccumulatorModel.TOGGLE_CHAIN:
        return toggle_chain(accumulate_digital(iv, ref),
                            config.chain_depth).value
    if config.model is AccumulatorModel.ANALOG_INTEGRATOR:
        return accumulate_analog(iv, ref, config.rate)[1]
    if config.model is AccumulatorModel.PHOTON_COUNTER:
        return accumulate_photonic(iv, ref, config.flux, config.noise_seed)
    raise ValueError("unknown accumulator model %r" % (config.model,))
