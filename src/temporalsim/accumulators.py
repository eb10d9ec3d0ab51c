"""Behavioral models of the accumulate unit.

Three idealized realizations of "count what happens during the interval",
each reading a message's span under a reference clock:
a digital pulse counter (optionally folded through a divide-by-2 toggle
chain), an analog integrator charging at a rational rate, and a photon
counter with optional Poisson shot noise (numpy's seeded Poisson stream,
reproduced without numpy in `_poisson`). Plus the exchange-rate style
conversion of a count between time references.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction

from .core import ClockRef, TimedMessage, _rescale, measure_interval

# The deepest toggle chain a netlist may ask for. It counts mod 2**256;
# firing a chain builds one bit per stage, so an unbounded depth= could
# exhaust memory on one fire.
MAX_CHAIN_DEPTH = 256


class AccumulatorModel(enum.Enum):
    DIGITAL_COUNTER = "digital"
    TOGGLE_CHAIN = "toggle"
    ANALOG_INTEGRATOR = "analog"
    PHOTON_COUNTER = "photon"


class BinaryWord(namedtuple("BinaryWord", "bits")):
    """Least-significant-first bit vector produced by a toggle chain."""

    __slots__ = ()

    def __new__(cls, bits: tuple[int, ...]):
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        if not bits:
            raise ValueError("width must be >= 1")
        return tuple.__new__(cls, (bits,))

    @property
    def value(self) -> int:
        return sum(b << i for i, b in enumerate(self.bits))


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


def accumulate_analog(x: TimedMessage, ref: ClockRef,
                      rate: Fraction) -> tuple[Fraction, int]:
    """Ideal integrator: charge grows at `rate` per reference pulse.

    Returns the exact rational charge and its floor as the quantized
    data value. No leakage, no saturation.
    """
    rate = Fraction(rate)
    if rate <= 0:
        raise ValueError("rate must be > 0")
    charge = rate * measure_interval(x, ref)
    return charge, int(charge)


def accumulate_photonic(x: TimedMessage, ref: ClockRef, flux: Fraction,
                        noise_seed: int | None = None) -> int:
    """Photon counter: collected count is proportional to the span.

    Noiseless by default (floor of flux * count). With a non-negative
    seed, draws a Poisson sample with that mean: the draw of numpy's
    `default_rng(noise_seed).poisson(float(mean))`, computed by the
    package's own generator, which only a seeded draw imports.
    """
    flux = Fraction(flux)
    if flux <= 0:
        raise ValueError("flux must be > 0")
    mean = flux * measure_interval(x, ref)
    if noise_seed is None:
        return int(mean)
    if noise_seed < 0:
        raise ValueError("noise seed %d is negative" % noise_seed)
    from ._poisson import MAX_MEAN, poisson
    try:
        lam = float(mean)
    except OverflowError:   # past a float's range
        lam = float("inf")
    if lam > MAX_MEAN:
        # Past numpy's Poisson bound (about 9.2e18), beyond which a draw
        # could leave the int64 range.
        raise ValueError("photon mean is too large to draw")
    return poisson(noise_seed, lam)


def convert_reference(value: int, src: ClockRef, dst: ClockRef) -> int:
    """Re-denominate a count from one time reference into another.

    The frequency ratio acts like a currency exchange rate; exact when
    the ratio is integral, floored otherwise.
    """
    if value < 0:
        raise ValueError("value must be non-negative")
    return _rescale(value, src, dst)

