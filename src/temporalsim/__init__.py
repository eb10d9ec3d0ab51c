"""temporalsim: a simulator and library for temporal (time-delay) computing.

Values are time intervals between start/end events, counted in pulses of
a reference clock. Arithmetic runs on those intervals (add by
concatenation, multiply by clock dilation, min/max by racing lanes,
dot products by the multi-valent counting sweep), blocks exchange data
asynchronously over latency-tolerant links, and a deterministic engine
wires it all together from a netlist file: in simulated time blocks fire
on event arrival, while the host evaluates them in one pass in
topological order.
"""

from .accumulators import (
    AccumulatorModel,
    BinaryWord,
    accumulate_analog,
    accumulate_photonic,
    convert_reference,
    toggle_chain,
    toggle_chain_overflowed,
)
from .arith import (
    add_concat,
    demux,
    madd,
    max_race,
    min_race,
    mul_dilate,
    mux,
    mv_merge,
)
from .channel import Link, StabilityViolation, transmit_checked
from .core import (
    DEFAULT_CLOCK,
    ClockRef,
    MultiValentTrain,
    PulseTrain,
    TimedMessage,
    decode_hybrid,
    decode_pim,
    encode_hybrid,
    encode_pim,
    encode_unary,
    measure_interval,
)
from .engine import (
    Trace,
    oracle_results,
    run,
    trace_to_csv,
    trace_to_waveform,
)
from .errors import TemporalError
from .netlist import Netlist, parse_netlist

__version__ = "0.1.0"
