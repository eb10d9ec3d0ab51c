"""A fixed reference loop that measures how fast the host runs Python now.

The benchmark's host is a VM on a shared machine whose speed drifts: for
seconds to minutes at a time the same code runs up to ~60% slower, in CPU
time as well as wall time, with no steal time reported. That drift is far
larger than the bounds the end-to-end metrics need. So the runner times
this loop next to every job, and reports each job's host time scaled by
`REFERENCE_MS / (the loop's time around that job)`: milliseconds at the
host's steady reference speed.

The loop never touches temporalsim, so a change to the library moves the
scaled times exactly as much as the raw ones. It mixes the interpreter
work the simulator does (small objects, dict stores, a heap, integer
arithmetic), and runs with the garbage collector paused, so a library
change to GC settings cannot move it.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter

# The loop's median time on the baseline host (see NOTES.md). Only the
# ratio to it matters; it makes the scaled times read as host milliseconds.
REFERENCE_MS = 2.0


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _loop() -> int:
    heap, table = [], {}
    for i in range(1100):
        item = _Item((i * 7919) % 1013, i)
        table[item.key] = item
        heapq.heappush(heap, (item.key, i))
    total = 0
    while heap:
        key, _i = heapq.heappop(heap)
        total += table[key].value
    for i in range(11000):
        total += i * i % 7
    return total


def reference_ms() -> float:
    """Host milliseconds the reference loop takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _loop()
        return 1e3 * (perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
