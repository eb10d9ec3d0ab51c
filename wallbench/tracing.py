"""Spans and counters recorded from outside the library.

`Tracer.install` swaps the names the engine looks up at call time for
wrappers that record a span (name, start, end, parent, job id) and update
counters at that boundary; `uninstall` puts the originals back. Only the
traced run installs them. A name that a later refactor removed is reported
as absent instead of failing the run.
"""

from __future__ import annotations

import gzip
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int, int]       # name, start, end, parent, job


def _adjacency(counts, args, _kwargs, result):
    counts["netlist.adjacency_calls"] += 1
    counts["netlist.wires_scanned"] += len(args[0].wires)
    counts["netlist.wires_returned"] += len(result)


def _transmit(counts, _args, _kwargs, result):
    counts["channel.transmit_calls"] += 1
    if type(result).__name__ == "StabilityViolation":
        counts["channel.violations"] += 1


def _madd(counts, args, _kwargs, _result):
    counts["arith.madd_calls"] += 1
    counts["arith.sweep_ticks"] += max((p for p, _a in args[0].items),
                                       default=0)


def _run(counts, _args, _kwargs, trace):
    counts["engine.events"] += trace.stats.event_count
    counts["engine.fires"] += len(trace.stats.block_costs)
    counts["engine.budget_exhausted"] += int(trace.stats.budget_exhausted)


def _export(counts, _args, _kwargs, text):
    counts["engine.export_bytes"] += len(text.encode())


def _count(key):
    def hook(counts, _args, _kwargs, _result):
        counts[key] += 1
    return hook


# (module attribute path, span name, counter hook). Paths are looked up on
# the `temporalsim` package; these are the names the engine resolves at
# call time, so replacing them reaches every call the engine makes.
LIBRARY_BOUNDARIES = (
    ("netlist.Netlist.inputs_of", "netlist.adjacency", _adjacency),
    ("netlist.Netlist.outputs_of", "netlist.adjacency", _adjacency),
    ("engine.transmit_checked", "channel.transmit", _transmit),
    ("channel.Link.constant", "channel.link", _count("channel.link_builds")),
    ("channel.Link.from_table", "channel.link",
     _count("channel.link_builds")),
    ("arith.madd", "arith.madd", _madd),
    ("arith.mux", "arith.mux", None),
    ("arith.mv_merge", "arith.mv_merge", None),
    ("engine.accumulate", "accumulators.accumulate",
     _count("accumulators.calls")),
    ("engine.convert_reference", "accumulators.convert",
     _count("accumulators.calls")),
)
# The job's own calls into the package, wrapped where the job calls them.
API_BOUNDARIES = {
    "parse_netlist": ("netlist.parse", None),
    "oracle_results": ("engine.oracle", None),
    "run": ("engine.run", _run),
    "trace_to_csv": ("engine.csv", _export),
    "trace_to_waveform": ("engine.vcd", _export),
}


class Tracer:
    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self.job = -1
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, hook=None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def wrap_job(self, fn: Callable) -> Callable:
        """The root span of one job; its spans share a fresh job id."""
        traced = self.wrap("job", fn)

        def job(*args):
            self.job += 1
            return traced(*args)

        return job

    def install(self, package) -> None:
        for path, name, hook in LIBRARY_BOUNDARIES:
            *owner_path, attr = path.split(".")
            owner = package
            for part in owner_path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                self.absent.append(path)
                continue
            raw = vars(owner)[attr]
            self._saved.append((owner, attr, raw))
            wrapped = self.wrap(name, getattr(owner, attr), hook)
            # A classmethod is wrapped already bound to its class; a plain
            # method stays a function so the instance still arrives first.
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = staticmethod(wrapped)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def wrap_api(self, api: Dict[str, Callable]) -> Dict[str, Callable]:
        wrapped = {}
        for key, fn in api.items():
            name, hook = API_BOUNDARIES[key]
            wrapped[key] = self.wrap(name, fn, hook)
        return wrapped

    def totals(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Busy time and self time (minus child spans) per span name."""
        child = [0.0] * len(self.spans)
        for _n, start, end, parent, _j in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy: Dict[str, float] = Counter()
        own: Dict[str, float] = Counter()
        for i, (name, start, end, _p, _j) in enumerate(self.spans):
            busy[name] += end - start
            own[name] += end - start - child[i]
        return busy, own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,job\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write("%d,%s,%.9f,%.9f,%d,%d\n"
                         % (i, name, start, end, parent, job))
