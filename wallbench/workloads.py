"""Seeded netlist generators for the wall-clock benchmark.

Each workload has its own generator that takes the seed as an argument and
returns a pool of `Spec`s: a netlist as plain data, which `Spec.text()`
writes in the netlist text format and `evaluator.evaluate()` evaluates
without the library. Generators consult the evaluator while they build, so
every constraint the engine imposes (bounded values, duplicate-free
positive mux sets, one clock per add/madd) holds by construction.

Stdlib only: the set-up probe times `import temporalsim` (and the numpy it
pulls in) from a fresh interpreter after importing this module.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from evaluator import fire

MAIN, FAST = "main", "fast"
FAST_FREQ = Fraction(3, 2)


@dataclass
class Block:
    id: str
    kind: str
    params: Dict[str, str] = field(default_factory=dict)
    # (dst port, source block id, constant latency or None for no option)
    inputs: List[Tuple[str, str, Optional[int]]] = field(default_factory=list)


@dataclass
class Spec:
    name: str
    clocks: Dict[str, Fraction]
    blocks: List[Block]                     # topological order
    probes: List[Tuple[str, str]]

    def text(self) -> str:
        lines = ["# %s" % self.name]
        for cid, freq in self.clocks.items():
            lines.append("clock %s %s" % (cid, freq))
        for b in self.blocks:
            lines.append(" ".join(["block", b.id, b.kind]
                                  + ["%s=%s" % kv for kv in b.params.items()]))
        for b in self.blocks:
            for port, src, latency in b.inputs:
                opt = "" if latency is None else " latency=%d" % latency
                lines.append("wire %s.out %s.%s%s" % (src, b.id, port, opt))
        for bid, port in self.probes:
            lines.append("probe %s.%s" % (bid, port))
        return "\n".join(lines) + "\n"


class _Builder:
    """Adds blocks one at a time, evaluating each as it goes."""

    def __init__(self, name: str, clocks: Dict[str, Fraction]):
        self.spec = Spec(name, clocks, [], [])
        self.values: Dict[str, tuple] = {}

    def add(self, kind: str, params=None, inputs=()) -> Tuple[str, tuple]:
        bid = "b%d" % len(self.spec.blocks)
        block = Block(bid, kind, dict(params or {}), list(inputs))
        out = fire(block, {p: self.values[s] for p, s, _l in block.inputs},
                   self.spec.clocks)
        self.spec.blocks.append(block)
        self.values[bid] = out
        return bid, out

    def trial(self, kind: str, params, inputs) -> tuple:
        block = Block("trial", kind, dict(params), list(inputs))
        return fire(block, {p: self.values[s] for p, s, _l in block.inputs},
                    self.spec.clocks)


def _ports(srcs, latency=lambda: None):
    return [("in%d" % i, s, latency()) for i, s in enumerate(srcs)]


class _Deck:
    """Draws from `items` in shuffled rounds: each round of len(items)
    draws holds every item once, so the mix is exact and the order random.
    """

    def __init__(self, rng: random.Random, items):
        self.rng, self.items, self.pending = rng, list(items), []

    def draw(self):
        if not self.pending:
            self.pending = self.items[:]
            self.rng.shuffle(self.pending)
        return self.pending.pop()


def _ladder(count: int, lo: float, hi: float) -> List[int]:
    """`count` sizes log-spaced over [lo, hi], the same for every seed, so
    the spread of job sizes (and with it the timing percentiles) does not
    move with the seed; the seed draws each netlist's structure and values.
    """
    span = math.log(hi) - math.log(lo)
    return [round(math.exp(math.log(lo) + span * (i + 0.5) / count))
            for i in range(count)]


# ---------------------------------------------------------------------------
# dag_large: the `check` path on layered DAGs of oracle-supported kinds

DAG_POOL = 100
DAG_BLOCKS = (120, 900)
DAG_FANIN = (2, 8)
DAG_VALUE_CAP = 1000


def dag_netlist(rng: random.Random, size: int, name: str) -> Spec:
    """Layered DAG of source/add/mul/min/max/madd, zero latency.

    Variadic blocks take 2-8 inputs from the three layers before them (add
    takes 2, mul 1). A block whose value would pass DAG_VALUE_CAP becomes
    a min over its inputs, so values, and with them simulated ticks, stay
    bounded.
    """
    bld = _Builder(name, {MAIN: Fraction(1)})
    # Decks rather than free draws keep wires per block, and with them the
    # O(blocks x wires) cost of a job, nearly the same for every seed.
    kinds = _Deck(rng, ("add", "mul", "min", "max") * 3 + ("madd",))
    fanin = _Deck(rng, range(DAG_FANIN[0], DAG_FANIN[1] + 1))
    width = max(2, size // (round(math.sqrt(size)) + 1))
    earlier: List[str] = []
    for _ in range(width):
        bid, _v = bld.add("source", {"value": str(rng.randint(0, 40)),
                                     "clock": MAIN})
        earlier.append(bid)
    while len(bld.spec.blocks) < size:
        layer = []
        for _ in range(width):
            if len(bld.spec.blocks) >= size:
                break
            kind = kinds.draw()
            if kind == "madd":
                srcs = []
                for _j in range(fanin.draw()):
                    sid, _v = bld.add("source", {
                        "value": str(rng.randint(1, 7)),
                        "position": str(rng.randint(0, 15)), "clock": MAIN})
                    srcs.append(sid)
                bid, _v = bld.add("madd", {}, _ports(srcs))
                layer.append(bid)
                continue
            recent = earlier[-3 * width:]
            if kind == "add":
                params, inputs = {}, [("a", rng.choice(recent), None),
                                      ("b", rng.choice(recent), None)]
            elif kind == "mul":
                params = {"k": str(rng.randint(1, 4))}
                inputs = [("in", rng.choice(recent), None)]
            else:
                params = {}
                inputs = _ports(rng.choice(recent)
                                for _j in range(fanin.draw()))
            if bld.trial(kind, params, inputs)[1] > DAG_VALUE_CAP:
                srcs = [s for _p, s, _l in inputs]
                while len(srcs) < DAG_FANIN[0]:
                    srcs.append(rng.choice(recent))
                kind, params, inputs = "min", {}, _ports(srcs)
            bid, _v = bld.add(kind, params, inputs)
            layer.append(bid)
        earlier.extend(layer)
    # Probe every output no block consumes, so the oracle walks the
    # whole DAG whatever shape the seed drew.
    consumed = {src for b in bld.spec.blocks for _p, src, _l in b.inputs}
    bld.spec.probes = [(b.id, "out") for b in bld.spec.blocks
                       if b.id not in consumed]
    return bld.spec


# ---------------------------------------------------------------------------
# madd_far: the `check` path on a few madd blocks with far positions

MADD_POOL = 100
MADD_SOURCES = (8, 64)
MADD_POSITIONS = (10 ** 3, 10 ** 6)


def madd_netlist(rng: random.Random, sources: int, name: str) -> Spec:
    """`sources` multi-valent sources feeding 1 or 2 madd blocks (by the
    parity of `sources`), all probed.

    Positions take one log-uniform draw from each of `sources` equal
    strata of MADD_POSITIONS and are dealt, farthest first, to the madd
    blocks in turn. So every madd sweeps from near the top of the range,
    and a job's sweep length varies little from seed to seed.
    """
    bld = _Builder(name, {MAIN: Fraction(1)})
    lo, hi = (math.log(p) for p in MADD_POSITIONS)
    positions = sorted((int(math.exp(lo + (hi - lo) * (i + rng.random())
                                     / sources))
                        for i in range(sources)), reverse=True)
    groups = min(sources, 1 + sources % 2)
    for g in range(groups):
        dealt = positions[g::groups]
        rng.shuffle(dealt)
        ids = [bld.add("source", {"value": str(rng.randint(1, 255)),
                                  "position": str(pos), "clock": MAIN})[0]
               for pos in dealt]
        bid, _v = bld.add("madd", {}, _ports(ids))
        bld.spec.probes.append((bid, "out"))
    return bld.spec


# ---------------------------------------------------------------------------
# mesh_small: the `run --trace --waveform` path on small mixed netlists

MESH_POOL = 240
MESH_BLOCKS = (5, 80)
MESH_VALUE_CAP = 60
MESH_PROBE_SHARE = 0.2
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"
GOLDEN_FILES = ("unary7.net", "add34.net", "mul5x3.net", "mux57.net",
                "madd.net")


def mesh_netlist(rng: random.Random, size: int, name: str) -> Spec:
    """Every block kind on two clocks (main and fast at 3/2).

    A few hub blocks feed most edges (high fan-out), most wires carry a
    constant latency, about a fifth of the outputs are probed, and seeded
    photon counters feed only probes because their values are checked for
    repeatability alone.
    """
    bld = _Builder(name, {MAIN: Fraction(1), FAST: FAST_FREQ})

    def latency():
        return rng.randint(0, 9) if rng.random() < 0.8 else None

    scalars: List[str] = []           # blocks with a known scalar output
    muxes: List[str] = []

    def pick(clock=None):
        pool = [s for s in scalars
                if clock is None or bld.values[s][0] == clock]
        hubs = pool[:4]
        return rng.choice(hubs if hubs and rng.random() < 0.5 else pool)

    for _ in range(max(2, size // 8)):
        clock = MAIN if rng.random() < 0.7 else FAST
        scalars.append(bld.add("source", {"value": str(rng.randint(1, 20)),
                                          "clock": clock})[0])
    sinks: List[str] = []
    # Decks, as in dag_netlist, keep the kind mix and fan-ins exact.
    kinds = _Deck(rng, ("add", "mul", "min", "max", "mux", "demux", "madd",
                        "accumulator", "accumulator", "convert", "probe"))
    fanin = _Deck(rng, range(2, 7))
    models = _Deck(rng, ("digital", "toggle", "analog", "photon"))
    while len(bld.spec.blocks) < size:
        kind = kinds.draw()
        if kind == "demux":
            if not muxes:
                continue
            bid, _v = bld.add("demux", {},
                              [("in", rng.choice(muxes), latency())])
            sinks.append(bid)
        elif kind == "mux":
            cands = [s for s in scalars if bld.values[s][1] > 0]
            rng.shuffle(cands)
            want, chosen, seen = fanin.draw(), [], set()
            for s in cands:
                if len(chosen) < want and bld.values[s][1] not in seen:
                    seen.add(bld.values[s][1])
                    chosen.append(s)
            if len(chosen) < 2:
                continue
            bid, _v = bld.add("mux", {}, _ports(chosen, latency))
            muxes.append(bid)
        elif kind == "madd":
            clock = rng.choice((MAIN, FAST))
            srcs = [bld.add("source", {
                "value": str(rng.randint(1, 3)),
                "position": str(rng.randint(0, 6)), "clock": clock})[0]
                for _j in range(fanin.draw() - 1)]
            scalars.append(bld.add("madd", {}, _ports(srcs, latency))[0])
        elif kind == "accumulator":
            params = {"model": models.draw()}
            if params["model"] == "toggle":
                params["depth"] = str(rng.randint(2, 5))
            elif params["model"] == "analog":
                params["rate"] = "%d/%d" % (rng.randint(1, 5),
                                            rng.randint(1, 4))
            elif params["model"] == "photon":
                params["flux"] = "%d/%d" % (rng.randint(1, 5),
                                            rng.randint(1, 4))
            if rng.random() < 0.3:
                params["clock"] = rng.choice((MAIN, FAST))
            seeded = params["model"] == "photon" and rng.random() < 0.4
            if seeded:
                params["seed"] = str(rng.randint(0, 2 ** 16))
            bid, _v = bld.add("accumulator", params,
                              [("in", pick(), latency())])
            (sinks if seeded else scalars).append(bid)
        elif kind == "convert":
            src = pick()
            other = FAST if bld.values[src][0] == MAIN else MAIN
            scalars.append(bld.add("convert", {"clock": other},
                                   [("in", src, latency())])[0])
        elif kind == "probe":
            bld.add("probe", {}, [("in", pick(), latency())])
        else:
            if kind == "add":
                a = pick()
                params = {}
                inputs = [("a", a, latency()),
                          ("b", pick(bld.values[a][0]), latency())]
            elif kind == "mul":
                params = {"k": str(rng.randint(1, 3))}
                inputs = [("in", pick(), latency())]
            else:
                params = {}
                inputs = _ports([pick() for _j in range(fanin.draw())],
                                latency)
            if bld.trial(kind, params, inputs)[1] > MESH_VALUE_CAP:
                kind, params = "min", {}
                inputs = _ports([s for _p, s, _l in inputs] + [pick()],
                                latency)
            scalars.append(bld.add(kind, params, inputs)[0])
    outs = [b.id for b in bld.spec.blocks
            if b.kind != "probe" and "position" not in b.params]
    probed = set(rng.sample(outs, k=max(1, round(len(outs)
                                                 * MESH_PROBE_SHARE))))
    probed.update(s for s in sinks
                  if bld.spec.blocks[int(s[1:])].params.get("seed"))
    bld.spec.probes = [(b, "out") for b in outs if b in probed]
    return bld.spec


def golden_specs() -> List[Spec]:
    """The five paper-figure netlists, read from the repository."""
    return [spec_from_text(name, (GOLDEN_DIR / name).read_text())
            for name in GOLDEN_FILES]


def spec_from_text(name: str, text: str) -> Spec:
    """Read netlist text (no `table=` wires) into a Spec, in file order."""
    spec = Spec(name, {}, [], [])
    blocks: Dict[str, Block] = {}
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "clock":
            spec.clocks[parts[1]] = Fraction(parts[2])
        elif parts[0] == "block":
            block = Block(parts[1], parts[2],
                          dict(tok.split("=", 1) for tok in parts[3:]))
            blocks[block.id] = block
            spec.blocks.append(block)
        elif parts[0] == "wire":
            src = parts[1].split(".")[0]
            dst, port = parts[2].split(".")
            latency = (int(parts[3][len("latency="):])
                       if len(parts) == 4 else None)
            blocks[dst].inputs.append((port, src, latency))
        elif parts[0] == "probe":
            spec.probes.append(tuple(parts[1].split(".")))
    return spec


@dataclass(frozen=True)
class Workload:
    netlist: Callable[[random.Random, int, str], Spec]
    pool: int                       # jobs per seed
    sizes: Tuple[int, int]          # blocks (madd_far: sources) per job
    # The `check` path (parse, oracle, run, compare) or else the `run
    # --trace --waveform` path (parse, run, CSV, waveform).
    check_path: bool
    goldens: bool = False


WORKLOADS = {
    "dag_large": Workload(dag_netlist, DAG_POOL, DAG_BLOCKS, True),
    "madd_far": Workload(madd_netlist, MADD_POOL, MADD_SOURCES, True),
    "mesh_small": Workload(mesh_netlist, MESH_POOL, MESH_BLOCKS, False,
                           goldens=True),
}
WARMUP_JOBS = 3


def job_pool(name: str, seed: int) -> List[Spec]:
    """The seed's jobs, one per rung of the workload's size ladder."""
    wl = WORKLOADS[name]
    rng = random.Random("%s:%d" % (name, seed))
    goldens = golden_specs() if wl.goldens else []
    sizes = _ladder(wl.pool - len(goldens), *wl.sizes)
    specs = [wl.netlist(rng, n, "%s seed=%d job=%d" % (name, seed, i))
             for i, n in enumerate(sizes)]
    for spec in goldens:
        specs.insert(rng.randrange(len(specs) + 1), spec)
    return specs


def warmup_pool(name: str) -> List[Spec]:
    """Fixed, seed-independent warm-up jobs at the workload's smallest
    size, so set-up time does not move with --seed."""
    wl = WORKLOADS[name]
    rng = random.Random("%s:warmup" % name)
    return [wl.netlist(rng, wl.sizes[0], "%s warmup=%d" % (name, i))
            for i in range(WARMUP_JOBS)]
