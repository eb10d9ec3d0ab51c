"""Random acyclic netlist generator, shared by the engine tests and the
acceptance suite."""

import os
import random

CLOCKS = ("main", "alt")


def random_dag_netlist(rng: random.Random, depth_max: int = 5,
                       value_max: int = 1000,
                       tables: str | None = None) -> str:
    """A well-sorted feed-forward netlist over every block kind, on the
    clocks `main` and `alt`. Its last line, its only `probe` line,
    probes the last scalar block; each demux output feeds a probe block.
    The two operands of an `add` share a clock, and no photon
    accumulator sets `seed=`. Each wire has `latency=<0-9>` with
    probability 1/2. Given a directory `tables`, half the other wires
    not into a `mux` get `table=tK.tbl`, a latency table written there
    with a default and 1-6 ticks below 4 * value_max + 10, each delay
    0-9; parse the netlist with `base_dir=tables`."""
    written = []

    def wire(src, dst, table=True):
        line = "wire %s.out %s" % (src, dst)
        if rng.random() < 0.5:
            line += " latency=%d" % rng.randint(0, 9)
        elif tables is not None and table and rng.random() < 0.5:
            ticks = rng.sample(range(4 * value_max + 10), rng.randint(1, 6))
            written.append("t%d.tbl" % len(written))
            with open(os.path.join(tables, written[-1]), "w",
                      encoding="utf-8") as fh:
                fh.write("default %d\n" % rng.randint(0, 9) + "".join(
                    "%d %d\n" % (tick, rng.randint(0, 9)) for tick in ticks))
            line += " table=" + written[-1]
        return line

    lines = ["clock main 1",
             "clock alt %s" % rng.choice(["2", "3", "1/2", "3/2", "2/3"])]
    clock_of = {}   # scalar block -> the clock it emits on
    for i in range(rng.randint(2, 4)):
        bid, clock = "s%d" % i, rng.choice(CLOCKS)
        lines.append("block %s source value=%d clock=%s"
                     % (bid, rng.randint(0, value_max), clock))
        clock_of[bid] = clock
    for d in range(rng.randint(1, depth_max)):
        bid = "n%d" % d
        scalars = list(clock_of)
        kind = rng.choice(["add", "mul", "min", "max", "madd", "convert",
                           "accumulator", "mux"])
        if kind == "add":
            a = rng.choice(scalars)
            b = rng.choice([s for s in scalars if clock_of[s] == clock_of[a]])
            lines += ["block %s add" % bid, wire(a, bid + ".a"),
                      wire(b, bid + ".b")]
            clock = clock_of[a]
        elif kind == "mul":
            src = rng.choice(scalars)
            lines += ["block %s mul k=%d" % (bid, rng.randint(1, 5)),
                      wire(src, bid + ".in")]
            clock = clock_of[src]
        elif kind in ("min", "max"):
            srcs = [rng.choice(scalars) for _ in range(rng.randint(1, 3))]
            lines.append("block %s %s" % (bid, kind))
            lines += [wire(src, "%s.in%d" % (bid, j))
                      for j, src in enumerate(srcs)]
            clock = clock_of[srcs[0]]
        elif kind == "madd":
            clock = rng.choice(CLOCKS)  # mv_merge needs one shared clock
            lines.append("block %s madd" % bid)
            for j in range(rng.randint(1, 3)):
                mv = "%sv%d" % (bid, j)
                lines.append("block %s source value=%d position=%d clock=%s"
                             % (mv, rng.randint(1, 255),
                                rng.randint(0, value_max), clock))
                lines.append(wire(mv, "%s.in%d" % (bid, j)))
        elif kind == "convert":
            src, clock = rng.choice(scalars), rng.choice(CLOCKS)
            lines += ["block %s convert clock=%s" % (bid, clock),
                      wire(src, bid + ".in")]
        elif kind == "accumulator":
            src = rng.choice(scalars)
            model = rng.choice(["digital", "toggle", "analog", "photon"])
            params = ["model=" + model]
            if model == "toggle":
                params.append("depth=%d" % rng.randint(1, 12))
            elif model == "analog":
                params.append("rate=" + rng.choice(["1/2", "2", "3/2"]))
            elif model == "photon":
                params.append("flux=" + rng.choice(["1/3", "2", "5/4"]))
            clock = clock_of[src]
            if rng.random() < 0.5:
                clock = rng.choice(CLOCKS)
                params.append("clock=" + clock)
            lines += ["block %s accumulator %s" % (bid, " ".join(params)),
                      wire(src, bid + ".in")]
        else:
            # A mux needs distinct values above 0: it gets its own sources.
            clock = rng.choice(CLOCKS)
            values = rng.sample(range(1, value_max + 1), rng.randint(1, 3))
            # A probe block, not a `probe` line: a line on an output that
            # no wire delivers ends past `total_ticks` (ROADMAP item 1).
            lines += ["block %s mux" % bid, "block %sd demux" % bid,
                      "block %sp probe" % bid, wire(bid, bid + "d.in"),
                      wire(bid + "d", bid + "p.in")]
            for j, value in enumerate(values):
                lines += ["block %sm%d source value=%d clock=%s"
                          % (bid, j, value, clock),
                          wire("%sm%d" % (bid, j), "%s.in%d" % (bid, j),
                               table=False)]
            continue
        clock_of[bid] = clock
    lines.append("probe %s.out" % list(clock_of)[-1])
    return "\n".join(lines) + "\n"
