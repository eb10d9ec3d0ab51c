"""A small-scope exhaustive pass (ROADMAP item 3): every netlist up to a
small size is run, not a random sample of larger ones.

The netlists are the well-sorted ones on one clock of one to three
blocks of the kinds `add`, `mul` (k=2), `min`, `max`, `mux`, `demux`,
`madd` and `probe`, the variadic kinds with one or two lanes, and their
sources, at most four blocks in all. Blocks are listed in topological
order, every non-source block but the last feeds a later block, and the
lanes of one block are drawn unordered; a source may feed several
ports. A scalar source takes each value 0-3, a multi-valent one each
position 0-3 with each amplitude 1-3. Every block's output also feeds a
probe block `seen_<id>`, as `tests/timeline.py` needs.

For each netlist either `run` and `oracle_results` both raise
`SimulationError`, or both pass, give the same probe values, and the
trace keeps the timeline laws.
"""

import itertools

from temporalsim import oracle_results, parse_netlist, run
from temporalsim.blocks import KINDS
from temporalsim.errors import SimulationError

from timeline import check_timeline

SCALAR, MUX, MV, ANY = "scalar", "mux", "mv", "any"
# Kind -> (the input sorts it is drawn with, one tuple per lane count;
# the sort it emits, None for a probe).
SHAPES = {
    "add": (((SCALAR, SCALAR),), SCALAR),
    "mul": (((SCALAR,),), SCALAR),
    "min": (((SCALAR,), (SCALAR, SCALAR)), SCALAR),
    "max": (((SCALAR,), (SCALAR, SCALAR)), SCALAR),
    "mux": (((SCALAR,), (SCALAR, SCALAR)), MUX),
    "demux": (((MUX,),), MUX),
    "madd": (((MV,), (MV, MV)), SCALAR),
    "probe": (((ANY,),), None),
}
# At most three non-source blocks, and four blocks with the sources.
MAX_OPS, MAX_BLOCKS = 3, 4
# The params of a source of each sort.
SOURCES = {
    SCALAR: ["value=%d" % v for v in range(4)],
    MV: ["value=%d position=%d" % (a, p) for p in range(4)
         for a in (1, 2, 3)],
}


def _shapes(shape=()):
    """Every shape that extends `shape`: a tuple of blocks in topological
    order, each the sort of a source or a pair (kind, the indices of the
    blocks it reads, in port order)."""
    ops = [b for b, block in enumerate(shape) if type(block) is tuple]
    read = {b for op in ops for b in shape[op][1]}
    if ops and set(ops[:-1]) <= read:
        yield shape
    if len(ops) == MAX_OPS:
        return
    emits = [block if type(block) is str else SHAPES[block[0]][1]
             for block in shape]
    for kind, (arities, _emits) in SHAPES.items():
        for sorts in arities:
            sort = sorts[0]     # the lanes of one block share a sort
            old = [b for b, out in enumerate(emits)
                   if out is not None and sort in (ANY, out)]
            # New sources are the next blocks, used in order: a lane may
            # read a new source that another lane reads too.
            new = list(range(len(shape), len(shape) + len(sorts)))
            if sort not in SOURCES:
                new = []
            for ins in itertools.combinations_with_replacement(
                    old + new, len(sorts)):
                used = set(ins) & set(new)
                if used != set(new[:len(used)]) or \
                        len(shape) + len(used) + 1 > MAX_BLOCKS:
                    continue
                yield from _shapes(shape + (sort,) * len(used)
                                   + ((kind, ins),))


def _netlists(shape):
    """The texts of one shape's netlists, one per choice of source
    params. Block i of the shape is `n<i>`."""
    lines, sources = [], []
    for b, block in enumerate(shape):
        if type(block) is str:
            sources.append(b)
            lines.append("block seen_n%d probe\nwire n%d.out seen_n%d.in"
                         % (b, b, b))
            continue
        kind, ins = block
        ports = KINDS[kind].inputs or ["in%d" % n for n in range(len(ins))]
        lines.append("block n%d %s" % (b, "mul k=2" if kind == "mul"
                                       else kind))
        lines += ["wire n%d.out n%d.%s" % (src, b, port)
                  for port, src in zip(ports, ins)]
        if kind == "probe":
            lines.append("probe n%d.in" % b)
        else:
            lines.append("probe n%d.out\nblock seen_n%d probe\n"
                         "wire n%d.out seen_n%d.in" % (b, b, b, b))
    body = "\n".join(lines) + "\n"
    for choice in itertools.product(*(SOURCES[shape[b]] for b in sources)):
        yield "clock main 1\n" + "".join(
            "block n%d source %s\n" % pair
            for pair in zip(sources, choice)) + body


def _judge(text):
    """'raised' or 'passed', after checking that both sides agree."""
    net = parse_netlist(text)
    try:
        trace = run(net)
    except SimulationError:
        try:
            oracle_results(net)
        except SimulationError:
            return "raised"
        raise AssertionError("only run raised on\n" + text) from None
    try:
        expected = oracle_results(net)
    except SimulationError:
        raise AssertionError("only the oracle raised on\n" + text) from None
    assert trace.results == expected, text
    check_timeline(net, trace)
    return "passed"


def test_every_small_netlist_runs_as_the_oracle_and_the_timeline_say():
    outcomes = {"raised": 0, "passed": 0}
    shapes = list(_shapes())
    for shape in shapes:
        for text in _netlists(shape):
            outcomes[_judge(text)] += 1
    # A mux of a repeated value or of 0 raises on both sides.
    assert (len(shapes), outcomes) == (1491, {"raised": 1641, "passed": 8647})
