"""Tests for the traced run's wrappers.

    python3 -m pytest wallbench/test_tracing.py -q
"""

import sys
from pathlib import Path

from tracing import Tracer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import temporalsim  # noqa: E402
from temporalsim import channel, engine, netlist  # noqa: E402

ADD34 = (Path(__file__).resolve().parent.parent / "tests" / "golden"
         / "add34.net").read_text()


def _originals():
    return (vars(netlist.Netlist)["inputs_of"],
            vars(channel.Link)["constant"], engine.transmit_checked,
            temporalsim.arith.madd)


def test_spans_counts_and_restore():
    before = _originals()
    tracer = Tracer()
    tracer.install(temporalsim)
    api = tracer.wrap_api({"parse_netlist": temporalsim.parse_netlist,
                           "run": temporalsim.run})
    job = tracer.wrap_job(lambda: api["run"](api["parse_netlist"](ADD34)))
    try:
        trace = job()
    finally:
        tracer.uninstall()
    assert _originals() == before
    assert tracer.absent == []
    assert trace.results == {"sum.out": 7}

    counts = tracer.counts
    assert counts["channel.transmit_calls"] == 2          # a->sum, b->sum
    assert counts["channel.link_builds"] == 2
    assert counts["engine.fires"] == 3
    assert counts["netlist.wires_scanned"] == (
        2 * counts["netlist.adjacency_calls"])
    assert counts["netlist.wires_returned"] == 6   # 2+2 inputs, 2 outputs

    names = [span[0] for span in tracer.spans]
    assert names[0] == "job" and tracer.spans[0][3] == -1
    assert all(span[3] >= 0 and span[4] == 0 for span in tracer.spans[1:])
    busy, own = tracer.totals()
    assert busy["job"] >= busy["engine.run"] + busy["netlist.parse"]
    assert 0 <= own["engine.run"] <= busy["engine.run"]


def test_missing_name_is_reported_absent():
    class Package:
        netlist = netlist
        engine = engine
        channel = channel
        arith = type("NoSweep", (), {})()      # arith without its functions

    tracer = Tracer()
    tracer.install(Package)
    tracer.uninstall()
    assert tracer.absent == ["arith.madd", "arith.mux", "arith.mv_merge"]
