"""Netlist parsing and validation."""

import gc
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from temporalsim import blocks, netlist, parse_netlist
from temporalsim.errors import (
    NetlistParseError,
    NetlistValidationError,
    TemporalError,
)

from dagutil import random_dag_netlist

ADD_NET = """\
clock main 1
block a source value=3 clock=main
block b source value=4 clock=main
block s add
wire a.out s.a
wire b.out s.b
probe s.out
"""


def test_parses_the_add_example():
    net = parse_netlist(ADD_NET)
    assert set(net.blocks) == {"a", "b", "s"}
    assert net.blocks["a"][2]["value"] == "3"
    assert len(net.wires) == 2
    assert net.probes == [("s", "out")]
    assert net.clocks["main"].frequency == 1


def _row(net, bid):
    """Block `bid`'s plan row."""
    return next(row for row in net.plan if row[0] == bid)


def _inputs(net, bid):
    """Block `bid`'s input wires: its plan row's run of slots."""
    _bid, _kind, _params, _clock, first, end, _outs = _row(net, bid)
    return net.slots[first:end]


def test_comments_and_blank_lines_ignored():
    net = parse_netlist("# header\n\n" + ADD_NET + "\n# trailer\n")
    assert set(net.blocks) == {"a", "b", "s"}


def test_rational_clock_frequency():
    net = parse_netlist("clock slow 2/3\nblock a source value=1 clock=slow\n")
    assert str(net.clocks["slow"].frequency) == "2/3"


def test_empty_input_reports_no_blocks():
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist("")
    assert "no blocks" in str(err.value)


def test_wire_to_unknown_block_names_it():
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist(ADD_NET + "wire ghost.out s.a\n")
    assert "ghost" in str(err.value)


def test_validation_collects_all_violations():
    bad = ("block x add\n"
           "wire x.out y.in\n"
           "probe z.out\n")
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist(bad)
    text = str(err.value)
    assert "y" in text and "z" in text  # both reported, not first-only
    assert len(err.value.violations) >= 3


def test_wire_violations_keep_their_text_and_order():
    bad = ("clock main 1\n"
           "block a source value=1 clock=main\n"
           "block m min\nblock s add\nblock q weird\n"
           "wire ghost.out s.a\nwire a.out phantom.in\n"
           "wire ghost.out nowhere.in\nwire a.sideways s.b\n"
           "wire a.out m.x1\nwire a.out s.c\nwire a.out s.b\n"
           "wire q.out m.in0\n")
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist(bad)
    assert err.value.violations == [
        "block 'q' has unknown kind 'weird'",
        "wire endpoint references unknown block 'ghost'",
        "wire endpoint references unknown block 'phantom'",
        "wire endpoint references unknown block 'ghost'",
        "wire endpoint references unknown block 'nowhere'",
        "block 'a' (source) has no output port 'sideways'",
        "block 'm' (min) input ports are in0, in1, ... (got 'x1')",
        "block 's' (add) has no input port 'c'",
        "input port s.b driven by two wires",
    ]


# A block that emits each sort, as `e`, and one that takes each sort, as
# `t` with the port the wire reaches.
EMITS = {
    "scalar": "block e source value=2\n",
    "mux": "block x source value=2\nblock e mux\nwire x.out e.in0\n",
    "mv": "block e source value=2 position=3\n",
}
TAKES = {"scalar": ("mul k=2", "in"), "mux": ("demux", "in"),
         "mv": ("madd", "in0")}


@pytest.mark.parametrize("emitted,taken", [
    (emitted, taken) for emitted in EMITS for taken in TAKES
    if emitted != taken])
def test_a_wire_of_the_wrong_sort_is_a_validation_error(emitted, taken):
    kind, port = TAKES[taken]
    text = ("clock main 1\n" + EMITS[emitted]
            + "block t %s\nwire e.out t.%s\n" % (kind, port))
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist(text)
    assert err.value.violations == [
        "block 't' (%s) input %r takes %s, got %s from 'e.out'"
        % (kind.split()[0], port, taken, emitted)]


@pytest.mark.parametrize("sort", list(EMITS))
def test_a_wire_of_the_sort_taken_is_valid(sort):
    kind, port = TAKES[sort]
    net = parse_netlist("clock main 1\n" + EMITS[sort]
                        + "block t %s\nwire e.out t.%s\n" % (kind, port)
                        + "block p probe\nwire e.out p.in\n")
    assert [wire[:4] for wire in _inputs(net, "t")] == \
        [("e", "out", "t", port)]
    assert [wire[:4] for wire in _inputs(net, "p")] == \
        [("e", "out", "p", "in")]


def test_every_sort_error_is_listed_at_once():
    text = ("clock main 1\n" + EMITS["mux"]
            + "block v source value=2 position=3\n"
            "block s add\nwire e.out s.a\nwire v.out s.b\n"
            "block d madd\nwire s.out d.in0\nwire v.out d.in1\n"
            "block u demux\nwire v.out u.in\n")
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist(text)
    assert err.value.violations == [
        "block 's' (add) input 'a' takes scalar, got mux from 'e.out'",
        "block 's' (add) input 'b' takes scalar, got mv from 'v.out'",
        "block 'd' (madd) input 'in0' takes mv, got scalar from 's.out'",
        "block 'u' (demux) input 'in' takes mux, got mv from 'v.out'",
    ]


def test_records_keep_their_fields_and_stay_immutable():
    net = parse_netlist(ADD_NET)
    wire, block = net.wires[0], net.blocks["a"]
    assert wire == ("a", "out", "s", "a", wire[4])
    assert block == ("a", "source", {"value": "3", "clock": "main"})
    for record in (wire, block):
        with pytest.raises(TypeError):
            record[1] = "x"


def test_rows_are_plain_tuples():
    # 100 sources into one max: 101 block rows and 100 wire rows. Of the
    # objects parsing leaves tracked, only the clock is a tuple subclass.
    text = "clock main 1\nblock m max\nprobe m.out\n" + "".join(
        "block s%d source value=%d\nwire s%d.out m.in%d\n" % (i, i, i, i)
        for i in range(100))
    gc.collect()
    before = {id(obj) for obj in gc.get_objects()}
    net = parse_netlist(text)
    built = [obj for obj in gc.get_objects()
             if isinstance(obj, tuple) and type(obj) is not tuple
             and id(obj) not in before]
    assert len(built) <= 1, {type(obj).__name__ for obj in built}
    rows = [*net.blocks.values(), *net.wires, *net.slots, *net.plan]
    assert {type(row) for row in rows} == {tuple}
    assert net.blocks["s7"] == ("s7", "source", {"value": "7"})
    assert net.blocks["m"] == ("m", "max", {})
    assert _row(net, "m") == ("m", "max", {}, net.clocks["main"], 0, 100,
                              [])
    # Every wire without an option shares one Link; the wire into in7
    # sits at in7's place among the sorted ports.
    wire = ("s7", "out", "m", "in7", net.wires[0][4])
    slot = sorted("in%d" % i for i in range(100)).index("in7")
    assert _row(net, "s7")[6] == [slot]
    assert net.wires[7] == net.slots[slot] == _inputs(net, "m")[slot] \
        == wire


def test_inputs_resolve_in_sorted_port_order():
    lines = ["clock main 1", "block m min", "probe m.out"]
    for i in reversed(range(11)):
        lines += ["block s%d source value=1 clock=main" % i,
                  "wire s%d.out m.in%d" % (i, i)]
    net = parse_netlist("\n".join(lines) + "\n")
    # Lexicographic, as the ports were always sorted: in10 before in2.
    ports = [wire[3] for wire in _inputs(net, "m")]
    assert ports == sorted("in%d" % i for i in range(11))
    assert ports[:3] == ["in0", "in1", "in10"]
    # m is the only block with inputs, so its run is every slot.
    assert _row(net, "m")[4:6] == (0, 11)


VARIADIC_NET = ("clock main 1\nblock a source value=1 clock=main\n"
                "block b source value=2 clock=main\nblock m min\n"
                "wire a.out m.in3\nwire b.out m.{port}\nprobe m.out\n")


@pytest.mark.parametrize("port", ["in٣", "in²", "in3²"],
                         ids=["arabic-indic-3", "superscript-2",
                              "3-superscript-2"])
def test_a_variadic_port_is_numbered_in_ascii_digits(port):
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist(VARIADIC_NET.format(port=port))
    assert err.value.violations == [
        "block 'm' (min) input ports are in0, in1, ... (got %r)" % port]


def test_a_variadic_port_may_have_leading_zeros():
    net = parse_netlist(VARIADIC_NET.format(port="in007"))
    assert [wire[3] for wire in _inputs(net, "m")] == ["in007", "in3"]


@pytest.mark.parametrize("tail, expected", [
    ("block q probe\nblock p probe\nwire a.out q.in\nwire a.out p.in\n",
     [("p", "in"), ("q", "in")]),
    ("block q probe\nblock p probe\nblock m min\n"
     "wire a.out q.in\nwire a.out m.in1\nwire a.out p.in\n"
     "wire a.out m.in0\n",
     [("m", "in0"), ("m", "in1"), ("p", "in"), ("q", "in")]),
], ids=["two", "four"])
def test_outputs_resolve_in_destination_order(tail, expected):
    net = parse_netlist("clock main 1\nblock a source value=1\n" + tail)
    assert [net.slots[slot][2:4] for slot in _row(net, "a")[6]] == expected
    # The slots are numbered in that order too: a is the only source.
    assert _row(net, "a")[6] == list(range(len(expected)))


def test_parse_error_carries_position():
    with pytest.raises(NetlistParseError) as err:
        parse_netlist("clock main 1\nclock bad zero/0\n")
    assert err.value.line == 2


@pytest.mark.parametrize("text, message", [
    ("block c source value=1\nblock c source value=2\n",
     "line 2:7: duplicate block id 'c'"),
    ("clock k 1\nclock k 2\n", "line 2:7: duplicate clock id 'k'"),
    ("block mux mux\nblock x probe\nwire mux.out x.in latency=x\n",
     "line 3:27: latency 'x' is not an integer"),
    ("clock main 1\nblock a source value=1\nwire a.out\n",
     "line 3:1: wire needs: wire <src>.<port> <dst>.<port> "
     "[latency=<int>|table=<file>]"),
    ("clock main 1\nblock a\n",
     "line 2:1: block needs: block <id> <kind> [key=value ...]"),
    ("clock main 1\nblock a source value\n",
     "line 2:16: expected key=value, got 'value'"),
    ("clock main 1\nblock a source value=1 value=2\n",
     "line 2:24: duplicate param 'value'"),
    ("clock main\n", "line 1:1: clock needs: clock <id> <freq>"),
    ("clock main 1\nblock a source value=1\nprobe\n",
     "line 3:1: probe needs: probe <block>.<port>"),
], ids=["block-id", "clock-id", "latency-value", "short-wire", "short-block",
        "bare-param", "duplicate-param", "short-clock", "short-probe"])
def test_parse_error_column_is_the_tokens_own(text, message):
    # each column points at the offending token, or at the directive when
    # the line is too short, not at the first place its text appears
    # earlier in the line
    with pytest.raises(NetlistParseError) as err:
        parse_netlist(text)
    assert str(err.value) == message


@pytest.mark.parametrize("bid, char", [("a.b", "."), ("a,b", ","),
                                       ("a=b", "=")])
def test_block_id_rejects_reference_and_trace_separators(bid, char):
    # An id with `.` could never be wired or probed; one with `,` or `=`
    # would break the trace CSV row or its `probe=value` footer.
    with pytest.raises(NetlistParseError) as err:
        parse_netlist("clock main 1\nblock %s source value=3\n" % bid)
    assert str(err.value) == ("line 2:7: block id %r may not contain %r"
                              % (bid, char))


def test_unknown_directive():
    with pytest.raises(NetlistParseError):
        parse_netlist("blok a source value=1\n")


def test_duplicate_block_id():
    with pytest.raises(NetlistParseError):
        parse_netlist("block a source value=1\nblock a source value=2\n")


def test_double_driven_input_rejected():
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist(ADD_NET + "wire b.out s.a\n")
    assert "driven by two wires" in str(err.value)


def test_missing_required_param():
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist("clock main 1\nblock a source clock=main\n")
    assert "missing param 'value'" in str(err.value)


def test_unknown_clock_reference():
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist("clock main 1\nblock a source value=1 clock=nope\n")
    assert "nope" in str(err.value)


def test_clock_violations_keep_their_text_and_order():
    # Two clocks and no `main`: no netlist default.
    bad = ("clock a 1\nclock b 2\n"
           "block s source value=1\n"
           "block t source value=1 clock=nope\n"
           "block c convert clock=gone\n"
           "block acc accumulator clock=nope\n"
           "block m mul k=2 clock=nope\n"
           "wire s.out c.in\nwire t.out acc.in\nwire c.out m.in\n")
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist(bad)
    assert err.value.violations == [
        "block 's' needs an explicit clock",
        "block 't' references unknown clock 'nope'",
        "block 'c' references unknown clock 'gone'",
        "block 'acc' references unknown clock 'nope'",
        "block 'm' (mul) unknown param 'clock'",
    ]


@pytest.mark.parametrize("clocks", ["clock a 1\nclock b 2\n",
                                    "clock main 1\nclock b 2\n"],
                         ids=["no-default", "default"])
def test_convert_without_clock_is_one_violation(clocks):
    # Its required `clock=` names its clock, so a missing one is reported
    # once, whether or not the netlist has a default clock.
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist(clocks + "block s source value=1 clock=b\n"
                      "block c convert\nwire s.out c.in\nprobe c.out\n")
    assert err.value.violations == [
        "block 'c' (convert) missing param 'clock'"]


def test_unwired_required_input():
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist("clock main 1\n"
                      "block a source value=1 clock=main\n"
                      "block s add\n"
                      "wire a.out s.a\n")
    assert "'b' is not wired" in str(err.value)


@pytest.mark.parametrize("ports, violation", [
    (("a", "c"), "block 'a' (add) has no input port 'c'"),
    (("a", "a"), "input port a.a driven by two wires"),
], ids=["unknown-port", "repeated-port"])
def test_one_wire_per_port_counts_only_without_a_wire_error(ports,
                                                            violation):
    # Two wires for the add's two ports, yet `b` is not wired: a count of
    # the wires alone would lose the first violation.
    text = "clock main 1\nblock s source value=1\nblock a add\n" + "".join(
        "wire s.out a.%s\n" % port for port in ports)
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist(text)
    assert err.value.violations == [
        "block 'a' (add) input 'b' is not wired", violation]


def test_a_variadic_block_needs_a_wired_input():
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist("clock main 1\nblock m min\nprobe m.out\n")
    assert err.value.violations == ["block 'm' (min) has no wired inputs"]


def test_cycle_rejected():
    cyclic = ("clock main 1\n"
              "block a source value=1 clock=main\n"
              "block x add\n"
              "block y mul k=2\n"
              "wire a.out x.a\n"
              "wire y.out x.b\n"
              "wire x.out y.in\n")
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist(cyclic)
    assert "cycle" in str(err.value)


def test_bad_wire_option():
    with pytest.raises(NetlistParseError):
        parse_netlist("wire a.out b.in speed=3\n")


def test_negative_latency_rejected():
    with pytest.raises(NetlistParseError):
        parse_netlist("wire a.out b.in latency=-1\n")


def test_negative_table_delay_rejected(tmp_path):
    table = tmp_path / "neg.tbl"
    table.write_text("default -3\n")
    with pytest.raises(NetlistParseError) as err:
        parse_netlist("clock main 1\nwire a.out b.in table=%s\n" % table)
    assert (err.value.line, err.value.column) == (2, 17)
    assert str(err.value) == ("line 2:17: latency table %s: line 1: '-3' "
                              "must be >= 0" % table)


def test_malformed_table_line_names_the_table(tmp_path):
    table = tmp_path / "bad.tbl"
    table.write_text("default 0\nbad\n")
    with pytest.raises(NetlistParseError) as err:
        parse_netlist("clock main 1\nwire a.out b.in table=%s\n" % table)
    assert (err.value.line, err.value.column) == (2, 17)
    assert str(err.value) == ("line 2:17: latency table %s: line 2: needs "
                              "two fields" % table)


@pytest.mark.parametrize("text, problem", [
    ("0 3\n0 5\ndefault 1\n", "line 2: tick 0 repeats line 1"),
    ("0 3\n# note\n00 5\n", "line 3: tick 0 repeats line 1"),
    ("default 1\n0 3\ndefault 2\n", "line 3: default repeats line 1"),
])
def test_repeated_table_tick_names_both_lines(tmp_path, text, problem):
    table = tmp_path / "twice.tbl"
    table.write_text(text)
    with pytest.raises(NetlistParseError) as err:
        parse_netlist("clock main 1\nwire a.out b.in table=%s\n" % table)
    assert (err.value.line, err.value.column) == (2, 17)
    assert str(err.value) == ("line 2:17: latency table %s: %s"
                              % (table, problem))


def test_missing_table_is_a_parse_error_at_the_wire(tmp_path):
    table = tmp_path / "missing.tbl"
    with pytest.raises(NetlistParseError) as err:
        parse_netlist("clock main 1\nwire a.out b.in table=%s\n" % table)
    assert str(err.value) == ("line 2:17: latency table %s: No such file "
                              "or directory" % table)


def test_table_path_resolves_against_the_base_dir(tmp_path, monkeypatch):
    (tmp_path / "nets").mkdir()
    (tmp_path / "nets" / "late.tbl").write_text("default 2\n")
    monkeypatch.chdir(tmp_path)
    text = ADD_NET.replace("wire a.out s.a", "wire a.out s.a table=late.tbl")
    net = parse_netlist(text, base_dir=str(tmp_path / "nets"))
    assert net.wires[0][4] == (2, {})
    # Without a base directory the path is read from the working one.
    with pytest.raises(NetlistParseError, match="late.tbl: No such file"):
        parse_netlist(text)


def test_absolute_table_path_ignores_the_base_dir(tmp_path):
    table = tmp_path / "late.tbl"
    table.write_text("default 2\n")
    net = parse_netlist(
        ADD_NET.replace("wire a.out s.a", "wire a.out s.a table=%s" % table),
        base_dir=str(tmp_path / "elsewhere"))
    assert net.wires[0][4] == (2, {})


def test_parses_of_one_text_compare_equal(tmp_path):
    (tmp_path / "late.tbl").write_text("default 2\n0 5\n")
    text = (ADD_NET.replace("wire a.out s.a", "wire a.out s.a latency=3")
            .replace("wire b.out s.b", "wire b.out s.b table=late.tbl"))
    assert parse_netlist(text, str(tmp_path)) \
        == parse_netlist(text, str(tmp_path))


def test_wires_of_one_latency_share_a_link(tmp_path, monkeypatch):
    (tmp_path / "late.tbl").write_text("default 2\n0 5\n")
    reads, load = [], netlist.load_latency_table

    def counted(path):
        reads.append(path)
        return load(path)

    monkeypatch.setattr(netlist, "load_latency_table", counted)
    net = parse_netlist(ADD_NET.replace("s.a", "s.a latency=3")
                        .replace("s.b", "s.b latency=3")
                        + "block p probe\nwire s.out p.in latency=4\n"
                        "block q probe\nblock r probe\n"
                        "wire s.out q.in table=late.tbl\n"
                        "wire s.out r.in table=late.tbl\n", str(tmp_path))
    first, second, third, fourth, fifth = (w[4] for w in net.wires)
    assert first is second and first.default == 3
    assert third.default == 4
    # A table file is read once per parse; its wires share the Link.
    assert fourth is fifth and fourth == (2, {0: 5})
    assert reads == [str(tmp_path / "late.tbl")]


def test_a_bad_table_fails_at_the_first_wire_that_names_it(tmp_path):
    table = tmp_path / "missing.tbl"
    with pytest.raises(NetlistParseError) as err:
        parse_netlist("clock main 1\nwire a.out b.in latency=1\n"
                      "wire a.out c.in table=%s\n"
                      "wire a.out d.in table=%s\n" % (table, table))
    assert str(err.value) == ("line 3:17: latency table %s: No such file "
                              "or directory" % table)


def test_latency_texts_of_one_value_give_equal_links():
    net = parse_netlist(ADD_NET.replace("s.a", "s.a latency=3")
                        .replace("s.b", "s.b latency=03"))
    first, second = (w[4] for w in net.wires)
    assert first == second and hash(first) == hash(second)
    assert first.default == second.default == 3


# Each distinct `latency=` text is resolved once per parse. A bad one is
# never stored, so it raises at its own line and column, whatever good
# texts came before it.
@pytest.mark.parametrize("earlier", ["", " latency=3", " latency=03"],
                         ids=["alone", "after-latency-3",
                              "after-latency-03"])
@pytest.mark.parametrize("option, error", [
    ("latency=x", "line 6:28: latency 'x' is not an integer"),
    ("latency=-1", "line 6:28: latency '-1' must be >= 0"),
    ("latency=3x", "line 6:28: latency '3x' is not an integer"),
], ids=["not-a-number", "negative", "trailing-letter"])
def test_a_bad_latency_text_keeps_its_error_and_column(earlier, option,
                                                       error):
    text = (ADD_NET.replace("wire a.out s.a", "wire a.out s.a" + earlier)
            .replace("wire b.out s.b", "wire b.out   s.b   " + option))
    with pytest.raises(NetlistParseError) as err:
        parse_netlist(text)
    assert str(err.value) == error
    assert (err.value.line, err.value.column) == (
        6, int(error.split(":")[1]))


# A rational token is `p` or `p/q` in ASCII digits. An exponent, a
# decimal point, a sign, an underscore or a non-ASCII digit is not
# rational, whatever number the token would spell, so no token can build
# a number of more than 4300 digits.
RATIONAL_NETS = {
    "clock": "clock main {tok}\nblock a source value=3\n",
    "rate": "clock main 1\nblock a source value=3\n"
            "block c accumulator model=analog rate={tok}\nwire a.out c.in\n",
    "flux": "clock main 1\nblock a source value=3\n"
            "block c accumulator model=photon flux={tok}\nwire a.out c.in\n",
}


def _rational_error(where, tok, problem=None):
    """The error text; without a problem, the one for a non-rational."""
    if where == "clock":
        if problem is None:
            return "line 1:12: frequency %r is not rational" % tok
        return "line 1:12: frequency %r %s" % (tok, problem)
    return "block 'c' param %s=%r: %s" % (where, tok,
                                          problem or "is not rational")


def _refused(where, tok, problem=None):
    with pytest.raises(TemporalError) as err:
        parse_netlist(RATIONAL_NETS[where].format(tok=tok))
    assert str(err.value) == _rational_error(where, tok, problem)


@pytest.mark.parametrize("where", sorted(RATIONAL_NETS))
@pytest.mark.parametrize("tok", ["1e4300", "1e-4300", "1E+4300", "0.5e4300",
                                 "1e٤٣٠٠"])
def test_a_rational_exponent_up_to_4300_is_accepted(where, tok):
    # A small exponent is not read either: the token is not rational.
    _refused(where, tok)


@pytest.mark.parametrize("where", sorted(RATIONAL_NETS))
@pytest.mark.parametrize("tok, power", [
    ("1e4301", 4301), ("1e-4301", -4301), ("1E+99999999", 99999999),
    ("0.5e-99999999", -99999999), ("1e٤٣٠١", 4301),
])
def test_a_rational_exponent_past_4300_is_refused(where, tok, power):
    # The token spells a number of more than 4300 digits; it is refused
    # before any number is built.
    assert abs(power) > blocks.MAX_NUMBER_CHARS
    _refused(where, tok)


@pytest.mark.parametrize("where", sorted(RATIONAL_NETS))
@pytest.mark.parametrize("tok", ["1e5e99999999", "3/2e99999999",
                                 "xe99999999", "1e+-99999999"])
def test_a_non_rational_with_a_large_exponent_keeps_its_error(where, tok):
    _refused(where, tok)


@pytest.mark.parametrize("where", sorted(RATIONAL_NETS))
@pytest.mark.parametrize("tok, problem", [
    ("0/3", "must be > 0"), ("3/0", None), ("3/-2", None),
])
def test_a_zero_or_signed_ratio_keeps_its_error(where, tok, problem):
    _refused(where, tok, problem)


@given(st.text("0123456789/+-.eE_\u0663", max_size=10))
def test_the_rational_reader_reads_ascii_p_or_p_over_q_only(token):
    # On `p` and `p/q` in ASCII digits the reader agrees with `Fraction`;
    # it refuses every other spelling as not rational.
    if re.fullmatch("[0-9]+(/[0-9]+)?", token):
        num, _slash, den = token.partition("/")
        if den and not int(den):
            problem = "is not rational"
        elif not int(num):
            problem = "must be > 0"
        else:
            assert blocks.positive_fraction(token) == Fraction(token)
            return
    else:
        problem = "is not rational"
    with pytest.raises(ValueError, match="^%s$" % problem):
        blocks.positive_fraction(token)


@given(st.text("0123456789/+-.eE_\u0663", max_size=10))
def test_the_integer_reader_reads_ascii_digits_after_a_minus(token):
    if re.fullmatch("-?[0-9]+", token):
        assert blocks.integer()(token) == int(token)
    else:
        with pytest.raises(ValueError, match="^is not an integer$"):
            blocks.integer()(token)


@pytest.mark.parametrize("where", sorted(RATIONAL_NETS))
def test_an_underscored_exponent_is_read_as_fraction_reads_it(where):
    # `Fraction` reads an underscore between digits from Python 3.11 on;
    # the rational reader reads none, on every interpreter.
    _refused(where, "1e99_999_999")


def test_probe_out_needs_an_out_port():
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist("clock main 1\nblock a source value=3\n"
                      "block p probe\nwire a.out p.in\nprobe p.out\n")
    assert err.value.violations == ["probe references unknown port p.out"]


@pytest.mark.parametrize("extra", ["", "probe p.in\n"])
def test_probe_block_observes_its_input(extra):
    net = parse_netlist("clock main 1\nblock a source value=3\n"
                        "block p probe\nwire a.out p.in\n" + extra)
    assert net.probes == [("p", "in")]


def test_probe_on_an_unknown_input_port_rejected():
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist(ADD_NET + "probe s.c\n")
    assert err.value.violations == ["probe references unknown port s.c"]


def _accumulator_net(params):
    return ("clock main 1\n"
            "block a source value=3\n"
            "block acc accumulator %s\n"
            "wire a.out acc.in\nprobe acc.out\n" % params)


def test_depth_checked_for_every_model():
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist(_accumulator_net("model=digital depth=abc"))
    assert "depth='abc': is not an integer" in str(err.value)


def test_depth_below_one_rejected_for_analog():
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist(_accumulator_net("model=analog depth=0"))
    assert "depth='0': must be >= 1" in str(err.value)


@pytest.mark.parametrize("model", ["toggle", "digital"])
def test_depth_above_the_chain_bound_rejected(model):
    # Parsed only: firing a chain this deep would build its every bit.
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist(_accumulator_net("model=%s depth=99999999999" % model))
    assert err.value.violations == [
        "block 'acc' param depth='99999999999': must be <= 256"]
    with pytest.raises(NetlistValidationError, match="must be <= 256"):
        parse_netlist(_accumulator_net("model=%s depth=257" % model))
    net = parse_netlist(_accumulator_net("model=%s depth=256" % model))
    assert net.params["acc"]["depth"] == 256


def test_seed_must_be_an_integer():
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist(_accumulator_net("model=photon seed=xyz"))
    assert "seed='xyz': is not an integer" in str(err.value)


def test_multivalent_amplitude_zero_rejected():
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist("clock main 1\n"
                      "block t source value=0 position=4\n"
                      "block d madd\n"
                      "wire t.out d.in0\nprobe d.out\n")
    assert "amplitude value=0 must be >= 1" in str(err.value)


def test_toggle_needs_depth():
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist(_accumulator_net("model=toggle"))
    assert "missing param 'depth' (model=toggle)" in str(err.value)


@pytest.mark.parametrize("source, mul, error", [
    ("value=3 valeu=4 clock=main", "k=2",
     "block 'a' (source) unknown param 'valeu'"),
    ("value=3 clock=main", "k=2 clock=nope",
     "block 'm' (mul) unknown param 'clock'"),
])
def test_unknown_param_rejected(source, mul, error):
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist("clock main 1\nblock a source %s\nblock m mul %s\n"
                      "wire a.out m.in\nprobe m.out\n" % (source, mul))
    assert err.value.violations == [error]


# A number token is ASCII digits, after a `-` for an integer: a `+`, an
# underscore and a non-ASCII decimal digit are not read.
@pytest.mark.parametrize("token, value", [
    ("+3", None), ("1_000", None), ("\u0663", None), ("007", 7),
], ids=["plus-sign", "underscore", "arabic-indic-3", "leading-zeros"])
def test_number_tokens_read_as_int_reads_them(token, value):
    text = ("clock main 1\nblock a source value=%s\n"
            "block p probe\nwire a.out p.in latency=%s\n" % (token, token))
    if value is not None:
        net = parse_netlist(text)
        assert net.params["a"]["value"] == value
        assert net.wires[0][4].default == value
        return
    with pytest.raises(NetlistParseError) as err:
        parse_netlist(text)
    assert str(err.value) == "line 4:25: latency %r is not an integer" % token
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist(text.replace(" latency=" + token, ""))
    assert err.value.violations == [
        "block 'a' param value=%r: is not an integer" % token]


def test_a_superscript_digit_is_not_an_integer():
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist("clock main 1\nblock a source value=\u00b2\n")
    assert err.value.violations == [
        "block 'a' param value='\u00b2': is not an integer"]
    with pytest.raises(NetlistParseError) as err:
        parse_netlist("block a source value=1\nblock p probe\n"
                      "wire a.out p.in latency=\u00b2\n")
    assert str(err.value) == "line 3:25: latency '\u00b2' is not an integer"


@pytest.mark.parametrize("ref", ["a.b.c", ".out", "a."])
@pytest.mark.parametrize("line, column", [
    ("wire {ref} p.in", 6),
    ("wire a.out  {ref}", 13),
    ("wire {ref} {ref} latency=x", 6),       # the first bad token wins
    ("wire a.out {ref} latency=x", 12),      # a bad ref before the option
    ("probe\t{ref}", 7),
], ids=["wire-src", "wire-dst", "wire-both", "wire-dst-and-option",
        "probe"])
def test_a_bad_port_ref_keeps_its_error_and_column(ref, line, column):
    with pytest.raises(NetlistParseError) as err:
        parse_netlist("block a source value=1\n" + line.format(ref=ref))
    assert str(err.value) == ("line 2:%d: expected <block>.<port>, got %r"
                              % (column, ref))


def test_tabs_separate_tokens_and_a_hash_starts_a_comment():
    spaced = parse_netlist(ADD_NET)
    tabbed = parse_netlist(
        "clock\tmain 1  # the clock\n"
        "\tblock a\tsource value=3\t clock=main#no space\n"
        "block b source value=4 clock=main # block x add\n"
        "block  s  add\n\n# wire b.out s.a\n"
        "wire a.out\ts.a\t# latency=x\nwire b.out s.b\t\n"
        "probe s.out #\n")
    assert (tabbed.blocks, tabbed.wires, tabbed.probes, tabbed.plan) == \
        (spaced.blocks, spaced.wires, spaced.probes, spaced.plan)


def _respell(text, rng):
    """The same netlist with other runs of spaces and tabs between and
    around its tokens, comments, blank lines, `latency=0` on wires
    without an option, and each wire line moved to a random position
    among the other lines, before its blocks too."""
    def gap():
        return "".join(rng.choice(" \t") for _ in range(rng.randint(1, 3)))

    lines, wires = [], []
    for line in text.splitlines():
        parts = line.split()
        if parts[0] == "wire" and len(parts) == 3 and rng.random() < 0.5:
            parts.append("latency=0")
        spelled = rng.choice(["", gap()]) + parts[0] + "".join(
            gap() + part for part in parts[1:])
        if rng.random() < 0.3:
            spelled += rng.choice(["", gap()]) + "# wire x.out y.in " + gap()
        (wires if parts[0] == "wire" else lines).append(spelled)
        if rng.random() < 0.2:
            lines.append(rng.choice(["", gap(), "# block z add", "#"]))
    for wire in wires:
        lines.insert(rng.randint(0, len(lines)), wire)
    return "\n".join(lines) + rng.choice(["", "\n"])


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))
def test_a_respelled_netlist_resolves_the_same(dag_seed, spell_seed):
    text = random_dag_netlist(random.Random(dag_seed))
    canonical = parse_netlist(text)
    respelled = parse_netlist(_respell(text, random.Random(spell_seed)))
    for name in ("slots", "plan", "params", "clock_of", "probes",
                 "probe_slots"):
        assert getattr(respelled, name) == getattr(canonical, name), name


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5))
def test_wire_violations_come_in_line_order(seed, count):
    # Bad wire lines at random positions in a valid netlist, named so
    # that their names sort the other way from their lines: validation
    # reads the wires by destination, but reports them by line.
    rng = random.Random(seed)
    lines = random_dag_netlist(rng).splitlines()
    numbers = sorted(map(str, rng.sample(range(100), count)), reverse=True)
    slots = sorted(rng.sample(range(len(lines) + count), count))
    for slot, number in zip(slots, numbers):
        lines.insert(slot, "wire ghost%s.out phantom%s.in" % (number, number))
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist("\n".join(lines) + "\n")
    assert err.value.violations == [
        "wire endpoint references unknown block %r" % name
        for number in numbers for name in ("ghost" + number,
                                           "phantom" + number)]
