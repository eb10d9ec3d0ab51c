"""Netlist parsing and validation."""

import pytest

from temporalsim import parse_netlist
from temporalsim.errors import NetlistParseError, NetlistValidationError

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
    assert net.blocks["a"].params["value"] == "3"
    assert len(net.wires) == 2
    assert net.probes == [("s", "out")]
    assert net.clocks["main"].frequency == 1


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


def test_parse_error_carries_position():
    with pytest.raises(NetlistParseError) as err:
        parse_netlist("clock main 1\nclock bad zero/0\n")
    assert err.value.line == 2


@pytest.mark.parametrize("text, message", [
    ("block c source value=1\nblock c source value=2\n",
     "line 2:7: duplicate block id 'c'"),
    ("clock k 1\nclock k 2\n", "line 2:7: duplicate clock id 'k'"),
    ("block mux mux\nblock x probe\nwire mux.out x.in latency=x\n",
     "line 3:27: expected integer, got 'x'"),
], ids=["block-id", "clock-id", "latency-value"])
def test_parse_error_column_is_the_tokens_own(text, message):
    # each column points at the offending token, not at the first place
    # its text appears earlier in the line
    with pytest.raises(NetlistParseError) as err:
        parse_netlist(text)
    assert str(err.value) == message


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


def test_unwired_required_input():
    with pytest.raises(NetlistValidationError) as err:
        parse_netlist("clock main 1\n"
                      "block a source value=1 clock=main\n"
                      "block s add\n"
                      "wire a.out s.a\n")
    assert "'b' is not wired" in str(err.value)


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
    assert "delays must be non-negative" in str(err.value)


def test_malformed_table_line_names_the_table(tmp_path):
    table = tmp_path / "bad.tbl"
    table.write_text("default 0\nbad\n")
    with pytest.raises(NetlistParseError) as err:
        parse_netlist("clock main 1\nwire a.out b.in table=%s\n" % table)
    assert (err.value.line, err.value.column) == (2, 17)
    assert str(err.value) == ("line 2:17: latency table %s: line 2: needs "
                              "two fields" % table)


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
    assert net.wires[0].link.delay(0) == 2
    # Without a base directory the path is read from the working one.
    with pytest.raises(NetlistParseError, match="late.tbl: No such file"):
        parse_netlist(text)


def test_absolute_table_path_ignores_the_base_dir(tmp_path):
    table = tmp_path / "late.tbl"
    table.write_text("default 2\n")
    net = parse_netlist(
        ADD_NET.replace("wire a.out s.a", "wire a.out s.a table=%s" % table),
        base_dir=str(tmp_path / "elsewhere"))
    assert net.wires[0].link.delay(0) == 2


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
