"""The errors a netlist, a run or a trace CSV raises.

A bad argument to a library function raises ValueError instead.
"""


class TemporalError(Exception):
    """Base class of the netlist, run and trace CSV errors."""


class NetlistParseError(TemporalError):
    """Netlist text could not be tokenized; carries line/column."""

    def __init__(self, message, line, column=1):
        super().__init__("line %d:%d: %s" % (line, column, message))
        self.line = line
        self.column = column


class NetlistValidationError(TemporalError):
    """Structural problems in a parsed netlist; lists every violation."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class SimulationError(TemporalError):
    """A block raised during execution (bad operand set, etc.). One that
    `run` raises carries the run's `stats`, its warnings listed."""
