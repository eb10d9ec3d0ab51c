"""Exception types shared across the library."""


class TemporalError(Exception):
    """Base class for all library errors."""


class MalformedCode(TemporalError):
    """A pulse train does not form a valid single interval code."""


class InvalidBase(TemporalError):
    """Positional base must be >= 2."""


class DigitOverflow(TemporalError):
    """A hybrid digit is >= the positional base."""


class ClockMismatch(TemporalError):
    """Operands live on different time references; convert first."""


class EmptyInput(TemporalError):
    """An operation that needs at least one lane got none."""


class DuplicateValue(TemporalError):
    """Multiplexing requires duplicate-free value sets."""


class ZeroValue(TemporalError):
    """Zero cannot share a channel with the start marker."""


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
    """A block raised during execution (bad operand set, etc.)."""
