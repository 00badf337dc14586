"""Exception types shared across the package.

Each class carries the CLI's exit code for it: 2 for a configuration or
parameter error, 3 for a data error (the default), 4 for a NumericalError.
"""


class PairtrajError(Exception):
    """Base class for errors raised by this package."""
    exit_code = 3


class InvalidInputError(PairtrajError, ValueError):
    """Arguments violate a documented precondition (bad k, mismatched grids, ...)."""
    exit_code = 2


class DataError(PairtrajError, ValueError):
    """Input files or records are malformed or unreadable."""


class ConfigError(PairtrajError, ValueError):
    """Configuration file or CLI flags are invalid."""
    exit_code = 2


class NumericalError(PairtrajError, ArithmeticError):
    """A solver failed or overflowed, or a numerical check did not hold."""
    exit_code = 4
