"""Exception types shared across the package."""


class LtvLabError(Exception):
    """Base class for all package errors; ``exit_code`` is the command
    line's exit status for one (3: a numerical failure)."""

    exit_code = 3


class InvalidInputError(LtvLabError, ValueError):
    """Non-finite, zero, or otherwise malformed numerical input."""


class SingularMatrixError(LtvLabError, ValueError):
    """Matrix is singular to working tolerance.

    Carries the offending smallest singular value when available.
    """

    def __init__(self, message, smallest_singular_value=None, index=None):
        super().__init__(message)
        self.smallest_singular_value = smallest_singular_value
        self.index = index


class NotLyapunovSequenceError(LtvLabError, ValueError):
    """A coefficient matrix in the scanned horizon is singular."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class InadmissiblePerturbationError(LtvLabError, ValueError):
    """The perturbed coefficient matrix fails to stay nonsingular."""


class PropagationError(LtvLabError, RuntimeError):
    """Trajectory propagation broke down (zero vector or overflow)."""


class UnderflowError(PropagationError):
    """A nonzero value fell below the normal floating-point range, where it
    keeps too few significant digits to be used."""


class ParseError(LtvLabError, ValueError):
    """Syntax or semantic error in a generator spec, expression or config."""

    exit_code = 2  # a config error

    def __init__(self, message, line=None, column=None):
        self.reason = message  # without the position
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class BudgetError(LtvLabError, ValueError):
    """A requested exponent shift exceeds the synthesis budget delta."""

    exit_code = 4  # a precondition violation

    def __init__(self, message, index=None, delta=None):
        super().__init__(message)
        self.index = index
        self.delta = delta


class BracketError(LtvLabError, RuntimeError):
    """Bisection bracket failure, i.e. the measured estimators are
    inconsistent with the theoretical sandwich."""


class PreconditionError(LtvLabError, ValueError):
    """An experiment precondition does not hold for the given inputs."""

    exit_code = 4  # a precondition violation
