"""Exception types shared across the package."""


class RelsensError(Exception):
    """Base class for all package errors."""


class DomainError(RelsensError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class InvalidCorrelationError(RelsensError, ValueError):
    """Matrix is not a valid correlation matrix."""


class FitError(RelsensError, RuntimeError):
    """Moment fit did not converge; carries the residual when known."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NatafError(RelsensError, RuntimeError):
    """Copula correlation fitting produced an infeasible matrix."""


class LsfSyntaxError(RelsensError, ValueError):
    """Expression text could not be parsed; carries the character offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(RelsensError, ValueError):
    """Expression references a name not declared as an input."""


class EvalError(RelsensError, ValueError):
    """Limit-state evaluation failed (domain error, NaN, bad arity)."""


class NonFiniteGError(EvalError):
    """g is NaN or infinite at a sample row; carries the row and its inputs."""

    def __init__(self, row, inputs):
        super().__init__(f"non-finite g at sample {row}; inputs {inputs}")
        self.row = row
        self.inputs = inputs


class SingularPointError(RelsensError, RuntimeError):
    """Design-point search hit a zero gradient."""


class StagnationError(RelsensError, RuntimeError):
    """Subset simulation failed to progress between levels."""


class DegenerateSampleError(RelsensError, ValueError):
    """Sample has no spread; a density estimate is meaningless."""


class ConfigError(RelsensError, ValueError):
    """Run configuration is invalid."""
