"""Exception types shared across the package."""


class BemError(Exception):
    """Base class for all errors raised by this package."""


class PolarFormatError(BemError):
    """Polar data stream could not be parsed."""


class ValidationError(BemError):
    """Input data violates a documented invariant."""


class DomainError(BemError):
    """Evaluation requested outside the valid domain of a model function."""


class TipSingularityError(DomainError):
    """Tip loss factor vanishes (element sitting exactly at the tip)."""


class NoPositiveLiftError(BemError):
    """No angle of attack with positive lift in the search window."""


class BracketError(BemError):
    """A root bracket could not be established (same-sign endpoints)."""


class HypothesisError(BemError):
    """A convergence hypothesis required by a solver does not hold."""


class AdjointError(BemError):
    """Adjoint system is singular or cannot be assembled."""


class DesignEvaluationError(BemError):
    """Power density undefined at the requested operating point."""


class ConfigError(BemError):
    """Run configuration file is missing, malformed, or inconsistent, or the
    output it names (``--out`` or ``output.path``) cannot be written."""
