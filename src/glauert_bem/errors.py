"""Exception types shared across the package, and the one rule of a count."""

import math

import numpy as np


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


def _count(name, value, least):
    """``value`` as an int, where it is a finite, integer-valued Python or numpy
    number not below ``least`` (a numpy integer or 3.0, say); else
    :class:`ValidationError` naming ``name``.  The one rule of every count:
    an iteration cap, a step cap, a grid size, a blade count, a sample count."""
    if (isinstance(value, (int, float, np.integer, np.floating))
            and least <= value < math.inf and int(value) == value):  # NaN fails
        return int(value)
    raise ValidationError(f"{name} must be an integer >= {least}")
