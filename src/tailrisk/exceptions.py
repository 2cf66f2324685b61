"""Exception types raised across the package.

Plain ``ValueError`` is used for ordinary argument mistakes (bad counts,
out-of-range levels, a malformed dataset, basis orders whose moments
would need a Gauss-Hermite grid above the cap), and scipy's is passed on
where scipy already checks (a Sobol dimension above 21201).  The classes below
mark failures a caller may want to handle specifically: invalid stochastic
models, numerical breakdowns, and external-model protocol errors.
"""

__all__ = [
    "TailriskError",
    "InvalidModelError",
    "PositiveDefinitenessError",
    "DegenerateTrainingError",
    "ConditioningError",
    "OptimizationError",
    "InsufficientMassError",
    "DatasetLookupError",
    "EvaluationError",
    "ArtifactError",
]


class TailriskError(Exception):
    """Base class for package-specific errors."""


class InvalidModelError(TailriskError, ValueError):
    """An input model violates a construction invariant."""


class PositiveDefinitenessError(TailriskError):
    """A matrix required to be positive definite is not; the message
    names the failing Cholesky pivot when it is known."""


class DegenerateTrainingError(TailriskError, ValueError):
    """Training data cannot support an interpolating fit (duplicate points)."""


class ConditioningError(TailriskError):
    """A least-squares system is too ill-conditioned to solve reliably."""


class OptimizationError(TailriskError):
    """Hyperparameter search failed on every start."""


class InsufficientMassError(TailriskError):
    """A weighted sample carries less mass than the requested tail level."""


class DatasetLookupError(TailriskError, KeyError):
    """A dataset-backed model has no row for the queried input."""


class EvaluationError(TailriskError):
    """An external model evaluation failed (bad output, crash, timeout)."""


class ArtifactError(TailriskError, ValueError):
    """A serialized artifact is unreadable or has an incompatible version."""
