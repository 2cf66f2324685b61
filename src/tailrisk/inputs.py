"""Joint input models with dependence and their samplers.

An :class:`InputModel` couples per-coordinate marginal distributions
(Gaussian, uniform, lognormal) through a correlation matrix applied in an
underlying standard-Gaussian space: a draw is ``X_i = T_i(Z_i)`` where
``Z ~ N(0, C)`` and ``T_i`` maps a standard normal through the marginal's
inverse CDF.  For Gaussian marginals the entries of ``C`` are exactly the
correlations of ``X``; lognormal correlations are applied in log space,
which guarantees a valid joint law for any admissible target matrix.

Sampling is plain Monte Carlo (``mc``), the scheme every estimator here
draws its candidates with.  It is deterministic given ``(size, seed)`` and
returns an immutable, equally weighted :class:`SampleSet`: each of ``L``
points carries probability ``1/L``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .exceptions import InvalidModelError

__all__ = [
    "Gaussian",
    "Uniform",
    "Lognormal",
    "InputModel",
    "SampleSet",
    "sample",
]

SCHEMES = ("mc",)


def _check_finite(marginal):
    """Raise ``InvalidModelError`` naming the first non-finite parameter of ``marginal``."""
    for field in fields(marginal):
        value = getattr(marginal, field.name)
        if not math.isfinite(value):
            kind = type(marginal).__name__.lower()
            raise InvalidModelError(f"{kind} {field.name} must be finite, got {value}")


@dataclass(frozen=True)
class Gaussian:
    """Normal marginal with the given mean and standard deviation."""

    mean: float
    std: float

    def __post_init__(self):
        _check_finite(self)
        if not self.std > 0.0:
            raise InvalidModelError(f"gaussian std must be positive, got {self.std}")

    def from_gauss(self, z):
        return self.mean + self.std * z

    @property
    def stddev(self):
        return self.std


@dataclass(frozen=True)
class Uniform:
    """Uniform marginal on ``[lower, upper]``."""

    lower: float
    upper: float

    def __post_init__(self):
        _check_finite(self)
        if not self.lower < self.upper:
            raise InvalidModelError(
                f"uniform bounds must satisfy lower < upper, got [{self.lower}, {self.upper}]"
            )

    def from_gauss(self, z):
        from ._blas import ndtr  # loaded on first use: only uniform marginals need it

        return self.lower + (self.upper - self.lower) * ndtr(z)

    @property
    def stddev(self):
        return (self.upper - self.lower) / math.sqrt(12.0)


@dataclass(frozen=True)
class Lognormal:
    """Lognormal marginal given its mean and coefficient of variation in percent.

    The underlying normal parameters are moment-matched:
    ``sigma_log**2 = ln(1 + cov**2)`` and ``mu_log = ln(mean) - sigma_log**2 / 2``
    with ``cov = cov_percent / 100``.
    """

    mean: float
    cov_percent: float

    def __post_init__(self):
        _check_finite(self)
        if not self.mean > 0.0:
            raise InvalidModelError(f"lognormal mean must be positive, got {self.mean}")
        if not self.cov_percent > 0.0:
            raise InvalidModelError(
                f"lognormal cov_percent must be positive, got {self.cov_percent}"
            )

    @property
    def sigma_log(self):
        cov = self.cov_percent / 100.0
        return math.sqrt(math.log1p(cov * cov))

    @property
    def mu_log(self):
        return math.log(self.mean) - 0.5 * self.sigma_log**2

    def from_gauss(self, z):
        return np.exp(self.mu_log + self.sigma_log * z)

    @property
    def stddev(self):
        return self.mean * self.cov_percent / 100.0


class InputModel:
    """Joint law of an N-dimensional input vector.

    Parameters
    ----------
    marginals : sequence
        One marginal (:class:`Gaussian`, :class:`Uniform`,
        :class:`Lognormal`) per coordinate.
    correlation : (N, N) array_like, optional
        Correlation matrix of the underlying Gaussian vector.  Must be
        symmetric with unit diagonal and strictly positive definite;
        defaults to the identity (independent coordinates).

    Raises
    ------
    InvalidModelError
        If a marginal parameter is out of range or the correlation matrix
        fails symmetry, unit-diagonal, or Cholesky (positive-definiteness)
        checks.  Degenerate correlations (``|rho| = 1``) are rejected here.
    """

    def __init__(self, marginals, correlation=None):
        marginals = tuple(marginals)
        if not marginals:
            raise InvalidModelError("at least one marginal is required")
        for m in marginals:
            if not isinstance(m, (Gaussian, Uniform, Lognormal)):
                raise InvalidModelError(f"unsupported marginal type: {m!r}")
        n = len(marginals)

        self._marginals = marginals
        corr = np.eye(n) if correlation is None else np.array(correlation, dtype=float)
        if corr.shape != (n, n):
            raise InvalidModelError(
                f"correlation must be {n}x{n}, got shape {corr.shape}"
            )
        if not np.allclose(corr, corr.T, rtol=0.0, atol=1e-12):
            raise InvalidModelError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(corr), 1.0, rtol=0.0, atol=1e-12):
            raise InvalidModelError("correlation matrix must have a unit diagonal")
        corr = 0.5 * (corr + corr.T)
        try:
            chol = np.linalg.cholesky(corr)
        except np.linalg.LinAlgError as exc:
            raise InvalidModelError(
                "correlation matrix is not positive definite"
            ) from exc

        self._corr = corr
        self._chol = chol
        self._corr.setflags(write=False)
        self._chol.setflags(write=False)

    @property
    def dimension(self) -> int:
        return len(self._marginals)

    @property
    def marginals(self):
        return self._marginals

    @property
    def correlation(self) -> np.ndarray:
        return self._corr

    @property
    def marginal_stddevs(self) -> np.ndarray:
        return np.array([m.stddev for m in self._marginals])

    def transform_gauss(self, z: np.ndarray) -> np.ndarray:
        """Map uncorrelated standard-normal draws to model space."""
        z = np.atleast_2d(np.asarray(z, dtype=float))
        colored = z @ self._chol.T
        out = np.empty_like(colored)
        for i, m in enumerate(self._marginals):
            out[:, i] = m.from_gauss(colored[:, i])
        return out

    def __repr__(self):
        return f"InputModel(dimension={self.dimension})"


@dataclass(frozen=True)
class SampleSet:
    """Equally weighted realizations of an input vector.

    ``points`` is an ``(L, N)`` read-only array; each point carries
    probability ``1/L``, so the set is the empirical measure of its draws.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] < 1:
            raise ValueError("a sample set needs at least one point")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]


def sample(model: InputModel, scheme: str, size: int, seed: int) -> SampleSet:
    """Draw ``size`` equally weighted points from the joint law of ``model``.

    Parameters
    ----------
    model : InputModel
    scheme : {"mc"}
        Plain Monte Carlo: standard normals from ``seed``'s generator,
        colored by the correlation Cholesky factor and pushed through the
        marginal transforms.  A smaller ``size`` draws a prefix of a
        larger one.
    size : int
        Number of points, at least 1.
    seed : int
    """
    if size < 1:
        raise ValueError(f"sample size must be >= 1, got {size}")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown sampling scheme {scheme!r}; expected one of {SCHEMES}")
    z = np.random.default_rng(seed).standard_normal((size, model.dimension))
    return SampleSet(model.transform_gauss(z))
