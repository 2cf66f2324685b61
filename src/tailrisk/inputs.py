"""Joint input models with dependence and their samplers.

An :class:`InputModel` couples per-coordinate marginal distributions
(Gaussian, uniform, lognormal) through a correlation matrix applied in an
underlying standard-Gaussian space: a draw is ``X_i = T_i(Z_i)`` where
``Z ~ N(0, C)`` and ``T_i`` maps a standard normal through the marginal's
inverse CDF.  For Gaussian marginals the entries of ``C`` are exactly the
correlations of ``X``; lognormal correlations are applied in log space,
which guarantees a valid joint law for any admissible target matrix.

Three sampling schemes are supported: plain Monte Carlo (``mc``), the Sobol
sequence (``sobol``, unscrambled, initial all-zeros point skipped), and
Latin hypercube sampling (``lhs``).  All samplers are deterministic given
``(scheme, size, seed)`` and return immutable, equally weighted
:class:`SampleSet` objects: each of ``L`` points carries probability ``1/L``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import ndtr, ndtri

from ._blas import matmul
from .exceptions import InvalidModelError

__all__ = [
    "Gaussian",
    "Uniform",
    "Lognormal",
    "InputModel",
    "SampleSet",
    "sample",
]

_SCHEMES = ("mc", "sobol", "lhs")


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
        if correlation is None:
            # Independent coordinates; skip the dense matrices entirely so
            # very high-dimensional models stay cheap.
            self._corr = None
            self._chol = None
            return

        corr = np.array(correlation, dtype=float)
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
        if self._corr is None:
            return np.eye(self.dimension)
        return self._corr

    @property
    def marginal_stddevs(self) -> np.ndarray:
        return np.array([m.stddev for m in self._marginals])

    def transform_gauss(self, z: np.ndarray) -> np.ndarray:
        """Map uncorrelated standard-normal draws to model space."""
        z = np.atleast_2d(np.asarray(z, dtype=float))
        colored = z if self._chol is None else matmul(z, self._chol.T)
        out = np.empty_like(colored)
        for i, m in enumerate(self._marginals):
            out[:, i] = m.from_gauss(colored[:, i])
        return out

    def __repr__(self):
        return f"InputModel(dimension={self.dimension})"


def _dependence_blocks(corr: np.ndarray):
    """Connected components of the nonzero off-diagonal graph."""
    n = corr.shape[0]
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and corr[i, j] != 0.0:
                    seen[j] = True
                    stack.append(j)
        blocks.append(tuple(sorted(comp)))
    return tuple(blocks)


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
    scheme : {"mc", "sobol", "lhs"}
        Plain Monte Carlo, the (unscrambled, zero-skipped) Sobol sequence,
        or Latin hypercube sampling.  Sobol and LHS uniforms are mapped
        through the inverse normal transform, colored by the correlation
        Cholesky factor, and pushed through the marginal transforms.  For
        ``mc`` and ``sobol``, a smaller ``size`` draws a prefix of a larger
        one.
    size : int
        Number of points, at least 1.
    seed : int
        Drives ``mc`` and ``lhs``; inert for the deterministic ``sobol``
        stream.
    """
    if size < 1:
        raise ValueError(f"sample size must be >= 1, got {size}")
    if scheme == "mc":
        z = np.random.default_rng(seed).standard_normal((size, model.dimension))
    elif scheme == "sobol":
        # Imported here: scipy.stats dominates the package import time, and
        # only the quasi-random schemes need it.
        from scipy.stats import qmc

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            engine = qmc.Sobol(d=model.dimension, scramble=False)
            # Skip the initial all-zeros point: it maps to -inf under ndtri.
            engine.fast_forward(1)
            z = ndtri(engine.random(size))
    elif scheme == "lhs":
        from scipy.stats import qmc

        z = ndtri(qmc.LatinHypercube(d=model.dimension, seed=seed).random(size))
    else:
        raise ValueError(f"unknown sampling scheme {scheme!r}; expected one of {_SCHEMES}")
    return SampleSet(model.transform_gauss(z))
