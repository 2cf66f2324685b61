"""Orthonormal polynomial bases consistent with a dependent input measure.

The basis is built in three steps: enumerate a reduced multi-index set
(at most ``S`` interacting coordinates, total degree at most ``m``),
compute the monomial moment matrix ``G = E[M(X) M(X)^T]`` exactly by
Gauss-Hermite quadrature in the Gaussian-copula space, and whiten: with
``G = W^{-1} W^{-T}`` (lower Cholesky), the vector ``Psi(x) = W M(x)`` is
orthonormal under the input measure.

Each entry of ``G`` is a mixed moment ``E[prod_k X_k^e_k]`` over at most
``2S`` coordinates.  They split into groups that are independent under
the model's correlation, and each group's moment is an expectation over
its latent ``z ~ N(0, C)``:

* lognormal factors tilt the Gaussian measure,
  ``E[p(z) e^{t.z}] = e^{t.C t/2} E[p(z + C t)]``, and leave the integrand;
* Gaussian factors leave a polynomial, which a tensor Gauss-Hermite grid
  in Cholesky-whitened coordinates integrates exactly;
* uniform factors ``a + (b - a) Phi(z)`` are not polynomial, so their node
  count doubles until successive estimates agree.

Tensor grids grow as ``nodes**dimension``.  When a moment's first grid
would exceed ``_MAX_GRID`` points (for instance five or more mutually
correlated uniform coordinates in one entry), :func:`build_basis` falls
back to the sampled quasi-Monte-Carlo estimate of :func:`moment_matrix`,
which runs in fixed blockwise memory, and says so with a ``RuntimeWarning``.

The number of basis functions is ``1 + sum_{s=1}^{S} C(N,s) C(m,s)``,
which collapses to ``C(N+m, m)`` when ``S = N``.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.linalg import lapack, solve_triangular

from .exceptions import MomentMatrixError, PositiveDefinitenessError
from .inputs import Gaussian, InputModel, Lognormal, _dependence_blocks, iter_sample_blocks

__all__ = [
    "MultiIndexSet",
    "OrthonormalBasis",
    "cardinality",
    "multi_index_set",
    "monomial_matrix",
    "moment_matrix",
    "whiten",
    "build_basis",
]

DEFAULT_QUADRATURE = 1_000_000
_QUADRATURE_BLOCK = 1 << 17

# Uniform coordinates are not polynomial in the latent Gaussian: their
# Gauss-Hermite node count starts at _UNIFORM_NODES and doubles until two
# successive estimates differ by at most _UNIFORM_TOL relative to
# E|integrand|; the finer one is kept.  hermegauss overflows beyond
# about 300 nodes.  No tensor grid has more than _MAX_GRID points: a
# moment whose first grid would be larger is not integrated at all.
_UNIFORM_NODES = 32
_UNIFORM_MAX_NODES = 256
_UNIFORM_TOL = 1e-10
_MAX_GRID = 1 << 20

ARTIFACT_FORMAT = "tailrisk-basis"
ARTIFACT_VERSION = 1


def cardinality(dimension: int, interaction_order: int, degree: int) -> int:
    """Number of multi-indices with at most S nonzero entries and degree <= m.

    Raises
    ------
    ValueError
        If ``N < 1``, ``S > N``, ``S < 0``, or ``m < S``.
    """
    n, s_max, m = dimension, interaction_order, degree
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not 0 <= s_max <= n:
        raise ValueError(f"interaction order must be in [0, {n}], got {s_max}")
    if m < s_max:
        raise ValueError(f"degree must be >= interaction order, got m={m} < S={s_max}")
    return 1 + sum(
        math.comb(dimension, s) * math.comb(degree, s)
        for s in range(1, interaction_order + 1)
    )


@dataclass(frozen=True)
class MultiIndexSet:
    """Ordered reduced multi-index set.

    ``indices`` is an ``(L, dimension)`` integer array in graded order
    (total degree first, descending-lexicographic within a grade), with the
    zero index first.  The graded order makes lower-degree sets prefixes of
    higher-degree ones, which triangular whitening preserves.
    """

    dimension: int
    interaction_order: int
    degree: int
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __len__(self):
        return self.indices.shape[0]


def multi_index_set(dimension: int, interaction_order: int, degree: int) -> MultiIndexSet:
    """Enumerate the reduced multi-index set for (N, S, m).

    Raises
    ------
    ValueError
        Where :func:`cardinality` does.
    """
    n, s_max, m = dimension, interaction_order, degree
    size = cardinality(n, s_max, m)

    indices = [(0,) * n]
    for s in range(1, s_max + 1):
        for support in itertools.combinations(range(n), s):
            for total in range(s, m + 1):
                for cuts in itertools.combinations(range(1, total), s - 1):
                    parts = [b - a for a, b in zip((0,) + cuts, cuts + (total,))]
                    j = [0] * n
                    for coord, exponent in zip(support, parts):
                        j[coord] = exponent
                    indices.append(tuple(j))
    indices.sort(key=lambda j: (sum(j), tuple(-e for e in j)))

    out = MultiIndexSet(n, s_max, m, np.array(indices, dtype=int))
    assert len(out) == size
    return out


def monomial_matrix(points, index_set: MultiIndexSet) -> np.ndarray:
    """Evaluate every monomial of the set at every point: ``(Q, L)`` array."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    idx = index_set.indices
    out = np.ones((pts.shape[0], idx.shape[0]))
    for k in range(index_set.dimension):
        degs = idx[:, k]
        max_deg = int(degs.max())
        if max_deg == 0:
            continue
        powers = pts[:, k, None] ** np.arange(max_deg + 1)
        out *= powers[:, degs]
    return out


def _scale_diagonal(index_set: MultiIndexSet, coordinate_scales) -> np.ndarray:
    """Diagonal ``D`` rescaling each monomial by ``prod_k s_k**-j_k``."""
    scales = np.asarray(coordinate_scales, dtype=float)
    if scales.shape != (index_set.dimension,):
        raise ValueError("need one scale per coordinate")
    if np.any(scales <= 0.0):
        raise ValueError("coordinate scales must be positive")
    return np.exp(-index_set.indices @ np.log(scales))


def moment_matrix(
    index_set: MultiIndexSet,
    model: InputModel,
    quadrature: int = DEFAULT_QUADRATURE,
) -> np.ndarray:
    """Estimate ``G = E[M(X) M(X)^T]`` from the first ``quadrature`` points
    of the (deterministic) Sobol stream.

    Accumulation is blockwise in a fixed order, so the result does not
    depend on memory limits or threading.  The returned matrix is exactly
    symmetric.

    Raises
    ------
    ValueError
        If ``quadrature`` is below the basis cardinality (the estimate
        could not have full rank).
    MomentMatrixError
        If the symmetrized estimate is numerically non-positive-definite
        even after conditioning scaling; increase ``quadrature`` or lower
        the degree.
    """
    size = len(index_set)
    if quadrature < size:
        raise ValueError(
            f"quadrature count {quadrature} is below the basis size {size}"
        )
    gram = np.zeros((size, size))
    for block in iter_sample_blocks(model, "sobol", quadrature, 0, _QUADRATURE_BLOCK):
        m = monomial_matrix(block, index_set)
        gram += m.T @ m
    gram /= quadrature
    gram = 0.5 * (gram + gram.T)

    scale = _scale_diagonal(index_set, model.marginal_stddevs)
    probe = gram * np.outer(scale, scale)
    _, info = lapack.dpotrf(probe, lower=1)
    if info != 0:
        raise MomentMatrixError(
            "moment matrix estimate is not positive definite; "
            "increase the quadrature count or reduce the polynomial degree"
        )
    return gram


@dataclass(frozen=True)
class OrthonormalBasis:
    """Whitening matrix plus its multi-index set.

    ``whitening`` is lower triangular with positive diagonal and satisfies
    ``W G W^T = I`` for the moment matrix it was built from; evaluating
    ``W M(x)`` yields the orthonormal polynomial vector, whose first entry
    is identically 1.
    """

    index_set: MultiIndexSet
    whitening: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        w = np.asarray(self.whitening, dtype=float)
        size = len(self.index_set)
        if w.shape != (size, size):
            raise ValueError("whitening matrix does not match the index set")
        w.setflags(write=False)
        object.__setattr__(self, "whitening", w)

    def __len__(self):
        return len(self.index_set)

    def evaluate(self, points) -> np.ndarray:
        """Orthonormal polynomial values at ``(Q, N)`` points: a ``(Q, L)`` array."""
        return monomial_matrix(points, self.index_set) @ self.whitening.T

    def to_dict(self) -> dict:
        return {
            "format": ARTIFACT_FORMAT,
            "version": ARTIFACT_VERSION,
            "dimension": self.index_set.dimension,
            "interaction_order": self.index_set.interaction_order,
            "degree": self.index_set.degree,
            "indices": self.index_set.indices.tolist(),
            "whitening": self.whitening.tolist(),
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "OrthonormalBasis":
        from .exceptions import ArtifactError

        if payload.get("format") != ARTIFACT_FORMAT:
            raise ArtifactError(f"not a basis artifact: {payload.get('format')!r}")
        if payload.get("version") != ARTIFACT_VERSION:
            raise ArtifactError(
                f"basis artifact version {payload.get('version')} is not supported "
                f"(expected {ARTIFACT_VERSION})"
            )
        try:
            index_set = MultiIndexSet(
                payload["dimension"],
                payload["interaction_order"],
                payload["degree"],
                np.array(payload["indices"], dtype=int),
            )
            if index_set.indices.ndim != 2 or index_set.indices.shape[1] != index_set.dimension:
                raise ValueError("indices need one column per input dimension")
            return cls(
                index_set=index_set,
                whitening=np.array(payload["whitening"], dtype=float),
                provenance=dict(payload.get("provenance", {})),
            )
        except KeyError as exc:
            raise ArtifactError(f"basis artifact has no {exc.args[0]!r} field") from exc
        except (TypeError, ValueError) as exc:
            raise ArtifactError(f"malformed basis artifact: {exc}") from exc


def _lower_cholesky(matrix: np.ndarray):
    """LAPACK Cholesky returning (factor, failing 1-based pivot or 0)."""
    factor, info = lapack.dpotrf(matrix, lower=1)
    if info != 0:
        return None, info
    return np.tril(factor), 0


def whiten(
    moment: np.ndarray,
    index_set: MultiIndexSet,
    coordinate_scales=None,
    provenance: dict | None = None,
) -> OrthonormalBasis:
    """Whitening transformation of a monomial moment matrix.

    With ``coordinate_scales`` given, the Cholesky factorization runs on
    the rescaled matrix ``D G D`` (``D`` from per-coordinate scales) and
    the scaling is folded back into the returned whitening matrix, so the
    basis is mathematically unchanged but the factorization is far better
    conditioned for wide inputs at high degree.

    Raises
    ------
    PositiveDefinitenessError
        If the (scaled) matrix fails Cholesky even after one retry with a
        relative diagonal jitter of ``1e-12 * trace / L``; the message
        names the failing pivot.
    """
    gram = np.asarray(moment, dtype=float)
    size = len(index_set)
    if gram.shape != (size, size):
        raise ValueError("moment matrix does not match the index set")

    if coordinate_scales is None:
        scale = np.ones(size)
    else:
        scale = _scale_diagonal(index_set, coordinate_scales)
    scaled = gram * np.outer(scale, scale)

    jittered = False
    factor, pivot = _lower_cholesky(scaled)
    if factor is None:
        jitter = 1e-12 * np.trace(scaled) / size
        factor, pivot = _lower_cholesky(scaled + jitter * np.eye(size))
        jittered = True
        if factor is None:
            raise PositiveDefinitenessError(
                f"moment matrix is not positive definite (pivot {pivot})"
            )

    inv_factor = solve_triangular(factor, np.eye(size), lower=True)
    whitening = inv_factor * scale[None, :]

    prov = dict(provenance or {})
    prov["jittered"] = jittered
    if coordinate_scales is not None:
        prov["coordinate_scales"] = [float(s) for s in np.asarray(coordinate_scales)]
    return OrthonormalBasis(index_set=index_set, whitening=whitening, provenance=prov)


class _GridTooLarge(Exception):
    """A moment's first Gauss-Hermite grid would exceed ``_MAX_GRID`` points."""


def _hermite_grid(nodes_per_axis) -> tuple:
    """Tensor Gauss-Hermite grid for a standard normal vector: (points, weights)."""
    rules = [hermegauss(n) for n in nodes_per_axis]
    points = np.stack(
        np.meshgrid(*(r[0] for r in rules), indexing="ij"), axis=-1
    ).reshape(-1, len(rules))
    weights = np.ones(1)
    for _, w in rules:
        weights = np.multiply.outer(weights, w / w.sum()).ravel()
    return points, weights


def _first_grid_points(marginals, exponents) -> int:
    """Points of the first tensor grid :func:`_group_moment` integrates on.

    Lognormal coordinates need no axis, each uniform axis starts at
    ``_UNIFORM_NODES`` nodes, and each Gaussian axis takes the node count
    that is exact for the group's Gaussian polynomial degree.
    """
    gaussian = [e for m, e in zip(marginals, exponents) if isinstance(m, Gaussian)]
    n_uniform = sum(not isinstance(m, (Gaussian, Lognormal)) for m in marginals)
    return _UNIFORM_NODES**n_uniform * (sum(gaussian) // 2 + 1) ** len(gaussian)


def _group_moment(marginals, corr: np.ndarray, exponents) -> float:
    """``E[prod_k X_k^e_k]`` for one group of dependent coordinates.

    ``corr`` is the latent correlation of the group; every exponent is
    positive.
    """
    exponents = np.asarray(exponents)
    lognormal = np.array([isinstance(m, Lognormal) for m in marginals])
    mu_log = np.array([m.mu_log if ln else 0.0 for m, ln in zip(marginals, lognormal)])
    tilt = exponents * [m.sigma_log if ln else 0.0 for m, ln in zip(marginals, lognormal)]
    log_scale = exponents @ mu_log + 0.5 * tilt @ corr @ tilt
    # The lognormal factors are absorbed by the tilt; what is left is an
    # expectation over the remaining coordinates, shifted by ``C t``.
    # Uniform coordinates go first so that only their whitened axes need
    # the fine grid.
    rest = sorted(
        np.flatnonzero(~lognormal), key=lambda k: isinstance(marginals[k], Gaussian)
    )
    if not rest:
        return math.exp(log_scale)
    shift = (corr @ tilt)[rest]
    chol = np.linalg.cholesky(corr[np.ix_(rest, rest)])
    rest_marginals = [marginals[k] for k in rest]
    rest_exponents = exponents[rest]
    n_uniform = sum(not isinstance(m, Gaussian) for m in rest_marginals)
    gaussian_nodes = int(rest_exponents[n_uniform:].sum()) // 2 + 1

    def integrate(uniform_nodes):
        points, weights = _hermite_grid(
            [uniform_nodes] * n_uniform + [gaussian_nodes] * (len(rest) - n_uniform)
        )
        z = points @ chol.T + shift
        values = np.ones(len(weights))
        for k, (m, e) in enumerate(zip(rest_marginals, rest_exponents)):
            values *= m.from_gauss(z[:, k]) ** e
        return weights @ values, weights @ np.abs(values)

    if n_uniform == 0:
        return math.exp(log_scale) * integrate(0)[0]
    nodes = _UNIFORM_NODES
    previous, _ = integrate(nodes)
    gaussian_points = gaussian_nodes ** (len(rest) - n_uniform)
    while (
        nodes < _UNIFORM_MAX_NODES
        and (2 * nodes) ** n_uniform * gaussian_points <= _MAX_GRID
    ):
        nodes *= 2
        current, magnitude = integrate(nodes)
        if abs(current - previous) <= _UNIFORM_TOL * magnitude:
            return math.exp(log_scale) * current
        previous = current
    warnings.warn(
        f"moment E[prod X^e] with exponents {exponents.tolist()} did not converge "
        f"by {nodes} Gauss-Hermite nodes per uniform axis; the basis is "
        "orthonormal only approximately",
        RuntimeWarning,
    )
    return math.exp(log_scale) * previous


def _exact_moment_matrix(index_set: MultiIndexSet, model: InputModel) -> np.ndarray:
    """Moment matrix ``G = E[M(X) M(X)^T]`` by Gauss-Hermite quadrature.

    Exact (to rounding) for Gaussian and lognormal marginals.  Moments
    with uniform factors are refined until successive estimates agree to
    a relative ``1e-10``; a ``RuntimeWarning`` says when the grid limit
    stops them short.  Moments shared by several entries are computed once.

    Raises
    ------
    _GridTooLarge
        Before anything is integrated, if some moment's first grid would
        have more than ``_MAX_GRID`` points.
    """
    idx = index_set.indices
    corr = model.correlation
    marginals = model.marginals
    size = len(index_set)

    # Split every entry into moments of independent groups first, so that
    # an oversized grid is found before any integration starts.
    groups = {}
    entries = []
    moments = {}
    for a in range(size):
        for b in range(a, size):
            exponents = idx[a] + idx[b]
            support = tuple(int(k) for k in np.flatnonzero(exponents))
            if support not in groups:
                blocks = _dependence_blocks(corr[np.ix_(support, support)])
                groups[support] = [[support[i] for i in block] for block in blocks]
            keys = [(tuple(g), tuple(int(e) for e in exponents[g])) for g in groups[support]]
            moments.update(dict.fromkeys(keys))
            entries.append(keys)

    for group, exponents in moments:
        points = _first_grid_points([marginals[k] for k in group], exponents)
        if points > _MAX_GRID:
            raise _GridTooLarge(
                f"the moment with exponents {dict(zip(group, exponents))} needs "
                f"{points} Gauss-Hermite points, more than {_MAX_GRID}"
            )
    for group, exponents in moments:
        moments[group, exponents] = _group_moment(
            [marginals[k] for k in group], corr[np.ix_(group, group)], exponents
        )

    gram = np.empty((size, size))
    keys = iter(entries)
    for a in range(size):
        for b in range(a, size):
            gram[a, b] = gram[b, a] = math.prod(moments[k] for k in next(keys))
    return gram


def build_basis(
    model: InputModel,
    interaction_order: int,
    degree: int,
    quadrature: int = DEFAULT_QUADRATURE,
) -> OrthonormalBasis:
    """Full pipeline: index set, moment matrix, whitening.

    The moment matrix comes from :func:`_exact_moment_matrix`, so the basis
    is orthonormal under the input measure itself, not under a sample of
    it; ``quadrature`` then does not change the basis.  When a moment
    would need a tensor grid above ``_MAX_GRID`` points, the matrix is
    instead estimated by :func:`moment_matrix` from ``quadrature`` Sobol
    points, with a ``RuntimeWarning``.  The Sobol stream is unscrambled,
    so the basis takes no seed: it is a function of the model, the orders
    and ``quadrature`` alone.  ``provenance`` records which
    (``"moments"``: ``"exact"`` or ``"sampled"``) together with
    ``quadrature``.
    Conditioning scaling uses the model's marginal standard deviations.

    Raises
    ------
    MomentMatrixError
        If the sampled fallback's estimate is not positive definite.
    """
    index_set = multi_index_set(model.dimension, interaction_order, degree)
    try:
        gram, moments = _exact_moment_matrix(index_set, model), "exact"
    except _GridTooLarge as exc:
        warnings.warn(
            f"{exc}; the moment matrix is estimated from {quadrature} Sobol "
            "points instead, so the basis is orthonormal only approximately",
            RuntimeWarning,
        )
        gram, moments = moment_matrix(index_set, model, quadrature), "sampled"
    return whiten(
        gram,
        index_set,
        coordinate_scales=model.marginal_stddevs,
        provenance={"moments": moments, "quadrature": int(quadrature)},
    )
