"""Orthonormal polynomial bases consistent with a dependent input measure.

The basis is built in three steps: enumerate a reduced multi-index set
(at most ``S`` interacting coordinates, total degree at most ``m``),
compute the monomial moment matrix ``G = E[M(X) M(X)^T]`` exactly by
Gauss-Hermite quadrature in the Gaussian-copula space, and whiten: with
``G = W^{-1} W^{-T}`` (lower Cholesky), the vector ``Psi(x) = W M(x)`` is
orthonormal under the input measure.

Each entry of ``G`` is a mixed moment ``E[prod_k X_k^e_k]`` over at most
``2S`` coordinates.  Coordinates in different dependence blocks are
independent, so ``G`` is the elementwise product of one table per block,
over pairs of the block's distinct exponent rows.  A table cell splits
into groups that are independent under the model's correlation, and each
group's moment is an expectation over its latent ``z ~ N(0, C)``:

* lognormal factors tilt the Gaussian measure,
  ``E[p(z) e^{t.z}] = e^{t.C t/2} E[p(z + C t)]``, and leave the integrand;
* Gaussian factors leave a polynomial, which a tensor Gauss-Hermite grid
  in Cholesky-whitened coordinates integrates exactly;
* uniform factors ``a + (b - a) Phi(z)`` are not polynomial, so their node
  count doubles until successive estimates agree.

Tensor grids grow as ``nodes**dimension``.  :func:`build_basis` refuses
with a ``ValueError``, before anything is integrated, a moment whose first
grid would exceed ``_MAX_GRID`` points: for instance five or more mutually correlated
uniform coordinates in one entry, which needs ``S >= 3``.

The number of basis functions is ``1 + sum_{s=1}^{S} C(N,s) C(m,s)``,
which collapses to ``C(N+m, m)`` when ``S = N``.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._blas import dpotrf, dtrmm, dtrtrs
from ._hermegauss import hermegauss
from .exceptions import ArtifactError, PositiveDefinitenessError
from .inputs import Gaussian, InputModel, Lognormal

__all__ = [
    "MultiIndexSet",
    "OrthonormalBasis",
    "cardinality",
    "multi_index_set",
    "monomial_matrix",
    "whiten",
    "build_basis",
]

# Uniform coordinates are not polynomial in the latent Gaussian: their
# Gauss-Hermite node count starts at _UNIFORM_NODES and doubles until two
# successive estimates differ by at most _UNIFORM_TOL relative to
# E|integrand|; the finer one is kept.  The rule is ``_hermegauss``, a port
# of numpy's ``hermegauss``, which overflows beyond about 300 nodes.  No
# tensor grid has more than _MAX_GRID points: a basis that needs a moment
# whose first grid would be larger is refused.
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
    """Evaluate every monomial of the set at every point: ``(Q, L)`` array.

    A monomial has at most ``S`` exponents that are not zero.  Its value is
    the product of those coordinates' powers, gathered from one table of
    every coordinate's powers and multiplied in increasing coordinate
    order; a monomial with fewer factors is padded with ``x**0``, an exact
    one.  So the result equals the product over all ``d`` coordinates in
    that order, which multiplies by exact ones in between.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    idx = index_set.indices
    width = int(idx.max(initial=0)) + 1
    # Column ``k * width + e`` holds ``x_k**e``.
    powers = (pts[:, :, None] ** np.arange(width)).reshape(len(pts), pts.shape[1] * width)
    # Each row's coordinates, those with a non-zero exponent first, each
    # group in increasing order.
    factors = max(int(np.count_nonzero(idx, axis=1).max(initial=0)), 1)
    coords = np.argsort(idx == 0, axis=1, kind="stable")[:, :factors]
    columns = coords * width + np.take_along_axis(idx, coords, axis=1)
    out = powers[:, columns[:, 0]]
    for factor in columns.T[1:]:
        out *= powers[:, factor]
    return out


def _scale_diagonal(index_set: MultiIndexSet, coordinate_scales) -> np.ndarray:
    """Diagonal ``D`` rescaling each monomial by ``prod_k s_k**-j_k``."""
    scales = np.asarray(coordinate_scales, dtype=float)
    if scales.shape != (index_set.dimension,):
        raise ValueError("need one scale per coordinate")
    if np.any(scales <= 0.0):
        raise ValueError("coordinate scales must be positive")
    return np.exp(-index_set.indices @ np.log(scales))


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
        """Orthonormal polynomial values at ``(Q, N)`` points: a ``(Q, L)`` array.

        ``M W^T`` is one right-side triangular product with one point per
        row, so a point's values do not depend on the other points; a
        general product rounded some rows by their position at a few
        hundred functions.  ``W.T``, upper triangular, is a Fortran-ordered
        view.  The result is C-ordered, as the products that read it round
        by its layout.
        """
        monomials = np.asfortranarray(monomial_matrix(points, self.index_set))
        return np.ascontiguousarray(
            dtrmm(1.0, self.whitening.T, monomials, side=1, lower=0, overwrite_b=1)
        )

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
        if not isinstance(payload, dict):
            raise ArtifactError("a basis artifact must be a JSON object")
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


def whiten(
    moment: np.ndarray,
    index_set: MultiIndexSet,
    coordinate_scales=None,
) -> OrthonormalBasis:
    """Whitening transformation of a monomial moment matrix.

    With ``coordinate_scales`` given, the Cholesky factorization runs on
    the rescaled matrix ``D G D`` (``D`` from per-coordinate scales) and
    the scaling is folded back into the returned whitening matrix, so the
    basis is mathematically unchanged but the factorization is far better
    conditioned for wide inputs at high degree.

    Raises
    ------
    ValueError
        If the (scaled) matrix holds a non-finite value.
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
    if not np.isfinite(scaled).all():
        raise ValueError("moment matrix holds a non-finite value")

    # dpotrf gives the failing 1-based pivot, or 0, and zeroes the upper triangle.
    factor, pivot = dpotrf(scaled)
    jittered = pivot != 0
    if jittered:
        jitter = 1e-12 * np.trace(scaled) / size
        factor, pivot = dpotrf(scaled + jitter * np.eye(size))
        if pivot:
            raise PositiveDefinitenessError(
                f"moment matrix is not positive definite (pivot {pivot})"
            )

    inv_factor = dtrtrs(factor, np.eye(size))
    whitening = inv_factor * scale[None, :]

    prov = {"jittered": jittered}
    if coordinate_scales is not None:
        prov["coordinate_scales"] = [float(s) for s in np.asarray(coordinate_scales)]
    return OrthonormalBasis(index_set=index_set, whitening=whitening, provenance=prov)


# Each node count's Gauss-Hermite rule, built once and shared, so never written to.
_hermite_rule = functools.cache(hermegauss)


def _hermite_grid(nodes_per_axis) -> tuple:
    """Tensor Gauss-Hermite grid for a standard normal vector: (points, weights)."""
    rules = [_hermite_rule(n) for n in nodes_per_axis]
    points = np.stack(
        np.meshgrid(*(r[0] for r in rules), indexing="ij"), axis=-1
    ).reshape(-1, len(rules))
    weights = np.ones(1)
    for _, w in rules:
        weights = np.multiply.outer(weights, w / w.sum()).ravel()
    return points, weights


def _grid_nodes(marginals, exponents, uniform_nodes: int) -> list:
    """Per-axis node counts of a tensor grid :func:`_group_moment`
    integrates on, uniform axes first; the grid's points are their product.

    Lognormal coordinates need no axis, each uniform axis has
    ``uniform_nodes`` nodes, and each Gaussian axis takes the node count
    that is exact for the group's Gaussian polynomial degree.
    """
    gaussian = [int(e) for m, e in zip(marginals, exponents) if isinstance(m, Gaussian)]
    n_uniform = sum(not isinstance(m, (Gaussian, Lognormal)) for m in marginals)
    return [uniform_nodes] * n_uniform + [sum(gaussian) // 2 + 1] * len(gaussian)


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

    def integrate(uniform_nodes):
        points, weights = _hermite_grid(_grid_nodes(rest_marginals, rest_exponents, uniform_nodes))
        z = points @ chol.T + shift
        values = np.ones(len(weights))
        for k, (m, e) in enumerate(zip(rest_marginals, rest_exponents)):
            values *= m.from_gauss(z[:, k]) ** e
        return weights @ values, weights @ np.abs(values)

    if n_uniform == 0:
        return math.exp(log_scale) * integrate(0)[0]
    nodes = _UNIFORM_NODES
    previous, _ = integrate(nodes)
    while (
        nodes < _UNIFORM_MAX_NODES
        and math.prod(_grid_nodes(rest_marginals, rest_exponents, 2 * nodes)) <= _MAX_GRID
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


def _dependence_blocks(corr: np.ndarray):
    """Connected components of the nonzero off-diagonal graph, searched by hand:
    scipy's ``connected_components`` takes 200 us per 4 x 4 call, this 2.4 us."""
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


def _exact_moment_matrix(index_set: MultiIndexSet, model: InputModel) -> np.ndarray:
    """Moment matrix ``G = E[M(X) M(X)^T]`` by Gauss-Hermite quadrature.

    ``G`` is the elementwise product of one table per dependence block,
    whose cell for two of the block's distinct exponent rows is the product
    of the moments of the independent groups their sum splits into.  Exact
    (to rounding) for Gaussian and lognormal marginals.  Moments with
    uniform factors are refined until successive estimates agree to a
    relative ``1e-10``; a ``RuntimeWarning`` says when the grid limit stops
    them short.  Moments shared by several cells are computed once.

    Raises
    ------
    ValueError
        Before anything is integrated, if some moment's first grid would
        have more than ``_MAX_GRID`` points; the message names the
        moment's exponents, the grid size and the cap.
    """
    corr, marginals = model.correlation, model.marginals
    # List every group moment before integrating any, so that an oversized
    # grid is found first.  Cells follow each table's upper triangle row by
    # row; moments go in the order that G's upper triangle first needs them.
    groups, moments, tables = {}, {}, []
    for block in _dependence_blocks(corr):
        position = {}
        block_rows = map(tuple, index_set.indices[:, block].tolist())
        inverse = [position.setdefault(row, len(position)) for row in block_rows]
        first = np.unique(inverse, return_index=True)[1].tolist()
        cells = []
        for (i, u), (j, v) in itertools.combinations_with_replacement(enumerate(position), 2):
            exponents = {k: a + b for k, a, b in zip(block, u, v) if a + b}
            support = tuple(exponents)
            if support not in groups:
                blocks = _dependence_blocks(corr[np.ix_(support, support)])
                groups[support] = [tuple(support[p] for p in g) for g in blocks]
            keys = [(g, tuple(exponents[k] for k in g)) for g in groups[support]]
            moments.update((k, (first[i], first[j], k[0][0])) for k in keys if k not in moments)
            cells.append(keys)
        tables.append((inverse, len(position), cells))

    order = sorted(moments, key=moments.get)
    for group, exponents in order:
        points = math.prod(_grid_nodes([marginals[k] for k in group], exponents, _UNIFORM_NODES))
        if points > _MAX_GRID:
            raise ValueError(
                f"the moment with exponents {dict(zip(group, exponents))} needs "
                f"{points} Gauss-Hermite points, more than the cap of {_MAX_GRID}"
            )
    for group, exponents in order:
        moments[group, exponents] = _group_moment(
            [marginals[k] for k in group], corr[np.ix_(group, group)], exponents
        )

    gram = np.ones((len(index_set),) * 2)
    for inverse, distinct, cells in tables:
        upper, table = np.triu_indices(distinct), np.empty((distinct, distinct))
        table[upper] = table[upper[::-1]] = [math.prod(map(moments.get, keys)) for keys in cells]
        gram *= table[np.ix_(inverse, inverse)]
    return gram


def build_basis(model: InputModel, interaction_order: int, degree: int) -> OrthonormalBasis:
    """Full pipeline: index set, moment matrix, whitening.

    The moment matrix comes from :func:`_exact_moment_matrix`, so the basis
    is orthonormal under the input measure itself, not under a sample of
    it, and it is a function of the model and the orders alone.
    Conditioning scaling uses the model's marginal standard deviations.

    Raises
    ------
    ValueError
        If a moment would need a tensor grid above ``_MAX_GRID`` points
        (see :func:`_exact_moment_matrix`).
    """
    index_set = multi_index_set(model.dimension, interaction_order, degree)
    return whiten(
        _exact_moment_matrix(index_set, model),
        index_set,
        coordinate_scales=model.marginal_stddevs,
    )
