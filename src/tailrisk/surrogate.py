"""Chaos-Kriging surrogates: polynomial trend plus stationary GP interpolant.

A surrogate combines an orthonormal polynomial trend with a zero-mean,
unit-variance stationary Gaussian process scaled by a process variance.
With ``A`` the basis matrix at the training inputs, ``R = L L^T`` the
kernel correlation matrix, ``W = L^-1 A`` and ``z = L^-1 b``, the
generalized least-squares fit is ordinary least squares on the whitened
system, solved by one thin SVD ``W = U S V^T``:

    c_hat   = V S^-1 U^T z
    sigma^2 = ||z - W c_hat||^2 / L'

The predictor at a new point ``x``, with ``v = L^-1 r(x)``, is

    mean(x) = c_hat . Psi(x) + r(x)^T R^-1 (b - A c_hat)
    var(x)  = sigma^2 (1 - v^T v + ||S^-1 V^T u||^2),
    u       = W^T v - Psi(x)

which interpolates the training data exactly.  In ``"chaos"`` mode the GP
term is dropped (``R = I``, so ``W = A`` and ``z = b``): the same fit gives
ordinary least squares, and predictions carry zero variance.

Kernel length scales minimize the closed-form leave-one-out residual sum
(Dubrule 1983) by a bounded trust-region-reflective least-squares search
with an analytic Jacobian, explored loosely from several starts and
polished from the best (:func:`optimize_theta`).  Length scales whose
``R`` is numerically singular (the conditioning wall) score a penalty.
Each Jacobian column costs one triangular product (:func:`_loo_jacobian`),
and the search's only inverse, of ``L``, is by recursive blocking
(:func:`_invert_lower`).  Each search evaluation allocates no n x n matrix
besides ``R`` (overwritten by ``L`` for the Gaussian kernel), ``L^-1``,
``G = R^-1`` and one scratch buffer per Jacobian, reused by every column
(two for the exponential kernel).

The system is built in one place, the :class:`FittedSurrogate`
constructor, which factors ``R`` once at the chosen length scales.
Loading an artifact runs the same constructor on the stored training data
and refuses the artifact when its stored coefficients, process variance
or training digest disagree with the rebuilt ones.  Both modes share one
fit path and one rank rule; ``R`` enters it only through its Cholesky
factor and triangular solves.  The factorization of ``R`` and the LOO
search's ``R^-1 b`` call LAPACK's ``dpotrf`` and ``dpotrs`` directly:
``R`` is symmetric, so its Fortran-ordered view ``R.T`` reaches LAPACK
without a transposing copy, and the training data are checked for
non-finite values once, up front, instead of on every call.  Correlations
below the smallest normal double are stored as zero, because subnormal
entries make the products several times slower.  Prediction runs in
blocks of 1024 rows, which bounds its temporaries to a few megabytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular, svd
from scipy.linalg.blas import dgemm, dsymv, dtrmm, dtrmv
from scipy.linalg.lapack import dlauum, dpotrf, dpotrs, dtrtri
from scipy.optimize import least_squares
from scipy.spatial.distance import cdist, pdist, squareform

from ._blas import matmul
from .basis import OrthonormalBasis
from .exceptions import (
    ArtifactError,
    ConditioningError,
    DegenerateTrainingError,
    OptimizationError,
)

__all__ = [
    "KernelSpec",
    "FittedSurrogate",
    "correlation_matrix",
    "cross_correlation",
    "loo_cv_objective",
    "optimize_theta",
    "fit",
]

# Distance whose negated exponential is each kernel's correlation.
_METRICS = {"gaussian": "sqeuclidean", "exponential": "cityblock"}
KERNEL_KINDS = tuple(_METRICS)
MODES = ("chaos", "chaos_kriging")

SURROGATE_FORMAT = "tailrisk-surrogate"
SURROGATE_VERSION = 1

_RELATIVE_NUGGET = 1e-10
_PENALTY = 1e25
_PREDICT_BLOCK = 1024
# Tolerances of the explore runs of the LOO search; ``gtol`` keeps scipy's
# default.  The rest of a run's work crawls toward the default ``ftol =
# xtol = 1e-8``, which only the polish run pays.  Looser stops (1e-3) can
# end a run partway down a curved valley: on one training set of about
# 250 tried, that start was the only one leading to the best basin, and
# the search returned an objective 30% higher.
_EXPLORE_TOLERANCES = {"ftol": 1e-5, "xtol": 3e-4}
# Triangular blocks of at most this many rows are inverted by ``dtrtri``;
# larger ones are split in two (:func:`_invert_lower`).
_TRTRI_LEAF = 128


@dataclass(frozen=True)
class KernelSpec:
    """Stationary autocorrelation family with per-coordinate length scales."""

    kind: str
    theta: np.ndarray

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"kernel kind must be one of {KERNEL_KINDS}, got {self.kind!r}")
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if np.any(theta <= 0.0) or not np.all(np.isfinite(theta)):
            raise ValueError("kernel length scales must be positive and finite")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)


# The longest distance whose correlation ``exp(-d)`` is a normal double.
_FLUSH_DISTANCE = 708.3964185322641


def _correlation_from_distance(dist):
    """``exp(-dist)`` in place, with results below the smallest normal double
    stored as zero.

    Subnormal correlations make every later product several times slower.
    numpy's ``exp(-d)`` is a normal double exactly when ``d <=
    _FLUSH_DISTANCE``, so the longer distances become ``inf`` before the
    ``exp``, which turns them into zero in the same pass.
    """
    np.putmask(dist, dist > _FLUSH_DISTANCE, np.inf)
    np.negative(dist, out=dist)
    np.exp(dist, out=dist)
    return dist


def _scaled(points, kernel):
    return np.atleast_2d(np.asarray(points, dtype=float)) / kernel.theta


def cross_correlation(points_a, points_b, kernel: KernelSpec) -> np.ndarray:
    """Kernel matrix between two point sets, shape ``(len(a), len(b))``.

    Gaussian: ``exp(-sum (dx_i/theta_i)^2)``; exponential:
    ``exp(-sum |dx_i|/theta_i)``.  Every entry is in ``[0, 1]``, and none
    is subnormal.
    """
    dist = cdist(_scaled(points_a, kernel), _scaled(points_b, kernel), _METRICS[kernel.kind])
    return _correlation_from_distance(dist)


def correlation_matrix(points, kernel: KernelSpec) -> np.ndarray:
    """Symmetric unit-diagonal correlation matrix of a point set.

    Equal bit for bit to ``cross_correlation(points, points, kernel)``,
    from one ``exp`` per pair instead of two.
    """
    dist = pdist(_scaled(points, kernel), _METRICS[kernel.kind])
    corr = squareform(_correlation_from_distance(dist))
    np.fill_diagonal(corr, 1.0)
    return corr


# Correlation matrices beyond this condition proxy make both the LOO
# criterion and the interpolation identity roundoff-dominated; the search
# and the fit treat them like singular matrices.
_MIN_DIAG_RATIO_SQ = 1e-10


def _cholesky(matrix, overwrite=False):
    """Lower Cholesky factor of a symmetric matrix, or None when the matrix
    is numerically singular.

    The factor's upper triangle is zero, which the inverse, ``dlauum`` and
    the column sums of ``L^-1`` in the LOO search rely on.  A factorization
    that succeeds with a pivot below the conditioning cut-off counts as
    failed.  ``matrix.T`` is the same matrix in Fortran order, so LAPACK
    reads it without a transposing copy, and with ``overwrite`` writes the
    factor over it.
    """
    chol, info = dpotrf(matrix.T, lower=1, clean=1, overwrite_a=overwrite)
    if info > 0:
        return None
    diag = np.diag(chol)
    if not (diag.min() / diag.max()) ** 2 >= _MIN_DIAG_RATIO_SQ:  # also NaN
        return None
    return chol


def _invert_lower(block):
    """Invert a lower-triangular matrix in place; returns it.

    Recursive 2x2 blocking: with ``L = [[A, 0], [B, C]]``, ``L^-1 =
    [[A^-1, 0], [-C^-1 B A^-1, C^-1]]``.  The off-diagonal block costs two
    triangular products (``dtrmm``), which OpenBLAS runs about twice as
    fast per flop as ``dtrtri``; blocks of at most ``_TRTRI_LEAF`` rows go
    to ``dtrtri``.  The upper triangle is not touched.  LAPACK takes only
    contiguous arrays, so a sub-block view is copied in and written back;
    a Fortran-ordered ``block`` of at most ``_TRTRI_LEAF`` rows is
    inverted where it is.
    """
    rows = block.shape[0]
    if rows <= _TRTRI_LEAF:
        block[...] = dtrtri(block, lower=1, overwrite_c=1)[0]
        return block
    half = rows // 2
    head = _invert_lower(block[:half, :half])
    tail = _invert_lower(block[half:, half:])
    right = dtrmm(1.0, head, block[half:, :half], side=1, lower=1)
    block[half:, :half] = dtrmm(-1.0, tail, right, lower=1, overwrite_b=1)
    return block


def _loo_state(theta, inputs, outputs, kind):
    """Factorization behind the LOO residuals, or None when R(theta) is singular.

    Returns ``(M, L^-1, R^-1 b, diag(R^-1))`` with ``R = L L^T``; the
    diagonal of ``R^-1 = L^-T L^-1`` is the column sums of squares of
    ``L^-1``.  ``M`` is what the kernel's Jacobian multiplies by: ``L``
    for the Gaussian kernel, written over ``R``, and ``R`` for the
    exponential kernel.
    """
    corr = correlation_matrix(inputs, KernelSpec(kind, theta))
    # Search on the un-nuggeted matrix only: residuals of a regularized
    # stand-in undersell how badly these length scales interpolate.
    gaussian = kind == "gaussian"
    chol = _cholesky(corr, overwrite=gaussian)
    if chol is None:
        return None
    rinv_b = dpotrs(chol, outputs, lower=1)[0]
    # Only the Gaussian kernel keeps L, so only there L^-1 needs a copy.
    chol_inv = _invert_lower(np.array(chol, order="F") if gaussian else chol)
    rinv_diag = np.einsum("ij,ij->j", chol_inv, chol_inv)
    if (
        np.any(rinv_diag <= 0.0)
        or not np.isfinite(rinv_b).all()
        or not np.isfinite(rinv_diag).all()
    ):
        return None
    return chol if gaussian else corr, chol_inv, rinv_b, rinv_diag


def _loo_residuals(state):
    """Leave-one-out residual vector of a ``_loo_state``, or None when R is singular.

    The residual of sample ``l`` under a zero-trend refit without it is
    ``(R^-1 b)_l / (R^-1)_ll``; the LOO criterion is the sum of squares.
    """
    return None if state is None else state[2] / state[3]


def _loo_jacobian(theta, inputs, state, kind):
    """Jacobian of the LOO residuals in log-length-scale coordinates.

    With ``alpha = R^-1 b``, ``c = diag(R^-1)``, ``G = R^-1`` and
    ``P_k = dR/dlog(theta_k)``: ``dalpha = -G P_k alpha`` and
    ``dc = -diag(G P_k G)`` (Dubrule 1983), so the residual ``alpha / c``
    moves by ``dalpha / c - alpha dc / c^2``.  ``G R = I`` brings each
    column down to one triangular product (``dtrmm``, n^3 flops), where
    ``G P_k G`` takes a general one (2 n^3).  With ``s = (x_k - mean) /
    theta_k`` and ``S = diag(s)``:

    - Gaussian: ``P_k = 2 (S^2 R + R S^2 - 2 S R S)``, so ``diag(G P_k G)
      = 4 (s^2 c - q)`` with ``q_i = ||col_i(L^T S G)||^2``, and ``G P_k
      alpha = 2 (G (s^2 R alpha) + s^2 alpha - 2 G (s R (s alpha)))``.
    - Exponential: ``P_k = S Q - Q S`` with ``Q = R o sign(x_j - x_l)``.
      In the order that sorts ``x_k``, ``Q = Rl - Rl^T`` for the strictly
      lower part ``Rl`` of ``R`` (tied values do not matter: ``s_j - s_l``
      is zero there), and ``G R = I`` gives ``G Q = 2 G (I + Rl) - G -
      I``, so ``diag(G P_k G)_i = 2 G_ii s_i + 2 sum_j G_ij^2 s_j - 4
      sum_j G_ij s_j V_ij`` with ``V = G (I + Rl)`` in that order.
    """
    factor, chol_inv, alpha, c = state
    n = len(alpha)
    # Products go through scipy's BLAS and LAPACK, not numpy's matmul (see
    # ``_blas``).  A symmetric C-ordered matrix reaches BLAS
    # as its Fortran-ordered transpose, without a copy.  ``dlauum`` forms
    # the lower triangle of ``L^-T L^-1`` at about a third of a general
    # product's cost; the upper triangle of ``L^-1`` is zero, so adding the
    # transpose and halving the diagonal completes ``G``.  The array
    # ``dlauum`` returned is then the scratch buffer of every column.
    scratch = dlauum(chol_inv, lower=1)[0].T
    gram = np.add(scratch, scratch.T, out=np.empty((n, n)))
    gram.flat[:: n + 1] *= 0.5
    scaled = (inputs - inputs.mean(axis=0)) / theta
    if kind == "gaussian":
        r_alpha = dtrmv(factor, dtrmv(factor, alpha, lower=1, trans=1), lower=1)
    else:
        # sum_i s_i G_ij^2 for every coordinate at once, before ``spare``
        # takes the reordered R.
        spare = np.multiply(gram, gram, out=np.empty((n, n)))
        g2_scaled = dgemm(1.0, spare.T, scaled)
    jac = np.empty((n, len(theta)))
    for k in range(len(theta)):
        s = scaled[:, k]
        if kind == "gaussian":
            # ``scratch`` becomes S G, whose Fortran-ordered view is G S;
            # G S L = (L^T S G)^T, so the C-ordered columns are those of L^T S G.
            np.multiply(s[:, None], gram, out=scratch)
            dtrmm(1.0, factor, scratch.T, side=1, lower=1, overwrite_b=1)
            gpg_diag = 4.0 * (s * s * c - np.einsum("ij,ij->j", scratch, scratch))
            rs_alpha = dtrmv(factor, dtrmv(factor, s * alpha, lower=1, trans=1), lower=1)
            p_alpha = s * (s * r_alpha - 2.0 * rs_alpha)
            gp_alpha = 2.0 * (dsymv(1.0, gram.T, p_alpha) + s * s * alpha)
        else:
            order = np.argsort(inputs[:, k], kind="stable")
            # R in that order; only its strictly lower part is read.
            np.take(factor, order, axis=0, out=scratch, mode="clip")
            r_ranked = np.take(scratch, order, axis=1, out=spare, mode="clip").T
            # Q [alpha, s alpha] in that order, from (I + Rl) and its transpose.
            s_ranked = s[order]
            both = np.column_stack([alpha[order], s_ranked * alpha[order]])
            q_both = dtrmm(1.0, r_ranked, both, lower=1, diag=1)
            q_both -= dtrmm(1.0, r_ranked, both, lower=1, trans_a=1, diag=1)
            p_alpha = np.empty(n)
            p_alpha[order] = s_ranked * q_both[:, 0] - q_both[:, 1]
            gp_alpha = dsymv(1.0, gram.T, p_alpha)
            # G's rows in that order are, in Fortran order, its columns in
            # that order: W = G P^T.  Then V = W (I + Rl), whose transpose
            # in C order goes back to the original row order over R's buffer.
            np.take(gram, order, axis=0, out=scratch, mode="clip")
            dtrmm(1.0, r_ranked, scratch.T, side=1, lower=1, diag=1, overwrite_b=1)
            np.take(scratch, np.argsort(order), axis=0, out=spare, mode="clip")
            gpg_diag = 2.0 * (
                np.diag(gram) * s + g2_scaled[:, k] - 2.0 * np.einsum("ij,ij,i->j", spare, gram, s)
            )
        jac[:, k] = alpha * gpg_diag / c**2 - gp_alpha / c
    return jac


def _penalty_residuals(outputs):
    """Residual vector scored where R is numerically singular.

    Every entry is ``sqrt(_PENALTY (1 + b^T b) / n)``, so its sum of squares
    is a large finite penalty and the plateau it spans is flat.
    """
    n = len(outputs)
    return np.full(n, np.sqrt(_PENALTY * (1.0 + float(matmul(outputs, outputs))) / max(n, 1)))


def loo_cv_objective(theta, inputs, outputs, kind="gaussian") -> float:
    """Leave-one-out cross-validation criterion ``b^T R^-1 diag(R^-1)^-2 R^-1 b``.

    A numerically singular correlation matrix scores the sum of squares of
    the penalty residuals, so that a search routine retreats rather than
    aborts.
    """
    outputs = np.asarray(outputs, dtype=float)
    res = _loo_residuals(_loo_state(np.asarray(theta, dtype=float), inputs, outputs, kind))
    if res is None:
        res = _penalty_residuals(outputs)
    return float(matmul(res, res))


def default_theta_bounds(inputs) -> np.ndarray:
    """Per-coordinate search box ``[1e-2 * span, 10 * span]`` from the data."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    span = inputs.max(axis=0) - inputs.min(axis=0)
    span = np.where(span > 0.0, span, 1.0)
    return np.column_stack([1e-2 * span, 10.0 * span])


def optimize_theta(inputs, outputs, kind="gaussian", seed=0):
    """Minimize the LOO-CV criterion over length scales.

    Runs a bounded trust-region-reflective least-squares search on the LOO
    residual vector in log-scale coordinates, over the box of
    :func:`default_theta_bounds`, with the analytic Jacobian of
    :func:`_loo_jacobian`, in two phases.  *Explore* runs the solver
    loosely (``_EXPLORE_TOLERANCES``) from five start points, in this
    order: the best rung of a deterministic isotropic probe ladder, a
    short-scale anchor a tenth of the way up the box in log scale, the box
    center, and two log-uniform draws from ``seed``.  *Polish* runs it
    once more, at scipy's default tolerances, from the best explore
    endpoint.  The search keeps the last and the best factorization, and
    the best one's Jacobian, so no theta is factorized twice in a row, and
    the starts of the first explore run and of the polish are neither
    factorized nor differentiated again.

    Length scales whose correlation matrix is numerically singular score
    the penalty of :func:`loo_cv_objective`.  The ladder climbs from short
    to long scales and stops at its first singular rung after a
    factorizable one.  The polish ends at its first singular evaluation:
    past that wall the objective is flat, and crawling along it gains at
    most a few parts in 1e4.  Every later residual request of that run
    gets the penalty without a factorization, so the solver's step shrinks
    until its own ``xtol`` test stops it.  The best point evaluated is
    returned, which is the best rung or endpoint: the solver only accepts
    steps that lower the objective, so each run ends at the best point it
    evaluated.  When no length scale factorizes, it is the first rung.

    Returns
    -------
    theta : ndarray
        Best length scales found.
    info : dict
        The objective value; one record per solver run, with its phase
        (``"explore"`` or ``"polish"``), start, endpoint, objective,
        ``nfev``, ``njev``, status and whether it ended at the wall; the
        number of correlation matrices factorized and how many of them
        were singular; and whether no solver run converged
        (``fallback``).

    Raises
    ------
    OptimizationError
        Before any length scale is tried, if the squares of the outputs overflow.
    Exception
        Whatever a solver run raises, uncaught: no start is skipped.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    outputs = np.asarray(outputs, dtype=float)
    bounds = default_theta_bounds(inputs)
    log_lo, log_hi = np.log(bounds[:, 0]), np.log(bounds[:, 1])
    # Deterministic isotropic ladder across the box: cheap probes that keep
    # narrow minima from being missed and seed the solver in their basin.
    rungs = [log_lo + q * (log_hi - log_lo) for q in np.linspace(0.02, 0.98, 16)]
    penalty = _penalty_residuals(outputs)

    # The last state serves the Jacobian asked for right after the residuals
    # at the same theta.  The best one, with its Jacobian and log theta,
    # starts each run and is the result; until a length scale factorizes, it
    # is the first rung with the penalty.  Reused values equal recomputed ones.
    last = {"key": None, "state": None}
    best = {"objective": float(matmul(penalty, penalty)), "log_theta": rungs[0]}
    best.update(key=None, state=None, jacobian=None)
    # The best objective only ever falls, so one finite here stays finite.
    if not np.isfinite(best["objective"]):
        raise OptimizationError(
            "the squares of the training outputs overflow, so no LOO objective "
            "is finite; rescale them"
        )
    counts = {"factorizations": 0, "singular_factorizations": 0}
    # Whether the current solver run ends at the wall, and whether it has.
    wall = {"stop": False, "reached": False}

    def state_at(theta):
        key = theta.tobytes()
        if key == best["key"]:
            return best["state"]
        if key != last["key"]:
            # Dropped first, so that the new state can reuse its memory.
            # Freed only afterwards, it left memory at the top of the heap
            # that the allocator gave back to the system; in about one
            # process in four, each trial then faulted in some 1300 more
            # pages.
            last.update(key=None, state=None)
            state = _loo_state(theta, inputs, outputs, kind)
            counts["factorizations"] += 1
            counts["singular_factorizations"] += state is None
            last.update(key=key, state=state)
        return last["state"]

    def residuals_at(log_theta):
        theta = np.exp(log_theta)
        res = _loo_residuals(state_at(theta))
        if res is not None and (obj := float(matmul(res, res))) < best["objective"]:
            best.update(
                objective=obj, log_theta=np.array(log_theta), key=theta.tobytes(),
                state=last["state"], jacobian=None,
            )
        return res

    def residual_fn(log_theta):
        res = None if wall["reached"] else residuals_at(log_theta)
        if res is None:
            wall["reached"] = wall["stop"]
            return penalty
        return res

    def jacobian_fn(log_theta, *_):
        theta = np.exp(log_theta)
        key = theta.tobytes()
        if key == best["key"] and best["jacobian"] is not None:
            return best["jacobian"]
        state = state_at(theta)
        if state is None:  # the penalty plateau is flat
            return np.zeros((len(outputs), len(theta)))
        jac = _loo_jacobian(theta, inputs, state, kind)
        if key == best["key"]:
            best["jacobian"] = jac
        return jac

    rng = np.random.default_rng(seed)
    runs = []

    def solve(start, phase, tolerances):
        """One solver run, recorded in ``runs``; a polish run ends at the wall."""
        wall.update(stop=phase == "polish", reached=False)
        result = least_squares(
            residual_fn, start, jac=jacobian_fn,
            bounds=(log_lo, log_hi), method="trf", **tolerances,
        )
        runs.append(
            {
                "phase": phase,
                "start": np.exp(start).tolist(),
                "theta": np.exp(result.x).tolist(),
                "objective": float(matmul(result.fun, result.fun)),
                "nfev": int(result.nfev),
                "njev": int(result.njev),
                "status": int(result.status),
                "wall": wall["reached"],
            }
        )

    # The rungs lengthen every scale, which brings R closer to singular, so
    # the first singular rung after a factorizable one ends the ladder.
    factorizable = False
    for log_theta in rungs:
        if residuals_at(log_theta) is not None:
            factorizable = True
        elif factorizable:
            break

    # The short-scale anchor keeps one start where R is always factorizable
    # (near-diagonal), so smooth-kernel searches never begin on a penalty
    # plateau; the box center and seeded draws cover the rest.  The best
    # rung goes first, while it is still the best state kept.
    starts = [best["log_theta"], log_lo + 0.1 * (log_hi - log_lo), 0.5 * (log_lo + log_hi)]
    for _ in range(2):
        starts.append(log_lo + rng.uniform(size=log_lo.shape) * (log_hi - log_lo))
    for start in starts:
        solve(start, "explore", _EXPLORE_TOLERANCES)
    # Explore runs from different starts often share a basin; only the
    # best endpoint pays for the solver's slow final convergence.
    solve(best["log_theta"], "polish", {})
    solver_ok = any(run["status"] > 0 for run in runs)
    info = {"objective": best["objective"], "fallback": not solver_ok, "runs": runs}
    return np.exp(best["log_theta"]), {**info, **counts}


def _training_data(training_inputs, training_outputs, basis, mode):
    """Training arrays as floats; ``ValueError`` when they do not suit ``basis``."""
    x = np.atleast_2d(np.asarray(training_inputs, dtype=float))
    b = np.asarray(training_outputs, dtype=float)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if x.ndim != 2 or x.shape[1] != basis.index_set.dimension:
        raise ValueError("training inputs do not match the basis dimension")
    if b.shape != (x.shape[0],):
        raise ValueError("training outputs must be one value per input row")
    if x.shape[0] < len(basis):
        raise ValueError(
            "training size must be at least the number of basis functions "
            f"(need >= {len(basis)}, got {x.shape[0]})"
        )
    # Checked once here: the factorizations skip the per-call check.
    for name, arr in (("inputs", x), ("outputs", b)):
        if not np.isfinite(arr).all():
            raise ValueError(f"training {name} hold a non-finite value")
    return x, b


class FittedSurrogate:
    """Trained surrogate; immutable and safe to share across threads.

    The constructor builds the whole predictor from the training data;
    :func:`fit` and :meth:`from_dict` both go through it.  ``mode`` follows
    from the kernel: ``"chaos"`` (the trend alone) when it is ``None``.
    """

    def __init__(
        self,
        basis: OrthonormalBasis,
        kernel,
        training_inputs,
        training_outputs,
        provenance=None,
    ):
        self.basis = basis
        self.kernel = kernel
        self.mode = "chaos" if kernel is None else "chaos_kriging"
        self.training_inputs = np.array(training_inputs, dtype=float)
        self.training_outputs = np.array(training_outputs, dtype=float)
        self.provenance = dict(provenance or {})
        self._build()
        for arr in (self.training_inputs, self.training_outputs, self.coefficients):
            arr.setflags(write=False)

    def _build(self):
        """Trend, process variance and prediction caches from one whitened system.

        Least squares on ``W = L^-1 A`` and ``z = L^-1 b`` (``A`` and ``b``
        in ``"chaos"`` mode) by one thin SVD ``W = U S V^T``, and
        ``R^-1 (b - A c) = L^-T (z - W c)``.  ``W`` is rank deficient, by
        ``np.linalg.lstsq``'s default rule, when ``S_min <= eps max(n, p) S_max``.
        ``provenance["nugget"]`` records whether R needed the nugget.
        """
        whitened = self.basis.evaluate(self.training_inputs)
        z = self.training_outputs
        n = len(z)
        if self.mode == "chaos_kriging":
            corr = correlation_matrix(self.training_inputs, self.kernel)
            chol = _cholesky(corr)
            self.provenance["nugget"] = chol is None
            if chol is None:
                chol = _cholesky(corr + _RELATIVE_NUGGET * np.eye(n))
            if chol is None:
                raise ConditioningError(
                    "correlation matrix is numerically singular even with a nugget; "
                    "shrink the length scales or space the training points out"
                )
            whitened = solve_triangular(chol, whitened, lower=True)
            z = solve_triangular(chol, z, lower=True)
        u, s, vt = svd(whitened, full_matrices=False, check_finite=False)
        if not s[-1] > np.finfo(float).eps * max(whitened.shape) * s[0]:  # also NaN
            raise ConditioningError(
                "generalized least-squares system is rank deficient; "
                "use more samples or a smaller basis"
            )
        self.coefficients = matmul(vt.T, matmul(u.T, z) / s)
        residual = z - matmul(whitened, self.coefficients)
        self.process_variance = float(matmul(residual, residual)) / n
        if self.mode == "chaos_kriging":
            self._chol, self._whitened_basis, self._trend_map = chol, whitened, vt / s[:, None]
            self._rinv_residual = solve_triangular(chol, residual, lower=True, trans="T")

    def _predict(self, points, with_variance):
        """Means, and raw unclamped variances when ``with_variance``.

        With ``v = L^-1 r``, the variance needs one triangular solve per
        block: ``r^T R^-1 r = v^T v`` and ``u = W^T v - Psi``, whose trend
        term ``u^T (W^T W)^-1 u`` is ``||S^-1 V^T u||^2``.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        psi = self.basis.evaluate(pts)
        means = matmul(psi, self.coefficients)
        if self.mode == "chaos":
            return means, np.zeros(len(pts)) if with_variance else None

        variances = np.empty(len(pts)) if with_variance else None
        for lo in range(0, len(pts), _PREDICT_BLOCK):
            hi = min(lo + _PREDICT_BLOCK, len(pts))
            r = cross_correlation(pts[lo:hi], self.training_inputs, self.kernel)
            means[lo:hi] += matmul(r, self._rinv_residual)
            if not with_variance:
                continue
            # ``r.T`` is Fortran-ordered and no longer needed: solve in place.
            v = solve_triangular(self._chol, r.T, lower=True, overwrite_b=True, check_finite=False)
            q_interp = np.einsum("ij,ij->j", v, v)
            trend = matmul(self._trend_map, matmul(self._whitened_basis.T, v) - psi[lo:hi].T)
            q_trend = np.einsum("ij,ij->j", trend, trend)
            variances[lo:hi] = self.process_variance * (1.0 - q_interp + q_trend)
        return means, variances

    def predict_mean(self, points):
        """Predictor mean at many points, without the variance."""
        return self._predict(points, with_variance=False)[0]

    def predict_batch(self, points):
        """Predictor mean and variance at many points.

        Returns ``(means, variances)`` arrays.  Negative variances from
        roundoff are clamped to zero.
        """
        means, variances = self._predict(points, with_variance=True)
        return means, np.maximum(variances, 0.0)

    def training_digest(self) -> str:
        payload = self.training_inputs.tobytes() + self.training_outputs.tobytes()
        return hashlib.sha256(payload).hexdigest()

    def to_dict(self) -> dict:
        return {
            "format": SURROGATE_FORMAT,
            "version": SURROGATE_VERSION,
            "basis": self.basis.to_dict(),
            "kernel_kind": None if self.kernel is None else self.kernel.kind,
            "theta": None if self.kernel is None else self.kernel.theta.tolist(),
            "mode": self.mode,
            "training_inputs": self.training_inputs.tolist(),
            "training_outputs": self.training_outputs.tolist(),
            "coefficients": self.coefficients.tolist(),
            "process_variance": self.process_variance,
            "provenance": self.provenance,
            "training_digest": self.training_digest(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FittedSurrogate":
        """Rebuild a surrogate from its training data; ``ArtifactError`` when
        the payload is malformed or its stored fit disagrees with the rebuild."""
        if payload.get("format") != SURROGATE_FORMAT:
            raise ArtifactError(f"not a surrogate artifact: {payload.get('format')!r}")
        if payload.get("version") != SURROGATE_VERSION:
            raise ArtifactError(
                f"surrogate artifact version {payload.get('version')} is not supported "
                f"(expected {SURROGATE_VERSION})"
            )
        try:
            basis = OrthonormalBasis.from_dict(payload["basis"])
            mode = payload["mode"]
            x, b = _training_data(
                payload["training_inputs"], payload["training_outputs"], basis, mode
            )
            kernel = None
            if mode == "chaos_kriging":
                kernel = KernelSpec(payload["kernel_kind"], payload["theta"])
                if kernel.theta.shape != (x.shape[1],):
                    raise ValueError("theta needs one length scale per input")
            surrogate = cls(basis, kernel, x, b, payload.get("provenance", {}))
            if payload["training_digest"] != surrogate.training_digest():
                raise ArtifactError("stored training digest does not match the training data")
            for key in ("coefficients", "process_variance"):
                stored = np.asarray(payload[key], dtype=float)
                rebuilt = np.asarray(getattr(surrogate, key))
                scale = np.max(np.abs(rebuilt), initial=0.0)
                if stored.shape != rebuilt.shape or not np.all(
                    np.abs(stored - rebuilt) <= 1e-8 * scale
                ):
                    raise ArtifactError(
                        f"stored {key} disagree with the rebuilt fit beyond 1e-8 relative "
                        "(edited, or fit under another BLAS build or thread count)"
                    )
        except KeyError as exc:
            raise ArtifactError(f"surrogate artifact has no {exc.args[0]!r} field") from exc
        except ArtifactError:
            raise
        except (TypeError, ValueError) as exc:
            raise ArtifactError(f"malformed surrogate artifact: {exc}") from exc
        return surrogate

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "FittedSurrogate":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def fit(
    training_inputs,
    training_outputs,
    basis: OrthonormalBasis,
    kernel_kind="gaussian",
    mode="chaos_kriging",
    seed=0,
) -> FittedSurrogate:
    """Fit a surrogate to input-output training data.

    Parameters
    ----------
    training_inputs : (L', N) array_like
        Must be pairwise distinct in ``chaos_kriging`` mode and provide at
        least as many rows as the basis has functions.
    training_outputs : (L',) array_like
    basis : OrthonormalBasis
    kernel_kind : {"gaussian", "exponential"}
    mode : {"chaos_kriging", "chaos"}
        ``chaos`` drops the GP term: ordinary least squares on the basis,
        zero predictive variance.
    seed : int
        Passed to :func:`optimize_theta`, which sets the length scales.

    Raises
    ------
    ValueError
        Too few training points for the basis.
    DegenerateTrainingError
        Duplicate training inputs in interpolating mode.
    ConditioningError
        The generalized least-squares system is rank deficient; use more
        samples or a smaller basis.
    """
    x, b = _training_data(training_inputs, training_outputs, basis, mode)
    provenance = {"kernel_kind": kernel_kind, "mode": mode, "seed": int(seed)}
    kernel = None
    if mode == "chaos_kriging":
        if len(np.unique(x, axis=0)) != x.shape[0]:
            raise DegenerateTrainingError(
                "duplicate training inputs cannot be interpolated; deduplicate the design"
            )
        theta, opt_info = optimize_theta(x, b, kind=kernel_kind, seed=seed)
        kernel = KernelSpec(kernel_kind, theta)
        provenance.update(
            loo_objective=opt_info["objective"],
            theta_fallback=opt_info["fallback"],
            loo_factorizations=opt_info["factorizations"],
            loo_singular_factorizations=opt_info["singular_factorizations"],
            theta=kernel.theta.tolist(),
        )
    return FittedSurrogate(basis, kernel, x, b, provenance)
