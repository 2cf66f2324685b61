"""Chaos-Kriging surrogates: polynomial trend plus stationary GP interpolant.

A surrogate combines an orthonormal polynomial trend with a zero-mean,
unit-variance stationary Gaussian process scaled by a process variance.
Fitting solves the generalized least-squares system

    c_hat   = (A^T R^-1 A)^-1 A^T R^-1 b
    sigma^2 = (b - A c_hat)^T R^-1 (b - A c_hat) / L'

where ``A`` is the basis matrix at the training inputs and ``R`` the
kernel correlation matrix.  The predictor at a new point ``x`` is

    mean(x) = c_hat . Psi(x) + r(x)^T R^-1 (b - A c_hat)
    var(x)  = sigma^2 (1 - r^T R^-1 r + u^T (A^T R^-1 A)^-1 u),
    u       = A^T R^-1 r(x) - Psi(x)

which interpolates the training data exactly.  Kernel length scales are
chosen by minimizing the closed-form leave-one-out residual sum with a
bounded trust-region-reflective least-squares search that uses the
analytic gradient ``dR^-1 = -R^-1 dR R^-1`` (Dubrule 1983).  The search
runs in two phases: it explores with a loose tolerance from several
starts, for robustness, and then polishes only the best explore endpoint
at full tolerance, so starts that share a basin do not each pay for the
solver's slow final convergence.  In ``"chaos"`` mode the GP term is
dropped (``R = I``): the coefficients reduce to ordinary least squares
and predictions carry zero variance.

All solves go through Cholesky factorizations and triangular solves.
Only the LOO search inverts a matrix, the triangular factor ``L``, whose
inverse gives both ``diag(R^-1)`` and the gradient.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, cholesky, solve_triangular
from scipy.linalg.blas import dgemm, dgemv
from scipy.linalg.lapack import dlauum, dtrtri
from scipy.optimize import least_squares
from scipy.spatial.distance import cdist

from .basis import OrthonormalBasis
from .exceptions import (
    ArtifactError,
    ConditioningError,
    DegenerateTrainingError,
    OptimizationError,
)

__all__ = [
    "KernelSpec",
    "Prediction",
    "FittedSurrogate",
    "correlation_matrix",
    "cross_correlation",
    "loo_cv_objective",
    "optimize_theta",
    "fit",
]

KERNEL_KINDS = ("gaussian", "exponential")
MODES = ("chaos", "chaos_kriging")

SURROGATE_FORMAT = "tailrisk-surrogate"
SURROGATE_VERSION = 1

_RELATIVE_NUGGET = 1e-10
_PENALTY = 1e25
_PREDICT_BLOCK = 8192
# Tolerances of the explore runs of the LOO search; ``gtol`` keeps scipy's
# default.  The rest of a run's work crawls toward the default ``ftol =
# xtol = 1e-8``, which only the polish run pays.  Looser stops (1e-3) can
# end a run partway down a curved valley: on one training set of about
# 250 tried, that start was the only one leading to the best basin, and
# the search returned an objective 30% higher.
_EXPLORE_TOLERANCES = {"ftol": 1e-5, "xtol": 3e-4}


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


def cross_correlation(points_a, points_b, kernel: KernelSpec) -> np.ndarray:
    """Kernel matrix between two point sets, shape ``(len(a), len(b))``.

    Gaussian: ``exp(-sum (dx_i/theta_i)^2)``; exponential:
    ``exp(-sum |dx_i|/theta_i)``.  Every entry is in ``[0, 1]``.
    """
    a = np.atleast_2d(np.asarray(points_a, dtype=float)) / kernel.theta
    b = np.atleast_2d(np.asarray(points_b, dtype=float)) / kernel.theta
    metric = "sqeuclidean" if kernel.kind == "gaussian" else "cityblock"
    return np.exp(-cdist(a, b, metric=metric))


def correlation_matrix(points, kernel: KernelSpec) -> np.ndarray:
    """Symmetric unit-diagonal correlation matrix of a point set."""
    return cross_correlation(points, points, kernel)


# Correlation matrices beyond this condition proxy make both the LOO
# criterion and the interpolation identity roundoff-dominated; the search
# and the fit treat them like singular matrices.
_MIN_DIAG_RATIO_SQ = 1e-10


def _factor_correlation(corr):
    """Cholesky of R with the nugget-on-failure policy.

    The nugget is tried when the plain factorization fails or leaves a
    pivot below the conditioning cut-off.  Returns ``(factor,
    nugget_used)`` or ``None`` when the matrix is numerically singular
    even with the nugget.
    """
    n = len(corr)
    for boost in (0.0, _RELATIVE_NUGGET):
        try:
            factor = cho_factor(
                corr + boost * np.eye(n) if boost else corr, lower=True
            )
        except LinAlgError:
            continue
        diag = np.diag(factor[0])
        if (diag.min() / diag.max()) ** 2 >= _MIN_DIAG_RATIO_SQ:
            return factor, bool(boost)
    return None


def _loo_state(theta, inputs, outputs, kind):
    """Factorization behind the LOO residuals, or None when R(theta) is singular.

    Returns ``(R, L^-1, R^-1 b, diag(R^-1))`` with ``R = L L^T``; the
    diagonal of ``R^-1 = L^-T L^-1`` is the column sums of squares of
    ``L^-1``.
    """
    corr = correlation_matrix(inputs, KernelSpec(kind, theta))
    # Search on the un-nuggeted matrix only: residuals of a regularized
    # stand-in undersell how badly these length scales interpolate.
    try:
        chol = cholesky(corr, lower=True)
    except LinAlgError:
        return None
    diag = np.diag(chol)
    if (diag.min() / diag.max()) ** 2 < _MIN_DIAG_RATIO_SQ:
        return None
    chol_inv = dtrtri(chol, lower=1)[0]
    rinv_b = cho_solve((chol, True), outputs)
    rinv_diag = np.einsum("ij,ij->j", chol_inv, chol_inv)
    if (
        np.any(rinv_diag <= 0.0)
        or not np.isfinite(rinv_b).all()
        or not np.isfinite(rinv_diag).all()
    ):
        return None
    return corr, chol_inv, rinv_b, rinv_diag


def _loo_residuals(theta, inputs, outputs, kind):
    """Leave-one-out residual vector, or None when R(theta) is singular.

    The residual of sample ``l`` under a zero-trend refit without it is
    ``(R^-1 b)_l / (R^-1)_ll``; the LOO criterion is the sum of squares.
    """
    state = _loo_state(theta, inputs, outputs, kind)
    return None if state is None else state[2] / state[3]


def _loo_jacobian(theta, inputs, state, kind):
    """Jacobian of the LOO residuals in log-length-scale coordinates.

    With ``alpha = R^-1 b``, ``c = diag(R^-1)``, ``G = R^-1`` and
    ``P_k = dR/dlog(theta_k)``: ``dalpha = -G P_k alpha`` and
    ``dc = -diag(G P_k G)`` (Dubrule 1983), so the residual ``alpha / c``
    moves by ``dalpha / c - alpha dc / c^2``.
    """
    corr, chol_inv, alpha, c = state
    # Products go through scipy's BLAS and LAPACK, not numpy's matmul: the
    # two can be separate OpenBLAS builds, and at two BLAS threads
    # alternating their thread pools with the factorizations made each
    # call several times slower.  ``dlauum`` forms the lower triangle of
    # ``L^-T L^-1`` at about a third of a general product's cost; the upper
    # triangle of ``L^-1`` is zero, so adding the transposed strict lower
    # triangle completes the symmetric matrix.
    gram = dlauum(chol_inv, lower=1)[0]
    gram += np.tril(gram, -1).T
    jac = np.empty((len(alpha), len(theta)))
    for k, scale in enumerate(theta):
        dx = (inputs[:, k, None] - inputs[None, :, k]) / scale
        # Gaussian: R = exp(-sum (dx/theta)^2); exponential: exp(-sum |dx|/theta).
        dcorr = corr * (2.0 * dx * dx if kind == "gaussian" else np.abs(dx))
        g_dcorr = dgemm(1.0, gram, dcorr)
        d_alpha = -dgemv(1.0, g_dcorr, alpha)
        d_c = -np.einsum("ij,ij->i", g_dcorr, gram)
        jac[:, k] = d_alpha / c - alpha * d_c / c**2
    return jac


def loo_cv_objective(theta, inputs, outputs, kind="gaussian") -> float:
    """Leave-one-out cross-validation criterion ``b^T R^-1 diag(R^-1)^-2 R^-1 b``.

    A numerically singular correlation matrix yields a large finite
    penalty so that a search routine retreats rather than aborts.
    """
    outputs = np.asarray(outputs, dtype=float)
    residuals = _loo_residuals(np.asarray(theta, dtype=float), inputs, outputs, kind)
    return _loo_objective(residuals, outputs)


def _loo_objective(residuals, outputs) -> float:
    """Sum of squared LOO residuals, or the penalty when R was singular."""
    if residuals is None:
        return _PENALTY * (1.0 + float(outputs @ outputs))
    return float(residuals @ residuals)


def default_theta_bounds(inputs) -> np.ndarray:
    """Per-coordinate search box ``[1e-2 * span, 10 * span]`` from the data."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    span = inputs.max(axis=0) - inputs.min(axis=0)
    span = np.where(span > 0.0, span, 1.0)
    return np.column_stack([1e-2 * span, 10.0 * span])


def optimize_theta(
    inputs,
    outputs,
    kind="gaussian",
    bounds=None,
    restarts=5,
    seed=0,
    full_output=False,
):
    """Minimize the LOO-CV criterion over length scales.

    Runs a bounded trust-region-reflective least-squares search on the LOO
    residual vector in log-scale coordinates, with the analytic Jacobian
    of :func:`_loo_jacobian`, in two phases.  *Explore* runs the solver
    loosely (``_EXPLORE_TOLERANCES``) from each of ``restarts`` start
    points: a short-scale anchor, the best rung of a deterministic
    isotropic probe ladder, the box center, then seeded log-uniform
    draws.  *Polish* runs it once more, at scipy's default tolerances,
    from the explore endpoint with the lowest objective.

    The best candidate ever evaluated (probe, start or endpoint) is
    returned, so the returned objective never exceeds the best explore
    endpoint's.  For a fixed seed, the starts of a smaller ``restarts``
    lead those of a larger one and their explore runs are identical, so
    more restarts never worsen the best explore endpoint.  The polish run
    may end elsewhere, so the returned objective itself is not monotone
    in ``restarts``.

    Returns
    -------
    theta : ndarray
        Best length scales found.  With ``full_output=True``, also a dict
        with the objective value; one record per solver run, with its
        phase (``"explore"`` or ``"polish"``), start, endpoint, objective,
        ``nfev``, ``njev`` and status; the number of correlation matrices
        factorized; and whether the result fell back to a raw start point
        because every solver run failed.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    outputs = np.asarray(outputs, dtype=float)
    if restarts < 1:
        raise ValueError("need at least one start")
    if bounds is None:
        bounds = default_theta_bounds(inputs)
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    if bounds.shape != (inputs.shape[1], 2):
        raise ValueError("bounds must be an (N, 2) array of positive limits")
    if np.any(bounds <= 0.0) or not np.all(np.isfinite(bounds)):
        raise ValueError("theta bounds must be finite and positive")
    log_lo, log_hi = np.log(bounds[:, 0]), np.log(bounds[:, 1])

    penalty_scale = np.sqrt(
        _PENALTY * (1.0 + float(outputs @ outputs)) / max(len(outputs), 1)
    )

    # The solver re-evaluates its start and its final point, and the
    # probe-best start repeats a ladder rung: evaluate each theta's
    # residuals once.  The Jacobian follows the residuals at the same
    # theta, so the last factorization is kept for it.
    memo = {}
    last = [None, None]
    factorizations = [0]

    def state_at(theta):
        key = theta.tobytes()
        if last[0] != key:
            factorizations[0] += 1
            last[:] = [key, _loo_state(theta, inputs, outputs, kind)]
        return last[1]

    def residuals(theta):
        key = theta.tobytes()
        if key not in memo:
            state = state_at(theta)
            memo[key] = None if state is None else state[2] / state[3]
        res = memo[key]
        return None if res is None else res.copy()

    def objective(theta):
        return _loo_objective(residuals(theta), outputs)

    def residual_fn(log_theta):
        res = residuals(np.exp(log_theta))
        if res is None:
            return np.full(len(outputs), penalty_scale)
        return res

    def jacobian_fn(log_theta, *_):
        theta = np.exp(log_theta)
        state = state_at(theta)
        if state is None:  # the penalty plateau is flat
            return np.zeros((len(outputs), len(theta)))
        return _loo_jacobian(theta, inputs, state, kind)

    rng = np.random.default_rng(seed)

    candidates = []
    runs = []

    def solve(start, phase, tolerances):
        """One solver run; returns ``(objective, log endpoint)`` or None."""
        try:
            result = least_squares(
                residual_fn, start, jac=jacobian_fn,
                bounds=(log_lo, log_hi), method="trf", **tolerances,
            )
        except Exception as exc:  # keep searching from the other starts
            runs.append({"phase": phase, "start": np.exp(start).tolist(), "error": str(exc)})
            return None
        theta = np.exp(result.x)
        obj = objective(theta)
        candidates.append((obj, theta))
        runs.append(
            {
                "phase": phase,
                "start": np.exp(start).tolist(),
                "theta": theta.tolist(),
                "objective": obj,
                "nfev": int(result.nfev),
                "njev": int(result.njev),
                "status": int(result.status),
            }
        )
        return obj, result.x

    # Deterministic isotropic ladder across the box: cheap probes that keep
    # narrow minima from being missed and seed the solver in their basin.
    probe_best = None
    for q in np.linspace(0.02, 0.98, 16):
        log_theta = log_lo + q * (log_hi - log_lo)
        obj = objective(np.exp(log_theta))
        candidates.append((obj, np.exp(log_theta)))
        if probe_best is None or obj < probe_best[0]:
            probe_best = (obj, log_theta)

    # The short-scale anchor keeps one start where R is always factorizable
    # (near-diagonal), so smooth-kernel searches never begin on a penalty
    # plateau; the box center and seeded draws cover the rest.
    anchor = log_lo + 0.1 * (log_hi - log_lo)
    starts = [anchor, probe_best[1], 0.5 * (log_lo + log_hi)]
    for _ in range(restarts - 3):
        starts.append(log_lo + rng.uniform(size=log_lo.shape) * (log_hi - log_lo))
    starts = starts[:restarts]
    explored = []
    for start in starts:
        candidates.append((objective(np.exp(start)), np.exp(start)))
        run = solve(start, "explore", _EXPLORE_TOLERANCES)
        if run is not None:
            explored.append(run)
    # Explore runs from different starts often share a basin; only the
    # best endpoint pays for the solver's slow final convergence.
    if explored:
        solve(min(explored, key=lambda run: run[0])[1], "polish", {})
    solver_ok = any(run.get("status", 0) > 0 for run in runs)

    finite = [(obj, th) for obj, th in candidates if np.isfinite(obj)]
    if not finite:
        raise OptimizationError(
            f"every hyperparameter start failed; diagnostics: {runs}"
        )
    best_obj, best_theta = min(finite, key=lambda item: item[0])
    info = {
        "objective": best_obj,
        "fallback": not solver_ok,
        "runs": runs,
        "factorizations": factorizations[0],
    }
    if full_output:
        return best_theta, info
    return best_theta


@dataclass(frozen=True)
class Prediction:
    """Predictor mean and (clamped, nonnegative) variance at one point."""

    mean: float
    variance: float
    clamped: bool = False


class FittedSurrogate:
    """Trained surrogate; immutable and safe to share across threads."""

    def __init__(
        self,
        basis: OrthonormalBasis,
        kernel,
        mode,
        training_inputs,
        training_outputs,
        coefficients,
        process_variance,
        provenance=None,
    ):
        self.basis = basis
        self.kernel = kernel
        self.mode = mode
        self.training_inputs = np.array(training_inputs, dtype=float)
        self.training_outputs = np.array(training_outputs, dtype=float)
        self.coefficients = np.array(coefficients, dtype=float)
        self.process_variance = float(process_variance)
        self.provenance = dict(provenance or {})
        for arr in (self.training_inputs, self.training_outputs, self.coefficients):
            arr.setflags(write=False)
        self._prepare()

    def _prepare(self):
        """Rebuild the cached factorizations from the stored fields."""
        a = self.basis.evaluate(self.training_inputs)
        if self.mode == "chaos":
            self._r_factor = None
            self._whitened_basis = None
            self._gls_factor = None
            self._rinv_residual = None
            return
        corr = correlation_matrix(self.training_inputs, self.kernel)
        factored = _factor_correlation(corr)
        if factored is None:
            raise ConditioningError(
                "correlation matrix of the stored surrogate is numerically singular"
            )
        self._r_factor, nugget = factored
        if nugget:
            corr = corr + _RELATIVE_NUGGET * np.eye(len(corr))
        # W = L^-1 A, so that A^T R^-1 r = W^T (L^-1 r) at prediction time.
        self._whitened_basis = solve_triangular(self._r_factor[0], a, lower=True)
        rinv_a = cho_solve(self._r_factor, a)
        gls = a.T @ rinv_a
        self._gls_factor = cho_factor(0.5 * (gls + gls.T), lower=True)
        residual = self.training_outputs - a @ self.coefficients
        # Two refinement sweeps pin the solve residual near machine level,
        # which is what the training-point interpolation identity rides on.
        w = cho_solve(self._r_factor, residual)
        for _ in range(2):
            w = w + cho_solve(self._r_factor, residual - corr @ w)
        self._rinv_residual = w

    def _predict(self, points, with_variance):
        """Means, and raw unclamped variances when ``with_variance``.

        With ``L`` the Cholesky factor of ``R`` and ``v = L^-1 r``, the
        variance needs one triangular solve per block:
        ``r^T R^-1 r = v^T v`` and ``u = W^T v - Psi``.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        psi = self.basis.evaluate(pts)
        means = psi @ self.coefficients
        if self.mode == "chaos":
            return means, np.zeros(len(pts)) if with_variance else None

        variances = np.empty(len(pts)) if with_variance else None
        for lo in range(0, len(pts), _PREDICT_BLOCK):
            hi = min(lo + _PREDICT_BLOCK, len(pts))
            r = cross_correlation(pts[lo:hi], self.training_inputs, self.kernel)
            means[lo:hi] += r @ self._rinv_residual
            if not with_variance:
                continue
            v = solve_triangular(self._r_factor[0], r.T, lower=True, check_finite=False)
            q_interp = np.einsum("ij,ij->j", v, v)
            u = self._whitened_basis.T @ v - psi[lo:hi].T
            q_trend = np.einsum("ij,ij->j", u, cho_solve(self._gls_factor, u))
            variances[lo:hi] = self.process_variance * (1.0 - q_interp + q_trend)
        return means, variances

    def predict_mean(self, points):
        """Predictor mean at many points, without the variance."""
        return self._predict(points, with_variance=False)[0]

    def predict_batch(self, points, clamp=True):
        """Predictor mean and variance at many points.

        Returns ``(means, variances)`` arrays.  Negative variances from
        roundoff are clamped to zero unless ``clamp=False``.
        """
        means, variances = self._predict(points, with_variance=True)
        if clamp:
            variances = np.maximum(variances, 0.0)
        return means, variances

    def predict(self, x) -> Prediction:
        """Predictor at a single point."""
        means, raw = self.predict_batch(np.asarray(x, dtype=float)[None, :], clamp=False)
        clamped = bool(raw[0] < 0.0)
        return Prediction(
            mean=float(means[0]),
            variance=max(float(raw[0]), 0.0),
            clamped=clamped,
        )

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
        if payload.get("format") != SURROGATE_FORMAT:
            raise ArtifactError(f"not a surrogate artifact: {payload.get('format')!r}")
        if payload.get("version") != SURROGATE_VERSION:
            raise ArtifactError(
                f"surrogate artifact version {payload.get('version')} is not supported "
                f"(expected {SURROGATE_VERSION})"
            )
        kernel = None
        if payload.get("kernel_kind") is not None:
            kernel = KernelSpec(payload["kernel_kind"], np.array(payload["theta"]))
        return cls(
            basis=OrthonormalBasis.from_dict(payload["basis"]),
            kernel=kernel,
            mode=payload["mode"],
            training_inputs=np.array(payload["training_inputs"], dtype=float),
            training_outputs=np.array(payload["training_outputs"], dtype=float),
            coefficients=np.array(payload["coefficients"], dtype=float),
            process_variance=payload["process_variance"],
            provenance=payload.get("provenance", {}),
        )

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
    theta=None,
    theta_bounds=None,
    restarts=5,
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
    theta : array_like, optional
        Fixed length scales; skips the LOO-CV search.
    theta_bounds, restarts, seed
        Passed to :func:`optimize_theta` when ``theta`` is not given.

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
    x = np.atleast_2d(np.asarray(training_inputs, dtype=float))
    b = np.asarray(training_outputs, dtype=float)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if x.shape[1] != basis.index_set.dimension:
        raise ValueError("training inputs do not match the basis dimension")
    if b.shape != (x.shape[0],):
        raise ValueError("training outputs must be one value per input row")
    if x.shape[0] < len(basis):
        raise ValueError(
            "training size must be at least the number of basis functions "
            f"(need >= {len(basis)}, got {x.shape[0]})"
        )

    a = basis.evaluate(x)
    provenance = {"kernel_kind": kernel_kind, "mode": mode, "seed": int(seed)}

    if mode == "chaos":
        coeffs, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
        if rank < a.shape[1]:
            raise ConditioningError(
                "basis matrix is rank deficient; use more samples or a smaller basis"
            )
        residual = b - a @ coeffs
        sigma2 = float(residual @ residual) / x.shape[0]
        return FittedSurrogate(
            basis=basis,
            kernel=None,
            mode=mode,
            training_inputs=x,
            training_outputs=b,
            coefficients=coeffs,
            process_variance=sigma2,
            provenance=provenance,
        )

    if len(np.unique(x, axis=0)) != x.shape[0]:
        raise DegenerateTrainingError(
            "duplicate training inputs cannot be interpolated; deduplicate the design"
        )

    if theta is None:
        theta, opt_info = optimize_theta(
            x, b, kind=kernel_kind, bounds=theta_bounds,
            restarts=restarts, seed=seed, full_output=True,
        )
        provenance["loo_objective"] = opt_info["objective"]
        provenance["theta_fallback"] = opt_info["fallback"]
        provenance["loo_factorizations"] = opt_info["factorizations"]
    kernel = KernelSpec(kernel_kind, np.asarray(theta, dtype=float))
    provenance["theta"] = kernel.theta.tolist()

    factored = _factor_correlation(correlation_matrix(x, kernel))
    if factored is None:
        raise ConditioningError(
            "correlation matrix is numerically singular even with a nugget; "
            "shrink the length scales or space the training points out"
        )
    r_factor, nugget = factored
    provenance["nugget"] = nugget

    rinv_a = cho_solve(r_factor, a)
    gls = a.T @ rinv_a
    try:
        gls_factor = cho_factor(0.5 * (gls + gls.T), lower=True)
    except LinAlgError as exc:
        raise ConditioningError(
            "generalized least-squares system is rank deficient; "
            "use more samples or a smaller basis"
        ) from exc
    coeffs = cho_solve(gls_factor, a.T @ cho_solve(r_factor, b))
    residual = b - a @ coeffs
    sigma2 = max(float(residual @ cho_solve(r_factor, residual)) / x.shape[0], 0.0)

    return FittedSurrogate(
        basis=basis,
        kernel=kernel,
        mode=mode,
        training_inputs=x,
        training_outputs=b,
        coefficients=coeffs,
        process_variance=sigma2,
        provenance=provenance,
    )
