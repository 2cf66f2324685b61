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
(Dubrule 1983) by a bounded trust-region least-squares search with an
analytic Jacobian, explored loosely from several starts and polished from
the best (:func:`optimize_theta`).  The solver lives in ``_trf``: SciPy's
``least_squares(method="trf")`` without its reflected step, which spares
the search the import of ``scipy.optimize``; a test keeps its iterates
identical to SciPy's wherever SciPy takes no reflected step.  Length
scales whose ``R`` is numerically singular (the conditioning wall) score
a penalty.  The probe ladder and the solver share one residual path and
one cache, which holds the last and the best factorization; the solver
keeps no memo of its own, so a repeated point is answered there.
:func:`_loo_state` says which factor an entry waiting for its Jacobian
keeps; once the Jacobian is built, the entry keeps only it and the two
vectors its residuals read, so no n x n array outlives the Jacobian that
needed it.
Explore starts 1 to 4 each run with a cache of their own, and their
runs, best points and counts are merged in start order.  When BLAS calls
release the interpreter lock (``_blas.CONCURRENT_CALLS`` of 2 or more),
the process's one helper thread may take some of them while the calling
thread runs the ladder and start 0; the search returns the same bits
either way, with two working sets live at once on two threads.
Prediction stays on the calling thread: on a 2-core x86-64 VM, whose two
vCPUs share floating-point throughput, a 10 000-point ``predict_batch``
took 37-39 ms on one thread and on two.
Each Jacobian column costs one triangular product (:func:`_loo_jacobian`),
and the search's only inverse, of ``L``, is by recursive blocking
(:func:`_invert_lower`).  Each search evaluation allocates no n x n matrix
besides ``R`` (overwritten by ``L`` for the Gaussian kernel), ``L^-1``
and ``G = R^-1``; the Jacobian's scratch buffer is ``L^-1`` itself,
reused by every column, and the exponential kernel takes one more.

The system is built in one place, the :class:`FittedSurrogate`
constructor, which factors ``R`` once, in place, at the chosen length
scales.
Loading an artifact runs the same constructor on the stored training data
and refuses the artifact when its stored coefficients, process variance
or training digest disagree with the rebuilt ones.  Both modes share one
fit path and one rank rule; ``R`` enters it only through its Cholesky
factor and triangular solves.  Once the fit is done, the surrogate keeps
``L^-1`` in place of ``L``: a product by it gives ``v`` about 2.5 times
as fast as a triangular solve.  BLAS and LAPACK are numpy's bundled
OpenBLAS, called through ``_blas``, which also takes SciPy's compiled
distances without SciPy's package wrappers.  The factorization of ``R``
and the solves by its factor call LAPACK's ``dpotrf``, ``dpotrs`` and
``dtrtrs`` directly: ``R`` is symmetric, so its Fortran-ordered view
``R.T`` reaches LAPACK without a transposing copy, and the training data
are checked for non-finite values where they enter, instead of on every
call.  Correlations below the smallest normal double are stored as zero,
because subnormal entries make the products several times slower.
Prediction runs in blocks of exactly 512 rows, one point per row, with a
short block padded by zero rows.  Every block reuses one buffer for its
correlations, 1.2 MB at n = 300 and 5 MB at n = 1219, and, with the
variance, one for the Fortran-ordered copy of 128 of its rows at a time,
0.3 MB and 1.2 MB.  Since every block and sub-block has the same
shape, every point is rounded the same way: a point's prediction does not
depend on the other points in the call, at any basis size, as
``basis.evaluate`` is a right-side triangular product with one point per
row.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import threading
from dataclasses import dataclass

import numpy as np

from ._blas import (
    CONCURRENT_CALLS,
    cdist_cityblock,
    cdist_sqeuclidean,
    dgemm,
    dlauum,
    dpotrf,
    dpotrs,
    dsymv,
    dtrmm,
    dtrmv,
    dtrtri,
    dtrtrs,
)
from ._trf import least_squares
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
    "cross_correlation",
    "loo_cv_objective",
    "optimize_theta",
    "fit",
]

# Distance whose negated exponential is each kernel's correlation.
_DISTANCES = {"gaussian": cdist_sqeuclidean, "exponential": cdist_cityblock}
KERNEL_KINDS = tuple(_DISTANCES)
MODES = ("chaos", "chaos_kriging")

SURROGATE_FORMAT = "tailrisk-surrogate"
SURROGATE_VERSION = 1

_RELATIVE_NUGGET = 1e-10
_PENALTY = 1e25
_PREDICT_BLOCK = 512
# Rows of the variance's sub-blocks; divides _PREDICT_BLOCK.
_VARIANCE_BLOCK = 128
# Tolerances of the explore runs of the LOO search; the solver's ``gtol``
# is a constant, 1e-8.  The rest of a run's work crawls toward the default
# ``ftol = xtol = 1e-8``, which only the polish run pays.  Looser stops
# (1e-3) can end a run partway down a curved valley: on one training set
# of about 250 tried, that start was the only one leading to the best
# basin, and the search returned an objective 30% higher.
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


def cross_correlation(points_a, points_b, kernel: KernelSpec, out=None) -> np.ndarray:
    """Kernel matrix between two point sets, shape ``(len(a), len(b))``,
    written into the C-ordered ``out`` when it is given.

    Gaussian: ``exp(-sum (dx_i/theta_i)^2)``; exponential:
    ``exp(-sum |dx_i|/theta_i)``.  Every entry is in ``[0, 1]``, and none
    is subnormal.
    """
    a, b = (np.atleast_2d(np.asarray(p, dtype=float)) / kernel.theta for p in (points_a, points_b))
    dist = _DISTANCES[kernel.kind](a, b, out=out)
    return _correlation_from_distance(dist)


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
    chol, info = dpotrf(matrix.T, overwrite_a=overwrite)
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
        block[...] = dtrtri(block)
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
    exponential kernel.  A state waiting for its Jacobian (:func:`_waiting`)
    keeps one n x n factor, ``L`` for the Gaussian kernel and ``L^-1`` for
    the exponential one; :func:`_loo_jacobian` rebuilds the other without a
    factorization, ``L^-1`` by inverting ``L`` and ``R`` from the inputs.
    """
    corr = cross_correlation(inputs, inputs, KernelSpec(kind, theta))
    # Search on the un-nuggeted matrix only: residuals of a regularized
    # stand-in undersell how badly these length scales interpolate.
    gaussian = kind == "gaussian"
    chol = _cholesky(corr, overwrite=gaussian)
    if chol is None:
        return None
    rinv_b = dpotrs(chol, outputs)
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


def _waiting(state, kind):
    """``state`` without the factor that :func:`_loo_jacobian` rebuilds."""
    factor, chol_inv, *rest = state
    return (factor, None, *rest) if kind == "gaussian" else (None, chol_inv, *rest)


def _loo_residuals(state):
    """Leave-one-out residual vector of a ``_loo_state``, or None when R is singular.

    The residual of sample ``l`` under a zero-trend refit without it is
    ``(R^-1 b)_l / (R^-1)_ll``; the LOO criterion is the sum of squares.
    """
    return None if state is None else state[2] / state[3]


def _sort_orders(inputs):
    """Each coordinate's stable sort order and its inverse, for the
    exponential kernel's Jacobian; they depend on the inputs alone."""
    orders = [np.argsort(column, kind="stable") for column in inputs.T]
    return [(order, np.argsort(order)) for order in orders]


def _loo_jacobian(theta, inputs, state, kind, orders):
    """Jacobian of the LOO residuals in log-length-scale coordinates.

    ``orders`` is :func:`_sort_orders` of ``inputs``; only the exponential
    kernel reads it.  A factor the state lacks is rebuilt first (see
    :func:`_loo_state`).  The state's ``L^-1`` is overwritten: it becomes
    the scratch buffer of every column.

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
    if chol_inv is None:
        chol_inv = _invert_lower(np.array(factor, order="F"))
    elif factor is None:
        factor = cross_correlation(inputs, inputs, KernelSpec(kind, theta))
    n = len(alpha)
    # A symmetric C-ordered matrix reaches BLAS as its Fortran-ordered
    # transpose, without a copy.  ``dlauum`` forms the lower triangle of
    # ``L^-T L^-1`` over ``L^-1`` at about a third of a general product's
    # cost; the upper triangle of ``L^-1`` is zero, so adding the transpose
    # and halving the diagonal completes ``G``.  That buffer is then the
    # scratch buffer of every column.
    scratch = dlauum(chol_inv).T
    gram = np.add(scratch, scratch.T, out=np.empty((n, n)))
    gram.flat[:: n + 1] *= 0.5
    scaled = (inputs - inputs.mean(axis=0)) / theta
    if kind == "gaussian":
        r_alpha = dtrmv(factor, dtrmv(factor, alpha, trans=1))
    else:
        # sum_i s_i G_ij^2 for every coordinate at once, before ``spare``
        # takes the reordered R.
        spare = np.multiply(gram, gram, out=np.empty((n, n)))
        g2_scaled = dgemm(spare.T, scaled)
    jac = np.empty((n, len(theta)))
    for k in range(len(theta)):
        s = scaled[:, k]
        if kind == "gaussian":
            # ``scratch`` becomes S G, whose Fortran-ordered view is G S;
            # G S L = (L^T S G)^T, so the C-ordered columns are those of L^T S G.
            np.multiply(s[:, None], gram, out=scratch)
            dtrmm(1.0, factor, scratch.T, side=1, lower=1, overwrite_b=1)
            gpg_diag = 4.0 * (s * s * c - np.einsum("ij,ij->j", scratch, scratch))
            rs_alpha = dtrmv(factor, dtrmv(factor, s * alpha, trans=1))
            p_alpha = s * (s * r_alpha - 2.0 * rs_alpha)
            gp_alpha = 2.0 * (dsymv(gram.T, p_alpha) + s * s * alpha)
        else:
            order, inverse = orders[k]
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
            gp_alpha = dsymv(gram.T, p_alpha)
            # G's rows in that order are, in Fortran order, its columns in
            # that order: W = G P^T.  Then V = W (I + Rl), whose transpose
            # in C order goes back to the original row order over R's buffer.
            np.take(gram, order, axis=0, out=scratch, mode="clip")
            dtrmm(1.0, r_ranked, scratch.T, side=1, lower=1, diag=1, overwrite_b=1)
            np.take(scratch, inverse, axis=0, out=spare, mode="clip")
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
    return np.full(n, np.sqrt(_PENALTY * (1.0 + float(outputs @ outputs)) / max(n, 1)))


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
    return float(res @ res)


def default_theta_bounds(inputs) -> np.ndarray:
    """Per-coordinate search box ``[1e-2 * span, 10 * span]`` from the data."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    span = inputs.max(axis=0) - inputs.min(axis=0)
    span = np.where(span > 0.0, span, 1.0)
    return np.column_stack([1e-2 * span, 10.0 * span])


class _Search:
    """One working set of :func:`optimize_theta`: a cache of kept entries,
    the best point, and the solver runs and counts of the starts run on it.

    ``kept`` maps theta's bytes to its ``[state, Jacobian]``, for at most
    two thetas: the last one factorized, whose Jacobian is asked for right
    after its residuals, and the best one, which starts each run and is
    the result.  Until a length scale factorizes, the best is ``first``
    with the penalty.  Reused values equal recomputed ones.
    """

    def __init__(self, inputs, outputs, kind, orders, penalty, bounds, first):
        self.inputs, self.outputs, self.kind, self.orders = inputs, outputs, kind, orders
        self.penalty, self.bounds = penalty, bounds
        self.kept = {}
        self.best = {"objective": float(penalty @ penalty), "log_theta": first, "key": None}
        self.counts = {"factorizations": 0, "singular_factorizations": 0}
        # Whether the current solver run ends at the wall, and whether it has.
        self.wall = {"stop": False, "reached": False}
        self.runs = []

    def fresh(self):
        """A working set of the same search with nothing kept or counted."""
        return _Search(self.inputs, self.outputs, self.kind, self.orders, self.penalty,
                       self.bounds, None)

    def entry_at(self, theta):
        """The kept entry at ``theta``, factorized first if there is none."""
        kept, key = self.kept, theta.tobytes()
        if key not in kept:
            # Dropped first, so that the new state can reuse its memory.
            # Freed only afterwards, it left memory at the top of the heap
            # that the allocator gave back to the system; in about one
            # process in four, each trial then faulted in some 1300 more
            # pages.
            self.keep_only()
            # No local name may hold the factor a waiting state gives up,
            # or it would live through the new state.
            for entry in kept.values():
                if entry[1] is None and entry[0] is not None:
                    entry[0] = _waiting(entry[0], self.kind)
            state = _loo_state(theta, self.inputs, self.outputs, self.kind)
            self.counts["factorizations"] += 1
            self.counts["singular_factorizations"] += state is None
            kept[key] = [state, None]
        return kept[key]

    def residuals(self, log_theta):
        theta = np.exp(log_theta)
        res = None if self.wall["reached"] else _loo_residuals(self.entry_at(theta)[0])
        if res is None:
            self.wall["reached"] = self.wall["stop"]
            return self.penalty
        if (obj := float(res @ res)) < self.best["objective"]:
            # The entry the best leaves would otherwise live through the
            # next Jacobian.
            self.kept.pop(self.best["key"], None)
            self.best.update(objective=obj, log_theta=np.array(log_theta), key=theta.tobytes())
        return res

    def jacobian(self, log_theta, *_):
        """The Jacobian at ``log_theta``, built once per kept entry, after
        every other entry but the best is dropped."""
        theta = np.exp(log_theta)
        entry = self.entry_at(theta)
        if entry[1] is None and entry[0] is None:  # R is singular: the plateau is flat
            entry[1] = np.zeros((len(self.outputs), len(theta)))
        elif entry[1] is None:
            self.keep_only(theta.tobytes())
            # The entry keeps only what its residuals read.  Its factors go
            # with the Jacobian's call, which overwrites ``L^-1``.
            state, entry[0] = entry[0], (None, None, *entry[0][2:])
            entry[1] = _loo_jacobian(theta, self.inputs, state, self.kind, self.orders)
        return entry[1]

    def keep_only(self, key=None):
        """Drop every kept entry but the best and the one at ``key``."""
        for other in [k for k in self.kept if k not in (key, self.best["key"])]:
            del self.kept[other]

    def climb(self, rungs):
        """Probe the ladder's rungs in order.  The rungs lengthen every
        scale, which brings R closer to singular, so the first singular rung
        after a factorizable one ends the ladder."""
        factorizable = False
        for log_theta in rungs:
            if self.residuals(log_theta) is not self.penalty:
                factorizable = True
            elif factorizable:
                break

    def solve(self, start, phase, tolerances):
        """One solver run, recorded in ``runs``; a polish run ends at the wall."""
        self.wall.update(stop=phase == "polish", reached=False)
        result = least_squares(
            self.residuals, start, jac=self.jacobian, bounds=self.bounds, **tolerances,
        )
        self.runs.append(
            {
                "phase": phase,
                "start": np.exp(start).tolist(),
                "theta": np.exp(result.x).tolist(),
                "objective": float(result.fun @ result.fun),
                "nfev": int(result.nfev),
                "njev": int(result.njev),
                "status": int(result.status),
                "wall": self.wall["reached"],
            }
        )

    def absorb(self, other):
        """Add ``other``'s runs and counts after this set's, and take its
        best point and entry when it is strictly better."""
        self.runs += other.runs
        for name, count in other.counts.items():
            self.counts[name] += count
        if other.best["objective"] < self.best["objective"]:
            self.kept.pop(self.best["key"], None)
            self.best = other.best
            self.kept[self.best["key"]] = other.kept[self.best["key"]]


class _Helper:
    """The process's one helper thread, started by the first search that
    posts to it.  One search at a time may use it."""

    def __init__(self):
        self._idle = threading.Lock()
        self._posted = threading.Condition()
        self._job = None
        self._thread = None

    def try_post(self, job):
        """Run ``job()`` on the helper thread, in the caller's context (numpy's
        ``errstate`` among it), and return an event set once it has ended;
        ``None``, and nothing run, when another search holds the helper."""
        if not self._idle.acquire(blocking=False):
            return None
        done = threading.Event()
        with self._posted:
            if self._thread is None:
                self._thread = threading.Thread(target=self._serve, name="tailrisk-search",
                                                daemon=True)
                self._thread.start()
            self._job = contextvars.copy_context(), job, done
            self._posted.notify()
        return done

    def _serve(self):
        while True:
            with self._posted:
                while self._job is None:
                    self._posted.wait()
                (context, job, done), self._job = self._job, None
            try:
                context.run(job)
            except BaseException:
                # A job hands its errors to its poster; one that escapes it
                # must not stop the thread that later searches post to.
                pass
            self._idle.release()
            done.set()
            # Held until the next job, they would keep the search's arrays.
            del context, job, done


_HELPER = _Helper()


def _explore(search, rungs, starts):
    """The ladder and the explore runs of :func:`optimize_theta`;
    ``starts[0]`` is filled in from the ladder.

    The caller runs the ladder, then start 0 from the ladder's kept best
    rung on ``search``, then every start the helper thread has not taken.
    Each of starts 1 to 4 runs on a working set of its own, which keeps
    only its best entry once its run ends, and those are absorbed into
    ``search`` in start order.  When BLAS calls can run side by side and
    the helper is idle, the helper takes starts 1 to 4 in order from the
    beginning, as none of them depends on the ladder.  The first error
    raises: no start begins after it, the raised one is the
    lowest-numbered failing start's, and it is raised once the helper's
    run has ended.
    """
    pending = list(range(1, len(starts)))
    outcomes = {}  # start number -> its working set, or what its run raised

    def run_pending():
        while pending:
            try:
                k = pending.pop(0)
            except IndexError:  # the other thread took the last one
                return
            try:
                own = search.fresh()
                own.solve(starts[k], "explore", _EXPLORE_TOLERANCES)
                own.keep_only()
            except BaseException as exc:
                pending.clear()
                outcomes[k] = exc
                return
            outcomes[k] = own

    done = _HELPER.try_post(run_pending) if CONCURRENT_CALLS > 1 else None
    try:
        search.climb(rungs)
        starts[0] = search.best["log_theta"]
        search.solve(starts[0], "explore", _EXPLORE_TOLERANCES)
        search.keep_only()
        run_pending()
    except BaseException:
        pending.clear()
        raise
    finally:
        if done is not None:
            done.wait()
    for k in range(1, len(starts)):
        if isinstance(outcomes[k], BaseException):
            raise outcomes[k]
        search.absorb(outcomes[k])


def optimize_theta(inputs, outputs, kind="gaussian", seed=0):
    """Minimize the LOO-CV criterion over length scales.

    Runs a bounded trust-region least-squares search on the LOO
    residual vector in log-scale coordinates, over the box of
    :func:`default_theta_bounds`, with the analytic Jacobian of
    :func:`_loo_jacobian`, in two phases.  *Explore* runs the solver
    loosely (``_EXPLORE_TOLERANCES``) from five start points, in this
    order: the best rung of a deterministic isotropic probe ladder, a
    short-scale anchor a tenth of the way up the box in log scale, the box
    center, and two log-uniform draws from ``seed``.  *Polish* runs it
    once more, at the solver's default tolerances, from the best explore
    endpoint.  The ladder and the solver share one residual path and one
    cache of the last and the best factorization, so no theta is factorized
    twice in a row: the starts of the first explore run and of the polish
    are not factorized again, and the polish start is not differentiated
    again.  While another theta is factorized, a cached entry whose
    Jacobian is not built yet is :func:`_waiting`.  The ladder's best rung,
    the first explore start, is such an entry, so at most one factor per
    search is rebuilt.  A cached entry gives up its n x n factors when its
    Jacobian is built and keeps the Jacobian instead.  The exponential
    kernel's sort orders are computed once.

    Explore starts 1 to 4 each run with a cache of their own, and their
    runs, best points and counts are merged in start order, a best point
    replacing the one before only when strictly lower (:func:`_explore`).
    The calling thread runs the ladder, start 0, then every start the
    process's helper thread has not taken; the helper takes starts only
    when ``_blas.CONCURRENT_CALLS`` is 2 or more and no other search holds
    it.  As the cache changes no value, the result, ``info`` and the polish
    do not depend on which thread ran a start.  With the helper, two
    working sets are live at once, so the search's peak memory is about
    twice that on one thread.

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
        Whatever a start's run raises, uncaught: no start is skipped.  It
        is the lowest-numbered failing start's error, raised once the
        helper's run, if any, has ended.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    outputs = np.asarray(outputs, dtype=float)
    bounds = default_theta_bounds(inputs)
    log_lo, log_hi = np.log(bounds[:, 0]), np.log(bounds[:, 1])
    # Deterministic isotropic ladder across the box: cheap probes that keep
    # narrow minima from being missed and seed the solver in their basin.
    rungs = [log_lo + q * (log_hi - log_lo) for q in np.linspace(0.02, 0.98, 16)]
    penalty = _penalty_residuals(outputs)
    orders = _sort_orders(inputs) if kind == "exponential" else None
    search = _Search(inputs, outputs, kind, orders, penalty, (log_lo, log_hi), rungs[0])
    # The best objective only ever falls, so one finite here stays finite.
    if not np.isfinite(search.best["objective"]):
        raise OptimizationError(
            "the squares of the training outputs overflow, so no LOO objective "
            "is finite; rescale them"
        )

    # The short-scale anchor keeps one start where R is always factorizable
    # (near-diagonal), so smooth-kernel searches never begin on a penalty
    # plateau; the box center and seeded draws cover the rest.  The best
    # rung goes first, while it is still the best state kept.
    rng = np.random.default_rng(seed)
    starts = [None, log_lo + 0.1 * (log_hi - log_lo), 0.5 * (log_lo + log_hi)]
    for _ in range(2):
        starts.append(log_lo + rng.uniform(size=log_lo.shape) * (log_hi - log_lo))
    _explore(search, rungs, starts)
    # Explore runs from different starts often share a basin; only the
    # best endpoint pays for the solver's slow final convergence.
    search.solve(search.best["log_theta"], "polish", {})
    solver_ok = any(run["status"] > 0 for run in search.runs)
    info = {"objective": search.best["objective"], "fallback": not solver_ok, "runs": search.runs}
    return np.exp(search.best["log_theta"]), {**info, **search.counts}


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
    # Checked here, on every path in: the factorizations and solves do not.
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
        x, b = _training_data(training_inputs, training_outputs, basis, self.mode)
        self.training_inputs, self.training_outputs = x.copy(), b.copy()
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
            x = self.training_inputs
            # Factored over R, which only the nugget retry needs again.
            chol = _cholesky(cross_correlation(x, x, self.kernel), overwrite=True)
            self.provenance["nugget"] = chol is None
            if chol is None:
                nuggeted = cross_correlation(x, x, self.kernel) + _RELATIVE_NUGGET * np.eye(n)
                chol = _cholesky(nuggeted, overwrite=True)
            if chol is None:
                raise ConditioningError(
                    "correlation matrix is numerically singular even with a nugget; "
                    "shrink the length scales or space the training points out"
                )
            whitened = dtrtrs(chol, whitened)
            z = dtrtrs(chol, z)
        u, s, vt = np.linalg.svd(whitened, full_matrices=False)
        u, vt = np.asfortranarray(u), np.asfortranarray(vt)  # products round by layout
        if not s[-1] > np.finfo(float).eps * max(whitened.shape) * s[0]:  # also NaN
            raise ConditioningError(
                "generalized least-squares system is rank deficient; "
                "use more samples or a smaller basis"
            )
        self.coefficients = vt.T @ (u.T @ z / s)
        residual = z - whitened @ self.coefficients
        self.process_variance = float(residual @ residual) / n
        if self.mode == "chaos_kriging":
            self._whitened_basis, self._trend_map = whitened, vt / s[:, None]
            self._rinv_residual = dtrtrs(chol, residual, trans=1)
            # ``L`` is not needed past here, so its inverse takes its memory.
            self._chol_inv = _invert_lower(chol)

    def _predict(self, points, with_variance):
        """Means, and raw unclamped variances when ``with_variance``.

        Points go through in blocks of exactly ``_PREDICT_BLOCK`` rows, one
        point per row; a short block is padded with zero rows, which are
        dropped at the end.  With ``v = L^-1 r`` as a row, ``r^T R^-1 r =
        v^T v`` and the trend term ``u^T (W^T W)^-1 u`` is ``||S^-1 V^T
        u||^2`` with ``u = W^T v - Psi``; one right-side triangular product
        by the stored ``L^-1`` gives ``v`` for the whole block.  OpenBLAS
        takes other kernels, which round differently, for the last rows of
        a block whose row count is not a multiple of its unrolling and for
        narrow blocks, so only the fixed width makes a point's prediction
        independent of the other points in the call.  The variance's rows
        are independent too, so its steps run over sub-blocks of exactly
        ``_VARIANCE_BLOCK`` rows, and skip those that hold only padding.

        Every block reuses one ``_PREDICT_BLOCK``-by-n buffer for ``r`` and
        one ``_VARIANCE_BLOCK``-by-n buffer for the Fortran-ordered copy of
        a sub-block, which ``v`` overwrites: 1.2 MB and 0.3 MB at n = 300.
        Arrays of the block's size allocated and freed block by block went
        back to the system and were faulted in again: about 7 000 minor
        page faults per 10 000 ``example2`` points, against 250 with the
        buffers.  So the block stays at 512 rows: blocks of 256 cost
        11-18% more time per ``mfis-tray`` trial (2-core x86-64 VM).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        means = np.empty(len(pts))
        variances = np.zeros(len(pts)) if with_variance else None
        kriging = self.mode == "chaos_kriging"
        r = np.empty((_PREDICT_BLOCK, len(self.training_outputs))) if kriging else None
        v = (np.empty((_VARIANCE_BLOCK, r.shape[1]), order="F")
             if kriging and with_variance else None)
        for lo in range(0, len(pts), _PREDICT_BLOCK):
            hi = min(lo + _PREDICT_BLOCK, len(pts))
            block = pts[lo:hi]
            if hi - lo < _PREDICT_BLOCK:
                block = np.zeros((_PREDICT_BLOCK, pts.shape[1]))
                block[: hi - lo] = pts[lo:hi]
            psi = self.basis.evaluate(block)
            mean = psi @ self.coefficients
            if kriging:
                cross_correlation(block, self.training_inputs, self.kernel, out=r)
                mean += r @ self._rinv_residual
                # Sub-blocks past the last point hold only padding.
                for sub in range(0, hi - lo, _VARIANCE_BLOCK) if with_variance else ():
                    rows = slice(sub, sub + _VARIANCE_BLOCK)
                    v[...] = r[rows]
                    dtrmm(1.0, self._chol_inv, v, side=1, lower=1, trans_a=1, overwrite_b=1)
                    # ``dgemm`` takes the Fortran-ordered ``v`` as it is.
                    u = dgemm(v, self._whitened_basis) - psi[rows]
                    trend = dgemm(u, self._trend_map, trans_b=1)
                    q_interp = np.einsum("ij,ij->i", v, v)
                    q_trend = np.einsum("ij,ij->i", trend, trend)
                    end = min(sub + _VARIANCE_BLOCK, hi - lo)
                    variances[lo + sub : lo + end] = (
                        self.process_variance * (1.0 - q_interp + q_trend)[: end - sub]
                    )
            means[lo:hi] = mean[: hi - lo]
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
        if not isinstance(payload, dict):
            raise ArtifactError("a surrogate artifact must be a JSON object")
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
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except ValueError as exc:  # not UTF-8 text, or not JSON
            raise ArtifactError(f"surrogate artifact {path} is not JSON: {exc}") from None
        try:
            return cls.from_dict(payload)
        except ArtifactError as exc:
            raise ArtifactError(f"surrogate artifact {path}: {exc}") from None


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
        # Rows equal as floats are adjacent once sorted (``np.unique(x,
        # axis=0)`` would import ``numpy.ma``).
        rows = x[np.lexsort(x.T[::-1])]
        if np.all(rows[1:] == rows[:-1], axis=1).any():
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
