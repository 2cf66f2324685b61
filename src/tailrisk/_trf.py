# Ported from SciPy 1.17.1, whose licence follows.
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""Bounded trust-region least squares with Coleman-Li scaling.

SciPy 1.17.1's ``least_squares(method="trf")`` (Branch, Coleman & Li
1999), cut to the one configuration the LOO search uses: finite bounds,
a callable Jacobian, the exact trust-region solver (an SVD of the
augmented Jacobian), linear loss, unit ``x_scale`` and ``max_nfev = 100
len(x0)``.  It follows ``_lsq/trf.py`` and ``_lsq/common.py`` statement
for statement but for one rule: a trust-region step that leaves the box
is not reflected.  It is cut back to ``theta`` of its stride to the
bound or replaced by the scaled anti-gradient step, whichever the
quadratic model values more, close to the step-back method of Coleman &
Li (1996).  So the iterates are bit-identical to SciPy's wherever SciPy
takes no reflected step; ``tests/test_surrogate.py`` checks this.
Products by the unit scale, which are exact, are dropped; the others
stay on numpy's ``.dot``, as in SciPy, and ``evaluate_quadratic`` is the
sum of ``build_quadratic_1d``'s coefficients, which rounds the same way.
There is no residual memo: the caller's cache answers a repeated point.

Importing ``scipy.optimize`` cost each process about 0.1 s and 11.7 MB of
peak memory (2-core x86-64 VM, SciPy 1.17.1), and the search needs nothing
else from it.
"""

from types import SimpleNamespace

import numpy as np
from numpy.linalg import norm

__all__ = ["least_squares"]

_EPS = np.finfo(float).eps
# SciPy's stops for the Levenberg-Marquardt parameter, which ``least_squares`` never overrides.
_ALPHA_RTOL = 0.01
_ALPHA_MAX_ITER = 10
# SciPy's default stop on the scaled gradient's infinity norm; no search overrides it.
_GTOL = 1e-8


def _solve_lsq_trust_region(n, m, uf, s, V, Delta, initial_alpha):
    """Moré's (1977) trust-region step from one SVD; returns ``p, alpha``."""

    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        return p_norm - Delta, -np.sum(suf**2 / denom**3) / p_norm

    suf = s * uf
    # Check if J has full rank and try Gauss-Newton step.
    full_rank = s[-1] > _EPS * m * s[0] if m >= n else False
    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0
    alpha_upper = norm(suf) / Delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and initial_alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
    else:
        alpha = initial_alpha
    for _ in range(_ALPHA_MAX_ITER):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < _ALPHA_RTOL * Delta:
            break
    p = -V.dot(suf / (s**2 + alpha))
    # Make the norm of p equal to Delta, so that p stays in the trust region.
    p *= Delta / norm(p)
    return p, alpha


def _update_tr_radius(Delta, actual_reduction, predicted_reduction, step_norm, bound_hit):
    """The next trust-region radius, and the ratio of actual to predicted reduction."""
    if predicted_reduction > 0:
        ratio = actual_reduction / predicted_reduction
    elif predicted_reduction == actual_reduction == 0:
        ratio = 1
    else:
        ratio = 0
    if ratio < 0.25:
        Delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        Delta *= 2.0
    return Delta, ratio


def _build_quadratic_1d(J, g, s, diag):
    """Coefficients of ``t -> q(s t)``, ``q(p) = p^T (J^T J + diag) p / 2 + g^T p``."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    return a, b


def _minimize_quadratic_1d(a, b, lb, ub):
    """Minimum point and value of ``a t^2 + b t`` on ``[lb, ub]``."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b)
    min_index = np.argmin(y)
    return t[min_index], y[min_index]


def _step_size_to_bound(x, s, lb, ub):
    """Smallest ``t >= 0`` with ``x + s t`` on the bounds."""
    non_zero = np.nonzero(s)
    s_non_zero = s[non_zero]
    steps = np.empty_like(x)
    steps.fill(np.inf)
    with np.errstate(over="ignore"):
        steps[non_zero] = np.maximum((lb - x)[non_zero] / s_non_zero,
                                     (ub - x)[non_zero] / s_non_zero)
    return np.min(steps)


def _make_strictly_feasible(x, lb, ub, rstep):
    """``x`` moved at least ``rstep`` (relative) inside the bounds; one ulp if 0."""
    x_new = x.copy()
    if rstep == 0:
        upper = x >= ub
        lower = (x <= lb) & ~upper
        x_new[lower] = np.nextafter(lb[lower], ub[lower])
        x_new[upper] = np.nextafter(ub[upper], lb[upper])
    else:
        lower_dist, upper_dist = x - lb, ub - x
        upper = upper_dist <= np.minimum(lower_dist, rstep * np.maximum(1, np.abs(ub)))
        lower = (lower_dist <= np.minimum(upper_dist, rstep * np.maximum(1, np.abs(lb)))) & ~upper
        x_new[lower] = lb[lower] + rstep * np.maximum(1, np.abs(lb[lower]))
        x_new[upper] = ub[upper] - rstep * np.maximum(1, np.abs(ub[upper]))
    tight_bounds = (x_new < lb) | (x_new > ub)
    x_new[tight_bounds] = 0.5 * (lb[tight_bounds] + ub[tight_bounds])
    return x_new


def _cl_scaling_vector(x, g, lb, ub):
    """Coleman-Li scaling vector ``v`` and its derivative ``dv``."""
    v = np.ones_like(x)
    dv = np.zeros_like(x)
    mask = g < 0
    v[mask] = ub[mask] - x[mask]
    dv[mask] = -1
    mask = g > 0
    v[mask] = x[mask] - lb[mask]
    dv[mask] = 1
    return v, dv


def _check_termination(dF, F, dx_norm, x_norm, ratio, ftol, xtol):
    """Status 2 (``ftol``), 3 (``xtol``), 4 (both) or ``None``."""
    ftol_satisfied = dF < ftol * F and ratio > 0.25
    xtol_satisfied = dx_norm < xtol * (xtol + x_norm)
    if ftol_satisfied and xtol_satisfied:
        return 4
    if ftol_satisfied:
        return 2
    if xtol_satisfied:
        return 3
    return None


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """The trust-region step, or, if it leaves the box, the better of that
    step cut back inside and the anti-gradient step."""
    # The model's value at a step is its quadratic along the step at t = 1.
    if np.all((x + p >= lb) & (x + p <= ub)):
        return p, p_h, -sum(_build_quadratic_1d(J_h, g_h, p_h, diag_h))
    # Restrict the trust-region step to the bound, then make it strictly
    # interior.  Two products, as in SciPy, round as SciPy's step does.
    p_stride = _step_size_to_bound(x, p, lb, ub)
    p *= p_stride
    p_h *= p_stride
    p *= theta
    p_h *= theta
    p_value = sum(_build_quadratic_1d(J_h, g_h, p_h, diag_h))
    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / norm(ag_h)
    to_bound = _step_size_to_bound(x, ag, lb, ub)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    a, b = _build_quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride
    if p_value < ag_value:
        return p, p_h, -p_value
    return ag, ag_h, -ag_value


def least_squares(fun, x0, jac, bounds, ftol=1e-8, xtol=1e-8):
    """Minimize ``||fun(x)||^2 / 2`` over the box ``bounds = (lb, ub)``.

    ``fun(x)`` returns the residual vector at ``x`` and ``jac(x)`` its
    Jacobian, as ndarrays of one and two dimensions.  Returns ``x``,
    ``fun`` (the residuals at ``x``), ``cost``, ``nfev``, ``njev`` and
    ``status``, as SciPy does: 0 when ``max_nfev`` runs out, 1 for
    ``gtol = 1e-8``, 2 for ``ftol``, 3 for ``xtol`` and 4 for both of the
    last two.  A point is evaluated afresh each time a step reaches it.
    ``ValueError`` if the residuals at the start point are not finite.
    """
    lb, ub = (np.asarray(b, dtype=float) for b in bounds)
    x = _make_strictly_feasible(np.asarray(x0, dtype=float), lb, ub, rstep=1e-10)
    f = fun(x)
    J = jac(x)
    if not np.all(np.isfinite(f)):
        raise ValueError("Residuals are not finite in the initial point.")
    nfev = njev = 1
    m, n = J.shape
    max_nfev = 100 * n
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    v, _ = _cl_scaling_vector(x, g, lb, ub)
    Delta = norm(x / v**0.5)
    if Delta == 0:
        Delta = 1.0
    f_augmented = np.zeros(m + n)
    J_augmented = np.empty((m + n, n))
    alpha = 0.0  # the Levenberg-Marquardt parameter
    status = None
    while True:
        v, dv = _cl_scaling_vector(x, g, lb, ub)
        g_norm = norm(g * v, ord=np.inf)
        if g_norm < _GTOL:
            status = 1
        if status is not None or nfev == max_nfev:
            break
        # The trust-region problem in "hat" space, solved by one SVD.
        d = v**0.5
        diag_h = g * dv
        g_h = d * g
        f_augmented[:m] = f
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]  # Memory view.
        J_augmented[m:] = np.diag(diag_h**0.5)
        # SciPy's ``svd`` refuses an ``inf``, where numpy's returns NaNs, and
        # lays ``U`` and ``V^T`` out in Fortran order, by which products round.
        U, s, V = np.linalg.svd(np.asarray_chkfinite(J_augmented), full_matrices=False)
        U, V = np.asfortranarray(U), np.asfortranarray(V).T
        uf = U.T.dot(f_augmented)
        # theta controls the step back from the bounds.
        theta = max(0.995, 1 - g_norm)
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _solve_lsq_trust_region(n, m, uf, s, V, Delta, alpha)
            p = d * p_h  # Trust-region solution in the original space.
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta)
            x_new = _make_strictly_feasible(x + step, lb, ub, rstep=0)
            f_new = fun(x_new)
            nfev += 1
            step_h_norm = norm(step_h)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            Delta_new, ratio = _update_tr_radius(
                Delta, actual_reduction, predicted_reduction,
                step_h_norm, step_h_norm > 0.95 * Delta)
            status = _check_termination(
                actual_reduction, cost, norm(step), norm(x), ratio, ftol, xtol)
            if status is not None:
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            J = jac(x)
            njev += 1
            g = J.T.dot(f)
    return SimpleNamespace(x=x, fun=f, cost=cost, nfev=nfev, njev=njev,
                           status=0 if status is None else status)
