import json
import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import least_squares

from tailrisk import (
    ArtifactError,
    BuiltinModel,
    DegenerateTrainingError,
    FittedSurrogate,
    Gaussian,
    InputModel,
    KernelSpec,
    build_basis,
    fit,
    loo_cv_objective,
    multi_index_set,
    optimize_theta,
    rastrigin,
    sample,
    surrogate_mcs_estimate,
    var_cvar,
    whiten,
)
from tailrisk import surrogate as surrogate_mod
from tailrisk.surrogate import (
    _EXPLORE_TOLERANCES,
    _PENALTY,
    _PREDICT_BLOCK,
    _RELATIVE_NUGGET,
    correlation_matrix,
    cross_correlation,
    default_theta_bounds,
)

from helpers import analytic_gaussian_gram, run_python


def hermite_basis_1d(degree):
    """Analytically exact orthonormal basis for a standard normal input."""
    s = multi_index_set(1, 1, degree)
    return whiten(analytic_gaussian_gram(s), s)


def hermite_basis_2d(interaction, degree):
    s = multi_index_set(2, interaction, degree)
    return whiten(analytic_gaussian_gram(s), s)


@pytest.fixture(scope="module")
def corr09():
    return InputModel([Gaussian(0, 2), Gaussian(0, 2)], [[1, 0.9], [0.9, 1]])


class TestKernels:
    def test_coincident_points(self):
        k = KernelSpec("gaussian", np.array([1.0, 2.0]))
        assert cross_correlation([[0.3, -1.0]], [[0.3, -1.0]], k)[0, 0] == 1.0

    def test_gaussian_single_term(self):
        k = KernelSpec("gaussian", np.array([1.0, 1.0]))
        got = cross_correlation([[1.0, 0.0]], [[0.0, 0.0]], k)[0, 0]
        assert got == pytest.approx(math.exp(-1), rel=1e-15)

    def test_exponential_hand_value(self):
        k = KernelSpec("exponential", np.array([2.0]))
        got = cross_correlation([[1.0]], [[0.0]], k)[0, 0]
        assert got == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian", np.array([1.0, 0.0]))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            KernelSpec("matern", np.array([1.0]))

    def test_correlation_matrix_unit_diagonal(self):
        pts = np.random.default_rng(0).normal(size=(40, 2))
        corr = correlation_matrix(pts, KernelSpec("exponential", np.array([1.0, 1.0])))
        np.testing.assert_array_equal(np.diag(corr), np.ones(40))
        assert np.array_equal(corr, corr.T)


class TestFitting:
    def test_exact_linear_trend_recovery(self):
        basis = hermite_basis_1d(1)
        x = np.linspace(-2, 2, 10)[:, None]
        y = 1.0 + 2.0 * x[:, 0]
        held_out = np.linspace(-1.7, 1.9, 5)[:, None]
        for mode in ("chaos", "chaos_kriging"):
            sur = fit(x, y, basis, mode=mode, seed=0)
            means, _ = sur.predict_batch(held_out)
            np.testing.assert_allclose(means, 1.0 + 2.0 * held_out[:, 0], atol=1e-6)
            assert sur.process_variance < 1e-10

    def test_kriging_interpolates_training_data(self):
        basis = hermite_basis_2d(1, 2)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(25, 2))
        y = np.sin(x[:, 0]) + x[:, 1] ** 2
        sur = fit(x, y, basis, seed=1)
        means, variances = sur.predict_batch(x)
        np.testing.assert_allclose(means, y, rtol=1e-8)
        assert np.max(variances) < 1e-10 * max(sur.process_variance, 1.0)

    def test_constant_outputs(self):
        basis = hermite_basis_1d(2)
        x = np.linspace(-2, 2, 9)[:, None]
        y = np.full(9, 5.0)
        sur = fit(x, y, basis, mode="chaos", seed=0)
        np.testing.assert_allclose(sur.coefficients, [5.0, 0.0, 0.0], atol=1e-10)
        means, _ = sur.predict_batch(np.array([[0.3], [1.4]]))
        np.testing.assert_allclose(means, 5.0, atol=1e-10)

    def test_chaos_mode_zero_variance(self):
        basis = hermite_basis_1d(2)
        x = np.linspace(-2, 2, 9)[:, None]
        sur = fit(x, np.sin(x[:, 0]), basis, mode="chaos", seed=0)
        _, variances = sur.predict_batch(np.linspace(-3, 3, 11)[:, None])
        np.testing.assert_array_equal(variances, 0.0)

    def test_far_field_prediction(self):
        basis = hermite_basis_1d(1)
        x = np.linspace(-1, 1, 6)[:, None]
        y = 2.0 + x[:, 0]
        sur = fit(x, y, basis, theta=[0.1], seed=0)
        far = np.array([[50.0]])
        r = cross_correlation(far, x, sur.kernel)
        assert np.max(r) < 1e-12
        pred = sur.predict(far[0])
        psi = basis.evaluate(far[0])
        assert pred.mean == pytest.approx(float(psi @ sur.coefficients), rel=1e-10)
        assert pred.variance >= sur.process_variance

    def test_too_few_samples_rejected(self):
        basis = hermite_basis_1d(3)
        x = np.linspace(0, 1, 3)[:, None]
        with pytest.raises(ValueError, match="basis functions"):
            fit(x, np.ones(3), basis)

    def test_duplicate_inputs_rejected_in_kriging_mode(self):
        basis = hermite_basis_1d(1)
        x = np.array([[0.0], [1.0], [1.0], [2.0]])
        with pytest.raises(DegenerateTrainingError):
            fit(x, np.arange(4.0), basis)

    def test_nugget_rescues_tiny_pivot(self):
        # Appended, the near-coincident pair factors by roundoff with a
        # pivot far below the cut-off; the nugget factor passes it.
        basis = hermite_basis_2d(1, 2)
        x = np.random.default_rng(63).normal(size=(40, 2))
        y = np.sin(x[:, 0]) + x[:, 1] ** 2
        pair = np.array([[0.0, 0.0], [1e-20, 0.0]])
        kernel = KernelSpec("gaussian", np.array([0.5, 0.5]))
        for design in (np.vstack([x, pair]), np.vstack([pair, x])):
            factored = surrogate_mod._factor_correlation(correlation_matrix(design, kernel))
            assert factored is not None and factored[1] is True
            targets = np.sin(design[:, 0]) + design[:, 1] ** 2
            sur = fit(design, targets, basis, kernel_kind="gaussian", theta=[0.5, 0.5])
            assert sur.provenance["nugget"] is True

    def test_rank_deficient_design_rejected(self):
        from tailrisk import ConditioningError

        # all training points share x2, so the x2 basis column collapses
        basis = hermite_basis_2d(1, 1)
        x = np.column_stack([np.linspace(-1, 1, 8), np.zeros(8)])
        with pytest.raises(ConditioningError):
            fit(x, np.sin(x[:, 0]), basis, mode="chaos")

    def test_gls_equals_ols_when_correlation_is_identity(self):
        basis = hermite_basis_1d(2)
        rng = np.random.default_rng(8)
        x = np.sort(rng.uniform(-2, 2, 12))[:, None]
        y = rng.normal(size=12)
        # theta far below the minimum spacing underflows every off-diagonal
        # correlation to exactly zero, so R is the identity bit-for-bit.
        sur = fit(x, y, basis, theta=[1e-3], seed=0)
        corr = correlation_matrix(x, sur.kernel)
        assert np.array_equal(corr, np.eye(12))
        ols = np.linalg.lstsq(basis.evaluate(x), y, rcond=None)[0]
        np.testing.assert_allclose(sur.coefficients, ols, atol=1e-10)

    def test_polynomial_reproduction_any_kernel(self):
        basis = hermite_basis_2d(2, 2)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(30, 2))
        coeffs = rng.normal(size=len(basis))
        y = basis.evaluate(x) @ coeffs
        test_pts = rng.normal(size=(40, 2))
        truth = basis.evaluate(test_pts) @ coeffs
        for kind in ("gaussian", "exponential"):
            sur = fit(x, y, basis, kernel_kind=kind, seed=2)
            means, _ = sur.predict_batch(test_pts)
            np.testing.assert_allclose(means, truth, atol=1e-6)

    def test_variance_nonnegative_before_clamp(self):
        basis = hermite_basis_2d(1, 2)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(40, 2))
        y = np.cos(2 * x[:, 0]) * x[:, 1]
        sur = fit(x, y, basis, seed=3)
        pts = rng.normal(size=(1000, 2))
        _, raw = sur.predict_batch(pts, clamp=False)
        assert np.min(raw) >= -1e-9


class TestLooCv:
    def test_zero_outputs(self):
        x = np.linspace(0, 1, 8)[:, None]
        assert loo_cv_objective([0.5], x, np.zeros(8)) == 0.0

    def test_two_point_closed_form(self):
        # r = exp(-(dx/theta)^2) = 0.5 for dx = 1
        theta = 1.0 / math.sqrt(math.log(2.0))
        x = np.array([[0.0], [1.0]])
        b = np.ones(2)
        expected = (1 - 0.5) ** 2 + (1 - 0.5) ** 2
        assert loo_cv_objective([theta], x, b) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind", ["gaussian", "exponential"])
    def test_brute_force_loo_oracle(self, kind):
        rng = np.random.default_rng(21)
        x = rng.uniform(-1, 1, size=(12, 2))
        b = np.sin(2 * x[:, 0]) + 0.5 * x[:, 1]
        theta = np.array([0.7, 0.9])
        kernel = KernelSpec(kind, theta)

        brute = 0.0
        for left_out in range(len(b)):
            keep = [i for i in range(len(b)) if i != left_out]
            corr = correlation_matrix(x[keep], kernel)
            r = cross_correlation(x[left_out][None, :], x[keep], kernel)[0]
            pred = r @ cho_solve(cho_factor(corr, lower=True), b[keep])
            brute += (b[left_out] - pred) ** 2

        assert loo_cv_objective(theta, x, b, kind) == pytest.approx(brute, abs=1e-8)

    def test_singular_correlation_returns_penalty(self):
        x = np.array([[0.0], [1e-9], [1.0]])
        b = np.array([1.0, 2.0, 3.0])
        value = loo_cv_objective([1e4], x, b)
        assert np.isfinite(value) and value > 1e20


class TestOptimizeTheta:
    def test_constant_objective_stays_in_bounds(self):
        x = np.linspace(0, 1, 8)[:, None]
        bounds = np.array([[0.1, 10.0]])
        theta = optimize_theta(x, np.zeros(8), bounds=bounds, restarts=2, seed=0)
        assert 0.1 <= theta[0] <= 10.0
        assert loo_cv_objective(theta, x, np.zeros(8)) == 0.0

    def test_beats_log_grid(self):
        rng = np.random.default_rng(31)
        x = np.sort(rng.uniform(-2, 2, 25))[:, None]
        b = np.sin(3 * x[:, 0]) + 0.1 * x[:, 0] ** 2
        bounds = np.array([[0.05, 5.0]])
        theta, info = optimize_theta(
            x, b, bounds=bounds, restarts=5, seed=4, full_output=True
        )
        grid = np.geomspace(0.05, 5.0, 50)
        grid_best = min(loo_cv_objective([t], x, b) for t in grid)
        assert info["objective"] <= grid_best + 1e-12

    def test_restart_monotonicity(self):
        # The promise of the two-phase search: the result is no worse than
        # the best explore endpoint, and more restarts never worsen that
        # endpoint.  The polished objective itself may move either way.
        rng = np.random.default_rng(41)
        x = rng.uniform(-2, 2, size=(20, 2))
        b = np.cos(x[:, 0]) * x[:, 1]
        best_explore = {}
        for restarts in (1, 5):
            _, info = optimize_theta(x, b, restarts=restarts, seed=9, full_output=True)
            explored = [run for run in info["runs"] if run["phase"] == "explore"]
            assert len(explored) == restarts
            best_explore[restarts] = min(run["objective"] for run in explored)
            assert info["objective"] <= best_explore[restarts]
        assert best_explore[5] <= best_explore[1]

    def test_explore_loosely_then_polish_the_best_endpoint(self, monkeypatch):
        rng = np.random.default_rng(43)
        x = rng.uniform(-2, 2, size=(25, 2))
        b = np.sin(x[:, 0]) * x[:, 1]
        calls = []
        original = surrogate_mod.least_squares

        def spy(fun, x0, **kwargs):
            result = original(fun, x0, **kwargs)
            tolerances = {key: kwargs[key] for key in ("ftol", "xtol", "gtol") if key in kwargs}
            calls.append((np.array(x0), tolerances, result))
            return result

        monkeypatch.setattr(surrogate_mod, "least_squares", spy)
        _, info = optimize_theta(x, b, restarts=5, seed=2, full_output=True)
        *explore, polish = calls
        assert len(explore) == 5
        assert all(tol == _EXPLORE_TOLERANCES for _, tol, _ in explore)
        assert polish[1] == {}  # scipy's default tolerances
        best = min(explore, key=lambda call: call[2].cost)[2]
        assert np.array_equal(polish[0], best.x)
        assert [run["phase"] for run in info["runs"]] == ["explore"] * 5 + ["polish"]
        for run, (_, _, result) in zip(info["runs"], calls):
            assert (run["nfev"], run["njev"], run["status"]) == (
                result.nfev, result.njev, result.status
            )

    def test_explore_runs_do_not_stop_partway_down_a_valley(self, corr09):
        # On this training set only the fourth start, a seeded draw, leads
        # to the best basin, down a curved valley.  Explore runs stopped at
        # ftol = xtol = gtol = 1e-3 left it at 4.7 times the optimum, so
        # the polish went elsewhere and the search returned 29300.
        train = sample(corr09, "mc", 300, seed=756955442)
        y = BuiltinModel("rastrigin_lf1").evaluate_batch(train.points)
        _, info = optimize_theta(train.points, y, restarts=5, seed=199277989, full_output=True)
        assert info["objective"] < 22425.0

    def test_fit_records_factorization_count(self):
        rng = np.random.default_rng(47)
        x = rng.normal(size=(30, 2))
        b = np.sin(x[:, 0]) + x[:, 1] ** 2
        _, info = optimize_theta(x, b, restarts=3, seed=5, full_output=True)
        sur = fit(x, b, hermite_basis_2d(1, 2), restarts=3, seed=5)
        assert sur.provenance["loo_factorizations"] == info["factorizations"]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(51)
        x = rng.uniform(-1, 1, size=(15, 2))
        b = x[:, 0] ** 2 - x[:, 1]
        t1 = optimize_theta(x, b, restarts=3, seed=7)
        t2 = optimize_theta(x, b, restarts=3, seed=7)
        np.testing.assert_array_equal(t1, t2)

    def test_rejects_bad_bounds(self):
        x = np.linspace(0, 1, 5)[:, None]
        with pytest.raises(ValueError):
            optimize_theta(x, np.ones(5), bounds=np.array([[0.0, 1.0]]))


def two_solve_variance(sur, pts):
    """Predictive variance the long way: two Cholesky solves against ``r``
    plus one refinement sweep, and ``A^T R^-1 r`` from the full solve."""
    corr = correlation_matrix(sur.training_inputs, sur.kernel)
    if sur.provenance["nugget"]:
        corr = corr + _RELATIVE_NUGGET * np.eye(len(corr))
    factor = cho_factor(corr, lower=True)
    a = sur.basis.evaluate(sur.training_inputs)
    gls = a.T @ cho_solve(factor, a)
    gls_factor = cho_factor(0.5 * (gls + gls.T), lower=True)
    r = cross_correlation(pts, sur.training_inputs, sur.kernel)
    rinv_r = cho_solve(factor, r.T)
    rinv_r += cho_solve(factor, r.T - corr @ rinv_r)
    q_interp = np.einsum("ij,ij->j", r.T, rinv_r)
    u = a.T @ rinv_r - sur.basis.evaluate(pts).T
    q_trend = np.einsum("ij,ij->j", u, cho_solve(gls_factor, u))
    return sur.process_variance * (1.0 - q_interp + q_trend)


class TestPrediction:
    @pytest.mark.parametrize("mode", ["chaos", "chaos_kriging"])
    def test_predict_mean_is_predict_batch_mean(self, mode):
        basis = hermite_basis_2d(1, 2)
        rng = np.random.default_rng(61)
        x = rng.normal(size=(30, 2))
        sur = fit(x, np.sin(x[:, 0]) + x[:, 1] ** 2, basis, mode=mode, seed=0)
        pts = rng.normal(size=(_PREDICT_BLOCK + 1000, 2))  # crosses a block edge
        assert np.array_equal(sur.predict_mean(pts), sur.predict_batch(pts)[0])

    @pytest.mark.parametrize("kind", ["gaussian", "exponential"])
    @pytest.mark.parametrize("nugget", [False, True])
    def test_variance_matches_two_solve_oracle(self, kind, nugget):
        basis = hermite_basis_2d(1, 2)
        rng = np.random.default_rng(63)
        x = rng.normal(size=(40, 2))
        if nugget:
            # A leading pair closer than any kernel resolves: their
            # correlation is exactly 1, so the second Cholesky pivot is
            # exactly 0 until the nugget is added.
            x = np.vstack([[[0.0, 0.0], [1e-20, 0.0]], x])
        y = np.sin(x[:, 0]) + x[:, 1] ** 2
        theta = [0.5, 0.5] if kind == "gaussian" else [1.0, 1.0]
        sur = fit(x, y, basis, kernel_kind=kind, theta=theta)
        assert sur.provenance["nugget"] is nugget
        pts = np.vstack([rng.normal(size=(500, 2)), x + 1e-3 * rng.normal(size=x.shape)])
        _, raw = sur.predict_batch(pts, clamp=False)
        np.testing.assert_allclose(
            raw, two_solve_variance(sur, pts), rtol=0, atol=1e-9 * sur.process_variance
        )

    def test_surrogate_mcs_needs_only_the_mean(self):
        class MeanOnly:
            def predict_mean(self, points):
                return np.atleast_2d(points)[:, 0] ** 3

        samples = sample(InputModel([Gaussian(0, 1)]), "mc", 1000, seed=65)
        report = surrogate_mcs_estimate(MeanOnly(), samples, 0.9)
        expected = var_cvar(samples.points[:, 0] ** 3, samples.probabilities, 0.9)
        assert (report.var_estimate, report.cvar_estimate) == expected


def unmemoized_optimize_theta(inputs, outputs, kind, restarts, seed):
    """The two-phase LOO search of :func:`optimize_theta` with every theta
    factorized afresh, as many times as its residuals or its Jacobian are
    asked for."""
    bounds = default_theta_bounds(inputs)
    log_lo, log_hi = np.log(bounds[:, 0]), np.log(bounds[:, 1])
    penalty_scale = np.sqrt(_PENALTY * (1.0 + float(outputs @ outputs)) / len(outputs))

    def residual_fn(log_theta):
        res = surrogate_mod._loo_residuals(np.exp(log_theta), inputs, outputs, kind)
        return np.full(len(outputs), penalty_scale) if res is None else res

    def jacobian_fn(log_theta, *_):
        theta = np.exp(log_theta)
        state = surrogate_mod._loo_state(theta, inputs, outputs, kind)
        if state is None:
            return np.zeros((len(outputs), len(theta)))
        return surrogate_mod._loo_jacobian(theta, inputs, state, kind)

    rng = np.random.default_rng(seed)
    candidates, runs = [], []

    def solve(start, phase, tolerances):
        result = least_squares(
            residual_fn, start, jac=jacobian_fn, bounds=(log_lo, log_hi), method="trf",
            **tolerances,
        )
        theta = np.exp(result.x)
        obj = loo_cv_objective(theta, inputs, outputs, kind)
        candidates.append((obj, theta))
        runs.append({"phase": phase, "start": np.exp(start).tolist(), "theta": theta.tolist(),
                     "objective": obj, "nfev": int(result.nfev), "njev": int(result.njev),
                     "status": int(result.status)})
        return obj, result.x

    probe_best = None
    for q in np.linspace(0.02, 0.98, 16):
        log_theta = log_lo + q * (log_hi - log_lo)
        obj = loo_cv_objective(np.exp(log_theta), inputs, outputs, kind)
        candidates.append((obj, np.exp(log_theta)))
        if probe_best is None or obj < probe_best[0]:
            probe_best = (obj, log_theta)
    starts = [log_lo + 0.1 * (log_hi - log_lo), probe_best[1], 0.5 * (log_lo + log_hi)]
    for _ in range(restarts - 3):
        starts.append(log_lo + rng.uniform(size=log_lo.shape) * (log_hi - log_lo))
    explored = []
    for start in starts[:restarts]:
        candidates.append((loo_cv_objective(np.exp(start), inputs, outputs, kind), np.exp(start)))
        explored.append(solve(start, "explore", _EXPLORE_TOLERANCES))
    solve(min(explored, key=lambda run: run[0])[1], "polish", {})
    solver_ok = any(run["status"] > 0 for run in runs)
    best_obj, best_theta = min(candidates, key=lambda item: item[0])
    return best_theta, {"objective": best_obj, "fallback": not solver_ok, "runs": runs}


class TestLooMemo:
    @pytest.mark.parametrize("kind", ["gaussian", "exponential"])
    def test_memo_leaves_search_unchanged_and_saves_evaluations(self, kind, monkeypatch):
        rng = np.random.default_rng(67)
        x = rng.uniform(-2, 2, size=(25, 2))
        b = np.cos(x[:, 0]) * x[:, 1]
        seen = []
        original = surrogate_mod._loo_state

        def counting(theta, *args):
            seen.append(theta.tobytes())
            return original(theta, *args)

        monkeypatch.setattr(surrogate_mod, "_loo_state", counting)
        theta, info = optimize_theta(x, b, kind=kind, restarts=5, seed=3, full_output=True)
        memo_calls = len(seen)
        assert info.pop("factorizations") == memo_calls
        # Only a Jacobian at a theta whose residuals came from the memo
        # refactorizes: at the probe-best start, which repeats a ladder
        # rung, and at the polish start, an explore endpoint evaluated
        # before later runs replaced the kept factorization.
        assert memo_calls - len(set(seen)) <= 2

        seen.clear()
        want_theta, want_info = unmemoized_optimize_theta(x, b, kind, restarts=5, seed=3)
        assert np.array_equal(theta, want_theta)
        assert info == want_info
        assert memo_calls < len(seen)


def central_difference_jacobian(log_theta, x, b, kind, step=1e-5):
    cols = []
    for k in range(len(log_theta)):
        shift = np.zeros_like(log_theta)
        shift[k] = step
        hi = surrogate_mod._loo_residuals(np.exp(log_theta + shift), x, b, kind)
        lo = surrogate_mod._loo_residuals(np.exp(log_theta - shift), x, b, kind)
        cols.append((hi - lo) / (2 * step))
    return np.column_stack(cols)


class TestLooJacobian:
    @pytest.mark.parametrize("kind", ["gaussian", "exponential"])
    def test_matches_central_differences(self, kind):
        rng = np.random.default_rng(71)
        x = rng.uniform(-2, 2, size=(30, 2))
        b = np.sin(2 * x[:, 0]) - 0.5 * x[:, 1] ** 2
        for theta in ([0.7, 1.1], [0.3, 2.0]):
            log_theta = np.log(theta)
            state = surrogate_mod._loo_state(np.exp(log_theta), x, b, kind)
            jac = surrogate_mod._loo_jacobian(np.exp(log_theta), x, state, kind)
            fd = central_difference_jacobian(log_theta, x, b, kind)
            np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())

    def test_diagonal_matches_solve_against_identity(self):
        rng = np.random.default_rng(73)
        x = rng.uniform(-2, 2, size=(40, 2))
        b = x[:, 0] - x[:, 1] ** 3
        corr, _, rinv_b, rinv_diag = surrogate_mod._loo_state(np.array([0.8, 0.6]), x, b, "gaussian")
        factor = cho_factor(corr, lower=True)
        np.testing.assert_allclose(rinv_diag, np.diag(cho_solve(factor, np.eye(40))), rtol=1e-10)
        np.testing.assert_allclose(rinv_b, cho_solve(factor, b), rtol=1e-12)

    def test_singular_theta_gives_penalty_and_flat_jacobian(self, monkeypatch):
        # A pair 1e-9 apart makes R singular at the long end of the box.
        x = np.array([[0.0], [1e-9], [0.3], [0.7], [1.0]])
        b = np.array([1.0, 2.0, 0.0, -1.0, 0.5])
        log_hi = np.log(default_theta_bounds(x)[:, 1])
        assert surrogate_mod._loo_state(np.exp(log_hi), x, b, "gaussian") is None
        seen = []
        original = surrogate_mod.least_squares

        def spy(fun, x0, jac, **kwargs):
            seen.append((fun(log_hi), jac(log_hi)))
            return original(fun, x0, jac=jac, **kwargs)

        monkeypatch.setattr(surrogate_mod, "least_squares", spy)
        optimize_theta(x, b, restarts=1, seed=0)
        residual, jac = seen[0]
        penalty_scale = np.sqrt(_PENALTY * (1.0 + float(b @ b)) / len(b))
        assert np.array_equal(residual, np.full(len(b), penalty_scale))
        assert np.array_equal(jac, np.zeros((len(b), 1)))

    def test_theta_independent_of_blas_threads(self):
        script = (
            "import json\n"
            "from tailrisk import cli, inputs, surrogate\n"
            "exp = cli.Experiment(cli.load_config(preset='example1-corr09'))\n"
            "seed = exp.seed\n"
            "train = inputs.sample(exp.input_model, 'mc', exp.training_size,\n"
            "                      cli._derived_seed(seed, 0, cli._TRAIN))\n"
            "y = exp.build_model().evaluate_batch(train.points)\n"
            "theta = surrogate.optimize_theta(train.points, y, kind=exp.kernel,\n"
            "    restarts=exp.restarts, seed=cli._derived_seed(seed, 0, cli._FIT))\n"
            "print(json.dumps(theta.tolist()))\n"
        )
        thetas = [
            json.loads(run_python(script, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n))
            for n in ("1", "2")
        ]
        np.testing.assert_allclose(thetas[0], thetas[1], rtol=1e-5)


class TestModeDominance:
    def test_kriging_beats_chaos_on_rastrigin(self, corr09):
        basis = build_basis(corr09, 1, 3, quadrature=200_000, seed=0)
        train = sample(corr09, "mc", 300, seed=123)
        y = rastrigin(train.points)
        krig = fit(train.points, y, basis, seed=5)
        chaos = fit(train.points, y, basis, mode="chaos", seed=5)
        test_pts = sample(corr09, "mc", 1000, seed=321).points
        truth = rastrigin(test_pts)
        mse_krig = np.mean((krig.predict_batch(test_pts)[0] - truth) ** 2)
        mse_chaos = np.mean((chaos.predict_batch(test_pts)[0] - truth) ** 2)
        assert mse_krig <= mse_chaos


class TestSerialization:
    def test_round_trip_predictions_identical(self, tmp_path):
        basis = hermite_basis_2d(1, 2)
        rng = np.random.default_rng(17)
        x = rng.normal(size=(20, 2))
        y = np.sin(x[:, 0]) - x[:, 1]
        sur = fit(x, y, basis, seed=6)
        path = tmp_path / "surrogate.json"
        sur.save(path)
        loaded = FittedSurrogate.load(path)
        pts = rng.normal(size=(30, 2))
        m1, v1 = sur.predict_batch(pts)
        m2, v2 = loaded.predict_batch(pts)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(v1, v2)
        assert loaded.training_digest() == sur.training_digest()

    def test_version_mismatch(self):
        basis = hermite_basis_1d(1)
        x = np.linspace(0, 1, 4)[:, None]
        sur = fit(x, np.ones(4), basis, mode="chaos")
        payload = sur.to_dict()
        payload["version"] = 99
        with pytest.raises(ArtifactError):
            FittedSurrogate.from_dict(payload)
