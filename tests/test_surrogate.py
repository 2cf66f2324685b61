import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dtrtri
from scipy.optimize import least_squares
from scipy.spatial.distance import cdist

from tailrisk import (
    ArtifactError,
    BuiltinModel,
    DegenerateTrainingError,
    FittedSurrogate,
    Gaussian,
    InputModel,
    KernelSpec,
    OptimizationError,
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

TINY = np.finfo(float).tiny
# Per kernel, a length scale short enough that the unflushed kernel holds
# subnormal entries for ``spread_points``, and a long one that still
# factors.
SHORT_AND_LONG = [("gaussian", 0.3), ("gaussian", 1.5), ("exponential", 0.015), ("exponential", 3.0)]


def spread_points(n=120, seed=1):
    return np.random.default_rng(seed).normal(scale=2.0, size=(n, 2))


def unflushed_correlation(points_a, points_b, kernel):
    """The kernel matrix as plain ``exp(-cdist)``, subnormals kept."""
    metric = "sqeuclidean" if kernel.kind == "gaussian" else "cityblock"
    return np.exp(-cdist(points_a / kernel.theta, points_b / kernel.theta, metric))


def hermite_basis_1d(degree):
    """Analytically exact orthonormal basis for a standard normal input."""
    s = multi_index_set(1, 1, degree)
    return whiten(analytic_gaussian_gram(s), s)


def hermite_basis_2d(interaction, degree):
    s = multi_index_set(2, interaction, degree)
    return whiten(analytic_gaussian_gram(s), s)


def fixed_theta_fit(x, y, basis, theta, kind="gaussian"):
    """A chaos-Kriging surrogate at the given length scales, no LOO search."""
    return FittedSurrogate(basis, KernelSpec(kind, theta), x, y)


def wall_training_set():
    """A Gaussian-kernel training set whose probe ladder and polish both
    reach singular correlation matrices."""
    x = np.random.default_rng(47).uniform(-2, 2, size=(30, 2))
    return x, np.cos(x[:, 0]) * x[:, 1]


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

    @pytest.mark.parametrize("kind, theta", SHORT_AND_LONG)
    def test_correlation_matrix_is_cross_correlation_without_subnormals(self, kind, theta):
        pts = spread_points()
        kernel = KernelSpec(kind, np.full(2, theta))
        raw = unflushed_correlation(pts, pts, kernel)
        if theta < 1.0:  # the flush has work to do
            assert np.any((raw > 0.0) & (raw < TINY))
        corr = correlation_matrix(pts, kernel)
        assert np.array_equal(corr, cross_correlation(pts, pts, kernel))
        assert np.array_equal(corr, corr.T)
        np.testing.assert_array_equal(np.diag(corr), 1.0)
        assert not np.any((corr > 0.0) & (corr < TINY))
        # Only the subnormal entries changed.
        normal = raw >= TINY
        assert np.array_equal(corr[normal], raw[normal])
        assert np.all(corr[~normal] == 0.0)

    def test_flush_matches_two_pass_oracle_across_the_boundary(self):
        def two_pass(dist):
            """The flush as two boolean passes: inf past 709, zero below TINY."""
            dist[dist > 709.0] = np.inf
            np.negative(dist, out=dist)
            np.exp(dist, out=dist)
            dist[dist < TINY] = 0.0
            return dist

        # Every double within 20 000 ulps of the cut-off, one nextafter
        # step apart (the spacing is constant inside the binade), and a few
        # distances far from it.
        edge = 708.3964185322641
        sweep = edge + np.arange(-20_000, 20_001) * np.spacing(edge)
        assert sweep[20_001] == np.nextafter(edge, np.inf)
        assert sweep[19_999] == np.nextafter(edge, -np.inf)
        dist = np.concatenate([sweep, [0.0, 1.0, 700.0, 709.0, 709.5, 745.2, 800.0, np.inf]])
        got = surrogate_mod._correlation_from_distance(dist.copy())
        assert np.array_equal(got, two_pass(dist.copy()))
        assert np.array_equal(got >= TINY, dist <= edge)
        assert np.all((got == 0.0) | (got >= TINY))


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
        sur = fixed_theta_fit(x, y, basis, [0.1])
        far = np.array([[50.0]])
        r = cross_correlation(far, x, sur.kernel)
        assert np.max(r) < 1e-12
        means, variances = sur._predict(far, True)
        psi = basis.evaluate(far)[0]
        assert means[0] == pytest.approx(float(psi @ sur.coefficients), rel=1e-10)
        assert variances[0] >= sur.process_variance

    @pytest.mark.parametrize("which", ["outputs", "inputs"])
    def test_non_finite_training_data_rejected_before_the_search(self, which, monkeypatch):
        basis = hermite_basis_2d(1, 2)
        x = np.random.default_rng(9).normal(size=(20, 2))
        y = np.sin(x[:, 0]) + x[:, 1]
        payload = fixed_theta_fit(x, y, basis, [0.8, 0.8]).to_dict()
        if which == "outputs":
            y[3] = np.nan
        else:
            x[5, 1] = np.inf
        calls = []
        original = surrogate_mod._loo_state

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(surrogate_mod, "_loo_state", counting)
        with pytest.raises(ValueError, match=f"training {which} hold a non-finite value"):
            fit(x, y, basis)
        assert calls == []
        payload["training_inputs"], payload["training_outputs"] = x.tolist(), y.tolist()
        with pytest.raises(ArtifactError, match="non-finite"):
            FittedSurrogate.from_dict(payload)

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
            assert surrogate_mod._cholesky(correlation_matrix(design, kernel)) is None
            targets = np.sin(design[:, 0]) + design[:, 1] ** 2
            sur = fixed_theta_fit(design, targets, basis, [0.5, 0.5])
            assert sur.provenance["nugget"] is True

    def test_rank_deficient_design_rejected(self):
        from tailrisk import ConditioningError

        # all training points share x2, so the x2 basis column collapses
        basis = hermite_basis_2d(1, 1)
        x = np.column_stack([np.linspace(-1, 1, 8), np.zeros(8)])
        with pytest.raises(ConditioningError):
            fit(x, np.sin(x[:, 0]), basis, mode="chaos")
        with pytest.raises(ConditioningError):
            fixed_theta_fit(x, np.sin(x[:, 0]), basis, [0.5, 0.5])
        # A load rebuilds the same system, and refuses it the same way.
        spread = np.column_stack([x[:, 0], np.linspace(-1, 1, 8) ** 2])
        payload = fixed_theta_fit(spread, np.sin(x[:, 0]), basis, [0.5, 0.5]).to_dict()
        payload["training_inputs"] = x.tolist()
        with pytest.raises(ConditioningError):
            FittedSurrogate.from_dict(payload)

    def test_gls_equals_ols_when_correlation_is_identity(self):
        basis = hermite_basis_1d(2)
        rng = np.random.default_rng(8)
        x = np.sort(rng.uniform(-2, 2, 12))[:, None]
        y = rng.normal(size=12)
        # theta far below the minimum spacing underflows every off-diagonal
        # correlation to exactly zero, so R is the identity bit-for-bit.
        sur = fixed_theta_fit(x, y, basis, [1e-3])
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

    @pytest.mark.parametrize("kind", ["gaussian", "exponential"])
    @pytest.mark.parametrize("nugget", [False, True])
    def test_fit_matches_normal_equations(self, kind, nugget):
        # c = (A^T R^-1 A)^-1 A^T R^-1 b and sigma^2 = (b - A c)^T R^-1 (b - A c) / n,
        # solved through the normal matrix, on well-conditioned sets.
        x = np.random.default_rng(67).normal(size=(40, 2))
        if nugget:  # a pair whose correlation is exactly 1
            x = np.vstack([[[0.0, 0.0], [1e-20, 0.0]], x])
        b = np.sin(x[:, 0]) + x[:, 1] ** 2
        theta = [0.5, 0.5] if kind == "gaussian" else [1.0, 1.0]
        sur = fixed_theta_fit(x, b, hermite_basis_2d(1, 2), theta, kind)
        assert sur.provenance["nugget"] is nugget
        _, factor, a, gls_factor = normal_equations(sur)
        coeffs = cho_solve(gls_factor, a.T @ cho_solve(factor, b))
        residual = b - a @ coeffs
        np.testing.assert_allclose(
            sur.coefficients, coeffs, rtol=0, atol=1e-12 * np.abs(coeffs).max()
        )
        variance = residual @ cho_solve(factor, residual) / len(b)
        assert sur.process_variance == pytest.approx(variance, rel=1e-12, abs=0)

    def test_chaos_fit_matches_lstsq(self):
        basis = hermite_basis_2d(2, 3)
        x = np.random.default_rng(71).normal(size=(30, 2))
        b = np.sin(x[:, 0]) + x[:, 1] ** 2
        sur = fit(x, b, basis, mode="chaos")
        coeffs, squares, rank, _ = np.linalg.lstsq(basis.evaluate(x), b, rcond=None)
        assert rank == len(basis)
        np.testing.assert_allclose(
            sur.coefficients, coeffs, rtol=0, atol=1e-12 * np.abs(coeffs).max()
        )
        assert sur.process_variance == pytest.approx(squares[0] / len(b), rel=1e-12, abs=0)

    def test_variance_nonnegative_before_clamp(self):
        basis = hermite_basis_2d(1, 2)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(40, 2))
        y = np.cos(2 * x[:, 0]) * x[:, 1]
        sur = fit(x, y, basis, seed=3)
        pts = rng.normal(size=(1000, 2))
        _, raw = sur._predict(pts, True)
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
        theta, _ = optimize_theta(x, np.zeros(8), seed=0)
        assert 0.01 <= theta[0] <= 10.0
        assert loo_cv_objective(theta, x, np.zeros(8)) == 0.0

    def test_beats_log_grid(self):
        rng = np.random.default_rng(31)
        x = np.sort(rng.uniform(-2, 2, 25))[:, None]
        b = np.sin(3 * x[:, 0]) + 0.1 * x[:, 0] ** 2
        _, info = optimize_theta(x, b, seed=4)
        grid = np.geomspace(*default_theta_bounds(x)[0], 50)
        grid_best = min(loo_cv_objective([t], x, b) for t in grid)
        assert info["objective"] <= grid_best + 1e-12

    def test_restart_monotonicity(self):
        # The promise of the two-phase search: the result is no worse than
        # the best explore endpoint, or than any of the five starts.
        rng = np.random.default_rng(41)
        x = rng.uniform(-2, 2, size=(20, 2))
        b = np.cos(x[:, 0]) * x[:, 1]
        _, info = optimize_theta(x, b, seed=9)
        explored = [run for run in info["runs"] if run["phase"] == "explore"]
        assert len(explored) == 5
        assert info["objective"] <= min(run["objective"] for run in explored)
        assert info["objective"] <= min(loo_cv_objective(run["start"], x, b) for run in explored)

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
        _, info = optimize_theta(x, b, seed=2)
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
        # the polish went elsewhere and the search returned 29334 (+34%).
        # The reference optimum over the factorizable length scales is
        # 21926.3: the best of an 80 x 80 log grid over the box, refined by
        # full-tolerance solver runs from its 12 best factorizable points.
        # The search ends at the conditioning wall at 22440 (+2.3%).
        train = sample(corr09, "mc", 300, seed=756955442)
        y = BuiltinModel("rastrigin_lf1").evaluate_batch(train.points)
        _, info = optimize_theta(train.points, y, seed=199277989)
        assert info["objective"] < 1.05 * 21926.3

    def test_fit_records_factorization_count(self):
        rng = np.random.default_rng(47)
        x = rng.normal(size=(30, 2))
        b = np.sin(x[:, 0]) + x[:, 1] ** 2
        _, info = optimize_theta(x, b, seed=5)
        assert 0 < info["singular_factorizations"] < info["factorizations"]
        sur = fit(x, b, hermite_basis_2d(1, 2), seed=5)
        assert sur.provenance["loo_factorizations"] == info["factorizations"]
        assert sur.provenance["loo_singular_factorizations"] == info["singular_factorizations"]

    def test_ladder_stops_at_its_first_singular_rung(self, monkeypatch):
        x, b = wall_training_set()
        bounds = default_theta_bounds(x)
        log_lo, log_hi = np.log(bounds[:, 0]), np.log(bounds[:, 1])
        rungs = [np.exp(log_lo + q * (log_hi - log_lo)) for q in np.linspace(0.02, 0.98, 16)]
        singular = [surrogate_mod._loo_state(theta, x, b, "gaussian") is None for theta in rungs]
        first = singular.index(True)
        assert 0 < first < 15 and all(singular[first:])
        factorized, solving = [], [False]
        original_state, original_solver = surrogate_mod._loo_state, surrogate_mod.least_squares

        def counting(theta, *args):
            if not solving[0]:
                factorized.append(theta.tobytes())
            return original_state(theta, *args)

        def solver(*args, **kwargs):
            solving[0] = True
            return original_solver(*args, **kwargs)

        monkeypatch.setattr(surrogate_mod, "_loo_state", counting)
        monkeypatch.setattr(surrogate_mod, "least_squares", solver)
        _, info = optimize_theta(x, b, seed=3)
        rung_keys = [theta.tobytes() for theta in rungs]
        assert [key for key in factorized if key in rung_keys] == rung_keys[: first + 1]
        # The probe-best start, which runs first, is the full ladder's best rung.
        full_best = min(rungs, key=lambda theta: loo_cv_objective(theta, x, b))
        assert info["runs"][0]["start"] == full_best.tolist()

    def test_polish_ends_at_its_first_singular_evaluation(self, monkeypatch):
        x, b = wall_training_set()
        polish, phase = [], ["explore"]
        original_residuals = surrogate_mod._loo_residuals
        original_solver = surrogate_mod.least_squares

        # Every evaluation reads the residuals of a state, whether the
        # state was factorized for it or reused, as at the polish's start.
        def recording(state):
            res = original_residuals(state)
            if phase[0] == "polish":
                polish.append(res)
            return res

        def solver(*args, **kwargs):
            phase[0] = "explore" if "ftol" in kwargs else "polish"
            result = original_solver(*args, **kwargs)
            phase[0] = "done"
            return result

        monkeypatch.setattr(surrogate_mod, "_loo_residuals", recording)
        monkeypatch.setattr(surrogate_mod, "least_squares", solver)
        _, info = optimize_theta(x, b, seed=3)
        assert [res is None for res in polish] == [False] * (len(polish) - 1) + [True]
        run = info["runs"][-1]
        assert run["phase"] == "polish" and run["wall"]
        assert not any(other["wall"] for other in info["runs"][:-1])
        # The run keeps the best point it evaluated.
        assert run["objective"] == min(float(res @ res) for res in polish[:-1])

    def test_exponential_search_never_reaches_the_wall(self, corr09):
        train = sample(corr09, "mc", 100, seed=83)
        y = BuiltinModel("cross_in_tray").evaluate_batch(train.points)
        theta, info = optimize_theta(train.points, y, kind="exponential", seed=5)
        assert info["singular_factorizations"] == 0
        assert not any(run["wall"] for run in info["runs"])
        unstopped, _ = unmemoized_optimize_theta(
            train.points, y, "exponential", seed=5, stop_at_wall=False
        )
        assert np.array_equal(theta, unstopped)

    @pytest.mark.parametrize("kind", ["gaussian", "exponential"])
    def test_search_memory_is_bounded(self, corr09, kind):
        # Traced peak of one search at n = 300: 6.3 (Gaussian) and 7.2
        # (exponential) n x n arrays, with two states kept and no fresh
        # n x n temporary per Jacobian column.
        train = sample(corr09, "mc", 300, seed=5)
        y = rastrigin(train.points)
        tracemalloc.start()
        try:
            optimize_theta(train.points, y, kind=kind, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * train.points.shape[0] ** 2 * 8

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(51)
        x = rng.uniform(-1, 1, size=(15, 2))
        b = x[:, 0] ** 2 - x[:, 1]
        t1, info1 = optimize_theta(x, b, seed=7)
        t2, info2 = optimize_theta(x, b, seed=7)
        np.testing.assert_array_equal(t1, t2)
        assert info1 == info2

    def test_rejects_bad_bounds(self):
        # The search box always comes from the data, so it is valid even
        # for a constant column: positive, finite and increasing.
        x = np.column_stack([np.linspace(0, 1, 5), np.full(5, 3.0)])
        bounds = default_theta_bounds(x)
        assert np.all(np.isfinite(bounds)) and np.all(bounds > 0.0)
        assert np.all(bounds[:, 0] < bounds[:, 1])
        theta, _ = optimize_theta(x, np.linspace(-1, 1, 5), seed=0)
        assert np.all((bounds[:, 0] <= theta) & (theta <= bounds[:, 1]))

    @pytest.mark.parametrize("kind", ["gaussian", "exponential"])
    def test_result_is_the_best_factorizable_evaluation(self, kind, monkeypatch):
        # The solver accepts only steps that lower the objective, so the
        # best point evaluated is also the best solver endpoint.
        x, b = wall_training_set()
        objectives = []
        original = surrogate_mod._loo_residuals

        def recording(state):
            res = original(state)
            if res is not None:
                objectives.append(float(res @ res))
            return res

        monkeypatch.setattr(surrogate_mod, "_loo_residuals", recording)
        theta, info = optimize_theta(x, b, kind=kind, seed=3)
        assert info["objective"] == min(objectives)
        assert info["objective"] == min(run["objective"] for run in info["runs"])
        assert loo_cv_objective(theta, x, b, kind) == info["objective"]

    def test_overflowing_outputs_raise(self, monkeypatch):
        # The squares of these outputs overflow, so no objective is
        # finite, not even the penalty; that is known before any length
        # scale is tried.
        x, b = cosine_training_set()
        calls = []
        monkeypatch.setattr(surrogate_mod, "_loo_state", lambda *args: calls.append(args))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OptimizationError, match="overflow"):
                optimize_theta(x, 1e160 * b, seed=3)
        assert calls == []

    def test_solver_error_propagates(self, monkeypatch):
        # A failed solver run is an error, not a silent theta fallback.
        x, b = cosine_training_set()
        calls = []

        def failing(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("solver failed")

        monkeypatch.setattr(surrogate_mod, "least_squares", failing)
        with pytest.raises(RuntimeError, match="solver failed"):
            optimize_theta(x, b, seed=3)
        assert len(calls) == 1


def normal_equations(sur):
    """The textbook generalized least-squares system at ``sur``'s length
    scales: ``R`` (with the nugget when the fit took it), its Cholesky
    factor, ``A`` and the Cholesky factor of the normal matrix ``A^T R^-1 A``."""
    corr = correlation_matrix(sur.training_inputs, sur.kernel)
    if sur.provenance["nugget"]:
        corr = corr + _RELATIVE_NUGGET * np.eye(len(corr))
    factor = cho_factor(corr, lower=True)
    a = sur.basis.evaluate(sur.training_inputs)
    gls = a.T @ cho_solve(factor, a)
    return corr, factor, a, cho_factor(0.5 * (gls + gls.T), lower=True)


def two_solve_variance(sur, pts):
    """Predictive variance the long way: two Cholesky solves against ``r``
    plus one refinement sweep, and ``A^T R^-1 r`` from the full solve."""
    corr, factor, a, gls_factor = normal_equations(sur)
    r = cross_correlation(pts, sur.training_inputs, sur.kernel)
    rinv_r = cho_solve(factor, r.T)
    rinv_r += cho_solve(factor, r.T - corr @ rinv_r)
    q_interp = np.einsum("ij,ij->j", r.T, rinv_r)
    u = a.T @ rinv_r - sur.basis.evaluate(pts).T
    q_trend = np.einsum("ij,ij->j", u, cho_solve(gls_factor, u))
    return sur.process_variance * (1.0 - q_interp + q_trend)


@pytest.fixture(scope="module")
def n300_surrogate():
    x = np.random.default_rng(79).normal(scale=2.0, size=(300, 2))
    y = rastrigin(x)
    return fixed_theta_fit(x, y, hermite_basis_2d(1, 3), [0.6, 0.6])


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
        sur = fixed_theta_fit(x, y, basis, theta, kind)
        assert sur.provenance["nugget"] is nugget
        pts = np.vstack([rng.normal(size=(500, 2)), x + 1e-3 * rng.normal(size=x.shape)])
        _, raw = sur._predict(pts, True)
        np.testing.assert_allclose(
            raw, two_solve_variance(sur, pts), rtol=0, atol=1e-9 * sur.process_variance
        )

    def test_blocks_do_not_change_predictions(self, n300_surrogate):
        # OpenBLAS takes other kernels, which round differently, for the
        # last rows of a block whose row count is not a multiple of 4 and
        # for a narrow block (about 150 rows and fewer).  These cuts make
        # neither, so the blocks must agree bit for bit.
        pts = np.random.default_rng(83).normal(scale=2.0, size=(10_000, 2))
        whole = n300_surrogate._predict(pts, True)
        parts = [n300_surrogate._predict(pts[lo:hi], True)
                 for lo, hi in ((0, 2000), (2000, 6500), (6500, 10_000))]
        for got, want in zip(whole, zip(*parts)):
            assert np.array_equal(got, np.concatenate(want))

    @pytest.mark.parametrize("method, limit", [("predict_batch", 16e6), ("predict_mean", 10e6)])
    def test_prediction_memory_is_bounded_by_the_block(self, n300_surrogate, method, limit):
        # Traced peak at 10 000 points, n = 300: about 6 MB either way in
        # 1024-row blocks, against 49 and 40 MB in 8192-row blocks.
        pts = np.random.default_rng(89).normal(scale=2.0, size=(10_000, 2))
        predict = getattr(n300_surrogate, method)
        tracemalloc.start()
        try:
            predict(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit

    def test_surrogate_mcs_needs_only_the_mean(self):
        class MeanOnly:
            def predict_mean(self, points):
                return np.atleast_2d(points)[:, 0] ** 3

        samples = sample(InputModel([Gaussian(0, 1)]), "mc", 1000, seed=65)
        report = surrogate_mcs_estimate(MeanOnly(), samples, 0.9)
        weights = np.full(len(samples), 1 / len(samples))
        expected = var_cvar(samples.points[:, 0] ** 3, weights, 0.9)
        assert (report.var_estimate, report.cvar_estimate) == expected


def unmemoized_optimize_theta(inputs, outputs, kind, seed, stop_at_wall=True):
    """The two-phase LOO search of :func:`optimize_theta` with every theta
    factorized afresh, as many times as its residuals or its Jacobian are
    asked for.  With ``stop_at_wall=False`` the probe ladder runs every rung
    and the polish runs on past singular correlation matrices."""
    bounds = default_theta_bounds(inputs)
    log_lo, log_hi = np.log(bounds[:, 0]), np.log(bounds[:, 1])
    penalty_scale = np.sqrt(_PENALTY * (1.0 + float(outputs @ outputs)) / len(outputs))
    wall = {"stop": False, "reached": False}

    def residual_fn(log_theta):
        res = None if wall["reached"] else surrogate_mod._loo_residuals(
            surrogate_mod._loo_state(np.exp(log_theta), inputs, outputs, kind)
        )
        if res is None:
            wall["reached"] = wall["stop"]
            return np.full(len(outputs), penalty_scale)
        return res

    def jacobian_fn(log_theta, *_):
        theta = np.exp(log_theta)
        state = surrogate_mod._loo_state(theta, inputs, outputs, kind)
        if state is None:
            return np.zeros((len(outputs), len(theta)))
        return surrogate_mod._loo_jacobian(theta, inputs, state, kind)

    rng = np.random.default_rng(seed)
    candidates, runs = [], []

    def solve(start, phase, tolerances):
        wall.update(stop=stop_at_wall and phase == "polish", reached=False)
        result = least_squares(
            residual_fn, start, jac=jacobian_fn, bounds=(log_lo, log_hi), method="trf",
            **tolerances,
        )
        theta = np.exp(result.x)
        obj = loo_cv_objective(theta, inputs, outputs, kind)
        candidates.append((obj, theta))
        runs.append({"phase": phase, "start": np.exp(start).tolist(), "theta": theta.tolist(),
                     "objective": obj, "nfev": int(result.nfev), "njev": int(result.njev),
                     "status": int(result.status), "wall": wall["reached"]})
        return obj, result.x

    probe_best, factorizable = None, False
    for q in np.linspace(0.02, 0.98, 16):
        log_theta = log_lo + q * (log_hi - log_lo)
        singular = surrogate_mod._loo_state(np.exp(log_theta), inputs, outputs, kind) is None
        obj = loo_cv_objective(np.exp(log_theta), inputs, outputs, kind)
        candidates.append((obj, np.exp(log_theta)))
        if probe_best is None or obj < probe_best[0]:
            probe_best = (obj, log_theta)
        if stop_at_wall and singular and factorizable:
            break
        factorizable = factorizable or not singular
    starts = [probe_best[1], log_lo + 0.1 * (log_hi - log_lo), 0.5 * (log_lo + log_hi)]
    for _ in range(2):
        starts.append(log_lo + rng.uniform(size=log_lo.shape) * (log_hi - log_lo))
    explored = []
    for start in starts:
        candidates.append((loo_cv_objective(np.exp(start), inputs, outputs, kind), np.exp(start)))
        explored.append(solve(start, "explore", _EXPLORE_TOLERANCES))
    solve(min(explored, key=lambda run: run[0])[1], "polish", {})
    solver_ok = any(run["status"] > 0 for run in runs)
    best_obj, best_theta = min(candidates, key=lambda item: item[0])
    return best_theta, {"objective": best_obj, "fallback": not solver_ok, "runs": runs}


def cosine_training_set():
    x = np.random.default_rng(67).uniform(-2, 2, size=(25, 2))
    return x, np.cos(x[:, 0]) * x[:, 1]


def singular_training_set():
    """A pair 1e-9 apart makes R singular everywhere in the search box."""
    x = np.array([[0.0], [1e-9], [0.3], [0.7], [1.0]])
    return x, np.array([1.0, 2.0, 0.0, -1.0, 0.5])


class TestLooMemo:
    @pytest.mark.parametrize(
        "kind, training_set",
        [
            pytest.param("gaussian", cosine_training_set, id="gaussian"),
            pytest.param("exponential", cosine_training_set, id="exponential"),
            # Every rung is singular, so the result is the first rung.
            pytest.param("gaussian", singular_training_set, id="gaussian-singular"),
        ],
    )
    def test_memo_leaves_search_unchanged_and_saves_evaluations(
        self, kind, training_set, monkeypatch
    ):
        x, b = training_set()
        seen = []
        original = surrogate_mod._loo_state

        def counting(theta, *args):
            seen.append(theta.tobytes())
            return original(theta, *args)

        monkeypatch.setattr(surrogate_mod, "_loo_state", counting)
        theta, info = optimize_theta(x, b, kind=kind, seed=3)
        kept_calls = len(seen)
        assert info.pop("factorizations") == kept_calls
        info.pop("singular_factorizations")
        # The one kept factorization serves every request at the theta it
        # was made for, so no theta is factorized twice in a row.
        assert all(prev != key for prev, key in zip(seen, seen[1:]))

        seen.clear()
        want_theta, want_info = unmemoized_optimize_theta(x, b, kind, seed=3)
        assert np.array_equal(theta, want_theta)
        assert info == want_info
        assert kept_calls < len(seen)

    @pytest.mark.parametrize("kind", ["gaussian", "exponential"])
    def test_no_theta_is_factorized_or_differentiated_twice(self, kind, monkeypatch):
        # The first explore run starts at the best ladder rung and the
        # polish at the best explore endpoint; both reuse the kept state.
        x, b = wall_training_set()
        factorized, differentiated = [], []
        original_state, original_jacobian = surrogate_mod._loo_state, surrogate_mod._loo_jacobian

        def state(theta, *args):
            factorized.append(theta.tobytes())
            return original_state(theta, *args)

        def jacobian(theta, *args):
            differentiated.append(theta.tobytes())
            return original_jacobian(theta, *args)

        monkeypatch.setattr(surrogate_mod, "_loo_state", state)
        monkeypatch.setattr(surrogate_mod, "_loo_jacobian", jacobian)
        _, info = optimize_theta(x, b, kind=kind, seed=3)
        assert len(set(factorized)) == len(factorized) == info["factorizations"]
        assert len(set(differentiated)) == len(differentiated)


def central_difference_jacobian(log_theta, x, b, kind, step=1e-5):
    cols = []
    for k in range(len(log_theta)):
        shift = np.zeros_like(log_theta)
        shift[k] = step
        hi = surrogate_mod._loo_residuals(
            surrogate_mod._loo_state(np.exp(log_theta + shift), x, b, kind)
        )
        lo = surrogate_mod._loo_residuals(
            surrogate_mod._loo_state(np.exp(log_theta - shift), x, b, kind)
        )
        cols.append((hi - lo) / (2 * step))
    return np.column_stack(cols)


def dense_loo_jacobian(theta, inputs, state, kind):
    """The LOO Jacobian from the dense formula: ``dalpha = -G P_k alpha``
    and ``dc = -diag(G P_k G)`` with ``P_k = dR/dlog(theta_k)`` formed
    entry by entry and one general product per coordinate."""
    corr = correlation_matrix(inputs, KernelSpec(kind, theta))
    _, chol_inv, alpha, c = state
    gram = chol_inv.T @ chol_inv
    jac = np.empty((len(alpha), len(theta)))
    for k, scale in enumerate(theta):
        diff = (inputs[:, k, None] - inputs[None, :, k]) / scale
        dcorr = (2.0 * diff * diff if kind == "gaussian" else np.abs(diff)) * corr
        g_dcorr = gram @ dcorr
        d_alpha = -g_dcorr @ alpha
        d_c = -np.einsum("ij,ij->i", g_dcorr, gram)
        jac[:, k] = d_alpha / c - alpha * d_c / c**2
    return jac


def isotropic_wall(x, b, kind):
    """The longest factorizable length scales on the isotropic ray through
    the search box (bisection in log scale), or the box's top end when the
    whole ray factorizes."""
    log_lo, log_hi = np.log(default_theta_bounds(x)).T
    if surrogate_mod._loo_state(np.exp(log_hi), x, b, kind) is not None:
        return np.exp(log_hi)
    good, bad = 0.0, 1.0
    for _ in range(30):
        mid = 0.5 * (good + bad)
        theta = np.exp(log_lo + mid * (log_hi - log_lo))
        singular = surrogate_mod._loo_state(theta, x, b, kind) is None
        good, bad = (good, mid) if singular else (mid, bad)
    return np.exp(log_lo + good * (log_hi - log_lo))


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

    @pytest.mark.parametrize("kind", ["gaussian", "exponential"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("wall_fraction", [0.3, 0.95])
    def test_matches_dense_formula(self, kind, dim, wall_fraction):
        # In two and three dimensions the rounded inputs tie on every
        # coordinate.  The exponential formulas agree to about 1e-12.  The
        # Gaussian ones round at the scale of R's conditioning, which the
        # squared pivot ratio tracks: next to the wall (ratio ~3e-10) they
        # agree to 2.6e-4 of the largest entry, while both differ from
        # central differences by 10% and more.
        rng = np.random.default_rng(79 + dim)
        x = np.unique(np.round(rng.uniform(-2, 2, size=(40, dim)), 1 if dim > 1 else 6), axis=0)
        if dim > 1:
            assert all(len(np.unique(col)) < len(x) for col in x.T)
        b = np.sin(2 * x[:, 0]) - 0.5 * x.sum(axis=1) ** 2
        theta = wall_fraction * isotropic_wall(x, b, kind)
        state = surrogate_mod._loo_state(theta, x, b, kind)
        want = dense_loo_jacobian(theta, x, state, kind)
        got = surrogate_mod._loo_jacobian(theta, x, state, kind)
        if kind == "gaussian":
            pivots = np.diag(state[0])
            tol = 1e-12 / (pivots.min() / pivots.max()) ** 2
        else:
            tol = 1e-11
        np.testing.assert_allclose(got, want, rtol=0, atol=tol * np.abs(want).max())

    def test_diagonal_matches_solve_against_identity(self):
        rng = np.random.default_rng(73)
        x = rng.uniform(-2, 2, size=(40, 2))
        b = x[:, 0] - x[:, 1] ** 3
        theta = np.array([0.8, 0.6])
        _, _, rinv_b, rinv_diag = surrogate_mod._loo_state(theta, x, b, "gaussian")
        factor = cho_factor(correlation_matrix(x, KernelSpec("gaussian", theta)), lower=True)
        np.testing.assert_allclose(rinv_diag, np.diag(cho_solve(factor, np.eye(40))), rtol=1e-10)
        np.testing.assert_allclose(rinv_b, cho_solve(factor, b), rtol=1e-12)

    @pytest.mark.parametrize("kind, theta", SHORT_AND_LONG)
    def test_state_matches_plain_factorization_of_unflushed_matrix(self, kind, theta):
        x = spread_points()
        b = np.sin(x[:, 0]) + 0.5 * x[:, 1]
        kernel = KernelSpec(kind, np.full(2, theta))
        _, _, rinv_b, rinv_diag = surrogate_mod._loo_state(kernel.theta, x, b, kind)
        raw = unflushed_correlation(x, x, kernel)
        factor = cho_factor(raw, lower=True)
        np.testing.assert_allclose(rinv_b, cho_solve(factor, b), rtol=1e-12)
        np.testing.assert_allclose(rinv_diag, np.diag(cho_solve(factor, np.eye(len(b)))), rtol=1e-12)

    def test_singular_theta_gives_penalty_and_flat_jacobian(self, monkeypatch):
        x, b = singular_training_set()
        log_hi = np.log(default_theta_bounds(x)[:, 1])
        assert surrogate_mod._loo_state(np.exp(log_hi), x, b, "gaussian") is None
        seen = []
        original = surrogate_mod.least_squares

        def spy(fun, x0, jac, **kwargs):
            seen.append((fun(log_hi), jac(log_hi)))
            return original(fun, x0, jac=jac, **kwargs)

        monkeypatch.setattr(surrogate_mod, "least_squares", spy)
        optimize_theta(x, b, seed=0)
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
            "theta, _ = surrogate.optimize_theta(train.points, y, kind=exp.kernel,\n"
            "    seed=cli._derived_seed(seed, 0, cli._FIT))\n"
            "print(json.dumps(theta.tolist()))\n"
        )
        thetas = [
            json.loads(run_python(script, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n))
            for n in ("1", "2")
        ]
        np.testing.assert_allclose(thetas[0], thetas[1], rtol=1e-5)


class TestInvertLower:
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
    def test_matches_dtrtri(self, n):
        # Leaves of at most 128 rows go to dtrtri; 129 and 300 split.
        a = np.random.default_rng(n).normal(size=(n, n))
        chol = np.linalg.cholesky(a @ a.T / n + np.eye(n))
        block = np.array(chol, order="F")
        got = surrogate_mod._invert_lower(block)
        assert got is block
        want = dtrtri(chol, lower=1)[0]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())
        assert not np.any(np.triu(got, 1))


class TestModeDominance:
    def test_kriging_beats_chaos_on_rastrigin(self, corr09):
        basis = build_basis(corr09, 1, 3)
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

    def test_artifact_with_sampled_moment_provenance_loads(self, corr09, tmp_path):
        # Artifacts written while the basis still had a sampled fallback
        # record which moments it used and the sample count; both are inert.
        x = sample(corr09, "mc", 30, seed=29).points
        sur = fixed_theta_fit(x, rastrigin(x), build_basis(corr09, 1, 2), [1.1, 0.9])
        payload = sur.to_dict()
        assert payload["basis"]["provenance"] == {"jittered": False,
                                                  "coordinate_scales": [2.0, 2.0]}
        payload["basis"]["provenance"] = {"moments": "exact", "quadrature": 1000000,
                                          **payload["basis"]["provenance"]}
        path = tmp_path / "surrogate.json"
        path.write_text(json.dumps(payload))
        loaded = FittedSurrogate.load(path)
        assert loaded.basis.provenance["quadrature"] == 1000000
        pts = sample(corr09, "mc", 50, seed=31).points
        for got, want in zip(loaded.predict_batch(pts), sur.predict_batch(pts)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("mode", ["chaos-kriging", "chaos"])
    def test_normal_equation_artifact_loads(self, mode):
        # Written by the fit that solved the normal matrix A^T R^-1 A (and
        # chaos mode by lstsq); the whitened fit rebuilds the same system.
        path = Path(__file__).parent / "data" / f"gls-{mode}.json"
        payload = json.loads(path.read_text())
        sur = FittedSurrogate.load(path)
        stored = np.asarray(payload["coefficients"])
        np.testing.assert_allclose(
            sur.coefficients, stored, rtol=0, atol=1e-12 * np.abs(stored).max()
        )
        assert sur.process_variance == pytest.approx(payload["process_variance"], rel=1e-12)
        means, _ = sur.predict_batch(sur.training_inputs)
        if sur.mode == "chaos_kriging":
            np.testing.assert_allclose(means, sur.training_outputs, rtol=1e-8)

    def test_version_mismatch(self):
        basis = hermite_basis_1d(1)
        x = np.linspace(0, 1, 4)[:, None]
        sur = fit(x, np.ones(4), basis, mode="chaos")
        payload = sur.to_dict()
        payload["version"] = 99
        with pytest.raises(ArtifactError):
            FittedSurrogate.from_dict(payload)

    def test_fit_and_load_factor_r_once(self, tmp_path, monkeypatch):
        basis = hermite_basis_2d(1, 2)
        x = np.random.default_rng(19).normal(size=(25, 2))
        calls = []
        original = surrogate_mod._cholesky

        def counting(matrix):
            calls.append(len(matrix))
            return original(matrix)

        monkeypatch.setattr(surrogate_mod, "_cholesky", counting)
        sur = fixed_theta_fit(x, np.cos(x[:, 0]) + x[:, 1], basis, [0.7, 0.9])
        assert calls == [25]
        sur.save(tmp_path / "surrogate.json")
        calls.clear()
        FittedSurrogate.load(tmp_path / "surrogate.json")
        assert calls == [25]

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda p: p.pop("training_outputs"),
            lambda p: p.pop("training_digest"),
            lambda p: p["basis"].pop("whitening"),
            lambda p: p.update(coefficients=[0.0] * len(p["coefficients"])),
            lambda p: p.update(coefficients=p["coefficients"][:-1]),
            lambda p: p.update(process_variance=2.0 * p["process_variance"]),
            lambda p: p.update(training_digest="0" * 64),
            lambda p: p.update(training_inputs=[row[:1] for row in p["training_inputs"]]),
            lambda p: p.update(training_outputs=p["training_outputs"][:-1]),
            lambda p: p.update(theta=p["theta"][:1]),
            lambda p: p["basis"].update(whitening=[[1.0]]),
        ],
    )
    def test_malformed_or_inconsistent_artifact_refused(self, tamper):
        basis = hermite_basis_2d(1, 2)
        x = np.random.default_rng(23).normal(size=(20, 2))
        payload = fixed_theta_fit(x, np.sin(x[:, 0]) - x[:, 1], basis, [0.8, 0.8]).to_dict()
        FittedSurrogate.from_dict(json.loads(json.dumps(payload)))
        tamper(payload)
        with pytest.raises(ArtifactError):
            FittedSurrogate.from_dict(payload)
