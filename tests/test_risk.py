import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailrisk import (
    Gaussian,
    InputModel,
    InsufficientMassError,
    RiskRegion,
    RiskReport,
    build_basis,
    epsilon_risk_region,
    fit,
    half_width,
    mcs_estimate,
    mfis_estimate,
    multi_index_set,
    rastrigin,
    sample,
    surrogate_mcs_estimate,
    var_cvar,
    whiten,
)

from helpers import analytic_gaussian_gram, brute_force_var_cvar


class FakeSurrogate:
    """Predictor stub with prescribed means and variances."""

    def __init__(self, means, variances):
        self.means = np.asarray(means, dtype=float)
        self.variances = np.asarray(variances, dtype=float)

    def predict_batch(self, points):
        return self.means.copy(), self.variances.copy()

    def predict_mean(self, points):
        return self.means.copy()


@pytest.fixture(scope="module")
def corr09():
    return InputModel([Gaussian(0, 2), Gaussian(0, 2)], [[1, 0.9], [0.9, 1]])


class TestVarCvar:
    def test_decile_example(self):
        values = np.arange(1.0, 11.0)
        probs = np.full(10, 0.1)
        var, cvar = var_cvar(values, probs, 0.8)
        assert var == 8.0
        assert cvar == pytest.approx(9.5, abs=1e-12)

    def test_constant_values(self):
        var, cvar = var_cvar(np.full(7, 3.25), np.full(7, 1 / 7), 0.9)
        assert var == 3.25
        assert cvar == 3.25

    def test_centile_example(self):
        values = np.arange(1.0, 101.0)
        probs = np.full(100, 0.01)
        var, cvar = var_cvar(values, probs, 0.99)
        assert var == 99.0
        assert cvar == pytest.approx(100.0, abs=1e-12)

    def test_brute_force_oracle_on_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            n = int(rng.integers(1, 1000))
            values = rng.normal(size=n) * rng.uniform(0.5, 20)
            probs = rng.uniform(0.0, 1.0, size=n)
            probs /= probs.sum()
            beta = float(rng.uniform(0.05, 0.995))
            got = var_cvar(values, probs, beta)
            want = brute_force_var_cvar(values, probs, beta)
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1], abs=1e-10)

    def test_insufficient_mass(self):
        with pytest.raises(InsufficientMassError):
            var_cvar(np.array([1.0, 2.0]), np.array([0.004, 0.005]), 0.99)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            var_cvar(np.array([]), np.array([]), 0.9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # A non-finite output must not be ranked as some value of the tail.
        values = np.array([bad, 5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.2, 0.1, 0.0])
        with pytest.raises(ValueError, match="non-finite"):
            var_cvar(values, np.full(10, 0.1), 0.8)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.5, 2.0])
    def test_bad_beta(self, beta):
        with pytest.raises(ValueError):
            var_cvar(np.ones(3), np.full(3, 1 / 3), beta)

    def test_tail_identity_for_integer_tail_count(self):
        rng = np.random.default_rng(5)
        for beta, n in [(0.8, 10), (0.9, 100), (0.95, 1000)]:
            values = rng.normal(size=n)
            probs = np.full(n, 1.0 / n)
            var, cvar = var_cvar(values, probs, beta)
            top = np.sort(values)[::-1][: int(round((1 - beta) * n))]
            assert cvar == pytest.approx(np.mean(top), abs=1e-10)

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=400)
        probs = np.full(400, 1 / 400)
        cvars = [var_cvar(values, probs, b)[1] for b in (0.5, 0.8, 0.9, 0.95, 0.99)]
        assert all(a <= b + 1e-12 for a, b in zip(cvars, cvars[1:]))

    @settings(max_examples=50, deadline=None)
    @given(
        shift=st.floats(-50, 50),
        scale=st.floats(0.01, 30),
        seed=st.integers(0, 10_000),
    )
    def test_translation_and_scaling_equivariance(self, shift, scale, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=50)
        probs = np.full(50, 0.02)
        _, base = var_cvar(values, probs, 0.9)
        _, shifted = var_cvar(values + shift, probs, 0.9)
        _, scaled = var_cvar(values * scale, probs, 0.9)
        assert shifted == pytest.approx(base + shift, rel=1e-9, abs=1e-9)
        assert scaled == pytest.approx(base * scale, rel=1e-9, abs=1e-9)


class TestCiHalfWidth:
    def test_degenerate_alpha(self):
        assert half_width([4.0], 1.0) == pytest.approx(0.0)

    def test_zero_variance(self):
        assert half_width([0.0], 0.05) == pytest.approx(0.0)

    def test_hand_value(self):
        assert half_width([4.0], 0.05)[0] == pytest.approx(3.919927969080108, abs=1e-9)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            half_width([1.0], 0.0)


def make_samples(n, dimension=2, seed=0):
    model = InputModel([Gaussian(0, 1)] * dimension)
    return sample(model, "mc", n, seed=seed)


class TestEpsilonRiskRegion:
    def test_zero_epsilon_collapses_to_plain_tail(self):
        n = 40
        samples = make_samples(n)
        means = np.random.default_rng(1).normal(size=n)
        fake = FakeSurrogate(means, np.zeros(n))
        region = epsilon_risk_region(fake, samples, 0.9, 0.05)
        var, _ = var_cvar(means, np.full(len(samples), 1 / len(samples)), 0.9)
        np.testing.assert_array_equal(
            region.member_indices, np.flatnonzero(means >= var)
        )
        assert region.threshold == var

    def test_hand_walk_with_constant_epsilon(self):
        samples = make_samples(10)
        means = np.arange(10.0, 0.0, -1.0)
        fake = FakeSurrogate(means, np.full(10, (0.5 / 1.959963984540054) ** 2))
        region = epsilon_risk_region(fake, samples, 0.8, 0.05)
        # sorted means - eps: 9.5, 8.5, 7.5, ...; k lands on the third
        # sample, whose lower limit is the threshold
        assert region.threshold == pytest.approx(7.5)
        # membership: mean + 0.5 >= 7.5 keeps exactly the top four
        assert set(region.member_indices.tolist()) == {0, 1, 2, 3}
        assert region.mass == pytest.approx(0.4)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(5, 400),
        beta=st.floats(0.5, 0.99),
        eps_scale=st.floats(0.0, 3.0),
    )
    def test_bounded_error_keeps_the_true_tail_and_the_mass(self, seed, n, beta, eps_scale):
        # Outputs within eps of the surrogate mean: the region holds every
        # sample of the true tail, and its mass is at least 1 - beta.
        rng = np.random.default_rng(seed)
        samples = make_samples(n, seed=seed)
        means = rng.normal(size=n)
        variances = (eps_scale * rng.uniform(size=n)) ** 2
        eps = half_width(variances, 0.05)
        truth = means + rng.uniform(-1.0, 1.0, size=n) * eps
        region = epsilon_risk_region(FakeSurrogate(means, variances), samples, beta, 0.05)
        var, _ = var_cvar(truth, np.full(len(samples), 1 / len(samples)), beta)
        assert set(np.flatnonzero(truth >= var)) <= set(region.member_indices.tolist())
        assert region.mass >= 1.0 - beta

    def test_monotone_widening_in_alpha(self, corr09):
        basis = build_basis(corr09, 1, 2)
        train = sample(corr09, "mc", 60, seed=8)
        sur = fit(train.points, rastrigin(train.points), basis, seed=2)
        candidates = sample(corr09, "mc", 100, seed=9)
        wide = epsilon_risk_region(sur, candidates, 0.9, 0.05)
        narrow = epsilon_risk_region(sur, candidates, 0.9, 0.5)
        assert set(narrow.member_indices.tolist()) <= set(wide.member_indices.tolist())

    def test_all_nonfinite_half_widths_rejected(self):
        from tailrisk import TailriskError

        samples = make_samples(20)
        fake = FakeSurrogate(np.zeros(20), np.full(20, np.inf))
        with pytest.raises(TailriskError):
            epsilon_risk_region(fake, samples, 0.9, 0.05)

    def test_region_mass_slack(self):
        samples = make_samples(50)
        means = np.random.default_rng(3).normal(size=50)
        fake = FakeSurrogate(means, np.zeros(50))
        region = epsilon_risk_region(fake, samples, 0.9, 0.05)
        assert region.mass >= 1 - 0.9 - 1 / 50
        assert 0 < region.mass <= 1
        assert len(region) >= 1


def hermite_basis(degree):
    s = multi_index_set(1, 1, degree)
    return whiten(analytic_gaussian_gram(s), s)


class TestMfis:
    def test_full_region_equals_plain_estimator_exactly(self):
        # surrogate == truth, eps == 0: taking the whole region reproduces
        # the direct weighted estimator bit for bit
        n = 200
        samples = make_samples(n, dimension=1, seed=4)
        truth = lambda pts: np.atleast_2d(pts)[:, 0] ** 3
        values = truth(samples.points)
        fake = FakeSurrogate(values, np.zeros(n))
        region = epsilon_risk_region(fake, samples, 0.9, 0.05)
        report = mfis_estimate(
            region, samples, truth, len(region), 0.9, seed=11
        )
        var, cvar = var_cvar(values, np.full(len(samples), 1 / len(samples)), 0.9)
        assert report.var_estimate == var
        assert report.cvar_estimate == cvar

    def test_constant_model(self):
        samples = make_samples(50, seed=5)
        fake = FakeSurrogate(np.random.default_rng(0).normal(size=50), np.zeros(50))
        region = epsilon_risk_region(fake, samples, 0.8, 0.05)
        report = mfis_estimate(
            region, samples, lambda pts: np.full(len(np.atleast_2d(pts)), 5.0),
            min(4, len(region)), 0.8, seed=1,
        )
        assert report.var_estimate == 5.0
        assert report.cvar_estimate == 5.0

    def test_subsample_larger_than_region_rejected_without_surrogate(self):
        samples = make_samples(30, seed=6)
        region = RiskRegion(
            member_indices=np.array([0, 1, 2]), mass=0.1, threshold=0.0, alpha=0.05,
        )
        with pytest.raises(ValueError):
            mfis_estimate(region, samples, lambda p: np.zeros(len(np.atleast_2d(p))), 5, 0.9, seed=0)

    def test_low_mass_region_rejected(self):
        samples = make_samples(100, seed=7)
        region = RiskRegion(
            member_indices=np.array([0, 1]), mass=0.02, threshold=0.0, alpha=0.05,
        )
        with pytest.raises(InsufficientMassError):
            mfis_estimate(region, samples, lambda p: np.zeros(len(np.atleast_2d(p))), 2, 0.9, seed=0)

    def test_low_mass_region_rejected_before_top_up(self, corr09):
        class Unusable:
            def predict_batch(self, points):
                raise AssertionError("the top-up ran before the mass check")

        samples = make_samples(100, seed=7)
        region = RiskRegion(
            member_indices=np.array([0, 1]), mass=0.02, threshold=0.0, alpha=0.05,
        )
        with pytest.raises(InsufficientMassError):
            mfis_estimate(
                region, samples, lambda p: np.zeros(len(np.atleast_2d(p))), 5, 0.9,
                seed=0, surrogate=Unusable(), input_model=corr09,
            )

    def test_fresh_points_top_up(self, corr09):
        class Counting:
            def __init__(self, inner):
                self.inner = inner
                self.points = 0

            def predict_batch(self, points):
                self.points += len(points)
                return self.inner.predict_batch(points)

        basis = build_basis(corr09, 1, 2)
        train = sample(corr09, "mc", 40, seed=12)
        sur = fit(train.points, rastrigin(train.points), basis, seed=3)
        candidates = sample(corr09, "mc", 500, seed=13)
        region = epsilon_risk_region(sur, candidates, 0.9, 0.5)
        m = len(region) + 7
        counting = Counting(sur)
        report = mfis_estimate(
            region, candidates, rastrigin, m, 0.9, seed=14,
            surrogate=counting, input_model=corr09,
        )
        assert report.evaluations["hf"] == m
        assert report.metadata["fresh_points"] == 7
        assert report.evaluations["surrogate"] == counting.points > 0

    def test_top_up_admits_only_region_members(self):
        # Above x = 1 the predictor has infinite variance, so ``mean - eps``
        # is not finite there and the region's rule rejects those points;
        # the top-up must reject them too.
        class HalfBlind:
            def predict_batch(self, points):
                x = np.atleast_2d(points)[:, 0]
                return x.copy(), np.where(x > 1.0, np.inf, 0.0)

        input_model = InputModel([Gaussian(0, 1)])
        candidates = sample(input_model, "mc", 500, seed=41)
        region = epsilon_risk_region(HalfBlind(), candidates, 0.9, 0.05)
        assert np.all(candidates.points[region.member_indices, 0] <= 1.0)
        sent = []

        def model(points):
            sent.append(np.array(points))
            return points[:, 0]

        report = mfis_estimate(
            region, candidates, model, len(region) + 20, 0.9, seed=42,
            surrogate=HalfBlind(), input_model=input_model,
        )
        assert report.metadata["fresh_points"] == 20
        evaluated = np.vstack(sent)[:, 0]
        assert len(evaluated) == len(region) + 20
        assert np.all((evaluated >= region.threshold) & (evaluated <= 1.0))

    def test_biased_low_by_under_one_percent_at_desk_scale(self):
        # 200-point discrete instance with a known exhaustive tail value.  The
        # subsampled empirical CVaR takes its VaR from the subsample, so it
        # is biased low at finite m (Brown 2007); 2000 seeds resolve the
        # bias, which stays small.
        n = 200
        rng = np.random.default_rng(21)
        samples = make_samples(n, dimension=1, seed=21)
        truth = lambda pts: np.sin(np.atleast_2d(pts)[:, 0]) * 10.0
        values = truth(samples.points)
        fake = FakeSurrogate(values, np.full(n, 0.25))
        region = epsilon_risk_region(fake, samples, 0.8, 0.05)
        exhaustive = mfis_estimate(
            region, samples, truth, len(region), 0.8, seed=0
        ).cvar_estimate
        m = len(region) // 2
        estimates = [
            mfis_estimate(region, samples, truth, m, 0.8, seed=s).cvar_estimate
            for s in range(2000)
        ]
        mean = np.mean(estimates)
        se = np.std(estimates, ddof=1) / math.sqrt(len(estimates))
        assert mean < exhaustive - 2 * se
        assert abs(mean - exhaustive) <= 0.01 * abs(exhaustive)

    def test_coverage_reported_not_failed(self, corr09, capsys):
        basis = build_basis(corr09, 1, 2)
        missed_fractions = []
        for trial in range(20):
            train = sample(corr09, "mc", 50, seed=100 + trial)
            sur = fit(train.points, rastrigin(train.points), basis, seed=trial)
            candidates = sample(corr09, "mc", 400, seed=300 + trial)
            truth_vals = rastrigin(candidates.points)
            true_var, _ = var_cvar(truth_vals, np.full(len(candidates), 1 / len(candidates)), 0.9)
            true_region = set(np.flatnonzero(truth_vals >= true_var).tolist())
            ci_region = set(
                epsilon_risk_region(sur, candidates, 0.9, 0.05).member_indices.tolist()
            )
            missed = len(true_region - ci_region) / max(len(true_region), 1)
            missed_fractions.append(missed)
        average_missed = float(np.mean(missed_fractions))
        print(f"ci-region coverage: mean missed fraction = {average_missed:.4f}")
        if average_missed > 0.05:
            print("flag: missed fraction exceeds alpha (probabilistic bound)")
        assert 0.0 <= average_missed <= 1.0


class TestEstimators:
    def test_mcs_counts_and_seed(self, corr09):
        samples = sample(corr09, "mc", 400, seed=3)
        report = mcs_estimate(rastrigin, samples, 0.95, seed=3)
        assert report.evaluations == {"hf": 400, "lf": 0, "surrogate": 0}
        assert report.cvar_estimate >= report.var_estimate

    def test_report_counts_match_model_counter(self, corr09):
        from tailrisk import BuiltinModel, ModelHandle

        class RowCounting(ModelHandle):
            """Counts the rows sent through it to a builtin handle."""

            def __init__(self):
                self.inner = BuiltinModel("rastrigin")
                self.rows = 0

            def evaluate_batch(self, points):
                points = np.atleast_2d(points)
                self.rows += len(points)
                return self.inner.evaluate_batch(points)

        handle = RowCounting()
        samples = sample(corr09, "mc", 250, seed=31)
        report = mcs_estimate(handle, samples, 0.9)
        assert report.evaluations["hf"] == handle.rows == 250

        means = rastrigin(samples.points)
        fake = FakeSurrogate(means, np.zeros(250))
        region = epsilon_risk_region(fake, samples, 0.9, 0.05)
        handle2 = RowCounting()
        rep2 = mfis_estimate(region, samples, handle2, 10, 0.9, seed=1)
        assert rep2.evaluations["hf"] == handle2.rows == 10
        assert rep2.evaluations["surrogate"] == 0  # no top-up, no predictions

    def test_surrogate_mcs_exact_for_representable_target(self, corr09):
        basis = build_basis(corr09, 1, 2)
        rng = np.random.default_rng(9)
        coeffs = rng.normal(size=len(basis))
        target = lambda pts: basis.evaluate(np.atleast_2d(pts)) @ coeffs
        train = sample(corr09, "mc", 30, seed=10)
        sur = fit(train.points, target(train.points), basis, seed=4)
        candidates = sample(corr09, "mc", 2000, seed=11)
        direct = mcs_estimate(target, candidates, 0.95)
        via_surrogate = surrogate_mcs_estimate(sur, candidates, 0.95)
        assert via_surrogate.cvar_estimate == pytest.approx(
            direct.cvar_estimate, abs=1e-6
        )
        assert via_surrogate.evaluations["hf"] == 0
        assert via_surrogate.evaluations["surrogate"] == 2000

    def test_surrogate_fit_to_constant(self, corr09):
        basis = build_basis(corr09, 1, 1)
        train = sample(corr09, "mc", 10, seed=12)
        sur = fit(train.points, np.full(10, 2.5), basis, mode="chaos")
        candidates = sample(corr09, "mc", 100, seed=13)
        report = surrogate_mcs_estimate(sur, candidates, 0.9)
        assert report.cvar_estimate == pytest.approx(2.5, abs=1e-9)


class TestRiskReport:
    def test_method_validated(self):
        # Reports carry no method tag: a run's method is its config's.
        with pytest.raises(TypeError):
            RiskReport(var_estimate=0, cvar_estimate=0, evaluations={}, method="mcs")

    def test_evaluation_defaults(self):
        # No count defaults to zero: every estimator states all three.
        with pytest.raises(TypeError):
            RiskReport(var_estimate=1.0, cvar_estimate=2.0, seed=7)
        samples = make_samples(50, seed=5)
        fake = FakeSurrogate(np.random.default_rng(0).normal(size=50), np.zeros(50))
        region = epsilon_risk_region(fake, samples, 0.8, 0.05)
        model = lambda pts: np.atleast_2d(pts)[:, 0]
        assert mcs_estimate(model, samples, 0.8).evaluations == {
            "hf": 50, "lf": 0, "surrogate": 0,
        }
        assert surrogate_mcs_estimate(fake, samples, 0.8).evaluations == {
            "hf": 0, "lf": 0, "surrogate": 50,
        }
        assert mfis_estimate(region, samples, model, 4, 0.8, seed=1).evaluations == {
            "hf": 4, "lf": 0, "surrogate": 0,
        }
