import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import kstest, lognorm, norm, uniform

from tailrisk import (
    Gaussian,
    InputModel,
    InvalidModelError,
    Lognormal,
    SampleSet,
    Uniform,
    sample,
)
from tailrisk.risk import _weights

from helpers import run_python


@pytest.fixture(scope="module")
def corr09():
    return InputModel([Gaussian(0, 2), Gaussian(0, 2)], [[1, 0.9], [0.9, 1]])


class TestConstruction:
    def test_rejects_asymmetric_correlation(self):
        with pytest.raises(InvalidModelError):
            InputModel([Gaussian(0, 1), Gaussian(0, 1)], [[1, 0.5], [0.4, 1]])

    def test_rejects_non_unit_diagonal(self):
        with pytest.raises(InvalidModelError):
            InputModel([Gaussian(0, 1), Gaussian(0, 1)], [[2, 0], [0, 1]])

    def test_rejects_degenerate_correlation(self):
        with pytest.raises(InvalidModelError):
            InputModel([Gaussian(0, 1), Gaussian(0, 1)], [[1, 1.0], [1.0, 1]])

    def test_rejects_indefinite_correlation(self):
        corr = [[1, 0.9, -0.9], [0.9, 1, 0.9], [-0.9, 0.9, 1]]
        with pytest.raises(InvalidModelError):
            InputModel([Gaussian(0, 1)] * 3, corr)

    @pytest.mark.parametrize(
        "marginal",
        [
            lambda: Gaussian(0, 0.0),
            lambda: Gaussian(0, -1.0),
            lambda: Uniform(1.0, 1.0),
            lambda: Uniform(2.0, 1.0),
            lambda: Lognormal(0.0, 5.0),
            lambda: Lognormal(1.0, 0.0),
        ],
    )
    def test_rejects_bad_marginal_parameters(self, marginal):
        with pytest.raises(InvalidModelError):
            marginal()

    def test_lognormal_moment_matching(self):
        m = Lognormal(0.144, 6.0)
        pts = m.from_gauss(np.random.default_rng(0).standard_normal(2_000_000))
        assert np.mean(pts) == pytest.approx(0.144, rel=2e-3)
        assert np.std(pts) == pytest.approx(0.144 * 0.06, rel=5e-3)


class TestSampling:
    def test_import_leaves_scipy_stats_until_quasi_random_sampling(self):
        script = (
            "import sys\n"
            "import tailrisk.cli\n"
            "from tailrisk import Gaussian, InputModel, sample\n"
            "assert 'scipy.stats' not in sys.modules\n"
            "model = InputModel([Gaussian(0, 1), Gaussian(0, 1)])\n"
            "assert sample(model, 'mc', 8, seed=0).points.shape == (8, 2)\n"
            "assert 'scipy.stats' not in sys.modules\n"
            "assert sample(model, 'sobol', 8, seed=0).points.shape == (8, 2)\n"
            "assert sample(model, 'lhs', 8, seed=0).points.shape == (8, 2)\n"
        )
        run_python(script)

    def test_sobol_1d_uniform_first_points(self):
        model = InputModel([Uniform(0, 1)])
        pts = sample(model, "sobol", 3, seed=0).points.ravel()
        np.testing.assert_allclose(pts, [0.5, 0.75, 0.25], atol=1e-12)

    def test_mc_reproduces_target_correlation(self, corr09):
        pts = sample(corr09, "mc", 100_000, seed=42).points
        rho = np.corrcoef(pts.T)[0, 1]
        assert abs(rho - 0.9) < 0.01

    def test_single_sample_probability_is_one(self, corr09):
        s = sample(corr09, "mc", 1, seed=0)
        assert len(s) == 1
        np.testing.assert_array_equal(_weights(len(s)), [1.0])

    def test_probabilities_sum_to_one(self, corr09):
        # Sample sets are equally weighted: the estimators weigh each of
        # the L points 1/L.
        s = sample(corr09, "lhs", 1234, seed=3)
        assert abs(_weights(len(s)).sum() - 1.0) < 1e-12

    def test_coloring_matches_covariance_within_three_standard_errors(self):
        model = InputModel(
            [Gaussian(1.0, 2.0), Gaussian(-2.0, 0.5)], [[1, 0.7], [0.7, 1]]
        )
        n = 1_000_000
        pts = sample(model, "mc", n, seed=11).points
        target = np.array([[4.0, 0.7], [0.7, 0.25]])
        target[0, 1] = target[1, 0] = 0.7 * 2.0 * 0.5
        observed = np.cov(pts.T, bias=True)
        for i in range(2):
            for j in range(2):
                se = math.sqrt(
                    (target[i, i] * target[j, j] + target[i, j] ** 2) / n
                )
                assert abs(observed[i, j] - target[i, j]) <= 3 * se

    def test_sobol_marginals_pass_ks(self):
        model = InputModel(
            [Gaussian(1.0, 2.0), Uniform(-1.0, 3.0), Lognormal(0.5, 20.0)]
        )
        pts = sample(model, "sobol", 100_000, seed=0).points
        # Reference CDFs from scipy.stats: mean 0.5 and 20% CoV give
        # sigma_log^2 = ln(1.04) and mu_log = ln(0.5) - sigma_log^2 / 2.
        sigma_log = math.sqrt(math.log(1.04))
        references = (
            norm(loc=1.0, scale=2.0),
            uniform(loc=-1.0, scale=4.0),
            lognorm(s=sigma_log, scale=math.exp(math.log(0.5) - 0.5 * sigma_log**2)),
        )
        for i, reference in enumerate(references):
            stat = kstest(pts[:, i], reference.cdf).statistic
            assert stat < 0.01

    def test_determinism_bit_for_bit(self, corr09):
        for scheme in ("mc", "sobol", "lhs"):
            a = sample(corr09, scheme, 500, seed=9)
            b = sample(corr09, scheme, 500, seed=9)
            assert np.array_equal(a.points, b.points)

    def test_mc_seeds_differ(self, corr09):
        a = sample(corr09, "mc", 100, seed=1).points
        b = sample(corr09, "mc", 100, seed=2).points
        assert not np.array_equal(a, b)

    def test_lhs_stratification(self):
        model = InputModel([Uniform(0, 1), Gaussian(0, 1)])
        n = 64
        s = sample(model, "lhs", n, seed=5)
        u = s.points[:, 0]
        counts = np.bincount(np.floor(u * n).astype(int), minlength=n)
        assert np.all(counts == 1)

    def test_sobol_dimension_guard(self):
        # scipy's Sobol table stops at 21201 dimensions and says so.
        model = InputModel([Uniform(0, 1)] * 21_202)
        with pytest.raises(ValueError, match="21201"):
            sample(model, "sobol", 2, seed=0)

    def test_unknown_scheme(self, corr09):
        with pytest.raises(ValueError):
            sample(corr09, "halton", 10, seed=0)

    def test_size_must_be_positive(self, corr09):
        with pytest.raises(ValueError):
            sample(corr09, "mc", 0, seed=0)

    def test_provenance_recorded(self, corr09):
        # A sample set is its points; (scheme, size, seed) regenerate them.
        s = sample(corr09, "sobol", 8, seed=4)
        assert [f.name for f in dataclasses.fields(s)] == ["points"]
        assert np.array_equal(s.points, sample(corr09, "sobol", 8, seed=4).points)

    def test_skip_only_for_sobol(self, corr09):
        for scheme in ("mc", "sobol"):
            with pytest.raises(TypeError):
                sample(corr09, scheme, 8, seed=4, skip=16)

    def test_sobol_skip_is_stream_continuation(self):
        # A longer draw continues the shorter one's stream.
        model = InputModel([Uniform(0, 1), Uniform(0, 1)])
        for scheme in ("mc", "sobol"):
            short = sample(model, scheme, 32, seed=0).points
            long = sample(model, scheme, 64, seed=0).points
            assert np.array_equal(long[:32], short)


class TestSampleSet:
    def test_rejects_negative_probabilities(self):
        # The points carry equal weights; there is no weight vector to give.
        with pytest.raises(TypeError):
            SampleSet(points=np.zeros((2, 1)), probabilities=np.array([0.5, -0.5]))
        with pytest.raises(ValueError):
            SampleSet(points=np.zeros((0, 1)))

    def test_immutable(self, corr09):
        s = sample(corr09, "mc", 4, seed=0)
        with pytest.raises(ValueError):
            s.points[0, 0] = 99.0
