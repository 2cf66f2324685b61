import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailrisk import budget, max_lf_cost, mrd, nrmsd, pcc


class TestMrd:
    def test_zero_when_exact(self):
        assert mrd(np.full(5, 10.0), 10.0) == 0.0

    def test_hand_value(self):
        assert mrd(np.array([9.0, 11.0]), 10.0) == pytest.approx(10.0, abs=1e-12)

    def test_single_point_table_cross_check(self):
        # one-trial MRD of the published pair differs from the reported
        # ensemble value, which averaged fifty trials
        e = (np.array([18.7366]), 18.7705)
        assert mrd(*e) == pytest.approx(0.1806, abs=1e-3)
        assert abs(mrd(*e) - 0.2043) > 0.01

    def test_zero_benchmark_rejected(self):
        with pytest.raises(ValueError):
            mrd(np.ones(3), 0.0)
        with pytest.raises(ValueError):
            nrmsd(np.ones(3), 0.0)

    @pytest.mark.parametrize("metric", [mrd, nrmsd])
    @pytest.mark.parametrize("reference", [np.nan, np.inf, -np.inf])
    def test_non_finite_benchmark_rejected(self, metric, reference):
        with pytest.raises(ValueError, match="finite nonzero benchmark"):
            metric(np.ones(3), reference)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            mrd(np.array([]), 1.0)
        with pytest.raises(ValueError):
            nrmsd(np.array([]), 1.0)


class TestNrmsd:
    def test_zero_when_exact(self):
        assert nrmsd(np.full(4, -3.0), -3.0) == 0.0

    def test_hand_value(self):
        assert nrmsd(np.array([9.0, 11.0]), 10.0) == pytest.approx(10.0)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 100_000), k=st.integers(1, 40))
    def test_dominates_mrd(self, seed, k):
        rng = np.random.default_rng(seed)
        e = (rng.normal(5.0, 2.0, size=k), 5.0)
        assert nrmsd(*e) >= mrd(*e) - 1e-12

    @settings(max_examples=50, deadline=None)
    @given(scale=st.floats(0.01, 100), seed=st.integers(0, 1000))
    def test_scale_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        estimates = rng.normal(3.0, 1.0, size=10)
        base = (estimates, 3.0)
        scaled = (estimates * scale, 3.0 * scale)
        assert mrd(*scaled) == pytest.approx(mrd(*base), rel=1e-9)
        assert nrmsd(*scaled) == pytest.approx(nrmsd(*base), rel=1e-9)


class TestPcc:
    def test_positive_affine(self):
        a = np.arange(10.0)
        assert pcc(a, 2 * a + 3) == pytest.approx(1.0, abs=1e-12)

    def test_negation(self):
        a = np.arange(10.0)
        assert pcc(a, -a) == pytest.approx(-1.0, abs=1e-12)

    def test_affine_invariance_with_sign(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=50)
        b = rng.normal(size=50)
        base = pcc(a, b)
        assert pcc(a, 2.5 * b + 1.0) == pytest.approx(base, abs=1e-12)
        assert pcc(a, -0.5 * b + 4.0) == pytest.approx(-base, abs=1e-12)

    def test_constant_sequence_rejected(self):
        with pytest.raises(ValueError):
            pcc(np.ones(5), np.arange(5.0))

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            pcc(np.array([1.0]), np.array([2.0]))


class TestBudget:
    def test_hf_option(self):
        assert budget(200, 200, 1.0, 0.0, "hf") == 400.0

    def test_lf_option(self):
        assert budget(250, 150, 1.0, 0.1, "lf") == pytest.approx(175.0)

    def test_max_lf_cost(self):
        assert max_lf_cost(400.0, 150, 1.0, 250) == pytest.approx(1.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            budget(-1, 0, 1.0, 1.0, "hf")

    def test_zero_training_size_rejected(self):
        with pytest.raises(ValueError):
            max_lf_cost(100.0, 10, 1.0, 0)

    def test_unknown_option(self):
        with pytest.raises(ValueError):
            budget(1, 1, 1.0, 1.0, "mid")
