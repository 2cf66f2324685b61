import math
import sys
import textwrap

import numpy as np
import pytest

from tailrisk import (
    BuiltinModel,
    CommandModel,
    DatasetLookupError,
    DatasetModel,
    EvaluationError,
    Gaussian,
    InputModel,
    cross_in_tray,
    external_evaluate,
    pcc,
    rastrigin,
    rastrigin_lf,
    sample,
)
from tailrisk.models import evaluate_model


@pytest.fixture(scope="module")
def corr09():
    return InputModel([Gaussian(0, 2), Gaussian(0, 2)], [[1, 0.9], [0.9, 1]])


class TestRastrigin:
    def test_origin(self):
        assert rastrigin(np.array([0.0, 0.0])) == 20.0

    def test_unit_point(self):
        assert rastrigin(np.array([1.0, 0.0])) == pytest.approx(19.0, abs=1e-12)

    def test_half_point(self):
        assert rastrigin(np.array([0.5, 0.0])) == pytest.approx(9.75, abs=1e-12)

    def test_offset_identity(self):
        pts = np.random.default_rng(0).normal(0, 2, size=(1000, 2))
        np.testing.assert_allclose(
            rastrigin_lf(pts, 1), rastrigin(pts) + 90.0, atol=1e-12
        )

    def test_magnification_identity(self):
        pts = np.random.default_rng(1).normal(0, 2, size=(1000, 2))
        np.testing.assert_allclose(
            rastrigin_lf(pts, 2), 10.0 * rastrigin(pts), atol=1e-12
        )

    def test_variant_one_at_origin(self):
        assert rastrigin_lf(np.array([0.0, 0.0]), 1) == 110.0

    def test_invalid_variant(self):
        with pytest.raises(ValueError):
            rastrigin_lf(np.zeros(2), 5)

    def test_low_fidelity_correlations(self):
        # the published (1, 1, 0.72, 0.72) figures correspond to the
        # independent-input case of the benchmark setup
        model = InputModel([Gaussian(0, 2), Gaussian(0, 2)])
        pts = sample(model, "mc", 10_000, seed=42).points
        hf = rastrigin(pts)
        expected = {1: 1.0, 2: 1.0, 3: 0.72, 4: 0.72}
        for variant, target in expected.items():
            rho = pcc(hf, rastrigin_lf(pts, variant))
            assert rho == pytest.approx(target, abs=0.02)


class TestCrossInTray:
    def test_origin(self):
        assert cross_in_tray(np.array([0.0, 0.0])) == pytest.approx(-0.001, abs=1e-15)

    def test_axis_values(self):
        for x1 in (-3.0, 0.7, 2.5):
            assert cross_in_tray(np.array([x1, 0.0])) == pytest.approx(-0.001, abs=1e-15)

    def test_hand_value(self):
        # radius sqrt(2) * pi/2, so the exponent is 0.1 * (100 - 1/sqrt(2)) + ln(0.001)
        expected = -0.001 * math.exp(0.1 * (100.0 - 1.0 / math.sqrt(2.0)))
        got = cross_in_tray(np.array([math.pi / 2, math.pi / 2]))
        assert got == pytest.approx(expected, rel=1e-10)
        assert got == pytest.approx(-20.52, abs=0.01)

    def test_finite_on_large_sample(self, corr09):
        pts = sample(corr09, "mc", 1_000_000, seed=7).points
        values = cross_in_tray(pts)
        assert np.all(np.isfinite(values))

    def test_finite_far_from_origin(self):
        # the naive product overflows already at |x| ~ 260 (exp(e^700));
        # log-space evaluation stays finite out to the representable range
        extreme = np.array([[300.0, 0.5], [-2e3, 1e3], [9e3, 0.1]])
        values = cross_in_tray(extreme)
        assert np.all(np.isfinite(values))


class TestBuiltinModel:
    def test_counts_batch_evaluations(self):
        model = BuiltinModel("rastrigin")
        pts = np.random.default_rng(0).normal(size=(17, 2))
        out = model.evaluate_batch(pts)
        np.testing.assert_array_equal(out, rastrigin(pts))
        assert model.evaluations == 17
        model.evaluate(pts[0])
        assert model.evaluations == 18

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            BuiltinModel("ackley")


class TestDatasetModel:
    def test_exact_lookup(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("x1,x2,y\n1.0,2.0,7.5\n-0.25,3.5,1.25\n")
        model = DatasetModel(path)
        assert external_evaluate(model, np.array([1.0, 2.0])) == 7.5
        assert model.evaluations == 1

    def test_missing_row_keeps_counter(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("x1,x2,y\n1.0,2.0,7.5\n")
        model = DatasetModel(path)
        with pytest.raises(DatasetLookupError):
            model.evaluate(np.array([9.0, 9.0]))
        assert model.evaluations == 0

    def test_round_trip_through_sample_export(self, tmp_path, corr09):
        samples = sample(corr09, "mc", 20, seed=3)
        outputs = rastrigin(samples.points)
        path = tmp_path / "design.csv"
        with open(path, "w") as fh:
            fh.write("x1,x2,y\n")
            for row, y in zip(samples.points, outputs):
                fh.write(f"{row[0]:.15g},{row[1]:.15g},{float(y)!r}\n")
        model = DatasetModel(path)
        got = model.evaluate_batch(samples.points)
        np.testing.assert_array_equal(got, outputs)
        assert model.evaluations == 20

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            DatasetModel(path)


ECHO_RASTRIGIN = textwrap.dedent(
    """
    import sys
    for line in sys.stdin:
        parts = [float(v) for v in line.split()]
        total = 10.0
        for x in parts:
            import math
            total -= x * x - 5.0 * math.cos(2.0 * math.pi * x)
        print(repr(total))
        sys.stdout.flush()
    """
)


class TestCommandModel:
    def test_round_trip_against_builtin(self, tmp_path):
        script = tmp_path / "model.py"
        script.write_text(ECHO_RASTRIGIN)
        pts = np.random.default_rng(5).normal(0, 2, size=(100, 2))
        with CommandModel([sys.executable, str(script)], timeout=30.0) as model:
            got = model.evaluate_batch(pts)
        np.testing.assert_allclose(got, rastrigin(pts), atol=1e-9)

    def test_counter_increments(self, tmp_path):
        script = tmp_path / "model.py"
        script.write_text(ECHO_RASTRIGIN)
        with CommandModel([sys.executable, str(script)]) as model:
            model.evaluate(np.array([0.5, 0.5]))
            model.evaluate(np.array([1.5, -0.5]))
            assert model.evaluations == 2

    def test_non_numeric_output(self, tmp_path):
        script = tmp_path / "bad.py"
        script.write_text(
            "import sys\nfor line in sys.stdin:\n    print('oops')\n    sys.stdout.flush()\n"
        )
        with CommandModel([sys.executable, str(script)]) as model:
            with pytest.raises(EvaluationError, match="non-numeric"):
                model.evaluate(np.array([1.0, 2.0]))

    def test_crashing_child_reports_stderr(self, tmp_path):
        script = tmp_path / "crash.py"
        script.write_text("import sys\nsys.stderr.write('boom')\nsys.exit(3)\n")
        with CommandModel([sys.executable, str(script)]) as model:
            with pytest.raises(EvaluationError):
                model.evaluate(np.array([1.0, 2.0]))

    def test_timeout(self, tmp_path):
        script = tmp_path / "slow.py"
        script.write_text("import sys, time\nsys.stdin.readline()\ntime.sleep(30)\n")
        with CommandModel([sys.executable, str(script)], timeout=0.5) as model:
            with pytest.raises(EvaluationError, match="timed out"):
                model.evaluate(np.array([1.0, 2.0]))


class TestEvaluateModel:
    def test_accepts_plain_callable(self):
        pts = np.random.default_rng(2).normal(size=(9, 2))
        np.testing.assert_array_equal(evaluate_model(rastrigin, pts), rastrigin(pts))

    def test_accepts_scalar_callable(self):
        pts = np.random.default_rng(3).normal(size=(4, 2))
        scalar_fn = lambda x: float(np.sum(np.asarray(x) ** 2))
        expected = np.sum(pts**2, axis=1)
        np.testing.assert_allclose(evaluate_model(scalar_fn, pts), expected)

    def test_batch_error_propagates_after_one_call(self):
        calls = []

        def failing(points):
            calls.append(len(points))
            raise RuntimeError("simulator crashed")

        with pytest.raises(RuntimeError, match="simulator crashed"):
            evaluate_model(failing, np.zeros((5, 2)))
        assert calls == [5]
