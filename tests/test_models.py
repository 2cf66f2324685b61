import math
import sys
import textwrap
import time

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
        assert model.evaluate_batch(pts[0][None])[0] == rastrigin(pts[0])

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            BuiltinModel("ackley")


class TestDatasetModel:
    def test_exact_lookup(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("x1,x2,y\n1.0,2.0,7.5\n-0.25,3.5,1.25\n")
        model = DatasetModel(path)
        assert model.evaluate_batch(np.array([1.0, 2.0])[None])[0] == 7.5

    def test_missing_row_keeps_counter(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("x1,x2,y\n1.0,2.0,7.5\n")
        model = DatasetModel(path)
        with pytest.raises(DatasetLookupError):
            model.evaluate_batch(np.array([9.0, 9.0])[None])[0]

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

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            DatasetModel(path)

    def test_row_length_must_match_header(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("x1,x2,y\n1,2,3\n4,5\n")
        with pytest.raises(ValueError) as err:
            DatasetModel(path)
        assert f"{path} line 3" in str(err.value)

    def test_repeated_input_needs_the_same_output(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("x1,x2,y\n1,2,3\n1,2,5\n")
        with pytest.raises(ValueError) as err:
            DatasetModel(path)
        assert f"{path} line 3" in str(err.value)
        # An exact repeat, written differently, is the same run.
        path.write_text("x1,x2,y\n1,2,3\n1.0,2.0,3.0\n")
        assert DatasetModel(path).evaluate_batch(np.array([[1.0, 2.0]]))[0] == 3.0

    @pytest.mark.parametrize("row", ["1,1,nan", "1,inf,2", "-inf,1,2"])
    def test_non_finite_value_is_refused(self, tmp_path, row):
        # A nan output is not reported as a repeat with another output.
        path = tmp_path / "runs.csv"
        path.write_text(f"x1,x2,y\n0,0,1\n{row}\n")
        bad = next(v for v in row.split(",") if not math.isfinite(float(v)))
        with pytest.raises(ValueError) as err:
            DatasetModel(path)
        assert str(err.value) == f"dataset {path} line 3: {bad!r} is not a finite number"

    @pytest.mark.parametrize("row, bad", [("1,2,abc", "abc"), ("1,,2", ""), ("one,1,2", "one")])
    def test_non_numeric_value_is_refused(self, tmp_path, row, bad):
        # Named with its file and line, like every other row defect.
        path = tmp_path / "runs.csv"
        path.write_text(f"x1,x2,y\n0,0,1\n{row}\n")
        with pytest.raises(ValueError) as err:
            DatasetModel(path)
        assert str(err.value) == f"dataset {path} line 3: {bad!r} is not a number"

    @pytest.mark.parametrize("columns, width", [(1, 2), (3, 2), (2, 1)])
    def test_point_width_must_match_input_columns(self, tmp_path, columns, width):
        # Not a lookup miss: no row of another width could ever match.
        path = tmp_path / "runs.csv"
        names = ",".join(f"x{k}" for k in range(1, columns + 1))
        path.write_text(f"{names},y\n" + ",".join(["1"] * (columns + 1)) + "\n")
        with pytest.raises(ValueError) as err:
            DatasetModel(path).evaluate_batch(np.ones((3, width)))
        assert not isinstance(err.value, KeyError)
        assert str(err.value) == (
            f"dataset {path} has {columns} inputs per row, the points have {width}"
        )


# The floating-point operations of the builtin ``rastrigin``, one line at a
# time, so the replies equal it bit for bit.
ECHO_RASTRIGIN = textwrap.dedent(
    """
    import math
    import sys
    for line in sys.stdin:
        total = 0.0
        for token in line.split():
            x = float(token)
            total += x * x - 5.0 * math.cos(2.0 * math.pi * x)
        sys.stdout.write(repr(10.0 - total) + "\\n")
        sys.stdout.flush()
    """
)

# Enough random points that the input and the replies each overflow a pipe
# buffer.
PIPE_OVERFLOW_POINTS = 20_000


def overflow_points(seed):
    return np.random.default_rng(seed).normal(0, 2, size=(PIPE_OVERFLOW_POINTS, 2))


def child(tmp_path, body):
    """argv of a Python child running ``body``."""
    script = tmp_path / "child.py"
    script.write_text(body)
    return [sys.executable, str(script)]


def sum_child(tmp_path, prelude="", before_reply=""):
    """A child replying with the sum of each input line.

    ``prelude`` runs at start-up; ``before_reply`` runs before each reply,
    with the 0-based line number in ``k``.
    """
    body = (
        "import os, sys, time\n"
        + textwrap.dedent(prelude)
        + "for k, line in enumerate(sys.stdin):\n"
        + textwrap.indent(textwrap.dedent(before_reply), "    ")
        + "    print(repr(sum(float(v) for v in line.split())), flush=True)\n"
    )
    return child(tmp_path, body)


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
            for x in (np.array([0.5, 0.5]), np.array([1.5, -0.5])):
                assert model.evaluate_batch(x[None])[0] == rastrigin(x)

    def test_non_numeric_output(self, tmp_path):
        script = tmp_path / "bad.py"
        script.write_text(
            "import sys\nfor line in sys.stdin:\n    print('oops')\n    sys.stdout.flush()\n"
        )
        with CommandModel([sys.executable, str(script)]) as model:
            with pytest.raises(EvaluationError, match="non-numeric"):
                model.evaluate_batch(np.array([1.0, 2.0])[None])[0]

    def test_crashing_child_reports_stderr(self, tmp_path):
        script = tmp_path / "crash.py"
        script.write_text("import sys\nsys.stderr.write('boom')\nsys.exit(3)\n")
        with CommandModel([sys.executable, str(script)]) as model:
            with pytest.raises(EvaluationError):
                model.evaluate_batch(np.array([1.0, 2.0])[None])[0]

    def test_timeout(self, tmp_path):
        script = tmp_path / "slow.py"
        script.write_text("import sys, time\nsys.stdin.readline()\ntime.sleep(30)\n")
        with CommandModel([sys.executable, str(script)], timeout=0.5) as model:
            with pytest.raises(EvaluationError, match="timed out"):
                model.evaluate_batch(np.array([1.0, 2.0])[None])[0]

    def test_failure_discards_late_reply(self, tmp_path):
        # The first child answers only after the timeout; its late reply
        # must not be taken as the answer to the next request.
        marker = tmp_path / "started"
        argv = sum_child(
            tmp_path,
            prelude=f"""
                slow = not os.path.exists({str(marker)!r})
                open({str(marker)!r}, "a").close()
            """,
            before_reply="""
                if slow:
                    time.sleep(1.0)
            """,
        )
        with CommandModel(argv, timeout=0.5) as model:
            with pytest.raises(EvaluationError, match="timed out"):
                model.evaluate_batch(np.array([1.0, 2.0])[None])[0]
            time.sleep(1.0)
            assert model.evaluate_batch(np.array([10.0, 20.0])[None])[0] == 30.0

    def test_batch_overflowing_the_pipes_matches_builtin(self, tmp_path):
        pts = overflow_points(11)
        with CommandModel(child(tmp_path, ECHO_RASTRIGIN)) as model:
            got = model.evaluate_batch(pts)
        np.testing.assert_array_equal(got, rastrigin(pts))

    @pytest.mark.parametrize("size", [50, PIPE_OVERFLOW_POINTS])
    def test_child_exit_mid_batch_keeps_count(self, tmp_path, size):
        # With the large batch the child exits while input is still being
        # written, so the write fails on a broken pipe.
        argv = sum_child(
            tmp_path,
            before_reply="""
                if k == 7:
                    sys.stderr.write("gave up after 7")
                    sys.exit(2)
            """,
        )
        with CommandModel(argv) as model:
            with pytest.raises(EvaluationError, match="gave up after 7"):
                model.evaluate_batch(overflow_points(13)[:size])

    def test_non_numeric_reply_mid_batch_keeps_count(self, tmp_path):
        argv = sum_child(
            tmp_path,
            before_reply="""
                if k == 5:
                    print("oops", flush=True)
                    continue
            """,
        )
        with CommandModel(argv) as model:
            with pytest.raises(EvaluationError, match="non-numeric output 'oops'"):
                model.evaluate_batch(overflow_points(14))

    def test_timeout_applies_per_reply(self, tmp_path):
        # After the warm-up line, three replies 0.25 s apart take longer
        # than one timeout in total but each comes within it; then the
        # child stalls.
        argv = sum_child(
            tmp_path,
            before_reply="""
                if k >= 4:
                    time.sleep(30)
                elif k >= 1:
                    time.sleep(0.25)
            """,
        )
        with CommandModel(argv, timeout=0.6) as model:
            model.evaluate_batch(np.zeros(2)[None])[0]
            start = time.monotonic()
            with pytest.raises(EvaluationError, match="timed out"):
                model.evaluate_batch(np.ones((10, 2)))
        assert time.monotonic() - start < 5.0

    def test_single_evaluation_after_batch_reuses_child(self, tmp_path):
        starts = tmp_path / "starts"
        argv = sum_child(
            tmp_path,
            prelude=f"""
                with open({str(starts)!r}, "a") as fh:
                    print(os.getpid(), file=fh)
            """,
        )
        pts = overflow_points(12)
        with CommandModel(argv) as model:
            np.testing.assert_allclose(model.evaluate_batch(pts), pts.sum(axis=1))
            assert model.evaluate_batch(np.array([1.5, 2.25])[None])[0] == 3.75
        assert len(starts.read_text().split()) == 1


class TestEvaluateModel:
    def test_accepts_plain_callable(self):
        pts = np.random.default_rng(2).normal(size=(9, 2))
        np.testing.assert_array_equal(evaluate_model(rastrigin, pts), rastrigin(pts))

    def test_refuses_a_result_of_the_wrong_shape(self):
        # A callable is called once on the batch; a per-point callable is
        # refused, not retried row by row.
        pts = np.random.default_rng(3).normal(size=(4, 2))
        calls = []

        def scalar_fn(x):
            calls.append(np.shape(x))
            return float(np.sum(np.asarray(x) ** 2))

        with pytest.raises(ValueError, match=r"must return shape \(4,\), got \(\)"):
            evaluate_model(scalar_fn, pts)
        assert calls == [(4, 2)]

    def test_batch_error_propagates_after_one_call(self):
        calls = []

        def failing(points):
            calls.append(len(points))
            raise RuntimeError("simulator crashed")

        with pytest.raises(RuntimeError, match="simulator crashed"):
            evaluate_model(failing, np.zeros((5, 2)))
        assert calls == [5]
