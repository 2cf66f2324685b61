import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import tailrisk
from tailrisk.cli import REPORT_CSV_HEADER, main

FAST_CONFIG = textwrap.dedent(
    """
    [input]
    marginals =
        gaussian mean=0 std=2
        gaussian mean=0 std=2
    correlation =
        1.0 0.9
        0.9 1.0

    [model]
    kind = builtin
    name = rastrigin
    lf_kind = builtin
    lf_name = rastrigin_lf1

    [surrogate]
    interaction_order = 1
    degree = 2
    kernel = gaussian
    mode = chaos_kriging
    training_size = 40
    quadrature = 20000

    [risk]
    method = surrogate_mcs
    beta = 0.95
    alpha = 0.05
    samples = 2000
    subsample_size = 30
    scheme = mc
    benchmark = auto

    [run]
    trials = 2
    seed = 77
    """
)


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "config.ini"
    path.write_text(FAST_CONFIG)
    return path


# A line-protocol Rastrigin child that appends its PID to the file named by
# its argument, so a test can find every child a run started.
PID_RECORDING_RASTRIGIN = textwrap.dedent(
    """
    import math
    import os
    import sys
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    for line in sys.stdin:
        total = 0.0
        for token in line.split():
            x = float(token)
            total += x * x - 5.0 * math.cos(2.0 * math.pi * x)
        sys.stdout.write(repr(10.0 - total) + "\\n")
        sys.stdout.flush()
    """
)


@pytest.fixture()
def command_config(tmp_path):
    """FAST_CONFIG with the HF model behind the line protocol; returns
    the config path and the file the children record their PIDs in."""
    script = tmp_path / "child.py"
    script.write_text(PID_RECORDING_RASTRIGIN)
    pids = tmp_path / "pids.txt"
    path = tmp_path / "command.ini"
    path.write_text(FAST_CONFIG.replace(
        "kind = builtin\nname = rastrigin\n",
        f"kind = command\ncommand = {sys.executable} {script} {pids}\n",
    ))
    return path, pids


def started_children(pids):
    return [int(line) for line in pids.read_text().split()] if pids.exists() else []


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def run_cli(*args):
    return main([str(a) for a in args])


class TestRun:
    def test_deterministic_outputs(self, fast_config, tmp_path):
        out1, out2 = tmp_path / "out1", tmp_path / "out2"
        assert run_cli("run", "--config", fast_config, "--out", out1) == 0
        assert run_cli("run", "--config", fast_config, "--out", out2) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "table.csv").read_bytes() == (out2 / "table.csv").read_bytes()

    def test_table_schema(self, fast_config, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--config", fast_config, "--out", out)
        lines = (out / "table.csv").read_text().strip().splitlines()
        assert lines[0] == REPORT_CSV_HEADER
        # auto benchmark adds an mcs row before the method row
        assert lines[1].startswith("mcs,")
        assert lines[2].startswith("surrogate_mcs,")

    def test_table_rows_match_report(self, fast_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--config", fast_config, "--method", "mfis_hf",
                       "--out", out) == 0
        doc = json.loads((out / "report.json").read_text())
        summary = doc["summary"]
        header, reference, method = (out / "table.csv").read_text().splitlines()
        assert header == REPORT_CSV_HEADER
        for row in (reference, method):
            assert row.count(",") == header.count(",")
        fmt = lambda v: format(v, ".10g")
        # the reference row: mean reference CVaR and the summed hf counts
        reference_cvar = float(np.mean([t["cvar_estimate"] for t in doc["benchmark_trials"]]))
        reference_hf = sum(t["evaluations"]["hf"] for t in doc["benchmark_trials"])
        assert reference_hf == 2 * 2000
        assert reference.split(",") == [
            "mcs", "", "", fmt(reference_cvar), "", "", str(reference_hf), "0", "0"
        ]
        # the method row: the summary
        counts = summary["evaluations"]
        assert method.split(",") == [
            "mfis_hf", "1", "2", fmt(summary["mean_cvar"]), fmt(summary["mrd_pct"]),
            fmt(summary["nrmsd_pct"]),
            str(counts["hf"]), str(counts["lf"]), str(counts["surrogate"]),
        ]

    def test_nan_reply_fails_the_run(self, tmp_path, capsys):
        script = tmp_path / "nan.py"
        script.write_text("import sys\nfor line in sys.stdin:\n    print('nan', flush=True)\n")
        cfg = tmp_path / "nan.ini"
        cfg.write_text(FAST_CONFIG.replace(
            "kind = builtin\nname = rastrigin\n",
            f"kind = command\ncommand = {sys.executable} {script}\n",
        ))
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--method", "mcs", "--trials", 1,
                       "--out", out) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_report_contents(self, fast_config, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--config", fast_config, "--out", out)
        doc = json.loads((out / "report.json").read_text())
        assert doc["summary"]["trials"] == 2
        assert len(doc["trials"]) == 2
        assert "mrd_pct" in doc["summary"]
        assert doc["summary"]["evaluations"]["hf"] == 80  # 2 trials x 40 fit points

    def test_method_and_seed_overrides(self, fast_config, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli("run", "--config", fast_config, "--method", "mcs",
                       "--seed", "5", "--trials", "1", "--out", out_a) == 0
        assert run_cli("run", "--config", fast_config, "--method", "mcs",
                       "--seed", "6", "--trials", "1", "--out", out_b) == 0
        doc_a = json.loads((out_a / "report.json").read_text())
        doc_b = json.loads((out_b / "report.json").read_text())
        assert doc_a["summary"]["method"] == "mcs"
        assert doc_a["summary"]["mean_cvar"] != doc_b["summary"]["mean_cvar"]
        assert doc_a["summary"]["evaluations"] == {"hf": 2000, "lf": 0, "surrogate": 0}

    def test_mfis_hf_counts_budget(self, fast_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--config", fast_config, "--method", "mfis_hf",
                       "--trials", "1", "--out", out) == 0
        doc = json.loads((out / "report.json").read_text())
        # 40 fit evaluations plus 30 importance evaluations, all high fidelity
        assert doc["summary"]["evaluations"]["hf"] == 70
        assert doc["summary"]["evaluations"]["surrogate"] == 2000

    def test_mfis_counts_top_up_predictions(self, tmp_path, monkeypatch):
        from tailrisk.surrogate import FittedSurrogate

        predicted = [0]
        original = FittedSurrogate.predict_batch

        def counting(self, points, clamp=True):
            predicted[0] += len(points)
            return original(self, points, clamp)

        monkeypatch.setattr(FittedSurrogate, "predict_batch", counting)
        cfg = tmp_path / "topup.ini"
        cfg.write_text(FAST_CONFIG.replace("subsample_size = 30", "subsample_size = 1000"))
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--method", "mfis_hf",
                       "--trials", "1", "--out", out) == 0
        trial = json.loads((out / "report.json").read_text())["trials"][0]
        assert trial["metadata"]["fresh_points"] > 0
        # 2000 candidates for the region, then whole 8192-point top-up blocks
        assert trial["evaluations"]["surrogate"] == predicted[0] > 2000 + 8192 - 1

    def test_mfis_lf_counts_split(self, fast_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--config", fast_config, "--method", "mfis_lf",
                       "--trials", "1", "--out", out) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["summary"]["evaluations"]["lf"] == 40
        assert doc["summary"]["evaluations"]["hf"] == 30

    @pytest.mark.parametrize("model", ["builtin", "command"])
    def test_threads_do_not_change_results(self, request, tmp_path, model):
        config = (request.getfixturevalue("fast_config") if model == "builtin"
                  else request.getfixturevalue("command_config")[0])
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert run_cli("run", "--config", config, "--out", out1, "--threads", "1") == 0
        assert run_cli("run", "--config", config, "--out", out2, "--threads", "4") == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


class TestModelHandles:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("method", ["mfis_lf", "mfis_hf"])
    def test_run_starts_one_child_per_worker_and_phase_and_stops_it(
        self, command_config, tmp_path, method, threads
    ):
        config, pids = command_config
        assert run_cli("run", "--config", config, "--method", method, "--trials", 3,
                       "--threads", threads, "--out", tmp_path / "out") == 0
        started = started_children(pids)
        # Two phases (trials, then reference trials), one child per worker.
        assert 0 < len(started) <= 2 * threads
        assert not [pid for pid in started if alive(pid)]

    def test_fit_stops_its_child(self, command_config, tmp_path):
        config, pids = command_config
        assert run_cli("fit", "--config", config, "--out", tmp_path / "art") == 0
        started = started_children(pids)
        assert len(started) == 1
        assert not alive(started[0])

    def test_no_unclosed_child_or_pipe_under_dev_mode(self, command_config, tmp_path):
        config, _ = command_config
        env = {**os.environ, "PYTHONPATH": str(Path(tailrisk.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "tailrisk.cli", "run",
             "--config", str(config), "--method", "mfis_hf", "--threads", "2",
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "ResourceWarning" not in result.stderr

    @pytest.mark.parametrize(
        "method, hf, lf",
        [("mcs", 2000, 0), ("surrogate_mcs", 40, 0), ("mfis_hf", 70, 0), ("mfis_lf", 30, 40)],
    )
    def test_per_trial_counts_are_what_each_trial_sent(
        self, command_config, tmp_path, method, hf, lf
    ):
        config, _ = command_config
        out = tmp_path / "out"
        assert run_cli("run", "--config", config, "--method", method, "--trials", 3,
                       "--threads", 2, "--out", out) == 0
        doc = json.loads((out / "report.json").read_text())
        assert [(t["evaluations"]["hf"], t["evaluations"]["lf"]) for t in doc["trials"]] \
            == [(hf, lf)] * 3
        assert [t["evaluations"]["hf"] for t in doc["benchmark_trials"]] \
            == ([] if method == "mcs" else [2000] * 3)


class TestValidation:
    def test_training_size_below_basis(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(FAST_CONFIG.replace("training_size = 40", "training_size = 4"))
        code = run_cli("run", "--config", cfg, "--out", tmp_path / "o")
        assert code == 2
        err = capsys.readouterr().err
        assert "basis functions" in err
        assert "training_size" in err

    def test_bad_method(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(FAST_CONFIG.replace("method = surrogate_mcs", "method = quantum"))
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "risk.method" in capsys.readouterr().err

    def test_mfis_lf_requires_low_fidelity_model(self, tmp_path, capsys):
        stripped = FAST_CONFIG.replace("lf_kind = builtin\n", "").replace(
            "lf_name = rastrigin_lf1\n", ""
        ).replace("method = surrogate_mcs", "method = mfis_lf")
        cfg = tmp_path / "bad.ini"
        cfg.write_text(stripped)
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "lf" in capsys.readouterr().err

    def test_bad_beta(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(FAST_CONFIG.replace("beta = 0.95", "beta = 1.5"))
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "risk.beta" in capsys.readouterr().err

    def test_unknown_preset(self, tmp_path, capsys):
        assert run_cli("run", "--preset", "example99", "--out", tmp_path / "o") == 2
        assert "preset" in capsys.readouterr().err

    def test_missing_config_and_preset(self, tmp_path, capsys):
        assert run_cli("run", "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize("line", ["timeout = -1", "timeout = abc",
                                      "lf_timeout = 0", "lf_timeout = nan"])
    def test_bad_timeout_fails_up_front(self, command_config, tmp_path, capsys, line,
                                        monkeypatch):
        from tailrisk import cli

        def no_basis(exp):
            raise AssertionError("the basis was built before the timeout was checked")

        monkeypatch.setattr(cli, "_build_basis", no_basis)
        config, _ = command_config
        config.write_text(config.read_text().replace("[surrogate]", f"{line}\n\n[surrogate]"))
        assert run_cli("run", "--config", config, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: model.{line.split()[0]}: ")


class TestFitPredict:
    def test_fit_then_predict_at_training_point(self, fast_config, tmp_path):
        out = tmp_path / "art"
        assert run_cli("fit", "--config", fast_config, "--out", out) == 0
        artifact = out / "surrogate.json"
        assert artifact.exists()

        payload = json.loads(artifact.read_text())
        train_point = payload["training_inputs"][0]
        pts = tmp_path / "pts.csv"
        pts.write_text("x1,x2\n" + ",".join(repr(v) for v in train_point) + "\n")
        pred_path = tmp_path / "preds.csv"
        assert run_cli("predict", "--artifact", artifact, "--points", pts,
                       "--out", pred_path) == 0
        header, row = pred_path.read_text().strip().splitlines()
        assert header == "mean,variance,epsilon"
        mean, variance, eps = (float(v) for v in row.split(","))
        assert mean == pytest.approx(payload["training_outputs"][0], rel=1e-7)
        assert variance == pytest.approx(0.0, abs=1e-9)
        assert eps == pytest.approx(0.0, abs=1e-4)

    def test_predict_makes_one_pass(self, fast_config, tmp_path, monkeypatch, capsys):
        from scipy.special import ndtri

        from tailrisk.surrogate import FittedSurrogate

        out = tmp_path / "art"
        run_cli("fit", "--config", fast_config, "--out", out)
        calls = []
        original = FittedSurrogate.predict_batch

        def counting(self, points, clamp=True):
            calls.append(len(points))
            return original(self, points, clamp)

        monkeypatch.setattr(FittedSurrogate, "predict_batch", counting)
        pts = tmp_path / "pts.csv"
        pts.write_text("x1,x2\n0.5,-1.0\n2.0,3.0\n-4.0,0.25\n")
        pred_path = tmp_path / "preds.csv"
        assert run_cli("predict", "--artifact", out / "surrogate.json", "--points", pts,
                       "--out", pred_path, "--alpha", "0.1") == 0
        assert calls == [3]
        rows = [[float(v) for v in line.split(",")]
                for line in pred_path.read_text().strip().splitlines()[1:]]
        for _, variance, eps in rows:
            assert eps == float(ndtri(0.95)) * np.sqrt(variance)
        assert run_cli("predict", "--artifact", out / "surrogate.json", "--points", pts,
                       "--out", pred_path, "--alpha", "0") == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["0", "1.5", "nan"])
    def test_predict_checks_alpha_before_loading(self, tmp_path, capsys, monkeypatch, alpha):
        from tailrisk.surrogate import FittedSurrogate

        def no_load(path):
            raise AssertionError("the artifact was loaded before alpha was checked")

        monkeypatch.setattr(FittedSurrogate, "load", no_load)
        pts = tmp_path / "pts.csv"
        pts.write_text("x1,x2\n0.0,0.0\n")
        pred_path = tmp_path / "preds.csv"
        assert run_cli("predict", "--artifact", tmp_path / "none.json", "--points", pts,
                       "--out", pred_path, "--alpha", alpha) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: alpha: ")
        assert not pred_path.exists()

    def test_predict_writes_nothing_when_prediction_fails(self, fast_config, tmp_path,
                                                          monkeypatch):
        from tailrisk.surrogate import FittedSurrogate

        out = tmp_path / "art"
        run_cli("fit", "--config", fast_config, "--out", out)

        def failing(self, points, clamp=True):
            raise ValueError("prediction failed")

        monkeypatch.setattr(FittedSurrogate, "predict_batch", failing)
        pts = tmp_path / "pts.csv"
        pts.write_text("x1,x2\n0.0,0.0\n")
        pred_path = tmp_path / "preds.csv"
        assert run_cli("predict", "--artifact", out / "surrogate.json", "--points", pts,
                       "--out", pred_path) == 1
        assert not pred_path.exists()

    def test_predict_empty_points_file(self, fast_config, tmp_path):
        out = tmp_path / "art"
        run_cli("fit", "--config", fast_config, "--out", out)
        pts = tmp_path / "empty.csv"
        pts.write_text("x1,x2\n")
        pred_path = tmp_path / "preds.csv"
        assert run_cli("predict", "--artifact", out / "surrogate.json",
                       "--points", pts, "--out", pred_path) == 0
        assert pred_path.read_text().strip() == "mean,variance,epsilon"

    @pytest.mark.parametrize(
        "text",
        ["x1,x2\n0.3\n", "x1\n0.3\n", "x1,x2,x3\n0.1,0.2,0.3\n", "x1,x2\n0.3,abc\n"],
        ids=["short-row", "one-column", "three-columns", "non-numeric"],
    )
    def test_predict_refuses_malformed_points(self, fast_config, tmp_path, capsys, text):
        out = tmp_path / "art"
        run_cli("fit", "--config", fast_config, "--out", out)
        pts = tmp_path / "pts.csv"
        pts.write_text(text)
        capsys.readouterr()
        code = run_cli("predict", "--artifact", out / "surrogate.json", "--points", pts,
                       "--out", tmp_path / "p.csv")
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: points: ")
        assert not (tmp_path / "p.csv").exists()

    def test_fit_validates_sample_count_rule(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(
            FAST_CONFIG.replace("training_size = 40", "training_size = 4")
            .replace("method = surrogate_mcs", "method = mcs")
        )
        assert run_cli("fit", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "basis functions" in capsys.readouterr().err

    def test_artifact_version_mismatch(self, fast_config, tmp_path, capsys):
        out = tmp_path / "art"
        run_cli("fit", "--config", fast_config, "--out", out)
        artifact = out / "surrogate.json"
        payload = json.loads(artifact.read_text())
        payload["version"] = 42
        artifact.write_text(json.dumps(payload))
        pts = tmp_path / "pts.csv"
        pts.write_text("x1,x2\n0.0,0.0\n")
        code = run_cli("predict", "--artifact", artifact, "--points", pts,
                       "--out", tmp_path / "p.csv")
        assert code == 2
        assert "version" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda p: p.pop("training_outputs"),
            lambda p: p.update(coefficients=[0.0] * len(p["coefficients"])),
        ],
        ids=["missing-key", "tampered-coefficients"],
    )
    def test_predict_refuses_broken_artifact(self, fast_config, tmp_path, capsys, tamper):
        out = tmp_path / "art"
        run_cli("fit", "--config", fast_config, "--out", out)
        artifact = out / "surrogate.json"
        payload = json.loads(artifact.read_text())
        tamper(payload)
        artifact.write_text(json.dumps(payload))
        pts = tmp_path / "pts.csv"
        pts.write_text("x1,x2\n0.0,0.0\n")
        capsys.readouterr()
        code = run_cli("predict", "--artifact", artifact, "--points", pts,
                       "--out", tmp_path / "p.csv")
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")


class TestPresets:
    def test_presets_resolve_and_validate(self):
        from tailrisk.cli import PRESETS, Experiment, load_config

        for name in PRESETS:
            exp = Experiment(load_config(preset=name))
            assert exp.input_model.dimension == 2
            assert exp.beta == 0.99
