import json
import textwrap

import numpy as np
import pytest

from tailrisk.cli import main
from tailrisk.risk import REPORT_CSV_HEADER

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

    def test_threads_do_not_change_results(self, fast_config, tmp_path):
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        run_cli("run", "--config", fast_config, "--out", out1, "--threads", "1")
        run_cli("run", "--config", fast_config, "--out", out2, "--threads", "4")
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


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
                       "--out", pred_path, "--alpha", "0") == 1
        assert "alpha" in capsys.readouterr().err

    def test_predict_empty_points_file(self, fast_config, tmp_path):
        out = tmp_path / "art"
        run_cli("fit", "--config", fast_config, "--out", out)
        pts = tmp_path / "empty.csv"
        pts.write_text("x1,x2\n")
        pred_path = tmp_path / "preds.csv"
        assert run_cli("predict", "--artifact", out / "surrogate.json",
                       "--points", pts, "--out", pred_path) == 0
        assert pred_path.read_text().strip() == "mean,variance,epsilon"

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
