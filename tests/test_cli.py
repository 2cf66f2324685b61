import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import tailrisk
from tailrisk.cli import REPORT_CSV_HEADER, main

REPO = Path(__file__).parents[1]

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


@pytest.fixture()
def no_basis(monkeypatch):
    """Fail any run that gets as far as building the basis."""
    from tailrisk import cli

    def fail(exp):
        raise AssertionError("the basis was built before the config was checked")

    monkeypatch.setattr(cli, "_build_basis", fail)


def config_errors(tmp_path, capsys, text):
    """Run ``text`` as a config: it must exit 2; returns its stderr lines."""
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert all(line.startswith("config error: ") for line in lines)
    return [line.removeprefix("config error: ") for line in lines]


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

    def test_nan_lf_reply_fails_the_training(self, tmp_path, capsys):
        script = tmp_path / "nan.py"
        script.write_text("import sys\nfor line in sys.stdin:\n    print('nan', flush=True)\n")
        cfg = tmp_path / "nan.ini"
        cfg.write_text(FAST_CONFIG.replace(
            "lf_kind = builtin\nlf_name = rastrigin_lf1\n",
            f"lf_kind = command\nlf_command = {sys.executable} {script}\n",
        ))
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--method", "mfis_lf", "--trials", 1,
                       "--out", out) == 1
        assert "training outputs hold a non-finite value" in capsys.readouterr().err
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

        def counting(self, points):
            predicted[0] += len(points)
            return original(self, points)

        monkeypatch.setattr(FittedSurrogate, "predict_batch", counting)
        cfg = tmp_path / "topup.ini"
        # More draws than candidates: the region cannot hold them all.
        cfg.write_text(FAST_CONFIG.replace("subsample_size = 30", "subsample_size = 2500"))
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--method", "mfis_hf",
                       "--trials", "1", "--out", out) == 0
        trial = json.loads((out / "report.json").read_text())["trials"][0]
        assert trial["metadata"]["fresh_points"] > 0
        # 2000 candidates for the region, then whole 8192-point top-up blocks
        assert trial["evaluations"]["surrogate"] == predicted[0] > 2000 + 8192 - 1

    def test_region_mass_covers_the_tail_on_a_recorded_failure(self):
        # mfis-lf-cmd.ini at seed 21000, trial 7, with the builtin rastrigin
        # as the HF model (the command model's outputs equal it bit for
        # bit).  With the mean at the tail index as the region's threshold,
        # this trial's region held mass 0.0086 < 1 - beta and the run failed.
        from tailrisk import cli

        raw = cli.load_config(REPO / "perfbench" / "workloads" / "mfis-lf-cmd.ini")
        raw["model"].update(kind="builtin", name="rastrigin")
        del raw["model"]["command"]
        raw["run"]["seed"] = "21000"
        exp = cli.Experiment(raw)
        with cli._open_models(exp, ("hf", "lf")) as handles:
            report = cli._run_trial(exp, cli._build_basis(exp), 7, handles)
        assert report.metadata["region_mass"] >= 1.0 - exp.beta

    def test_mfis_lf_counts_split(self, fast_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--config", fast_config, "--method", "mfis_lf",
                       "--trials", "1", "--out", out) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["summary"]["evaluations"]["lf"] == 40
        assert doc["summary"]["evaluations"]["hf"] == 30

    def test_quadrature_key_is_accepted_and_inert(self, fast_config, tmp_path):
        # The basis moments are exact; the key stays known for old configs.
        with_key = tmp_path / "with.ini"
        with_key.write_text(FAST_CONFIG.replace(
            "training_size = 40", "training_size = 40\nquadrature = 1000000"))
        docs = []
        for config in (fast_config, with_key):
            out = tmp_path / config.stem
            assert run_cli("run", "--config", config, "--trials", 1, "--out", out) == 0
            docs.append(json.loads((out / "report.json").read_text()))
        without, with_ = docs
        assert with_["config"]["surrogate"].pop("quadrature") == "1000000"
        assert with_ == without

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

    def test_quoted_command_path_with_a_space_runs(self, tmp_path):
        folder = tmp_path / "sp ace"
        folder.mkdir()
        script, pids = folder / "model.py", folder / "pids.txt"
        script.write_text(PID_RECORDING_RASTRIGIN)
        command = f'{shlex.quote(sys.executable)} "{script}" "{pids}"'
        cfg = tmp_path / "quoted.ini"
        cfg.write_text(FAST_CONFIG.replace(
            "kind = builtin\nname = rastrigin\n", f"kind = command\ncommand = {command}\n"))
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--method", "mcs", "--trials", 1,
                       "--out", out) == 0
        assert len(started_children(pids)) == 1
        # The report echoes the command as written, quotes and all.
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["model"]["command"] == command

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
                                        no_basis):
        config, _ = command_config
        text = config.read_text().replace("[surrogate]", f"{line}\n\n[surrogate]")
        # lf_timeout is a key of command models only
        text = text.replace("lf_kind = builtin\nlf_name = rastrigin_lf1\n",
                            f"lf_kind = command\nlf_command = {sys.executable}\n")
        errors = config_errors(tmp_path, capsys, text)
        assert len(errors) == 1 and errors[0].startswith(f"model.{line.split()[0]}: ")
        assert "unknown key" not in errors[0]

    @pytest.mark.parametrize(
        "old, new, field",
        [
            ("correlation =", "correlaton =", "input.correlaton"),
            ("name = rastrigin\n", "name = rastrigin\ncost = 1\n", "model.cost"),
            ("training_size = 40", "training_size = 40\nrestarts = 3", "surrogate.restarts"),
            ("beta = 0.95", "betta = 0.95", "risk.betta"),
            ("trials = 2", "trails = 2", "run.trails"),
            ("[run]", "[rnu]\ntrials = 2\n\n[run]", "[rnu]"),
            ("name = rastrigin\n", "name = rastrigin\npath = nowhere.csv\n", "model.path"),
            ("lf_name = rastrigin_lf1\n", "lf_name = rastrigin_lf1\nlf_command = ./sim\n",
             "model.lf_command"),
            ("lf_kind = builtin\nlf_name = rastrigin_lf1\n", "lf_timeout = 5\n",
             "model.lf_timeout"),
        ],
        ids=["input", "model", "surrogate", "risk", "run", "section", "kind", "lf_kind",
             "no-lf-model"],
    )
    def test_unknown_key_is_one_config_error(self, tmp_path, capsys, no_basis, old, new, field):
        assert FAST_CONFIG.count(old) == 1
        errors = config_errors(tmp_path, capsys, FAST_CONFIG.replace(old, new))
        assert len(errors) == 1 and errors[0].startswith(f"{field}: unknown ")

    def test_every_offending_field_gets_one_line(self, tmp_path, capsys, no_basis):
        text = (FAST_CONFIG.replace("std=2\n    gaussian", "std=2 sd=9\n    gaussian")
                .replace("name = rastrigin\n", "name = rastrigin\npath = nowhere.csv\n")
                .replace("training_size = 40", "training_size = 40\nrestart = 3")
                .replace("beta = 0.95", "betta = 0.5")
                + "\n[rnu]\ntrials = 2\n")
        errors = config_errors(tmp_path, capsys, text)
        assert sorted(error.split(": ")[0] for error in errors) == sorted(
            ["input.marginals[0]", "model.path", "surrogate.restart", "risk.betta", "[rnu]"]
        )

    @pytest.mark.parametrize("command", ["run", "fit"])
    @pytest.mark.parametrize(
        "orders, expected",
        [("interaction_order = 3\ndegree = 3",
          "surrogate.interaction_order: interaction order must be in [0, 2], got 3"),
         ("interaction_order = 2\ndegree = 1",
          "surrogate.degree: degree must be >= interaction order, got m=1 < S=2")],
        ids=["order-above-dimension", "degree-below-order"],
    )
    def test_basis_orders_are_one_config_error(self, tmp_path, capsys, no_basis, command,
                                               orders, expected):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(FAST_CONFIG.replace("interaction_order = 1\ndegree = 2", orders))
        assert run_cli(command, "--config", cfg, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {expected}"]

    @pytest.mark.parametrize("command", ["run", "fit"])
    def test_oversized_moment_is_one_config_error(self, tmp_path, capsys, monkeypatch,
                                                  command):
        # At S = 3, five mutually correlated uniform inputs share one moment
        # whose first Gauss-Hermite grid has 32^5 points.
        from tailrisk import basis

        def integrate(*args):
            raise AssertionError("a moment was integrated before the grids were checked")

        monkeypatch.setattr(basis, "_group_moment", integrate)
        text = (FAST_CONFIG
                .replace("gaussian mean=0 std=2\n    gaussian mean=0 std=2",
                         "\n    ".join(["uniform lower=0 upper=1"] * 5))
                .replace("1.0 0.9\n    0.9 1.0", "\n    ".join(
                    " ".join("1.0" if i == j else "0.3" for j in range(5)) for i in range(5)))
                .replace("interaction_order = 1\ndegree = 2", "interaction_order = 3\ndegree = 3")
                .replace("training_size = 40", "training_size = 60"))
        cfg = tmp_path / "big.ini"
        cfg.write_text(text)
        assert run_cli(command, "--config", cfg, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: surrogate.interaction_order: the moment with exponents "
            "{0: 1, 1: 1, 2: 1, 3: 1, 4: 1} needs 33554432 Gauss-Hermite points, "
            "more than the cap of 1048576"
        ]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_is_one_config_error(self, tmp_path, capsys, no_basis, where):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(FAST_CONFIG.replace("seed = 77", "seed = -1") if where == "config"
                       else FAST_CONFIG)
        flag = ["--seed", "-1"] if where == "flag" else []
        assert run_cli("run", "--config", cfg, *flag, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: run.seed: must be >= 0, got -1"
        ]

    @pytest.mark.parametrize(
        "value, problem",
        [("0", "must be 'auto' or a finite nonzero number, got 0.0"),
         ("nan", "must be 'auto' or a finite nonzero number, got nan"),
         ("inf", "must be 'auto' or a finite nonzero number, got inf"),
         ("-inf", "must be 'auto' or a finite nonzero number, got -inf"),
         ("abc", "must be 'auto' or a number, got 'abc'")],
    )
    def test_bad_benchmark_is_one_config_error(self, tmp_path, capsys, monkeypatch, value,
                                               problem):
        from tailrisk import cli

        def fail(*args, **kwargs):
            raise AssertionError("a model handle was opened before the config was checked")

        monkeypatch.setattr(cli.Experiment, "build_model", fail)
        text = (FAST_CONFIG.replace("benchmark = auto", f"benchmark = {value}")
                .replace("method = surrogate_mcs", "method = mcs"))
        assert config_errors(tmp_path, capsys, text) == [f"risk.benchmark: {problem}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [("name", "rastrgin"), ("lf_name", "rastrigin_lf9")])
    def test_unknown_builtin_model_fails_up_front(self, tmp_path, capsys, no_basis, key, value):
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", FAST_CONFIG, flags=re.M)
        errors = config_errors(tmp_path, capsys, text)
        assert len(errors) == 1 and errors[0].startswith(f"model.{key}: must be one of ")

    @pytest.mark.parametrize(
        "model, field",
        [("kind = dataset\n", "model.path: required"), ("kind = dataset\npath =\n", "model.path: "),
         ("kind = command\ncommand =  \n", "model.command: ")],
        ids=["missing", "blank-path", "blank-command"],
    )
    def test_model_source_is_required(self, tmp_path, capsys, no_basis, model, field):
        text = FAST_CONFIG.replace("kind = builtin\nname = rastrigin\n", model)
        errors = config_errors(tmp_path, capsys, text)
        assert len(errors) == 1 and errors[0].startswith(field)

    @pytest.mark.parametrize(
        "old",
        ["kind = builtin\nname = rastrigin\n", "lf_kind = builtin\nlf_name = rastrigin_lf1\n"],
        ids=["hf", "lf"],
    )
    def test_unbalanced_quote_in_command_is_one_config_error(self, tmp_path, capsys, no_basis,
                                                             old):
        prefix = old[: old.index("kind")]
        new = f'{prefix}kind = command\n{prefix}command = python3 "/nowhere/sp ace/model.py\n'
        assert config_errors(tmp_path, capsys, FAST_CONFIG.replace(old, new)) == [
            f"model.{prefix}command: No closing quotation"
        ]

    @pytest.mark.parametrize(
        "text",
        [
            FAST_CONFIG.replace("beta = 0.95", "beta = 0.95\nbeta = 0.9"),
            "beta = 0.9\n" + FAST_CONFIG,
            FAST_CONFIG + "\n[run]\nseed = 1\n",
            "[DEFAULT]\nseed = 3\n" + FAST_CONFIG,
        ],
        ids=["duplicate-key", "no-section-header", "duplicate-section", "default-section"],
    )
    def test_malformed_ini_is_one_config_error(self, tmp_path, capsys, no_basis, text):
        errors = config_errors(tmp_path, capsys, text)
        assert len(errors) == 1 and errors[0].startswith("config: ")

    @pytest.mark.parametrize(
        "marginals, expected",
        [
            (["gaussian mean=0"], ["[0]: gaussian needs std"]),
            (["gaussian mean=0 std=2 sd=9"],
             ["[0]: gaussian takes mean and std once as name=value, got 'sd=9'"]),
            (["uniform lower=0 upper"],
             ["[0]: uniform takes lower and upper once as name=value, got 'upper'"]),
            (["gaussian mean=0 mean=5 std=2"],
             ["[0]: gaussian takes mean and std once as name=value, got 'mean=5'"]),
            (["lognormal mean=1", "uniform upper=1"],
             ["[0]: lognormal needs cov", "[1]: uniform needs lower"]),
            (["gaussian mean=nan std=2"], ["[0]: gaussian mean must be finite, got nan"]),
            (["gaussian mean=0 std=inf"], ["[0]: gaussian std must be finite, got inf"]),
            (["uniform lower=-inf upper=1"], ["[0]: uniform lower must be finite, got -inf"]),
            (["lognormal mean=inf cov=10"], ["[0]: lognormal mean must be finite, got inf"]),
        ],
        ids=["missing", "unknown", "no-equals", "repeated", "every-line-fails",
             "nan-mean", "inf-std", "inf-lower", "inf-lognormal-mean"],
    )
    def test_marginal_parameters_are_checked(self, tmp_path, capsys, no_basis, marginals,
                                             expected):
        text = FAST_CONFIG.replace(
            "    gaussian mean=0 std=2\n    gaussian mean=0 std=2\n",
            "".join(f"    {line}\n" for line in marginals),
        )
        assert config_errors(tmp_path, capsys, text) == [
            f"input.marginals{line}" for line in expected
        ]


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

        def counting(self, points):
            calls.append(len(points))
            return original(self, points)

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

        def failing(self, points):
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
        ["x1,x2\n0.3\n", "x1\n0.3\n", "x1,x2,x3\n0.1,0.2,0.3\n", "x1,x2\n0.3,abc\n",
         "x2,xx\n0.1,0.2\n", "x1,x1,x2\n0.1,0.2,0.3\n", "x1,x3\n0.1,0.2\n"],
        ids=["short-row", "one-column", "three-columns", "non-numeric", "no-x1", "repeated",
             "beyond-dimension"],
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

    def test_predict_maps_columns_by_name(self, fast_config, tmp_path):
        out = tmp_path / "art"
        run_cli("fit", "--config", fast_config, "--out", out)
        points = [(0.5, -1.5), (2.0, 0.25)]
        predictions = []
        for header, rows in (("x1,x2", points), ("x2,label,x1", [(b, 7, a) for a, b in points])):
            pts = tmp_path / "pts.csv"
            pts.write_text(header + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows))
            assert run_cli("predict", "--artifact", out / "surrogate.json", "--points", pts,
                           "--out", tmp_path / "p.csv") == 0
            predictions.append((tmp_path / "p.csv").read_text())
        assert predictions[0] == predictions[1]

    @pytest.mark.parametrize("flag", ["--trials", "--threads"])
    def test_fit_takes_no_run_flags(self, fast_config, tmp_path, capsys, flag):
        # ``fit`` fits trial 0 in one thread, so it offers neither flag.
        with pytest.raises(SystemExit) as exit_info:
            run_cli("fit", "--config", fast_config, flag, 2, "--out", tmp_path / "o")
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
        workloads = sorted((REPO / "perfbench" / "workloads").glob("*.ini"))
        assert workloads
        for path in workloads:
            Experiment(load_config(path))

    def test_readme_config_block_lists_every_key(self, tmp_path):
        from tailrisk.cli import _SCHEMA, Experiment, load_config

        readme = (REPO / "README.md").read_text()
        block = readme.split("### Config format", 1)[1].split("```ini", 1)[1].split("```", 1)[0]
        listed, section = set(), None
        for line in block.splitlines():
            if header := re.match(r"\[(\w+)\]", line):
                section = header[1]
            elif key := re.match(r";?\s*(\w+)\s*=", line):
                listed.add((section, key[1]))
        assert listed == {(section, key) for section, key, *_ in _SCHEMA}
        # The block is a working config, comments and all.
        (tmp_path / "readme.ini").write_text(block)
        Experiment(load_config(tmp_path / "readme.ini"))
