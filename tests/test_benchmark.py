"""The benchmark under ``perfbench/`` reaches into the package by name: it
wraps module attributes and reads sample sets.  These tests fail when a
rename or a deletion leaves one of its hooks with nothing to wrap, which
the benchmark itself would only show as blank per-layer metrics."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import tailrisk

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def traced_experiment(tmp_path, *run_args, timeout):
    """Probe of ``perfbench/experiment.py --trace 1`` on ``tailrisk run``
    with ``run_args``, after asserting that it exited with code 0."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(tailrisk.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    result = tmp_path / "probe.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "experiment.py"), "--result", str(result),
         "--trace", "1", "--", "run", *run_args, "--trials", "1", "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


def test_traced_experiment_finds_every_hook(tmp_path):
    probe = traced_experiment(
        tmp_path, "--preset", "example1-corr09", "--method", "mcs", timeout=300
    )
    assert probe["missing_hooks"] == []
    # The span annotation reads len() of the sample set.
    assert [span[6] for span in probe["spans"] if span[0] == "inputs.sample"] == [
        {"points": 10_000}
    ]


def test_traced_surrogate_mfis_run_finds_every_hook(tmp_path):
    # The run above never enters the surrogate code.  The runner waits for
    # every child process after the run, so a helper process that the CLI
    # leaves alive would hang it: the timeout turns that into a failure.
    probe = traced_experiment(tmp_path, "--preset", "example2", timeout=120)
    assert probe["missing_hooks"] == []
    names = {span[0] for span in probe["spans"]}
    assert {"surrogate.optimize_theta", "surrogate.predict_batch",
            "risk.epsilon_risk_region"} <= names


def test_loo_scaling_reads_sample_points():
    spec = importlib.util.spec_from_file_location("loo_scaling", PERFBENCH / "loo_scaling.py")
    loo_scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loo_scaling)
    ms = loo_scaling.median_ms(40, repeats=2)
    assert math.isfinite(ms) and ms > 0.0
