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


def test_traced_experiment_finds_every_hook(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(tailrisk.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    result = tmp_path / "probe.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "experiment.py"), "--result", str(result),
         "--trace", "1", "--", "run", "--preset", "example1-corr09", "--method", "mcs",
         "--trials", "1", "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(result.read_text())
    assert probe["missing_hooks"] == []
    # The span annotation reads len() of the sample set.
    assert [span[6] for span in probe["spans"] if span[0] == "inputs.sample"] == [
        {"points": 10_000}
    ]


def test_loo_scaling_reads_sample_points():
    spec = importlib.util.spec_from_file_location("loo_scaling", PERFBENCH / "loo_scaling.py")
    loo_scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loo_scaling)
    ms = loo_scaling.median_ms(40, repeats=2)
    assert math.isfinite(ms) and ms > 0.0
