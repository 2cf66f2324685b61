"""Self-test of the benchmark.  Run from the repository root::

    python3 perfbench/selftest.py

1. Runs every workload at a reduced size (one experiment of two trials),
   untraced and traced, and checks that the last stdout line is a correct
   result carrying every metric ``BENCHMARK.json`` names, with its unit.
2. Doctors an experiment's report and spans and checks that the gate
   trips: an ``hf`` count off by one, CVaR below VaR, a command-model
   output that differs from the builtin.
3. Runs the benchmark in a directory holding only ``BENCHMARK.json`` and
   the benchmark's files and checks that it fails without a result.

Exits 0 when every check passes; prints one line per check.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED = 1


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_metrics(spec, workload, failures):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                    "--trace", str(trace), "--trials", "2")
        lines = out.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            failures.append(f"{workload} trace {trace}: no result line; stderr: {out.stderr[-500:]}")
            continue
        expected = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        ok = (out.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
              and result["correct"] is True and result["failed"] == 0
              and result["attempted"] >= 1 and got == expected
              and all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()))
        print(f"{'ok ' if ok else 'FAIL'} {workload} trace {trace}: "
              f"{len(got)} metrics, attempted {result['attempted']}, failed {result['failed']}")
        if not ok:
            failures.append(f"{workload} trace {trace}: {result}; missing "
                            f"{sorted(set(expected.items()) - set(got.items()))}")


def check_gate(failures):
    """The gate passes the recorded experiment and trips on doctored copies."""
    name = "mfis-lf-cmd"
    workload = run.WORKLOADS[name]
    exp_dir = run.WORK / f"{name}-seed{SEED}-trace0" / "exp0"
    report = json.loads((exp_dir / "report.json").read_text())
    spans = json.loads((exp_dir / "probe.json").read_text())["spans"]
    trials = len(report["trials"])

    def hf_off_by_one(rep, sp):
        # Consistent with the summary, so only the model-boundary count disagrees.
        rep["trials"][0]["evaluations"]["hf"] += 1
        rep["summary"]["evaluations"]["hf"] += 1

    def cvar_below_var(rep, sp):
        rep["trials"][1]["cvar_estimate"] = rep["trials"][1]["var_estimate"] - 1.0

    def command_mismatch(rep, sp):
        next(s for s in sp if s[0] == "models.evaluate_batch"
             and s[6].get("kind") == "command")[6]["mismatches"] = 1

    cases = [("untouched", None, set()), ("hf count off by one", hf_off_by_one, {0}),
             ("CVaR below VaR", cvar_below_var, {1}),
             ("command output differs from builtin", command_mismatch, set(range(trials)))]
    for label, doctor, expected in cases:
        rep, sp = copy.deepcopy(report), copy.deepcopy(spans)
        if doctor:
            doctor(rep, sp)
        bad, problems = run.check_experiment(rep, sp, workload, trials)
        ok = bad == expected and bool(problems) == bool(expected)
        print(f"{'ok ' if ok else 'FAIL'} gate, {label}: failed trials {sorted(bad)}")
        if not ok:
            failures.append(f"gate, {label}: {sorted(bad)} {problems}")


def check_bare_directory(failures):
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "smcs-corr09", "--seed", str(SEED), "--seconds", "1",
                "--trace", "0", cwd=bare)
    ok = out.returncode != 0 and '"correct"' not in out.stdout
    print(f"{'ok ' if ok else 'FAIL'} bare directory: exit {out.returncode}")
    if not ok:
        failures.append(f"bare directory: exit {out.returncode}, stdout {out.stdout[-300:]}")
    shutil.rmtree(bare)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in spec["workloads"]:
        check_metrics(spec, workload["name"], failures)
    check_gate(failures)
    check_bare_directory(failures)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
