"""Benchmark of ``tailrisk run`` on three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs experiments of one workload in a closed loop, one at a time, each in
a fresh process (``perfbench/experiment.py``) with one BLAS thread.  The
number of experiments is ``--seconds`` over the workload's nominal
experiment time, so a run lasts about ``--seconds`` on the machine the
benchmark was defined on.  Experiment ``i`` runs with
``tailrisk run --seed`` ``N * 1000 + i``.  Every experiment passes the
correctness gate in ``check_experiment`` or its trials count as failed.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` each experiment runs twice at one seed, untraced and traced,
the two ``report.json`` files must be byte-identical, and the last line
holds the per-layer metrics (``perfbench/layers.py``).  The lines before
it record the environment and, when traced, a per-layer table.

Exits with code 2 and prints no result when ``src/tailrisk`` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# One BLAS thread in every experiment: the thread count changes the LOO
# search path (evaluation count and final theta), not only its speed.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Trials per experiment, as the presets ship them.
TRIALS = 10
# Every run ends within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170.0
# The tail percentile has at least this many trials beyond it.
TAIL_MARGIN = 10


@dataclass(frozen=True)
class Workload:
    args: tuple        # ``tailrisk run`` arguments besides --seed/--trials/--out
    expected: dict     # model-boundary evaluations per trial, by fidelity
    # Seconds one untraced experiment took when the benchmark was defined
    # (2-core x86-64, OpenBLAS at one thread); a run makes
    # ``--seconds // nominal_s`` experiments.
    nominal_s: float
    check_builtin: str | None = None  # builtin the command model must equal


WORKLOADS = {
    "smcs-corr09": Workload(("--preset", "example1-corr09"), {"hf": 300, "lf": 0}, 16.0),
    "mfis-tray": Workload(("--preset", "example2"), {"hf": 400, "lf": 0}, 12.2),
    "mfis-lf-cmd": Workload(("--config", "perfbench/workloads/mfis-lf-cmd.ini"),
                            {"hf": 150, "lf": 300}, 21.5, "rastrigin"),
}
REFERENCE_SAMPLES = 10000   # candidates per reference MCS trial, every workload

E2E_UNITS = {
    "setup_s": "s",
    "trial_s_p50": "s",
    "trial_s_tail": "s",
    "run_s": "s",
    "hf_evals_per_trial": "count",
    "peak_rss_mb": "MB",
}


def percentile(values, q):
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(count):
    """Highest whole percentile with ``TAIL_MARGIN`` of ``count`` values beyond it."""
    return max(0, math.floor(100.0 * (count - TAIL_MARGIN) / count)) if count else 0


def source_identity():
    """Commit of the checkout when it is a git repository, and a digest of src."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "tailrisk").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _end_group(pgid):
    """Kill whatever is left of an experiment's process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_experiment(workload, seed, trials, traced, out_dir, timeout):
    """Run one experiment process; returns its record (times are monotonic)."""
    out_dir.mkdir(parents=True)
    probe_path = out_dir / "probe.json"
    cmd = [sys.executable, str(HERE / "experiment.py"), "--result", str(probe_path),
           "--trace", str(int(traced))]
    if workload.check_builtin:
        cmd += ["--check-builtin", workload.check_builtin]
    # One trial in flight: with two, thread interleaving alone moved the
    # median trial time and peak memory by more than any bound allows.
    cmd += ["--", "run", *workload.args, "--threads", "1",
            "--trials", str(trials), "--seed", str(seed), "--out", str(out_dir)]
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    record = {"seed": seed, "traced": traced, "trials": trials, "error": None}
    with open(out_dir / "child.log", "wb") as log:
        record["spawn"] = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
            record["error"] = f"experiment exceeded {timeout:.0f} s"
        finally:
            _end_group(proc.pid)
            proc.wait()
    if code not in (0, None):
        log_tail = (out_dir / "child.log").read_text(errors="replace").strip().splitlines()
        record["error"] = f"exit code {code}: {log_tail[-1] if log_tail else 'no output'}"
    report_path = out_dir / "report.json"
    if record["error"] is None:
        record["probe"] = json.loads(probe_path.read_text())
        record["report_bytes"] = report_path.read_bytes()
    return record


def boundary_counts(spans):
    """Model evaluations per trial context and fidelity, from evaluate_batch spans."""
    counts = {}
    for name, _, _, _, trial, _, attrs in spans:
        if name != "models.evaluate_batch" or trial is None or not attrs or "points" not in attrs:
            continue
        key = (trial[0], trial[1], attrs["fidelity"])
        counts[key] = counts.get(key, 0) + attrs["points"]
    return counts


def check_experiment(report, spans, workload, trials):
    """Correctness gate for one experiment.

    Returns ``(failed_trials, problems)``: the set of estimation-trial
    indices that fail and a message for each failure.  A problem with a
    reference trial fails every trial, since all of them are scored
    against the reference.
    """
    failed, problems = set(), []
    everything = set(range(trials))
    rows = report.get("trials", [])
    if len(rows) != trials:
        return everything, [f"report has {len(rows)} trials, expected {trials}"]
    counts = boundary_counts(spans)
    for k, row in enumerate(rows):
        var, cvar = row["var_estimate"], row["cvar_estimate"]
        if not (math.isfinite(var) and math.isfinite(cvar) and cvar >= var):
            failed.add(k)
            problems.append(f"trial {k}: VaR {var!r}, CVaR {cvar!r}")
        for fidelity, expected in workload.expected.items():
            reported = row["evaluations"].get(fidelity)
            seen = counts.get(("trial", k, fidelity), 0)
            if not reported == seen == expected:
                failed.add(k)
                problems.append(f"trial {k}: {fidelity} evaluations reported {reported}, "
                                f"seen {seen}, configured {expected}")
    unknown = sum(v for (_, _, fid), v in counts.items() if fid not in ("hf", "lf"))
    if unknown:
        failed |= everything
        problems.append(f"{unknown} evaluations on a model handle of unknown fidelity")
    refs = report.get("benchmark_trials", [])
    if len(refs) != trials:
        failed |= everything
        problems.append(f"report has {len(refs)} reference trials, expected {trials}")
    for k, row in enumerate(refs):
        var, cvar = row["var_estimate"], row["cvar_estimate"]
        seen = counts.get(("ref", k, "hf"), 0)
        if not (math.isfinite(var) and math.isfinite(cvar) and cvar >= var) or \
                not row["evaluations"]["hf"] == seen == REFERENCE_SAMPLES:
            failed |= everything
            problems.append(f"reference trial {k}: VaR {var!r}, CVaR {cvar!r}, "
                            f"hf reported {row['evaluations']['hf']}, seen {seen}")
    mismatches = sum((attrs or {}).get("mismatches", 0) for name, *_, attrs in spans
                     if name == "models.evaluate_batch")
    if mismatches:
        failed |= everything
        problems.append(f"{mismatches} command-model outputs differ from builtin "
                        f"{workload.check_builtin}")
    total = report["summary"]["evaluations"]
    for fidelity in ("hf", "lf"):
        if total[fidelity] != sum(row["evaluations"][fidelity] for row in rows):
            failed |= everything
            problems.append(f"summary {fidelity} count {total[fidelity]} != sum of trials")
    return failed, problems


def experiment_metrics(record):
    """End-to-end figures of one experiment, from its probe."""
    spans = record["probe"]["spans"]
    trials = [s for s in spans if s[0] == "cli.trial"]
    counts = boundary_counts(spans)
    hf = [counts.get(("trial", k, "hf"), 0) for k in range(record["trials"])]
    return {
        "setup_s": min(s[1] for s in trials) - record["spawn"],
        "trial_s": [s[2] - s[1] for s in trials],
        "run_s": layers.run_seconds(record),
        "hf_evals_per_trial": sum(hf) / len(hf),
        "peak_rss_mb": record["probe"]["peak_rss_kb"] / 1024.0,
    }


def end_to_end(figures, planned_trials):
    """Run-level end-to-end metrics from per-experiment figures.

    The tail percentile follows from the planned trial count, so a run that
    lost an experiment reports the same percentile as the others.
    """
    trial_s = [d for f in figures for d in f["trial_s"]]
    q = tail_percentile(planned_trials)
    values = {
        "setup_s": statistics.median(f["setup_s"] for f in figures),
        "trial_s_p50": statistics.median(trial_s),
        "trial_s_tail": percentile(trial_s, q),
        "run_s": statistics.median(f["run_s"] for f in figures),
        "hf_evals_per_trial": statistics.mean(f["hf_evals_per_trial"] for f in figures),
        "peak_rss_mb": statistics.median(f["peak_rss_mb"] for f in figures),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}, q


def _interrupted(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    # SIGTERM unwinds like Ctrl-C, so the running experiment's group is killed.
    signal.signal(signal.SIGTERM, _interrupted)
    parser = argparse.ArgumentParser(description="tailrisk run benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=TRIALS,
                        help="trials per experiment; smaller only for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "tailrisk" / "cli.py").is_file():
        print(f"perfbench: no tailrisk sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    # A fixed number of experiments per run, not as many as fit: both sides
    # of a comparison then time the same experiments at a given seed.
    per_experiment = workload.nominal_s * (2 if args.trace else 1)
    planned = max(1, int(args.seconds // per_experiment))
    start = time.monotonic()
    plain, traced = [], []
    wrong, lost = [], []      # gate failures; experiments that did not finish
    attempted = failed = 0
    for index in range(planned):
        elapsed = time.monotonic() - start
        if index and elapsed * (index + 1) / index > HARD_LIMIT_S:
            lost.append(f"stopped after {index} of {planned} experiments: "
                        f"the next would pass {HARD_LIMIT_S:.0f} s")
            break
        seed = args.seed * 1000 + index
        runs = [run_experiment(workload, seed, args.trials, False, run_dir / f"exp{index}",
                               HARD_LIMIT_S - elapsed)]
        if args.trace:
            runs.append(run_experiment(workload, seed, args.trials, True,
                                       run_dir / f"exp{index}-traced",
                                       HARD_LIMIT_S - (time.monotonic() - start)))
        for record in runs:
            attempted += args.trials
            label = f"seed {seed}{' traced' if record['traced'] else ''}"
            if record["error"] is not None:
                failed += args.trials
                lost.append(f"{label}: {record['error']}")
                continue
            bad, problems = check_experiment(json.loads(record["report_bytes"]),
                                             record["probe"]["spans"], workload, args.trials)
            if record["traced"] and runs[0]["error"] is None \
                    and record["report_bytes"] != runs[0]["report_bytes"]:
                bad = set(range(args.trials))
                problems.append("report.json differs between the traced and untraced runs")
            failed += len(bad)
            wrong += [f"{label}: {p}" for p in problems]
            (traced if record["traced"] else plain).append(record)

    for problem in lost:
        print(f"failed: {problem}", file=sys.stderr)
    for problem in wrong:
        print(f"gate: {problem}", file=sys.stderr)
    header = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "experiments": len(plain), "planned": planned, **source_identity()}
    if plain:
        header["environment"] = plain[0]["probe"]["environment"]
        header["missing_hooks"] = (traced or plain)[0]["probe"]["missing_hooks"]
    # Trials that raised or never finished count in ``failed``; ``correct``
    # says whether every experiment that finished passed the gate.
    ok = not wrong and bool(plain) and (bool(traced) or not args.trace)
    metrics = {}
    if ok and not args.trace:
        metrics, q = end_to_end([experiment_metrics(r) for r in plain], planned * args.trials)
        header["trials_timed"] = sum(r["trials"] for r in plain)
        header["mrd_pct"] = [json.loads(r["report_bytes"])["summary"]["mrd_pct"] for r in plain]
        header["trial_s_tail_percentile"] = q
    elif ok:
        metrics, table = layers.per_layer(plain, traced)
        print(table)
    print(json.dumps(header, sort_keys=True))
    (run_dir / "result.json").write_text(json.dumps(
        {"header": header, "failed": lost, "gate": wrong, "metrics": metrics}, indent=2) + "\n")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
