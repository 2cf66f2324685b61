"""Config-driven experiment runner.

Three subcommands:

``run``
    Execute K seeded trials of a CVaR estimation method (``mcs``,
    ``surrogate_mcs``, ``mfis_hf``, ``mfis_lf``) described by an INI-style
    config or a named preset; write a JSON report and a CSV table row per
    method.
``fit``
    Fit a surrogate per the config and save it as a versioned artifact.
``predict``
    Evaluate a saved surrogate artifact on a points CSV, emitting mean,
    variance, and confidence half-width columns.

Exit codes: 0 success, 1 runtime estimator failure, 2 config validation
failure (with one diagnostic line per offending field).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from configparser import ConfigParser
from pathlib import Path

import numpy as np

from . import basis as basis_mod
from . import inputs, models, risk, surrogate
from .exceptions import ArtifactError, TailriskError
from .metrics import TrialEnsemble, mrd, nrmsd

THREADS_ENV_VAR = "TAILRISK_THREADS"

_TRAIN, _FIT, _ESTIMATE, _SUBSAMPLE, _BENCHMARK, _BASIS = range(6)

SURROGATE_METHODS = ("surrogate_mcs", "mfis_hf", "mfis_lf")
RUN_METHODS = ("mcs",) + SURROGATE_METHODS

PRESETS = {
    "example1-corr09": {
        "input": {
            "marginals": "\ngaussian mean=0 std=2\ngaussian mean=0 std=2",
            "correlation": "\n1.0 0.9\n0.9 1.0",
        },
        "model": {"kind": "builtin", "name": "rastrigin",
                  "lf_kind": "builtin", "lf_name": "rastrigin_lf1"},
        "surrogate": {"interaction_order": "1", "degree": "3",
                      "kernel": "gaussian", "mode": "chaos_kriging",
                      "training_size": "300", "quadrature": "1000000"},
        "risk": {"method": "surrogate_mcs", "beta": "0.99", "alpha": "0.05",
                 "samples": "10000", "subsample_size": "150",
                 "scheme": "mc", "benchmark": "auto"},
        "run": {"trials": "10", "seed": "20240", "threads": "1"},
    },
    "example1-corr0": {
        "input": {
            "marginals": "\ngaussian mean=0 std=2\ngaussian mean=0 std=2",
            "correlation": "\n1.0 0.0\n0.0 1.0",
        },
        "model": {"kind": "builtin", "name": "rastrigin",
                  "lf_kind": "builtin", "lf_name": "rastrigin_lf1"},
        "surrogate": {"interaction_order": "1", "degree": "3",
                      "kernel": "gaussian", "mode": "chaos_kriging",
                      "training_size": "300", "quadrature": "1000000"},
        "risk": {"method": "surrogate_mcs", "beta": "0.99", "alpha": "0.05",
                 "samples": "10000", "subsample_size": "150",
                 "scheme": "mc", "benchmark": "auto"},
        "run": {"trials": "10", "seed": "20241", "threads": "1"},
    },
    "example2": {
        "input": {
            "marginals": "\ngaussian mean=0 std=2\ngaussian mean=0 std=2",
            "correlation": "\n1.0 0.9\n0.9 1.0",
        },
        "model": {"kind": "builtin", "name": "cross_in_tray"},
        "surrogate": {"interaction_order": "1", "degree": "4",
                      "kernel": "exponential", "mode": "chaos_kriging",
                      "training_size": "200", "quadrature": "1000000"},
        "risk": {"method": "mfis_hf", "beta": "0.99", "alpha": "0.05",
                 "samples": "10000", "subsample_size": "200",
                 "scheme": "mc", "benchmark": "auto"},
        "run": {"trials": "10", "seed": "20242", "threads": "1"},
    },
}


class ConfigError(ValueError):
    """Validation failure carrying per-field diagnostics."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))


def _parse_marginal(line: str):
    tokens = line.split()
    kind = tokens[0].lower()
    params = {}
    for token in tokens[1:]:
        key, _, value = token.partition("=")
        params[key] = float(value)
    if kind == "gaussian":
        return inputs.Gaussian(mean=params["mean"], std=params["std"])
    if kind == "uniform":
        return inputs.Uniform(lower=params["lower"], upper=params["upper"])
    if kind == "lognormal":
        return inputs.Lognormal(mean=params["mean"], cov_percent=params["cov"])
    raise ValueError(f"unknown marginal kind {kind!r}")


def load_config(path=None, preset=None) -> dict:
    """Merge a preset and/or config file into a plain nested dict."""
    layers = []
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError([f"preset: unknown preset {preset!r}; "
                               f"available: {sorted(PRESETS)}"])
        layers.append(PRESETS[preset])
    if path is not None:
        parser = ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError([f"config: cannot read {path}"])
        layers.append({s: dict(parser.items(s)) for s in parser.sections()})
    if not layers:
        raise ConfigError(["config: provide --config and/or --preset"])

    merged: dict = {}
    for layer in layers:
        for section, values in layer.items():
            merged.setdefault(section, {}).update(values)
    return merged


def _get(cfg, section, key, default=None):
    return cfg.get(section, {}).get(key, default)


class Experiment:
    """Validated experiment settings resolved from a raw config dict."""

    def __init__(self, cfg: dict):
        issues = []

        marg_lines = [
            ln.strip() for ln in _get(cfg, "input", "marginals", "").splitlines()
            if ln.strip()
        ]
        marginals = []
        for i, line in enumerate(marg_lines):
            try:
                marginals.append(_parse_marginal(line))
            except (KeyError, ValueError, IndexError) as exc:
                issues.append(f"input.marginals[{i}]: {exc}")
        corr_text = _get(cfg, "input", "correlation", "").strip()
        correlation = None
        if corr_text:
            try:
                correlation = np.array(
                    [[float(v) for v in ln.split()] for ln in corr_text.splitlines() if ln.strip()]
                )
            except ValueError as exc:
                issues.append(f"input.correlation: {exc}")
        self.input_model = None
        if marginals and not issues:
            try:
                self.input_model = inputs.InputModel(marginals, correlation)
            except TailriskError as exc:
                issues.append(f"input: {exc}")
        elif not marginals:
            issues.append("input.marginals: at least one marginal is required")

        self.model_cfg = dict(cfg.get("model", {}))
        for prefix in ("", "lf_"):
            if prefix == "lf_" and not any(k.startswith("lf_") for k in self.model_cfg):
                continue
            kind = self.model_cfg.get(prefix + "kind", "builtin")
            if kind == "builtin" and not self.model_cfg.get(prefix + "name"):
                issues.append(f"model.{prefix}name: required for builtin models")
            elif kind == "dataset" and not self.model_cfg.get(prefix + "path"):
                issues.append(f"model.{prefix}path: required for dataset models")
            elif kind == "command" and not self.model_cfg.get(prefix + "command"):
                issues.append(f"model.{prefix}command: required for command models")
            elif kind not in ("builtin", "dataset", "command"):
                issues.append(f"model.{prefix}kind: unknown kind {kind!r}")

        def number(section, key, cast, default, predicate=None, describe=""):
            raw = _get(cfg, section, key, default)
            try:
                value = cast(raw)
            except (TypeError, ValueError):
                issues.append(f"{section}.{key}: not a valid {cast.__name__}: {raw!r}")
                return None
            if predicate is not None and not predicate(value):
                issues.append(f"{section}.{key}: {describe}, got {value}")
            return value

        self.method = _get(cfg, "risk", "method", "mcs")
        if self.method not in RUN_METHODS:
            issues.append(f"risk.method: must be one of {RUN_METHODS}, got {self.method!r}")
        self.beta = number("risk", "beta", float, "0.99",
                           lambda v: 0 < v < 1, "must be in (0, 1)")
        self.alpha = number("risk", "alpha", float, "0.05",
                            lambda v: 0 < v <= 1, "must be in (0, 1]")
        self.samples = number("risk", "samples", int, "10000",
                              lambda v: v >= 1, "must be >= 1")
        self.subsample_size = number("risk", "subsample_size", int, "0",
                                     lambda v: v >= 0, "must be >= 0")
        self.scheme = _get(cfg, "risk", "scheme", "mc")
        if self.scheme not in ("mc", "sobol", "lhs"):
            issues.append(f"risk.scheme: must be mc, sobol, or lhs, got {self.scheme!r}")
        benchmark = _get(cfg, "risk", "benchmark", "")
        self.benchmark_mode = None
        self.benchmark_value = None
        if benchmark == "auto":
            self.benchmark_mode = "auto"
        elif benchmark:
            try:
                self.benchmark_value = float(benchmark)
                self.benchmark_mode = "fixed"
            except ValueError:
                issues.append(f"risk.benchmark: must be 'auto' or a number, got {benchmark!r}")

        self.interaction_order = number("surrogate", "interaction_order", int, "1",
                                        lambda v: v >= 0, "must be >= 0")
        self.degree = number("surrogate", "degree", int, "3",
                             lambda v: v >= 0, "must be >= 0")
        self.kernel = _get(cfg, "surrogate", "kernel", "gaussian")
        if self.kernel not in surrogate.KERNEL_KINDS:
            issues.append(
                f"surrogate.kernel: must be one of {surrogate.KERNEL_KINDS}, got {self.kernel!r}"
            )
        self.mode = _get(cfg, "surrogate", "mode", "chaos_kriging")
        if self.mode not in surrogate.MODES:
            issues.append(f"surrogate.mode: must be one of {surrogate.MODES}, got {self.mode!r}")
        self.training_size = number("surrogate", "training_size", int, "0",
                                    lambda v: v >= 0, "must be >= 0")
        self.quadrature = number("surrogate", "quadrature", int,
                                 str(basis_mod.DEFAULT_QUADRATURE),
                                 lambda v: v >= 1, "must be >= 1")
        self.restarts = number("surrogate", "restarts", int, "5",
                               lambda v: v >= 1, "must be >= 1")

        self.trials = number("run", "trials", int, "1", lambda v: v >= 1, "must be >= 1")
        self.seed = number("run", "seed", int, "0")
        self.threads = number("run", "threads", int,
                              os.environ.get(THREADS_ENV_VAR, "1"),
                              lambda v: v >= 1, "must be >= 1")

        if self.method in SURROGATE_METHODS and self.input_model is not None:
            needed = basis_mod.cardinality(
                self.input_model.dimension, self.interaction_order or 0, self.degree or 0
            )
            if self.training_size is not None and self.training_size < needed:
                issues.append(
                    "surrogate.training_size: must be at least the number of basis "
                    f"functions (need >= {needed}, got {self.training_size})"
                )
        if self.method in ("mfis_hf", "mfis_lf"):
            if self.subsample_size is not None and self.subsample_size < 1:
                issues.append("risk.subsample_size: must be >= 1 for importance sampling")
        if self.method == "mfis_lf" and not (
            self.model_cfg.get("lf_name") or self.model_cfg.get("lf_kind")
        ):
            issues.append("model.lf_name: mfis_lf requires a low-fidelity model")

        if issues:
            raise ConfigError(issues)
        self.raw = cfg

    def build_model(self, low_fidelity=False) -> models.ModelHandle:
        prefix = "lf_" if low_fidelity else ""
        kind = self.model_cfg.get(prefix + "kind", "builtin")
        name = self.model_cfg.get(prefix + "name")
        if kind == "builtin":
            return models.BuiltinModel(name)
        if kind == "dataset":
            return models.DatasetModel(self.model_cfg[prefix + "path"])
        if kind == "command":
            argv = self.model_cfg[prefix + "command"].split()
            timeout = float(self.model_cfg.get(prefix + "timeout", 30.0))
            return models.CommandModel(argv, timeout=timeout)
        raise ConfigError([f"model.kind: unknown kind {kind!r}"])


def _build_basis(exp: Experiment) -> basis_mod.OrthonormalBasis:
    return basis_mod.build_basis(
        exp.input_model,
        exp.interaction_order,
        exp.degree,
        quadrature=exp.quadrature,
        seed=_derived_seed(exp.seed, _BASIS),
    )


def _derived_seed(master: int, *key: int) -> int:
    return int(np.random.SeedSequence(master, spawn_key=tuple(key)).generate_state(1)[0])


def _fit_trial_surrogate(exp, shared_basis, trial, low_fidelity):
    model = exp.build_model(low_fidelity=low_fidelity)
    train = inputs.sample(
        exp.input_model, "mc", exp.training_size, _derived_seed(exp.seed, trial, _TRAIN)
    )
    outputs = model.evaluate_batch(train.points)
    fitted = surrogate.fit(
        train.points,
        outputs,
        shared_basis,
        kernel_kind=exp.kernel,
        mode=exp.mode,
        restarts=exp.restarts,
        seed=_derived_seed(exp.seed, trial, _FIT),
    )
    return fitted, model


def _run_trial(exp: Experiment, shared_basis, trial: int) -> risk.RiskReport:
    estimate_seed = _derived_seed(exp.seed, trial, _ESTIMATE)
    candidates = inputs.sample(exp.input_model, exp.scheme, exp.samples, estimate_seed)

    if exp.method == "mcs":
        model = exp.build_model()
        return risk.mcs_estimate(model, candidates, exp.beta, seed=estimate_seed)

    if exp.method == "surrogate_mcs":
        fitted, train_model = _fit_trial_surrogate(exp, shared_basis, trial, False)
        report = risk.surrogate_mcs_estimate(fitted, candidates, exp.beta, seed=estimate_seed)
        report.evaluations["hf"] = train_model.evaluations
        return report

    low_fidelity = exp.method == "mfis_lf"
    fitted, train_model = _fit_trial_surrogate(exp, shared_basis, trial, low_fidelity)
    hf_model = exp.build_model()
    region = risk.epsilon_risk_region(fitted, candidates, exp.beta, exp.alpha)
    report = risk.mfis_estimate(
        region,
        candidates,
        hf_model,
        exp.subsample_size,
        exp.beta,
        seed=_derived_seed(exp.seed, trial, _SUBSAMPLE),
        method=exp.method,
        surrogate=fitted,
        input_model=exp.input_model,
    )
    report.evaluations["hf"] = hf_model.evaluations + (
        0 if low_fidelity else train_model.evaluations
    )
    report.evaluations["lf"] = train_model.evaluations if low_fidelity else 0
    report.evaluations["surrogate"] += len(candidates)
    return report


def _benchmark_trial(exp: Experiment, trial: int) -> risk.RiskReport:
    seed = _derived_seed(exp.seed, trial, _BENCHMARK)
    candidates = inputs.sample(exp.input_model, exp.scheme, exp.samples, seed)
    return risk.mcs_estimate(exp.build_model(), candidates, exp.beta, seed=seed)


def _map_trials(fn, count, threads):
    if threads <= 1:
        return [fn(k) for k in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


def run_experiment(exp: Experiment) -> dict:
    """Execute the configured trials; returns the report document."""
    shared_basis = _build_basis(exp) if exp.method in SURROGATE_METHODS else None

    reports = _map_trials(lambda k: _run_trial(exp, shared_basis, k), exp.trials, exp.threads)

    benchmark_reports = []
    benchmark_value = exp.benchmark_value
    if exp.benchmark_mode == "auto" and exp.method != "mcs":
        benchmark_reports = _map_trials(
            lambda k: _benchmark_trial(exp, k), exp.trials, exp.threads
        )
        benchmark_value = float(np.mean([r.cvar_estimate for r in benchmark_reports]))
    elif exp.benchmark_mode == "auto":
        benchmark_value = float(np.mean([r.cvar_estimate for r in reports]))

    estimates = np.array([r.cvar_estimate for r in reports])
    summary = {
        "method": exp.method,
        "mean_cvar": float(np.mean(estimates)),
        "mean_var": float(np.mean([r.var_estimate for r in reports])),
        "trials": exp.trials,
        "evaluations": {
            key: int(sum(r.evaluations.get(key, 0) for r in reports))
            for key in ("hf", "lf", "surrogate")
        },
    }
    if benchmark_value is not None:
        ensemble = TrialEnsemble(estimates, benchmark_value)
        summary["benchmark"] = benchmark_value
        summary["mrd_pct"] = mrd(ensemble)
        summary["nrmsd_pct"] = nrmsd(ensemble)

    def trial_doc(r):
        return {
            "seed": r.seed,
            "var_estimate": r.var_estimate,
            "cvar_estimate": r.cvar_estimate,
            "evaluations": r.evaluations,
            "metadata": r.metadata,
        }

    # The thread count is execution detail, not experiment identity; keep
    # reports byte-identical across --threads settings.
    config_echo = {
        section: {k: v for k, v in values.items()
                  if not (section == "run" and k == "threads")}
        for section, values in exp.raw.items()
    }

    return {
        "config": config_echo,
        "summary": summary,
        "trials": [trial_doc(r) for r in reports],
        "benchmark_trials": [trial_doc(r) for r in benchmark_reports],
        "reports": reports,
        "benchmark_reports": benchmark_reports,
    }


def _write_outputs(document: dict, exp: Experiment, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    serializable = {k: v for k, v in document.items()
                    if k not in ("reports", "benchmark_reports")}
    (out_dir / "report.json").write_text(
        json.dumps(serializable, indent=2, sort_keys=True) + "\n"
    )

    summary = document["summary"]
    rows = []
    if document["benchmark_reports"]:
        bench_estimates = [r.cvar_estimate for r in document["benchmark_reports"]]
        bench = risk.RiskReport(
            var_estimate=float(np.mean([r.var_estimate for r in document["benchmark_reports"]])),
            cvar_estimate=float(np.mean(bench_estimates)),
            method="mcs",
            beta=exp.beta,
            evaluations={
                "hf": sum(r.evaluations["hf"] for r in document["benchmark_reports"]),
                "lf": 0,
                "surrogate": 0,
            },
        )
        rows.append(bench.csv_row())
    mean_report = risk.RiskReport(
        var_estimate=summary["mean_var"],
        cvar_estimate=summary["mean_cvar"],
        method=exp.method,
        beta=exp.beta,
        evaluations=summary["evaluations"],
    )
    rows.append(
        mean_report.csv_row(
            interaction_order=exp.interaction_order,
            degree=exp.degree,
            mrd=summary.get("mrd_pct", ""),
            nrmsd=summary.get("nrmsd_pct", ""),
        )
    )
    (out_dir / "table.csv").write_text(
        risk.REPORT_CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    )


def _cmd_run(args) -> int:
    cfg = load_config(args.config, args.preset)
    _apply_overrides(cfg, args)
    exp = Experiment(cfg)
    document = run_experiment(exp)
    out_dir = Path(args.out)
    _write_outputs(document, exp, out_dir)
    summary = document["summary"]
    line = f"{exp.method}: CVaR_{exp.beta} = {summary['mean_cvar']:.6g}"
    if "mrd_pct" in summary:
        line += f" (MRD {summary['mrd_pct']:.4g}%, N-RMSD {summary['nrmsd_pct']:.4g}%)"
    print(line)
    print(f"wrote {out_dir / 'report.json'} and {out_dir / 'table.csv'}")
    return 0


def _apply_overrides(cfg, args):
    if getattr(args, "seed", None) is not None:
        cfg.setdefault("run", {})["seed"] = str(args.seed)
    if getattr(args, "trials", None) is not None:
        cfg.setdefault("run", {})["trials"] = str(args.trials)
    if getattr(args, "threads", None) is not None:
        cfg.setdefault("run", {})["threads"] = str(args.threads)
    if getattr(args, "method", None) is not None:
        cfg.setdefault("risk", {})["method"] = args.method


def _cmd_fit(args) -> int:
    cfg = load_config(args.config, args.preset)
    _apply_overrides(cfg, args)
    # Fitting always needs the surrogate-method validation (sample-count rule).
    if cfg.get("risk", {}).get("method") not in SURROGATE_METHODS:
        cfg.setdefault("risk", {})["method"] = "surrogate_mcs"
    exp = Experiment(cfg)
    shared_basis = _build_basis(exp)
    fitted, _ = _fit_trial_surrogate(exp, shared_basis, 0, low_fidelity=False)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "surrogate.json"
    fitted.save(path)
    print(f"wrote {path}")
    return 0


def _read_points(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError([f"points: {path} is empty (no header)"])
        coord_cols = [i for i, name in enumerate(header) if name.startswith("x")]
        if not coord_cols:
            raise ConfigError([f"points: {path} must have x1,...,xN columns"])
        rows = [[float(row[i]) for i in coord_cols] for row in reader if row]
    return np.array(rows, dtype=float).reshape(len(rows), len(coord_cols))


def _cmd_predict(args) -> int:
    fitted = surrogate.FittedSurrogate.load(args.artifact)
    points = _read_points(args.points)
    out_path = Path(args.out)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mean", "variance", "epsilon"])
        if len(points):
            means, variances = fitted.predict_batch(points)
            eps = risk.half_width(variances, args.alpha)
            for m, v, e in zip(means, variances, eps):
                writer.writerow([repr(float(m)), repr(float(v)), repr(float(e))])
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailrisk",
        description="CVaR estimation with chaos-Kriging surrogates and "
                    "multifidelity importance sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--preset", help=f"named preset: {', '.join(sorted(PRESETS))}")
        p.add_argument("--seed", type=int, help="override run.seed")
        p.add_argument("--trials", type=int, help="override run.trials")
        p.add_argument("--threads", type=int,
                       help=f"override run.threads (default from ${THREADS_ENV_VAR})")

    p_run = sub.add_parser("run", help="run a CVaR estimation experiment")
    common(p_run)
    p_run.add_argument("--method", choices=RUN_METHODS, help="override risk.method")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.set_defaults(fn=_cmd_run)

    p_fit = sub.add_parser("fit", help="fit and save a surrogate artifact")
    common(p_fit)
    p_fit.add_argument("--out", default="out", help="output directory")
    p_fit.set_defaults(fn=_cmd_fit)

    p_pred = sub.add_parser("predict", help="evaluate a saved surrogate")
    p_pred.add_argument("--artifact", required=True, help="surrogate artifact JSON")
    p_pred.add_argument("--points", required=True, help="points CSV with x1..xN header")
    p_pred.add_argument("--out", default="predictions.csv", help="output CSV")
    p_pred.add_argument("--alpha", type=float, default=0.05,
                        help="confidence level for the epsilon column")
    p_pred.set_defaults(fn=_cmd_predict)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        for issue in exc.issues:
            print(f"config error: {issue}", file=sys.stderr)
        return 2
    except ArtifactError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TailriskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
