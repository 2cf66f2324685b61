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
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from configparser import ConfigParser
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from . import basis as basis_mod
from . import inputs, models, risk, surrogate
from .exceptions import ArtifactError, TailriskError
from .metrics import TrialEnsemble, mrd, nrmsd

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
        self.timeouts = {
            prefix: number("model", prefix + "timeout", float, "30",
                           lambda v: 0 < v < math.inf, "must be a positive finite number")
            for prefix in ("", "lf_")
        }

        self.trials = number("run", "trials", int, "1", lambda v: v >= 1, "must be >= 1")
        self.seed = number("run", "seed", int, "0")
        self.threads = number("run", "threads", int, "1", lambda v: v >= 1, "must be >= 1")

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
        """A new handle; the constructor has validated its kind and timeout."""
        prefix = "lf_" if low_fidelity else ""
        kind = self.model_cfg.get(prefix + "kind", "builtin")
        if kind == "dataset":
            return models.DatasetModel(self.model_cfg[prefix + "path"])
        if kind == "command":
            argv = self.model_cfg[prefix + "command"].split()
            return models.CommandModel(argv, timeout=self.timeouts[prefix])
        return models.BuiltinModel(self.model_cfg.get(prefix + "name"))


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


@contextmanager
def _open_models(exp, fidelities=("hf",)):
    """Model handles keyed by fidelity (``"hf"``, ``"lf"``), closed on exit."""
    with ExitStack() as stack:
        yield {
            fidelity: stack.enter_context(exp.build_model(low_fidelity=fidelity == "lf"))
            for fidelity in fidelities
        }


def _fit_trial_surrogate(exp, shared_basis, trial, model):
    train = inputs.sample(
        exp.input_model, "mc", exp.training_size, _derived_seed(exp.seed, trial, _TRAIN)
    )
    return surrogate.fit(
        train.points,
        model.evaluate_batch(train.points),
        shared_basis,
        kernel_kind=exp.kernel,
        mode=exp.mode,
        restarts=exp.restarts,
        seed=_derived_seed(exp.seed, trial, _FIT),
    )


def _run_trial(exp: Experiment, shared_basis, trial: int, handles) -> risk.RiskReport:
    """One estimation trial; its counts are the batch sizes it sent."""
    estimate_seed = _derived_seed(exp.seed, trial, _ESTIMATE)
    candidates = inputs.sample(exp.input_model, exp.scheme, exp.samples, estimate_seed)

    if exp.method == "mcs":
        return risk.mcs_estimate(handles["hf"], candidates, exp.beta, seed=estimate_seed)

    fidelity = "lf" if exp.method == "mfis_lf" else "hf"
    fitted = _fit_trial_surrogate(exp, shared_basis, trial, handles[fidelity])
    if exp.method == "surrogate_mcs":
        report = risk.surrogate_mcs_estimate(fitted, candidates, exp.beta, seed=estimate_seed)
    else:
        region = risk.epsilon_risk_region(fitted, candidates, exp.beta, exp.alpha)
        report = risk.mfis_estimate(
            region,
            candidates,
            handles["hf"],
            exp.subsample_size,
            exp.beta,
            seed=_derived_seed(exp.seed, trial, _SUBSAMPLE),
            method=exp.method,
            surrogate=fitted,
            input_model=exp.input_model,
        )
        report.evaluations["surrogate"] += len(candidates)
    report.evaluations[fidelity] += exp.training_size
    return report


def _benchmark_trial(exp: Experiment, trial: int, handles) -> risk.RiskReport:
    seed = _derived_seed(exp.seed, trial, _BENCHMARK)
    candidates = inputs.sample(exp.input_model, exp.scheme, exp.samples, seed)
    return risk.mcs_estimate(handles["hf"], candidates, exp.beta, seed=seed)


def _map_trials(exp, fn, fidelities=("hf",)):
    """``fn(k, handles)`` for every trial ``k``, returned in trial order.

    Trials are strided over ``min(threads, trials)`` workers, and each
    worker opens its own handles for the whole phase: a command model
    runs one child per worker, never one per trial.
    """
    workers = min(exp.threads, exp.trials)
    results = [None] * exp.trials

    def work(first):
        with _open_models(exp, fidelities) as handles:
            for k in range(first, exp.trials, workers):
                results[k] = fn(k, handles)

    if workers == 1:
        work(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, range(workers)))
    return results


def run_experiment(exp: Experiment) -> dict:
    """Execute the configured trials; returns the report document."""
    shared_basis = _build_basis(exp) if exp.method in SURROGATE_METHODS else None

    fidelities = ("hf", "lf") if exp.method == "mfis_lf" else ("hf",)
    reports = _map_trials(
        exp, lambda k, handles: _run_trial(exp, shared_basis, k, handles), fidelities
    )

    benchmark_reports = []
    if exp.benchmark_mode == "auto" and exp.method != "mcs":
        benchmark_reports = _map_trials(exp, lambda k, handles: _benchmark_trial(exp, k, handles))
    benchmark_value = exp.benchmark_value
    if exp.benchmark_mode == "auto":  # an MCS run is its own reference
        benchmark_value = float(np.mean([r.cvar_estimate for r in benchmark_reports or reports]))

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
    }


REPORT_CSV_HEADER = (
    "method,interaction_order,degree,cvar_estimate,mrd_pct,nrmsd_pct,"
    "hf_evals,lf_evals,surrogate_evals"
)


def _table_row(method, cvar, evaluations, interaction_order="", degree="", mrd="", nrmsd=""):
    """One ``table.csv`` row; column layout in ``REPORT_CSV_HEADER``."""
    fmt = lambda v: "" if v == "" else format(float(v), ".10g")
    return ",".join(
        [method, str(interaction_order), str(degree), fmt(cvar), fmt(mrd), fmt(nrmsd)]
        + [str(evaluations.get(key, 0)) for key in ("hf", "lf", "surrogate")]
    )


def _write_outputs(document: dict, exp: Experiment, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )

    summary = document["summary"]
    rows = []
    if document["benchmark_trials"]:
        hf = sum(t["evaluations"]["hf"] for t in document["benchmark_trials"])
        rows.append(_table_row("mcs", summary["benchmark"], {"hf": hf}))
    rows.append(
        _table_row(
            exp.method,
            summary["mean_cvar"],
            summary["evaluations"],
            interaction_order=exp.interaction_order,
            degree=exp.degree,
            mrd=summary.get("mrd_pct", ""),
            nrmsd=summary.get("nrmsd_pct", ""),
        )
    )
    (out_dir / "table.csv").write_text(
        REPORT_CSV_HEADER + "\n" + "\n".join(rows) + "\n"
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
    with _open_models(exp) as handles:
        fitted = _fit_trial_surrogate(exp, shared_basis, 0, handles["hf"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "surrogate.json"
    fitted.save(path)
    print(f"wrote {path}")
    return 0


def _read_points(path, dimension) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError([f"points: {path} is empty (no header)"])
        coord_cols = [i for i, name in enumerate(header) if name.startswith("x")]
        if len(coord_cols) != dimension:
            raise ConfigError([f"points: {path} has {len(coord_cols)} x columns, "
                               f"the surrogate takes {dimension} inputs"])
        rows = [row for row in reader if row]
    if any(len(row) != len(header) for row in rows):
        raise ConfigError([f"points: {path} has a row without one value per column"])
    try:
        values = [[float(row[i]) for i in coord_cols] for row in rows]
    except ValueError as exc:
        raise ConfigError([f"points: {path}: {exc}"]) from None
    return np.array(values, dtype=float).reshape(len(rows), dimension)


def _cmd_predict(args) -> int:
    if not 0.0 < args.alpha <= 1.0:
        raise ConfigError([f"alpha: must be in (0, 1], got {args.alpha}"])
    fitted = surrogate.FittedSurrogate.load(args.artifact)
    points = _read_points(args.points, fitted.basis.index_set.dimension)
    means, variances = fitted.predict_batch(points)
    eps = risk.half_width(variances, args.alpha)
    rows = [[repr(float(m)), repr(float(v)), repr(float(e))]
            for m, v, e in zip(means, variances, eps)]
    out_path = Path(args.out)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mean", "variance", "epsilon"])
        writer.writerows(rows)
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
                       help="override run.threads")

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
