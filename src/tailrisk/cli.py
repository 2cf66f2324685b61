"""Config-driven experiment runner.

Three subcommands:

``run``
    Execute K seeded trials of a CVaR estimation method (``mcs``,
    ``surrogate_mcs``, ``mfis_hf``, ``mfis_lf``) described by an INI-style
    config or a named preset; write a JSON report and a CSV table row per
    method.
``fit``
    Fit trial 0's surrogate on the model a run trains it on and save it
    as a versioned artifact.
``predict``
    Evaluate a saved surrogate artifact on a points CSV, emitting mean,
    variance, and confidence half-width columns.

Exit codes: 0 success, 1 runtime estimator failure, 2 config validation
failure (with one diagnostic line per offending field).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import re
import shlex
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import basis as basis_mod
from . import inputs, models, risk, surrogate
from .exceptions import ArtifactError, TailriskError
from .metrics import mrd, nrmsd

_TRAIN, _FIT, _ESTIMATE, _SUBSAMPLE, _BENCHMARK = range(5)

SURROGATE_METHODS = ("surrogate_mcs", "mfis_hf", "mfis_lf")

_EXAMPLE1 = {
    "input": {
        "marginals": "\ngaussian mean=0 std=2\ngaussian mean=0 std=2",
        "correlation": "\n1.0 0.9\n0.9 1.0",
    },
    "model": {"kind": "builtin", "name": "rastrigin",
              "lf_kind": "builtin", "lf_name": "rastrigin_lf1"},
    "surrogate": {"interaction_order": "1", "degree": "3",
                  "kernel": "gaussian", "mode": "chaos_kriging",
                  "training_size": "300"},
    "risk": {"method": "surrogate_mcs", "beta": "0.99", "alpha": "0.05",
             "samples": "10000", "subsample_size": "150",
             "scheme": "mc", "benchmark": "auto"},
    "run": {"trials": "10", "seed": "20240", "threads": "1"},
}

PRESETS = {
    "example1-corr09": _EXAMPLE1,
    "example1-corr0": {
        **_EXAMPLE1,
        "input": {**_EXAMPLE1["input"], "correlation": "\n1.0 0.0\n0.0 1.0"},
        "run": {**_EXAMPLE1["run"], "seed": "20241"},
    },
    "example2": {
        "input": _EXAMPLE1["input"],
        "model": {"kind": "builtin", "name": "cross_in_tray"},
        "surrogate": {"interaction_order": "1", "degree": "4",
                      "kernel": "exponential", "mode": "chaos_kriging",
                      "training_size": "200"},
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


def _one_of(allowed):
    allowed = tuple(allowed)
    return lambda v: None if v in allowed else f"must be one of {allowed}, got {v!r}"


def _holds(predicate, describe):
    return lambda v: None if predicate(v) else f"{describe}, got {v}"


_AT_LEAST_0 = _holds(lambda v: v >= 0, "must be >= 0")
_AT_LEAST_1 = _holds(lambda v: v >= 1, "must be >= 1")


def _benchmark(text):
    """``None`` when empty, ``"auto"``, or the number the text spells."""
    if text in ("", "auto"):
        return text or None
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"must be 'auto' or a number, got {text!r}") from None


# The [model] keys of each kind, the model's source first. Each has an lf_
# twin; a key is known only where its kind (or lf_kind) matches.
_MODEL_KINDS = {"builtin": ("name",), "command": ("command", "timeout")}
_KIND_OF = {key: kind for kind, keys in _MODEL_KINDS.items() for key in keys}

# Every config key: (section, key, type, default, check). A default of None
# leaves the key unset; ``check(value)`` says what is wrong, or returns None.
# A command is split into its argument list like a POSIX shell line.
_SCHEMA = (
    ("input", "marginals", str, "", None),
    ("input", "correlation",
     lambda text: np.loadtxt(text.splitlines(), ndmin=2) if text.strip() else None, None, None),
    *(row for prefix in ("", "lf_") for row in (
        ("model", prefix + "kind", str, "builtin", _one_of(_MODEL_KINDS)),
        ("model", prefix + "name", str, None, _one_of(models.BUILTIN_MODELS)),
        ("model", prefix + "command", shlex.split, None, _holds(bool, "must not be empty")),
        ("model", prefix + "timeout", float, "30",
         _holds(lambda v: 0 < v < math.inf, "must be a positive finite number")),
    )),
    ("surrogate", "interaction_order", int, "1", _AT_LEAST_0),
    ("surrogate", "degree", int, "3", _AT_LEAST_0),
    ("surrogate", "kernel", str, "gaussian", _one_of(surrogate.KERNEL_KINDS)),
    ("surrogate", "mode", str, "chaos_kriging", _one_of(surrogate.MODES)),
    ("surrogate", "training_size", int, "0", _AT_LEAST_0),
    # Read by nothing: the basis moments are exact, with no sample count.
    # Accepted because perfbench/workloads/mfis-lf-cmd.ini still sets it.
    ("surrogate", "quadrature", int, None, _AT_LEAST_1),
    ("risk", "method", str, "mcs", _one_of(risk.METHODS)),
    ("risk", "beta", float, "0.99", _holds(lambda v: 0 < v < 1, "must be in (0, 1)")),
    ("risk", "alpha", float, "0.05", _holds(lambda v: 0 < v <= 1, "must be in (0, 1]")),
    ("risk", "samples", int, "10000", _AT_LEAST_1),
    ("risk", "subsample_size", int, "0", _AT_LEAST_0),
    ("risk", "scheme", str, "mc", _one_of(inputs.SCHEMES)),
    ("risk", "benchmark", _benchmark, None,
     _holds(lambda v: v == "auto" or (v != 0 and math.isfinite(v)),
            "must be 'auto' or a finite nonzero number")),
    ("run", "trials", int, "1", _AT_LEAST_1),
    ("run", "seed", int, "0", _AT_LEAST_0),
    ("run", "threads", int, "1", _AT_LEAST_1),
)


def _check_keys(cfg):
    """Each key's value (None when unset or bad); an issue per bad value, unknown key or section."""
    values, issues, known = {}, [], {}
    for section, key, cast, default, check in _SCHEMA:
        values[key] = None
        prefix = "lf_" if key.startswith("lf_") else ""
        kind = _KIND_OF.get(key.removeprefix(prefix))
        if kind is not None and values[prefix + "kind"] not in (kind, None):
            continue  # another kind's key: unknown when given
        known.setdefault(section, []).append(key)
        raw = cfg.get(section, {}).get(key, default)
        try:
            value = None if raw is None else cast(raw)
            problem = value is not None and check and check(value)
        except ValueError as exc:
            problem = exc
        if problem:
            issues.append(f"{section}.{key}: {problem}")
        else:
            values[key] = value

    for section, given in cfg.items():
        if section not in known:
            issues.append(f"[{section}]: unknown section; known: {', '.join(known)}")
            continue
        issues += [f"{section}.{key}: unknown key; known: {', '.join(known[section])}"
                   for key in given if key not in known[section]]
    return values, issues


# Each marginal kind's class and its parameters, in constructor order.
_MARGINALS = {
    "gaussian": (inputs.Gaussian, ("mean", "std")),
    "uniform": (inputs.Uniform, ("lower", "upper")),
    "lognormal": (inputs.Lognormal, ("mean", "cov")),
}


def _parse_marginal(line: str):
    kind, *tokens = line.split()
    kind = kind.lower()
    if kind not in _MARGINALS:
        raise ValueError(f"unknown marginal kind {kind!r}; known: {', '.join(_MARGINALS)}")
    cls, names = _MARGINALS[kind]
    params = {}
    for token in tokens:
        name, eq, value = token.partition("=")
        if not eq or name not in names or name in params:
            raise ValueError(
                f"{kind} takes {' and '.join(names)} once as name=value, got {token!r}")
        try:
            params[name] = float(value)
        except ValueError:
            raise ValueError(f"{kind} {name} must be a number, got {value!r}") from None
    for name in names:
        if name not in params:
            raise ValueError(f"{kind} needs {name}")
    return cls(*(params[name] for name in names))


def load_config(path=None, preset=None) -> dict:
    """Merge a preset and/or config file into a plain nested dict.

    A layer that sets ``kind`` (or ``lf_kind``) drops the earlier layers'
    keys of the other kinds, so a config can swap a preset's model source.
    """
    layers = []
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError([f"preset: unknown preset {preset!r}; "
                               f"available: {sorted(PRESETS)}"])
        layers.append(PRESETS[preset])
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            read = parser.read(path, encoding="utf-8")
            layers.append({s: dict(parser.items(s)) for s in parser.sections()})
        except configparser.Error as exc:
            raise ConfigError([f"config: {' '.join(str(exc).splitlines())}"]) from None
        except UnicodeDecodeError:
            raise ConfigError([f"config: {path} is not UTF-8 text"]) from None
        if not read:
            raise ConfigError([f"config: cannot read {path}"])
        if parser.defaults():  # configparser would copy these into every section
            raise ConfigError(["config: a [DEFAULT] section is not supported; "
                               "give each key in its own section"])
    if not layers:
        raise ConfigError(["config: provide --config and/or --preset"])

    merged: dict = {}
    for layer in layers:
        for section, values in layer.items():
            earlier = merged.setdefault(section, {})
            for prefix in ("", "lf_") if section == "model" else ():
                kind = values.get(prefix + "kind")
                for key in [k for k in earlier if kind is not None and k.startswith(prefix)]:
                    if _KIND_OF.get(key.removeprefix(prefix), kind) != kind:
                        del earlier[key]
            earlier.update(values)
    return merged


class Experiment:
    """Validated experiment settings resolved from a raw config dict.

    Every ``_SCHEMA`` key is an attribute of the same name; the rules that
    span keys are checked after the keys themselves.
    """

    def __init__(self, cfg: dict):
        values, issues = _check_keys(cfg)
        vars(self).update(values)

        lines = [ln.strip() for ln in self.marginals.splitlines() if ln.strip()]
        marginals = []
        for i, line in enumerate(lines):
            try:
                marginals.append(_parse_marginal(line))
            except ValueError as exc:
                issues.append(f"input.marginals[{i}]: {exc}")
        if not lines:
            issues.append("input.marginals: at least one marginal is required")
        self.input_model = None
        if lines and len(marginals) == len(lines):
            try:
                self.input_model = inputs.InputModel(marginals, self.correlation)
            except TailriskError as exc:
                issues.append(f"input: {exc}")

        model = cfg.get("model", {})
        has_lf = "lf_kind" in model or "lf_name" in model
        for prefix in ("", "lf_") if has_lf else ("",):
            kind = values[prefix + "kind"]
            if kind is not None and prefix + _MODEL_KINDS[kind][0] not in model:
                issues.append(f"model.{prefix}{_MODEL_KINDS[kind][0]}: required for {kind} models")
        if self.method == "mfis_lf" and not has_lf:
            issues.append("model.lf_name: mfis_lf requires a low-fidelity model")

        orders = (self.interaction_order, self.degree)
        if (self.method in SURROGATE_METHODS and self.input_model is not None
                and None not in orders):
            try:
                needed = basis_mod.cardinality(self.input_model.dimension, *orders)
            except ValueError as exc:  # the basis's own rule, reported per key
                key = "degree" if str(exc).startswith("degree") else "interaction_order"
                issues.append(f"surrogate.{key}: {exc}")
            else:
                if self.training_size is not None and self.training_size < needed:
                    issues.append(
                        "surrogate.training_size: must be at least the number of basis "
                        f"functions (need >= {needed}, got {self.training_size})"
                    )
        if self.method in ("mfis_hf", "mfis_lf") and self.subsample_size == 0:
            issues.append("risk.subsample_size: must be >= 1 for importance sampling")

        if issues:
            raise ConfigError(issues)
        self.raw = cfg

    def build_model(self, low_fidelity=False) -> models.ModelHandle:
        """A new handle; the constructor has validated its kind and timeout."""
        prefix = "lf_" if low_fidelity else ""
        kind = getattr(self, prefix + "kind")
        source = getattr(self, prefix + _MODEL_KINDS[kind][0])
        if kind == "command":
            return models.CommandModel(source, timeout=getattr(self, prefix + "timeout"))
        return models.BuiltinModel(source)


def _build_basis(exp: Experiment) -> basis_mod.OrthonormalBasis:
    """The shared basis; a moment too large to integrate is a config error."""
    try:
        return basis_mod.build_basis(exp.input_model, exp.interaction_order, exp.degree)
    except ValueError as exc:
        raise ConfigError([f"surrogate.interaction_order: {exc}"]) from None


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
        seed=_derived_seed(exp.seed, trial, _FIT),
    )


def _training_fidelity(exp: Experiment) -> str:
    """The model a surrogate trains on: ``"lf"`` for ``mfis_lf``, else ``"hf"``."""
    return "lf" if exp.method == "mfis_lf" else "hf"


def _run_trial(exp: Experiment, shared_basis, trial: int, handles) -> risk.RiskReport:
    """One estimation trial; its counts are the batch sizes it sent."""
    estimate_seed = _derived_seed(exp.seed, trial, _ESTIMATE)
    candidates = inputs.sample(exp.input_model, exp.scheme, exp.samples, estimate_seed)

    if exp.method == "mcs":
        return risk.mcs_estimate(handles["hf"], candidates, exp.beta, seed=estimate_seed)

    fidelity = _training_fidelity(exp)
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
        from concurrent.futures import ThreadPoolExecutor  # loaded only for threads > 1
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, range(workers)))
    return results


def run_experiment(exp: Experiment) -> dict:
    """Execute the configured trials; returns the report document."""
    shared_basis = _build_basis(exp) if exp.method in SURROGATE_METHODS else None

    fidelities = dict.fromkeys(("hf", _training_fidelity(exp)))  # each once, in order
    reports = _map_trials(
        exp, lambda k, handles: _run_trial(exp, shared_basis, k, handles), fidelities
    )

    benchmark_reports = []
    if exp.benchmark == "auto" and exp.method != "mcs":
        benchmark_reports = _map_trials(exp, lambda k, handles: _benchmark_trial(exp, k, handles))
    benchmark_value = exp.benchmark
    if exp.benchmark == "auto":  # an MCS run is its own reference
        benchmark_value = float(np.mean([r.cvar_estimate for r in benchmark_reports or reports]))

    estimates = np.array([r.cvar_estimate for r in reports])
    summary = {
        "method": exp.method,
        "mean_cvar": float(np.mean(estimates)),
        "mean_var": float(np.mean([r.var_estimate for r in reports])),
        "trials": exp.trials,
        "evaluations": {
            key: int(sum(r.evaluations[key] for r in reports))
            for key in ("hf", "lf", "surrogate")
        },
    }
    if benchmark_value is not None:
        summary["benchmark"] = benchmark_value
        summary["mrd_pct"] = mrd(estimates, benchmark_value)
        summary["nrmsd_pct"] = nrmsd(estimates, benchmark_value)

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
        "trials": [asdict(r) for r in reports],
        "benchmark_trials": [asdict(r) for r in benchmark_reports],
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
    for key in ("seed", "trials", "threads", "method"):
        if getattr(args, key, None) is not None:
            cfg.setdefault("risk" if key == "method" else "run", {})[key] = str(getattr(args, key))


def _cmd_fit(args) -> int:
    cfg = load_config(args.config, args.preset)
    _apply_overrides(cfg, args)
    # Fitting always needs the surrogate-method validation (sample-count rule).
    if cfg.get("risk", {}).get("method") not in SURROGATE_METHODS:
        cfg.setdefault("risk", {})["method"] = "surrogate_mcs"
    exp = Experiment(cfg)
    shared_basis = _build_basis(exp)
    fidelity = _training_fidelity(exp)
    with _open_models(exp, (fidelity,)) as handles:
        fitted = _fit_trial_surrogate(exp, shared_basis, 0, handles[fidelity])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "surrogate.json"
    fitted.save(path)
    print(f"wrote {path}")
    return 0


def _read_points(path, dimension) -> np.ndarray:
    """The ``x1..xN`` columns of a points CSV, matched by name in any order;
    columns with other names are ignored.  A coordinate that is not a finite
    number is refused with its line and column."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [(reader.line_num, row) for row in reader if row]
    except UnicodeDecodeError:
        raise ConfigError([f"points: {path} is not UTF-8 text"]) from None
    if header is None:
        raise ConfigError([f"points: {path} is empty (no header)"])
    names = [f"x{k}" for k in range(1, dimension + 1)]
    given = [name for name in header if re.fullmatch(r"x[1-9][0-9]*", name)]
    if sorted(given) != sorted(names):
        raise ConfigError([f"points: {path} has x columns {given}, "
                           f"the surrogate takes x1..x{dimension} once each"])
    coord_cols = [header.index(name) for name in names]
    if any(len(row) != len(header) for _, row in rows):
        raise ConfigError([f"points: {path} has a row without one value per column"])
    values = []
    for line, row in rows:
        for name, col in zip(names, coord_cols):
            where = f"points: {path} line {line}, column {name}: {row[col]!r}"
            try:
                values.append(float(row[col]))
            except ValueError:
                raise ConfigError([f"{where} is not a number"]) from None
            if not math.isfinite(values[-1]):
                raise ConfigError([f"{where} is not a finite number"])
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

    p_run = sub.add_parser("run", help="run a CVaR estimation experiment")
    common(p_run)
    p_run.add_argument("--trials", type=int, help="override run.trials")
    p_run.add_argument("--threads", type=int, help="override run.threads")
    p_run.add_argument("--method", choices=risk.METHODS, help="override risk.method")
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
    except (TailriskError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
