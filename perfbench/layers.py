"""Per-layer metrics and the per-layer table from traced experiments.

A span is ``[name, start, end, parent, trial, thread, attrs]`` as written
by ``experiment.py``; its layer is the part of the name before the first
dot, which is the ``tailrisk`` module it enters.  Self time is a span's
duration minus the durations of its direct children (children run on the
parent's thread, so they never overlap).

Each metric is computed per traced experiment and reported as the median
over the run's traced experiments.  Counts are per experiment (all of its
trials), except ``risk.region_size`` and ``risk.region_mass``, which are
means per trial.
"""

from __future__ import annotations

import json
import statistics

LAYERS = ("cli", "basis", "inputs", "surrogate", "risk", "models")

UNITS = {
    "basis.build_s": "s",
    "basis.functions": "count",
    "inputs.sample_s": "s",
    "inputs.points_drawn": "count",
    "surrogate.loo_search_s": "s",
    "surrogate.loo_evals": "count",
    "surrogate.loo_eval_ms": "ms",
    "surrogate.fit_self_s": "s",
    "surrogate.theta_fallbacks": "count",
    "surrogate.nuggets": "count",
    "surrogate.predict_s": "s",
    "surrogate.predict_mcs_s": "s",
    "surrogate.predict_region_s": "s",
    "surrogate.predict_topup_s": "s",
    "surrogate.predicted_points": "count",
    "surrogate.predict_us_per_point": "us",
    "surrogate.predicted_points_per_candidate": "ratio",
    "risk.estimate_self_s": "s",
    "risk.var_cvar_s": "s",
    "risk.region_size": "count",
    "risk.region_mass": "ratio",
    "risk.fresh_points": "count",
    "models.hf_evals": "count",
    "models.lf_evals": "count",
    "models.ref_evals": "count",
    "models.eval_s": "s",
    "models.eval_us_per_point": "us",
    "models.eval_errors": "count",
    "cli.import_s": "s",
    "cli.ref_trials_s": "s",
    "cli.report_write_s": "s",
    "metrics.mrd_pct": "%",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.span_coverage": "ratio",
}

# Which estimator span a prediction ran under.  The top-up's predictions
# come from risk._fresh_region_points, which is not wrapped, so they sit
# directly under risk.mfis_estimate.
PREDICT_CALLERS = {
    "risk.surrogate_mcs_estimate": "surrogate.predict_mcs_s",
    "risk.epsilon_risk_region": "surrogate.predict_region_s",
    "risk.mfis_estimate": "surrogate.predict_topup_s",
}


def run_seconds(record):
    """Process start to the end of the report write, in seconds."""
    return max(s[2] for s in record["probe"]["spans"] if s[0] == "cli.write_outputs") - record["spawn"]


def _union(intervals):
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


class SpanSet:
    """Durations, self times and layer totals of one experiment's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.dur = [s[2] - s[1] for s in spans]
        child_time = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] is not None:
                child_time[s[3]] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child_time)]

    def named(self, name):
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def total(self, name):
        return sum(self.dur[i] for i in self.named(name))

    def attr_sum(self, name, key):
        return sum((self.spans[i][6] or {}).get(key, 0) for i in self.named(name))

    def layer(self, layer):
        """(calls, outermost time, self time) of one layer."""
        calls = outer = own = 0
        for i, s in enumerate(self.spans):
            if s[0].split(".")[0] != layer:
                continue
            calls += 1
            own += self.self_time[i]
            parent = s[3]
            while parent is not None and self.spans[parent][0].split(".")[0] != layer:
                parent = self.spans[parent][3]
            if parent is None:
                outer += self.dur[i]
        return calls, outer, own

    def phase_wall(self, name):
        idx = self.named(name)
        return max(self.spans[i][2] for i in idx) - min(self.spans[i][1] for i in idx) if idx else 0.0


def experiment_layers(record):
    """Per-layer figures of one traced experiment."""
    ss = SpanSet(record["probe"]["spans"])
    spans = ss.spans
    report = json.loads(record["report_bytes"])
    trials = record["trials"]
    candidates = trials * int(report["config"]["risk"]["samples"])
    total = run_seconds(record)
    m = {name: 0.0 for name in UNITS}

    m["basis.build_s"] = ss.total("basis.build_basis")
    m["basis.functions"] = ss.attr_sum("basis.build_basis", "functions")
    m["inputs.sample_s"] = ss.total("inputs.sample")
    m["inputs.points_drawn"] = ss.attr_sum("inputs.sample", "points")

    probes = ss.named("surrogate.loo_cv_objective")
    m["surrogate.loo_search_s"] = ss.total("surrogate.optimize_theta")
    m["surrogate.loo_evals"] = len(probes) + ss.attr_sum("surrogate.least_squares", "residual_evals")
    if probes:
        m["surrogate.loo_eval_ms"] = 1e3 * statistics.mean(ss.dur[i] for i in probes)
    m["surrogate.fit_self_s"] = sum(ss.self_time[i] for i in ss.named("surrogate.fit"))
    m["surrogate.theta_fallbacks"] = ss.attr_sum("surrogate.fit", "theta_fallback")
    m["surrogate.nuggets"] = ss.attr_sum("surrogate.fit", "nugget")

    predictions = ss.named("surrogate.predict_batch")
    for i in predictions:
        parent = spans[i][3]
        caller = PREDICT_CALLERS.get(spans[parent][0] if parent is not None else None)
        if caller:
            m[caller] += ss.dur[i]
    m["surrogate.predict_s"] = ss.total("surrogate.predict_batch")
    m["surrogate.predicted_points"] = ss.attr_sum("surrogate.predict_batch", "points")
    if m["surrogate.predicted_points"]:
        m["surrogate.predict_us_per_point"] = 1e6 * m["surrogate.predict_s"] / m["surrogate.predicted_points"]
    m["surrogate.predicted_points_per_candidate"] = m["surrogate.predicted_points"] / candidates

    m["risk.estimate_self_s"] = sum(ss.self_time[i] for i, s in enumerate(spans)
                                    if s[0].startswith("risk.") and s[0] != "risk.var_cvar")
    m["risk.var_cvar_s"] = ss.total("risk.var_cvar")
    regions = ss.named("risk.epsilon_risk_region")
    if regions:
        m["risk.region_size"] = ss.attr_sum("risk.epsilon_risk_region", "region_size") / len(regions)
        m["risk.region_mass"] = ss.attr_sum("risk.epsilon_risk_region", "region_mass") / len(regions)
    m["risk.fresh_points"] = ss.attr_sum("risk.mfis_estimate", "fresh_points")

    points = 0
    for i in ss.named("models.evaluate_batch"):
        _, _, _, _, trial, _, attrs = spans[i]
        attrs = attrs or {}
        if "error" in attrs:
            m["models.eval_errors"] += 1
            continue
        points += attrs["points"]
        if trial is not None and trial[0] == "ref":
            m["models.ref_evals"] += attrs["points"]
        elif attrs["fidelity"] in ("hf", "lf"):
            m[f"models.{attrs['fidelity']}_evals"] += attrs["points"]
    m["models.eval_s"] = ss.total("models.evaluate_batch")
    if points:
        m["models.eval_us_per_point"] = 1e6 * m["models.eval_s"] / points

    m["cli.import_s"] = ss.total("cli.import")
    m["cli.ref_trials_s"] = ss.phase_wall("cli.ref_trial")
    m["cli.report_write_s"] = ss.total("cli.write_outputs")

    m["metrics.mrd_pct"] = report["summary"]["mrd_pct"]
    m["trace.run_s"] = total
    m["trace.span_coverage"] = _union([(s[1], s[2]) for s in spans if s[3] is None]) / total
    return m, ss


def per_layer(plain, traced):
    """Per-layer metrics of a traced run and its printable table."""
    figures = [experiment_layers(r) for r in traced]
    metrics = {name: statistics.median(f[name] for f, _ in figures) for name in UNITS}
    untraced_run_s = statistics.median(run_seconds(r) for r in plain)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - untraced_run_s

    n = len(figures)
    lines = [f"per-layer, mean over {n} traced experiment(s) of {traced[0]['trials']} trials",
             f"{'layer':<10}{'calls':>10}{'total_s':>11}{'self_s':>10}"]
    for layer in LAYERS:
        rows = [ss.layer(layer) for _, ss in figures]
        calls, outer, own = (sum(col) / n for col in zip(*rows))
        lines.append(f"{layer:<10}{calls:>10.0f}{outer:>11.3f}{own:>10.3f}")
    run_s = metrics["trace.run_s"]
    shares = (("LOO search", "surrogate.loo_search_s"), ("prediction", "surrogate.predict_s"),
              ("basis", "basis.build_s"), ("model adapters", "models.eval_s"),
              ("reference trials", "cli.ref_trials_s"))
    for label, key in shares:
        lines.append(f"{label}: {metrics[key]:.3f} s = {100 * metrics[key] / run_s:.1f}% "
                     f"of traced run_s {run_s:.3f} s")
    lines.append(f"span coverage: {100 * metrics['trace.span_coverage']:.1f}% of traced run_s")
    lines.append(f"tracing overhead: traced run_s {run_s:.3f} s - untraced run_s "
                 f"{untraced_run_s:.3f} s = {metrics['trace.overhead_s']:.3f} s "
                 f"({100 * metrics['trace.overhead_s'] / untraced_run_s:.1f}% of untraced)")
    return {name: {"value": metrics[name], "unit": UNITS[name]} for name in UNITS}, "\n".join(lines)
