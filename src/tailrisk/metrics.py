"""Ensemble error measures and the evaluation-budget model.

MRD is the mean absolute relative deviation of an ensemble of trial
estimates from a benchmark; N-RMSD the root-mean-square analogue.  Both
take the estimates and the benchmark value directly, and both are
reported in percent to line up with standard result tables.  The budget
model prices a surrogate-plus-importance-sampling run from
per-evaluation costs of the high- and low-fidelity models.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mrd",
    "nrmsd",
    "pcc",
    "budget",
    "max_lf_cost",
]


def _deviations(estimates, benchmark):
    """``estimates - benchmark``; an empty ensemble or a zero or non-finite benchmark is refused."""
    estimates = np.atleast_1d(np.asarray(estimates, dtype=float))
    if estimates.size < 1:
        raise ValueError("an ensemble needs at least one estimate")
    if benchmark == 0.0 or not np.isfinite(benchmark):
        raise ValueError(f"relative metrics need a finite nonzero benchmark, got {benchmark}")
    return estimates - benchmark


def mrd(estimates, benchmark: float) -> float:
    """Mean relative difference, in percent: ``100 * mean|Y_k - ref| / |ref|``."""
    deviations = _deviations(estimates, benchmark)
    return 100.0 * float(np.mean(np.abs(deviations)) / abs(benchmark))


def nrmsd(estimates, benchmark: float) -> float:
    """Normalized root-mean-square deviation, in percent."""
    deviations = _deviations(estimates, benchmark)
    return 100.0 * float(np.sqrt(np.mean(deviations**2) / benchmark**2))


def pcc(a, b) -> float:
    """Sample Pearson correlation coefficient of two output sequences."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two matching 1-D sequences of length >= 2")
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt(np.mean(da * da) * np.mean(db * db))
    if denom == 0.0:
        raise ValueError("correlation is undefined for a constant sequence")
    return float(np.mean(da * db) / denom)


def budget(training_size: int, subsample_size: int, cost_hf: float, cost_lf: float, option: str) -> float:
    """Total evaluation cost of a surrogate-plus-subsample run.

    ``"hf"`` trains on the high-fidelity model: ``(L' + M) c_H``.
    ``"lf"`` trains on the low-fidelity model: ``L' c_L + M c_H``.
    """
    if training_size < 0 or subsample_size < 0:
        raise ValueError("counts must be nonnegative")
    if cost_hf < 0 or cost_lf < 0:
        raise ValueError("costs must be nonnegative")
    if option == "hf":
        return (training_size + subsample_size) * cost_hf
    if option == "lf":
        return training_size * cost_lf + subsample_size * cost_hf
    raise ValueError(f"budget option must be 'hf' or 'lf', got {option!r}")


def max_lf_cost(total_budget: float, subsample_size: int, cost_hf: float, training_size: int) -> float:
    """Largest affordable low-fidelity cost: ``(c_T - M c_H) / L'``."""
    if training_size <= 0:
        raise ValueError("training size must be positive")
    if subsample_size < 0 or cost_hf < 0 or total_budget < 0:
        raise ValueError("budget arguments must be nonnegative")
    return (total_budget - subsample_size * cost_hf) / training_size
