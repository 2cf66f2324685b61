"""VaR/CVaR estimators: weighted empirical tails, CI-inflated risk regions,
and the multifidelity importance-sampling estimator.

The empirical estimator sorts outputs in descending order, finds the
smallest index whose cumulative probability exceeds ``1 - beta`` (the
value there is the VaR), and adds the weighted positive exceedances:

    CVaR = VaR + sum_l p_l (y_l - VaR)_+ / (1 - beta).

The importance-sampling path inflates the surrogate-predicted tail by a
confidence half-width ``eps(x) = Q_{1-alpha/2} sigma(x)``, collects the
candidate samples whose upper limit clears the deflated tail threshold,
and then evaluates the expensive model only on a uniform subsample of
that region; each evaluation carries probability ``mass / M``.  For a
fixed threshold ``t`` whose exceedances all lie inside the region, the
weighted sum ``t + sum_l p_l (y_l - t)_+ / (1 - beta)`` is an unbiased
estimate of its value over all candidates.  The CVaR estimate, however,
takes its VaR from the same subsample, and that empirical CVaR is biased
low at finite ``M`` (Brown 2007, Oper. Res. Lett. 35:722); the bias
shrinks as ``M`` grows.

The tail rule (descending order and snapped tail index), the region's
membership rule and the weights each live in one helper, ``_tail_index``,
``_in_region`` and ``_weights``; the estimators, the region, and the
region's top-up all call them.  Candidate sets are equally weighted
(:class:`~tailrisk.inputs.SampleSet`), so every weight comes from counts:
``1/L`` per candidate, and ``(|region| / M) / L`` per importance sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import inputs
from .exceptions import InsufficientMassError, TailriskError
from .inputs import SampleSet
from .models import evaluate_model
from .surrogate import FittedSurrogate

__all__ = [
    "RiskRegion",
    "RiskReport",
    "var_cvar",
    "half_width",
    "epsilon_risk_region",
    "mcs_estimate",
    "surrogate_mcs_estimate",
    "mfis_estimate",
]

METHODS = ("mcs", "surrogate_mcs", "mfis_hf", "mfis_lf")


def _tail_index(scores, probabilities, beta: float):
    """``(order, k)``: the descending order of ``scores`` (ties broken by
    position) and the smallest index ``k`` into it whose cumulative
    probability exceeds ``1 - beta``.

    Raises ``ValueError`` for ``beta`` outside (0, 1) and
    ``InsufficientMassError`` when the total probability does not exceed
    ``1 - beta`` (the tail is not covered).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    tail = 1.0 - beta
    # Cumulative weights that equal 1 - beta up to roundoff (e.g. 0.1 + 0.1
    # against beta = 0.8) must not count as exceeding it, or the tail index
    # lands one sample early.
    snapped = tail * (1.0 + 1e-12)
    order = np.argsort(-scores, kind="stable")
    cumulative = np.cumsum(probabilities[order])
    if not cumulative[-1] > snapped:
        raise InsufficientMassError(
            f"total weight {cumulative[-1]:.6g} does not exceed 1 - beta = {tail:.6g}"
        )
    return order, int(np.searchsorted(cumulative, snapped, side="right"))


def _weights(candidates, draws=None, members=None):
    """Equal probabilities of ``draws`` points that stand for ``members``
    of ``candidates`` equally weighted candidates: ``(members / draws) /
    candidates`` each.  By default the points are the candidates
    themselves.  Grouped so that ``draws == members`` gives exactly
    ``1/candidates``: a subsample of the whole region weighs what its
    candidates do."""
    draws = candidates if draws is None else draws
    members = draws if members is None else members
    return np.full(draws, (members / draws) / candidates)


def _in_region(means, eps, threshold):
    """The region's membership rule: ``mean + eps`` reaches ``threshold``
    and ``mean - eps`` is finite."""
    with np.errstate(invalid="ignore"):
        return (means + eps >= threshold) & np.isfinite(means - eps)


def var_cvar(values, probabilities, beta: float) -> tuple[float, float]:
    """Weighted empirical VaR and CVaR at risk level ``beta``.

    Values are sorted in descending order (ties broken by position);
    the VaR is the value at the smallest index whose cumulative weight
    exceeds ``1 - beta``, and the CVaR adds the weighted mean exceedance.

    Raises
    ------
    ValueError
        Empty input, a non-finite value, not one weight per value, a
        negative or non-finite weight, or ``beta`` outside (0, 1).
    InsufficientMassError
        Total weight below ``1 - beta`` (the tail is not covered).
    """
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probabilities, dtype=float)
    if values.size == 0:
        raise ValueError("cannot estimate a tail from zero outputs")
    if not np.all(np.isfinite(values)):
        raise ValueError("cannot estimate a tail from non-finite outputs")
    if probs.shape != values.shape:
        raise ValueError(f"need one weight per output, got {probs.size} for {values.size} outputs")
    if not np.all(probs >= 0.0) or not np.all(np.isfinite(probs)):
        raise ValueError("weights must be non-negative and finite")
    order, k = _tail_index(values, probs, beta)
    sorted_values = values[order]
    var = float(sorted_values[k])

    exceeding = sorted_values > var
    excess = float(
        np.sum(probs[order][exceeding] * (sorted_values[exceeding] - var))
    )
    return var, var + excess / (1.0 - beta)


def half_width(variances, alpha: float):
    """``Q_{1-alpha/2} * sqrt(variances)``, the CI half-width per point.

    Zero variance (a ``chaos``-mode surrogate) or ``alpha = 1`` gives zero.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    from ._ndtri import ndtri  # imported on first use: surrogate MCS never needs it

    return ndtri(1.0 - alpha / 2.0) * np.sqrt(variances)


@dataclass(frozen=True)
class RiskRegion:
    """Discrete CI-inflated risk region over a candidate sample set."""

    member_indices: np.ndarray
    mass: float
    threshold: float
    alpha: float

    def __post_init__(self):
        members = np.asarray(self.member_indices, dtype=int)
        if members.size < 1:
            raise ValueError("a risk region must contain at least one sample")
        members.setflags(write=False)
        object.__setattr__(self, "member_indices", members)

    def __len__(self):
        return len(self.member_indices)


def epsilon_risk_region(
    surrogate: FittedSurrogate, samples: SampleSet, beta: float, alpha: float
) -> RiskRegion:
    """CI-based risk region of the surrogate over candidate samples.

    The threshold is the empirical VaR at level ``beta`` of the lower
    limit ``mean - eps``, and the region keeps every sample whose upper
    limit ``mean + eps`` reaches it: the epsilon-risk region of
    Heinkenschloss, Kramer, Takhtaganov & Willcox (2018, SIAM/ASA JUQ
    6:1395).  Every sample ranked at or above the tail index clears the
    threshold, so the region's mass is at least ``1 - beta``; and when
    every output lies within ``eps`` of its mean, the true tail lies
    inside the region.  With ``eps == 0`` this collapses to the plain
    discrete risk region ``{ l : mean_l >= VaR_beta }``.
    """
    means, variances = surrogate.predict_batch(samples.points)
    eps = half_width(variances, alpha)
    if not np.any(np.isfinite(eps)):
        raise TailriskError("every confidence half-width is non-finite")

    score = means - eps
    score = np.where(np.isfinite(score), score, -np.inf)
    order, k = _tail_index(score, _weights(len(samples)), beta)
    threshold = float(score[order[k]])
    members = np.flatnonzero(_in_region(means, eps, threshold))
    return RiskRegion(
        member_indices=members,
        mass=len(members) / len(samples),
        threshold=threshold,
        alpha=alpha,
    )


@dataclass
class RiskReport:
    """One estimator run: its estimates and its hf, lf and surrogate counts."""

    var_estimate: float
    cvar_estimate: float
    evaluations: dict
    seed: int | None = None
    metadata: dict = field(default_factory=dict)


def mcs_estimate(model, samples: SampleSet, beta: float, seed=None) -> RiskReport:
    """Standard Monte Carlo estimate: evaluate the model at every sample."""
    outputs = evaluate_model(model, samples.points)
    var, cvar = var_cvar(outputs, _weights(len(samples)), beta)
    return RiskReport(
        var_estimate=var,
        cvar_estimate=cvar,
        evaluations={"hf": len(samples), "lf": 0, "surrogate": 0},
        seed=seed,
    )


def surrogate_mcs_estimate(
    surrogate: FittedSurrogate, samples: SampleSet, beta: float, seed=None
) -> RiskReport:
    """Monte Carlo estimate sampling the surrogate predictor mean.

    Only the mean is predicted: the variance plays no part here.
    """
    means = surrogate.predict_mean(samples.points)
    var, cvar = var_cvar(means, _weights(len(samples)), beta)
    return RiskReport(
        var_estimate=var,
        cvar_estimate=cvar,
        evaluations={"hf": 0, "lf": 0, "surrogate": len(samples)},
        seed=seed,
    )


def _fresh_region_points(surrogate, input_model, region, count, seed):
    """Rejection-sample fresh in-region points from the input law.

    Returns ``(points, predictions)``: ``count`` accepted points and the
    number of surrogate predictions it took to find them.
    """
    collected = []
    got = 0
    block = 8192
    for attempt in range(512):
        batch = inputs.sample(
            input_model, "mc", block, np.random.SeedSequence((seed, attempt)).generate_state(1)[0]
        )
        means, variances = surrogate.predict_batch(batch.points)
        accepted = batch.points[
            _in_region(means, half_width(variances, region.alpha), region.threshold)
        ]
        if len(accepted):
            collected.append(accepted)
            got += len(accepted)
        if got >= count:
            return np.vstack(collected)[:count], (attempt + 1) * block
    raise TailriskError(
        "could not draw enough fresh in-region samples; the region is too thin"
    )


def mfis_estimate(
    region: RiskRegion,
    samples: SampleSet,
    hf_model,
    subsample_size: int,
    beta: float,
    seed: int,
    surrogate: FittedSurrogate | None = None,
    input_model=None,
) -> RiskReport:
    """Importance-sampling CVaR estimate from a risk region.

    Draws ``subsample_size`` members uniformly without replacement from
    the region (the discrete optimal biasing density), evaluates the
    high-fidelity model there, and assigns each output the probability
    ``mass / subsample_size``; the weighted empirical estimator then
    yields the tail statistics.  Selected samples are re-ordered by their
    original index so the result is independent of scheduling.

    A very accurate surrogate can shrink the region to the bare tail,
    leaving fewer members than the requested subsample.  When
    ``surrogate`` and ``input_model`` are provided, the shortfall is made
    up by rejection-sampling fresh points from the input law that satisfy
    the region's membership rule (same biasing density, new candidates);
    otherwise a larger subsample than the region is an argument error.
    The report's ``surrogate`` count is the predictions that top-up made.

    Raises
    ------
    ValueError
        ``subsample_size`` below 1, or above the region size without a
        surrogate/input model to draw fresh candidates from.
    InsufficientMassError
        Region mass below ``1 - beta``.
    """
    m = int(subsample_size)
    if m < 1:
        raise ValueError(f"subsample size must be >= 1, got {subsample_size}")
    if m > len(region) and (surrogate is None or input_model is None):
        raise ValueError(
            f"subsample size must be in [1, {len(region)}], got {subsample_size}"
        )
    if region.mass < 1.0 - beta:
        raise InsufficientMassError(
            f"region mass {region.mass:.6g} is below 1 - beta = {1.0 - beta:.6g}"
        )

    rng = np.random.default_rng(seed)
    chosen = np.sort(
        rng.choice(region.member_indices, size=min(m, len(region)), replace=False)
    )
    points = samples.points[chosen]
    shortfall = max(m - len(region), 0)
    predictions = 0
    if shortfall:
        fresh_points, predictions = _fresh_region_points(
            surrogate, input_model, region, shortfall, seed
        )
        points = np.vstack([points, fresh_points])
    outputs = evaluate_model(hf_model, points)
    var, cvar = var_cvar(outputs, _weights(len(samples), m, len(region)), beta)
    return RiskReport(
        var_estimate=var,
        cvar_estimate=cvar,
        evaluations={"hf": m, "lf": 0, "surrogate": predictions},
        seed=seed,
        metadata={
            "region_size": len(region),
            "region_mass": region.mass,
            "fresh_points": shortfall,
        },
    )
