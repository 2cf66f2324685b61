"""Tail-risk (CVaR) estimation for expensive models under dependent inputs.

The package builds measure-consistent orthonormal polynomial bases by
whitening monomial moment matrices, computed exactly by Gauss-Hermite
quadrature in the Gaussian-copula space (with a bounded sampled fallback
for grids too large to build), fits chaos-Kriging surrogates with
leave-one-out-tuned kernels, and estimates VaR/CVaR
either by sampling the surrogate directly or by multifidelity importance
sampling from a confidence-interval-inflated risk region.
"""

from .basis import (
    MultiIndexSet,
    OrthonormalBasis,
    build_basis,
    cardinality,
    moment_matrix,
    monomial_matrix,
    monomial_vector,
    multi_index_set,
    whiten,
)
from .exceptions import (
    ArtifactError,
    ConditioningError,
    DatasetLookupError,
    DegenerateTrainingError,
    EvaluationError,
    InsufficientMassError,
    InvalidModelError,
    MomentMatrixError,
    OptimizationError,
    PositiveDefinitenessError,
    TailriskError,
    UnsupportedDimensionError,
)
from .inputs import (
    Gaussian,
    InputModel,
    Lognormal,
    SampleSet,
    Uniform,
    sample,
)
from .metrics import TrialEnsemble, budget, max_lf_cost, mrd, nrmsd, pcc
from .models import (
    BuiltinModel,
    CommandModel,
    DatasetModel,
    ModelHandle,
    cross_in_tray,
    rastrigin,
    rastrigin_lf,
)
from .risk import (
    RiskRegion,
    RiskReport,
    WeightedOutputs,
    ci_half_width,
    empirical_var_cvar,
    epsilon_risk_region,
    mcs_estimate,
    mfis_estimate,
    surrogate_mcs_estimate,
    var_cvar,
)
from .surrogate import (
    FittedSurrogate,
    KernelSpec,
    Prediction,
    fit,
    loo_cv_objective,
    optimize_theta,
)

__version__ = "0.1.0"
