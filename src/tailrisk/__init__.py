"""Tail-risk (CVaR) estimation for expensive models under dependent inputs.

The package builds measure-consistent orthonormal polynomial bases by
whitening monomial moment matrices, computed exactly by Gauss-Hermite
quadrature in the Gaussian-copula space (orders whose grids would be too
large to build are refused), fits chaos-Kriging surrogates with
leave-one-out-tuned kernels, and estimates VaR/CVaR
either by sampling the surrogate directly or by multifidelity importance
sampling from a confidence-interval-inflated risk region.
"""

from .basis import (
    MultiIndexSet,
    OrthonormalBasis,
    build_basis,
    cardinality,
    monomial_matrix,
    multi_index_set,
    whiten,
)
from .exceptions import (
    ArtifactError,
    ConditioningError,
    DegenerateTrainingError,
    EvaluationError,
    InsufficientMassError,
    InvalidModelError,
    OptimizationError,
    PositiveDefinitenessError,
    TailriskError,
)
from .inputs import (
    Gaussian,
    InputModel,
    Lognormal,
    SampleSet,
    Uniform,
    sample,
)
from .metrics import budget, max_lf_cost, mrd, nrmsd, pcc
from .models import (
    BuiltinModel,
    CommandModel,
    ModelHandle,
    cross_in_tray,
    rastrigin,
    rastrigin_lf,
)
from .risk import (
    RiskRegion,
    RiskReport,
    epsilon_risk_region,
    half_width,
    mcs_estimate,
    mfis_estimate,
    surrogate_mcs_estimate,
    var_cvar,
)
from .surrogate import (
    FittedSurrogate,
    KernelSpec,
    fit,
    loo_cv_objective,
    optimize_theta,
)

__version__ = "0.1.0"
