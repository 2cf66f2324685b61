"""Tail-risk (CVaR) estimation for expensive models under dependent inputs.

The package builds measure-consistent orthonormal polynomial bases by
whitening monomial moment matrices, computed exactly by Gauss-Hermite
quadrature in the Gaussian-copula space (orders whose grids would be too
large to build are refused), fits chaos-Kriging surrogates with
leave-one-out-tuned kernels, and estimates VaR/CVaR
either by sampling the surrogate directly or by multifidelity importance
sampling from a confidence-interval-inflated risk region.
"""

import sys

# numpy's ``numpy.random.bit_generator`` runs ``from secrets import
# randbits`` when it is imported, and ``secrets`` imports ``hmac`` and
# ``hashlib``, which maps OpenSSL's ``_hashlib``: 3.4 MB of a run's peak
# memory for nothing a run uses.  So ``numpy.random`` is imported here
# against a stub ``secrets`` whose ``randbits`` is the stdlib's own,
# ``random.SystemRandom().getrandbits`` (``random`` needs no OpenSSL), and
# ``sys.modules["secrets"]`` is restored afterwards.  The costs: while that
# one import runs, another thread that imports ``secrets`` gets the stub; a
# host that imported ``numpy.random`` first gains nothing, and the stub is
# not installed for it; ``fit`` and ``predict`` still load ``hashlib`` for
# the training digest; and a predict, which uses no ``numpy.random``, pays
# for importing it here (+2.4 MB).  The stub relies on numpy's one-line
# import of ``randbits``, which ``pyproject.toml``'s ``numpy<2.5`` pin holds
# still; ``tests/test_cli.py`` fails when a run loads ``hashlib`` again.
if "numpy.random" not in sys.modules:
    import random
    import types

    _secrets = sys.modules.get("secrets")
    sys.modules["secrets"] = types.ModuleType("secrets")
    sys.modules["secrets"].randbits = random.SystemRandom().getrandbits
    try:
        import numpy.random
    finally:
        if _secrets is None:
            del sys.modules["secrets"]
        else:
            sys.modules["secrets"] = _secrets
    del _secrets, numpy, random, types
del sys

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
