"""Shared independent oracles for the test suite, and a fresh-interpreter runner.

The oracles deliberately avoid the library's own code paths: Gaussian
moments come from the double-factorial formula, and tail statistics from
a plain Python walk over the sorted samples.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import tailrisk


def gaussian_moment(power: int) -> float:
    """E[Z^power] for a standard normal: (power-1)!! for even powers."""
    if power % 2 == 1:
        return 0.0
    out = 1.0
    for k in range(power - 1, 0, -2):
        out *= k
    return out


def analytic_gaussian_gram(index_set) -> np.ndarray:
    """Exact moment matrix of independent standard normals."""
    idx = index_set.indices
    size = len(index_set)
    gram = np.empty((size, size))
    for i in range(size):
        for j in range(size):
            gram[i, j] = math.prod(
                gaussian_moment(int(a + b)) for a, b in zip(idx[i], idx[j])
            )
    return gram


def correlated_gaussian_gram(index_set, std, rho) -> np.ndarray:
    """Exact moment matrix of a zero-mean Gaussian pair.

    Both coordinates have standard deviation ``std`` and correlation
    ``rho``.  With independent standard normals ``Z1, Z2``, write
    ``X1 = std Z1`` and ``X2 = std (rho Z1 + sqrt(1 - rho^2) Z2)``; the
    binomial expansion of ``X2^b`` leaves products of one-dimensional
    moments.
    """
    def moment(a, b):
        total = 0.0
        for k in range(b + 1):
            total += (
                math.comb(b, k)
                * rho**k
                * (1.0 - rho * rho) ** ((b - k) / 2)
                * gaussian_moment(a + k)
                * gaussian_moment(b - k)
            )
        return std ** (a + b) * total

    idx = index_set.indices
    if idx.shape[1] != 2:
        raise ValueError("the oracle covers two-dimensional index sets only")
    size = len(index_set)
    gram = np.empty((size, size))
    for i in range(size):
        for j in range(size):
            a, b = idx[i] + idx[j]
            gram[i, j] = moment(int(a), int(b))
    return gram


def per_entry_moment_matrix(index_set, model) -> np.ndarray:
    """Moment matrix entry by entry: the reference for the block tables.

    Every upper-triangle entry ``E[M_a M_b]`` is split into the moments of
    the groups of its support that are independent under the model's
    correlation, and their product is taken in the order of each group's
    smallest coordinate.  The group moments come from the library's
    ``_group_moment``, so this checks the assembly, not the quadrature.
    """
    from tailrisk.basis import _dependence_blocks, _group_moment

    idx = index_set.indices
    corr = model.correlation
    moments = {}
    size = len(index_set)
    gram = np.empty((size, size))
    for a in range(size):
        for b in range(a, size):
            exponents = idx[a] + idx[b]
            support = np.flatnonzero(exponents)
            factors = []
            for block in _dependence_blocks(corr[np.ix_(support, support)]):
                group = tuple(int(support[i]) for i in block)
                key = (group, tuple(int(e) for e in exponents[list(group)]))
                if key not in moments:
                    moments[key] = _group_moment(
                        [model.marginals[k] for k in group],
                        corr[np.ix_(group, group)],
                        key[1],
                    )
                factors.append(moments[key])
            gram[a, b] = gram[b, a] = math.prod(factors)
    return gram


def brute_force_var_cvar(values, probabilities, beta):
    """Tail statistics by an explicit walk of the descending sort."""
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    cumulative = 0.0
    var = None
    for i in order:
        cumulative += probabilities[i]
        if cumulative > 1.0 - beta:
            var = values[i]
            break
    if var is None:
        raise ValueError("not enough probability mass for the requested level")
    excess = 0.0
    for i in order:
        if values[i] > var:
            excess += probabilities[i] * (values[i] - var)
    return var, var + excess / (1.0 - beta)


def run_python(script, **env):
    """Run ``script`` in a fresh interpreter that imports this tailrisk;
    ``env`` entries override the environment.  Returns its stdout."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(tailrisk.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True, timeout=300,
    )
    return result.stdout
