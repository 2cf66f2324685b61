"""Cost of one LOO evaluation against training size.  Run from the repository root::

    OPENBLAS_NUM_THREADS=1 python3 perfbench/loo_scaling.py

Times ``surrogate.loo_cv_objective`` (one LOO evaluation: correlation
matrix, Cholesky, the solves) on the ``mfis-tray`` training set, the
cross-in-tray model under the corr09 input, with the exponential kernel,
at n = 200 and n = 400 and one fixed theta.  Prints the median of 30 calls
at each size and their ratio, next to the ratio n^3 scaling predicts.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tailrisk import cli, inputs, models, surrogate  # noqa: E402


def median_ms(n, repeats=30):
    exp = cli.Experiment(cli.load_config(preset="example2"))
    x = inputs.sample(exp.input_model, "mc", n, seed=n).points
    y = models.cross_in_tray(x)
    theta = surrogate.default_theta_bounds(x).mean(axis=1) * 0.1
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        surrogate.loo_cv_objective(theta, x, y, kind="exponential")
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main():
    small, large = median_ms(200), median_ms(400)
    print(f"n=200: {small:.2f} ms  n=400: {large:.2f} ms  ratio {large / small:.1f} "
          f"(n^3 predicts {2 ** 3})")


if __name__ == "__main__":
    main()
