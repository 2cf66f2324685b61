"""Acceptance suite: one test per stated criterion, each printing a
pass/fail line with the measured values.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
The master seed is fixed; all trial seeds derive from it.
"""

import math
import sys
import textwrap
import time

import numpy as np
import pytest

import tailrisk as tr

from helpers import brute_force_var_cvar, correlated_gaussian_gram

MASTER = 20250808
TRIALS = 10
BETA = 0.99
SAMPLES = 10_000


def seed(*key):
    return int(np.random.SeedSequence((MASTER,) + key).generate_state(1)[0])


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} — {detail}")


@pytest.fixture(scope="module")
def corr09():
    return tr.InputModel([tr.Gaussian(0, 2), tr.Gaussian(0, 2)], [[1, 0.9], [0.9, 1]])


@pytest.fixture(scope="module")
def corr0():
    return tr.InputModel([tr.Gaussian(0, 2), tr.Gaussian(0, 2)])


@pytest.fixture(scope="module")
def basis3_corr09(corr09):
    return tr.build_basis(corr09, 1, 3)


@pytest.fixture(scope="module")
def basis3_corr0(corr0):
    return tr.build_basis(corr0, 1, 3)


@pytest.fixture(scope="module")
def basis4_corr09(corr09):
    return tr.build_basis(corr09, 1, 4)


@pytest.fixture(scope="module")
def candidates_corr09(corr09):
    return [tr.sample(corr09, "mc", SAMPLES, seed(2, k)) for k in range(TRIALS)]


@pytest.fixture(scope="module")
def candidates_corr0(corr0):
    return [tr.sample(corr0, "mc", SAMPLES, seed(3, k)) for k in range(TRIALS)]


@pytest.fixture(scope="module")
def rastrigin_benchmark(corr09):
    # complete benchmark run, sampling included, so the timing is honest
    start = time.perf_counter()
    values = [
        tr.mcs_estimate(
            tr.BuiltinModel("rastrigin"),
            tr.sample(corr09, "mc", SAMPLES, seed(2, k)),
            BETA,
        ).cvar_estimate
        for k in range(TRIALS)
    ]
    elapsed = time.perf_counter() - start
    return float(np.mean(values)), elapsed


@pytest.fixture(scope="module")
def cross_in_tray_benchmark(corr09, candidates_corr09):
    values = [
        tr.mcs_estimate(tr.BuiltinModel("cross_in_tray"), s, BETA).cvar_estimate
        for s in candidates_corr09
    ]
    return float(np.mean(values))


def test_criterion_01_standard_mcs_benchmark(rastrigin_benchmark):
    mean, elapsed = rastrigin_benchmark
    ok = 18.4 <= mean <= 19.1 and elapsed < 5.0
    report(1, ok, f"mean CVaR_0.99 = {mean:.4f} (window [18.4, 19.1]), "
                  f"runtime {elapsed:.2f}s (< 5s)")
    assert 18.4 <= mean <= 19.1
    assert elapsed < 5.0


def test_criterion_02_surrogate_mcs_vs_trend_only(
    corr09, basis3_corr09, candidates_corr09, rastrigin_benchmark
):
    benchmark, _ = rastrigin_benchmark
    start = time.perf_counter()
    kriging_vals, trend_vals = [], []
    for k in range(TRIALS):
        train = tr.sample(corr09, "mc", 300, seed(1, k))
        outputs = tr.rastrigin(train.points)
        kriged = tr.fit(train.points, outputs, basis3_corr09,
                        kernel_kind="gaussian", seed=seed(4, k))
        trend = tr.fit(train.points, outputs, basis3_corr09, mode="chaos")
        kriging_vals.append(
            tr.surrogate_mcs_estimate(kriged, candidates_corr09[k], BETA).cvar_estimate
        )
        trend_vals.append(
            tr.surrogate_mcs_estimate(trend, candidates_corr09[k], BETA).cvar_estimate
        )
    elapsed = time.perf_counter() - start
    kriging_mrd = tr.mrd(np.array(kriging_vals), benchmark)
    trend_mrd = tr.mrd(np.array(trend_vals), benchmark)
    ok = kriging_mrd <= 1.0 and trend_mrd >= 20.0 and elapsed < 120.0
    report(2, ok, f"kriging MRD = {kriging_mrd:.3f}% (<= 1%), "
                  f"trend-only MRD = {trend_mrd:.2f}% (>= 20%), "
                  f"runtime {elapsed:.1f}s (< 120s)")
    assert kriging_mrd <= 1.0
    assert trend_mrd >= 20.0
    assert elapsed < 120.0


def test_criterion_03_independent_inputs(corr0, basis3_corr0, candidates_corr0):
    benchmark = float(np.mean([
        tr.mcs_estimate(tr.BuiltinModel("rastrigin"), s, BETA).cvar_estimate
        for s in candidates_corr0
    ]))
    values = []
    for k in range(TRIALS):
        train = tr.sample(corr0, "mc", 300, seed(5, k))
        sur = tr.fit(train.points, tr.rastrigin(train.points), basis3_corr0,
                     kernel_kind="gaussian", seed=seed(6, k))
        values.append(
            tr.surrogate_mcs_estimate(sur, candidates_corr0[k], BETA).cvar_estimate
        )
    mrd = tr.mrd(np.array(values), benchmark)
    ok = mrd <= 1.5
    report(3, ok, f"independent-input surrogate MCS MRD = {mrd:.3f}% (<= 1.5%)")
    assert mrd <= 1.5


def test_criterion_04_mfis_low_fidelity_variants(
    corr09, basis3_corr09, candidates_corr09, rastrigin_benchmark
):
    benchmark, _ = rastrigin_benchmark
    mrds = {}
    for variant in (1, 2, 3, 4):
        values = []
        for k in range(TRIALS):
            train = tr.sample(corr09, "mc", 150, seed(1, k))
            outputs = tr.rastrigin_lf(train.points, variant)
            sur = tr.fit(train.points, outputs, basis3_corr09,
                         kernel_kind="gaussian", seed=seed(4, k))
            region = tr.epsilon_risk_region(sur, candidates_corr09[k], BETA, 0.05)
            rep = tr.mfis_estimate(
                region, candidates_corr09[k], tr.BuiltinModel("rastrigin"),
                150, BETA, seed=seed(7, k),
                surrogate=sur, input_model=corr09,
            )
            values.append(rep.cvar_estimate)
        mrds[variant] = tr.mrd(np.array(values), benchmark)
    ok = mrds[1] <= 3.0 and mrds[2] <= 3.0 and mrds[3] > mrds[2]
    report(4, ok, "MRD per variant: "
                  + ", ".join(f"#{v} {m:.2f}%" for v, m in mrds.items())
                  + " (need #1, #2 <= 3%; #3 > #2)")
    assert mrds[1] <= 3.0
    assert mrds[2] <= 3.0
    assert mrds[3] > mrds[2]


def test_criterion_05a_cross_in_tray_benchmark_window(cross_in_tray_benchmark):
    mean = cross_in_tray_benchmark
    ok = -10.6 <= mean <= -9.2
    report("5a", ok, f"benchmark mean CVaR_0.99 = {mean:.4f} (window [-10.6, -9.2])")
    assert -10.6 <= mean <= -9.2


def test_criterion_05b_mfis_beats_surrogate_mcs(
    corr09, basis4_corr09, candidates_corr09, cross_in_tray_benchmark
):
    benchmark = cross_in_tray_benchmark
    mfis_vals, smc_vals = [], []
    for k in range(TRIALS):
        fit_set = tr.sample(corr09, "mc", 200, seed(1, k))
        sur = tr.fit(fit_set.points, tr.cross_in_tray(fit_set.points),
                     basis4_corr09, kernel_kind="exponential", seed=seed(4, k))
        region = tr.epsilon_risk_region(sur, candidates_corr09[k], BETA, 0.05)
        rep = tr.mfis_estimate(
            region, candidates_corr09[k], tr.BuiltinModel("cross_in_tray"),
            200, BETA, seed=seed(7, k), surrogate=sur, input_model=corr09,
        )
        mfis_vals.append(rep.cvar_estimate)
        assert rep.evaluations["hf"] == 200

        big_set = tr.sample(corr09, "mc", 400, seed(8, k))
        sur2 = tr.fit(big_set.points, tr.cross_in_tray(big_set.points),
                      basis4_corr09, kernel_kind="exponential", seed=seed(12, k))
        smc_vals.append(
            tr.surrogate_mcs_estimate(sur2, candidates_corr09[k], BETA).cvar_estimate
        )
    mfis_mrd = tr.mrd(np.array(mfis_vals), benchmark)
    smc_mrd = tr.mrd(np.array(smc_vals), benchmark)
    ok = mfis_mrd <= 6.0 and mfis_mrd < smc_mrd
    report("5b", ok, f"MFIS-HF (400 HF budget) MRD = {mfis_mrd:.3f}% (<= 6%), "
                     f"surrogate-MCS MRD = {smc_mrd:.3f}% (MFIS must be lower)")
    assert mfis_mrd <= 6.0
    assert mfis_mrd < smc_mrd


def test_criterion_06_low_fidelity_correlations(corr0):
    pts = tr.sample(corr0, "mc", 10_000, seed(13)).points
    hf = tr.rastrigin(pts)
    observed = [tr.pcc(hf, tr.rastrigin_lf(pts, v)) for v in (1, 2, 3, 4)]
    expected = [1.0, 1.0, 0.72, 0.72]
    ok = all(abs(o - e) <= 0.02 for o, e in zip(observed, expected))
    report(6, ok, "PCC = " + ", ".join(f"{v:.4f}" for v in observed)
                  + " (need 1, 1, 0.72, 0.72 within 0.02)")
    for o, e in zip(observed, expected):
        assert o == pytest.approx(e, abs=0.02)


def test_criterion_07_orthonormality_high_degree(corr09):
    basis = tr.build_basis(corr09, 1, 5)
    size = len(basis)
    # E[Psi Psi^T] = W G W^T with G the exact monomial moments of the input
    # pair, from an oracle that shares no code with the library.
    gram = correlated_gaussian_gram(basis.index_set, 2.0, 0.9)
    expectation = basis.whitening @ gram @ basis.whitening.T
    deviation = float(np.max(np.abs(expectation - np.eye(size))))
    ok = deviation <= 5e-3
    report(7, ok, f"max |E[Psi Psi^T] - I| = {deviation:.2e} (<= 5e-3), "
                  "E[Psi Psi^T] = W G W^T with the exact moments G of the "
                  "correlated Gaussian pair")
    assert deviation <= 5e-3


def test_criterion_08_hermite_whitening():
    index_set = tr.multi_index_set(1, 1, 2)
    basis = tr.whiten(np.array([[1.0, 0, 1], [0, 1, 0], [1, 0, 3]]), index_set)
    expected = np.array(
        [[1, 0, 0], [0, 1, 0], [-1 / math.sqrt(2), 0, 1 / math.sqrt(2)]]
    )
    deviation = float(np.max(np.abs(basis.whitening - expected)))
    ok = deviation <= 1e-6
    report(8, ok, f"max coefficient deviation from (1, x, (x^2-1)/sqrt(2)) = {deviation:.2e}")
    assert deviation <= 1e-6


def test_criterion_09_estimator_oracles():
    rng = np.random.default_rng(seed(15))
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 1000))
        values = rng.normal(size=n) * rng.uniform(0.5, 20)
        probs = rng.uniform(0.0, 1.0, size=n)
        probs /= probs.sum()
        beta = float(rng.uniform(0.05, 0.995))
        got_var, got_cvar = tr.var_cvar(values, probs, beta)
        want_var, want_cvar = brute_force_var_cvar(values, probs, beta)
        assert got_var == want_var
        worst = max(worst, abs(got_cvar - want_cvar))

    # exact surrogate, zero half-width, full region: identical to the
    # direct weighted estimator
    model = tr.InputModel([tr.Gaussian(0, 1), tr.Gaussian(0, 1)])
    samples = tr.sample(model, "mc", 400, seed(16))
    truth = lambda pts: tr.rastrigin(np.atleast_2d(pts))

    class Exact:
        def predict_batch(self, points, clamp=True):
            return truth(points), np.zeros(len(np.atleast_2d(points)))

    region = tr.epsilon_risk_region(Exact(), samples, 0.9, 0.05)
    direct_var, direct_cvar = tr.var_cvar(
        truth(samples.points), np.full(len(samples), 1 / len(samples)), 0.9
    )
    rep = tr.mfis_estimate(region, samples, truth, len(region), 0.9, seed=seed(17))
    exact_match = (rep.var_estimate, rep.cvar_estimate) == (direct_var, direct_cvar)

    ok = worst <= 1e-10 and exact_match
    report(9, ok, f"max |CVaR - brute force| over 500 instances = {worst:.2e} "
                  f"(<= 1e-10); full-region MFIS identity: {exact_match}")
    assert worst <= 1e-10
    assert exact_match


def test_criterion_09_external_adapter(tmp_path):
    # the same full-region identity driven through a command-mode model;
    # the child appends one line per answered input to a log
    script = tmp_path / "model.py"
    answered = tmp_path / "answered.log"
    script.write_text(textwrap.dedent(
        f"""
        import math, sys
        log = open({str(answered)!r}, "a")
        for line in sys.stdin:
            x = [float(v) for v in line.split()]
            total = 10.0
            for xi in x:
                total -= xi * xi - 5.0 * math.cos(2.0 * math.pi * xi)
            log.write(line)
            log.flush()
            print(repr(total))
            sys.stdout.flush()
        """
    ))
    model = tr.InputModel([tr.Gaussian(0, 1), tr.Gaussian(0, 1)])
    samples = tr.sample(model, "mc", 100, seed(18))
    truth_vals = tr.rastrigin(samples.points)

    class Exact:
        def predict_batch(self, points, clamp=True):
            return tr.rastrigin(np.atleast_2d(points)), np.zeros(
                len(np.atleast_2d(points))
            )

    region = tr.epsilon_risk_region(Exact(), samples, 0.9, 0.05)
    direct = tr.var_cvar(truth_vals, np.full(len(samples), 1 / len(samples)), 0.9)
    with tr.CommandModel([sys.executable, str(script)]) as command_model:
        rep = tr.mfis_estimate(
            region, samples, command_model, len(region), 0.9, seed=seed(19)
        )
    evaluations = len(answered.read_text().splitlines())
    ok = (rep.var_estimate, rep.cvar_estimate) == direct and evaluations == len(region)
    report("9-ext", ok, f"command-mode MFIS identity: {ok} "
                        f"({evaluations} child evaluations)")
    assert (rep.var_estimate, rep.cvar_estimate) == direct
    assert evaluations == len(region)

    # budget arithmetic reproduces the cost model exactly
    assert tr.budget(200, 200, 1.0, 0.0, "hf") == 400.0
    assert tr.budget(250, 150, 1.0, 0.1, "lf") == 250 * 0.1 + 150 * 1.0
    assert tr.max_lf_cost(400.0, 150, 1.0, 250) == (400.0 - 150.0) / 250.0


def test_criterion_10_loo_cv_oracle():
    from scipy.linalg import cho_factor, cho_solve

    from tailrisk.surrogate import cross_correlation

    rng = np.random.default_rng(seed(20))
    worst = 0.0
    for kind in ("gaussian", "exponential"):
        for trial in range(5):
            n = int(rng.integers(5, 21))
            x = rng.uniform(-2, 2, size=(n, 2))
            b = np.sin(2 * x[:, 0]) - 0.5 * x[:, 1] ** 2
            theta = rng.uniform(0.4, 1.5, size=2)
            kernel = tr.KernelSpec(kind, theta)
            brute = 0.0
            for left_out in range(n):
                keep = [i for i in range(n) if i != left_out]
                corr = cross_correlation(x[keep], x[keep], kernel)
                r = cross_correlation(x[left_out][None, :], x[keep], kernel)[0]
                pred = r @ cho_solve(cho_factor(corr, lower=True), b[keep])
                brute += (b[left_out] - pred) ** 2
            got = tr.loo_cv_objective(theta, x, b, kind)
            worst = max(worst, abs(got - brute))
    ok = worst <= 1e-8
    report(10, ok, f"max |objective - explicit LOO refits| = {worst:.2e} (<= 1e-8, both kernels)")
    assert worst <= 1e-8
