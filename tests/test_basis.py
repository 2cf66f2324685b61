import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import qmc

import tailrisk
from tailrisk import (
    ArtifactError,
    Gaussian,
    InputModel,
    Lognormal,
    OrthonormalBasis,
    PositiveDefinitenessError,
    Uniform,
    build_basis,
    cardinality,
    monomial_matrix,
    multi_index_set,
    whiten,
)
from tailrisk import basis as basis_mod
from tailrisk import _hermegauss, exceptions, inputs

from helpers import (
    analytic_gaussian_gram,
    correlated_gaussian_gram,
    gaussian_moment,
    per_entry_moment_matrix,
    traced_peak,
)


@pytest.fixture(scope="module")
def corr09():
    return InputModel([Gaussian(0, 2), Gaussian(0, 2)], [[1, 0.9], [0.9, 1]])


_MARGINALS = {"g": Gaussian(1.0, 2.0), "l": Lognormal(2.0, 0.4), "u": Uniform(-1.0, 2.0)}


def _model(kinds, corr):
    """Marginals cycling through ``kinds`` ("g", "l", "u"), latent ``corr``."""
    corr = np.asarray(corr, dtype=float)
    return InputModel([_MARGINALS[kinds[k % len(kinds)]] for k in range(len(corr))], corr)


def _correlated(dimension, pairs, rho=0.5):
    """Identity with ``rho`` at the listed coordinate pairs."""
    corr = np.eye(dimension)
    for i, j in pairs:
        corr[i, j] = corr[j, i] = rho
    return corr


def _adjacent_pairs(dimension):
    return _correlated(dimension, [(k, k + 1) for k in range(0, dimension - 1, 2)])


def _chain(dimension):
    return _correlated(dimension, [(k, k + 1) for k in range(dimension - 1)])


def _dense(dimension, rho=0.3):
    return np.full((dimension, dimension), rho) + (1 - rho) * np.eye(dimension)


class TestMultiIndexSet:
    def test_hand_enumeration_n2_s1_m3(self):
        s = multi_index_set(2, 1, 3)
        expected = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (3, 0), (0, 3)]
        assert [tuple(j) for j in s.indices] == expected

    def test_full_interaction_reduces_to_binomial(self):
        s = multi_index_set(2, 2, 3)
        assert len(s) == math.comb(5, 3) == 10

    def test_constant_only(self):
        s = multi_index_set(5, 0, 4)
        assert [tuple(j) for j in s.indices] == [(0,) * 5]

    @pytest.mark.parametrize("n,s,m", [(2, 3, 3), (3, 2, 1), (2, -1, 3)])
    def test_rejects_bad_orders(self, n, s, m):
        with pytest.raises(ValueError):
            multi_index_set(n, s, m)

    @pytest.mark.parametrize("n,s,m", [(4, 2, 5), (28, 1, 3), (6, 3, 4)])
    def test_cardinality_formula(self, n, s, m):
        assert len(multi_index_set(n, s, m)) == cardinality(n, s, m)

    def test_lower_degree_set_is_prefix(self):
        big = [tuple(j) for j in multi_index_set(3, 2, 4).indices]
        small = [tuple(j) for j in multi_index_set(3, 2, 3).indices]
        assert big[: len(small)] == small


class TestMonomials:
    def test_zero_point(self):
        s = multi_index_set(2, 2, 3)
        v = monomial_matrix(np.zeros((1, 2)), s)[0]
        expected = np.zeros(len(s))
        expected[0] = 1.0
        np.testing.assert_array_equal(v, expected)

    def test_univariate_powers(self):
        s = multi_index_set(1, 1, 2)
        np.testing.assert_array_equal(monomial_matrix(np.array([[2.0]]), s)[0], [1, 2, 4])

    def test_hand_evaluation_matches_order(self):
        s = multi_index_set(2, 1, 3)
        v = monomial_matrix(np.array([[2.0, 3.0]]), s)[0]
        np.testing.assert_array_equal(v, [1, 2, 3, 4, 9, 8, 27])

    def test_batch_matches_single(self):
        s = multi_index_set(3, 2, 3)
        pts = np.random.default_rng(0).normal(size=(7, 3))
        batch = monomial_matrix(pts, s)
        for row, x in zip(batch, pts):
            np.testing.assert_allclose(row, monomial_matrix(x[None], s)[0], rtol=1e-15)

    @pytest.mark.parametrize("dimension, interaction, degree",
                             [(2, 1, 3), (6, 3, 4), (20, 2, 3), (3, 0, 0)])
    def test_equals_the_product_over_every_coordinate(self, dimension, interaction, degree):
        # The reference multiplies every coordinate's power in increasing
        # order, exact ones included; leaving the ones out moves no bit.
        s = multi_index_set(dimension, interaction, degree)
        pts = np.random.default_rng(5).normal(scale=3.0, size=(50, dimension))
        reference = np.ones((len(pts), len(s)))
        for k in range(dimension):
            reference *= pts[:, k, None] ** s.indices[:, k]
        assert monomial_matrix(pts, s).tobytes() == reference.tobytes()


class TestMomentMatrix:
    # The moments are exact, so each check is an identity against a
    # closed form or an oracle that shares no code with the library.
    def test_standard_normal_m2(self):
        model = InputModel([Gaussian(0, 1)])
        s = multi_index_set(1, 1, 2)
        gram = basis_mod._exact_moment_matrix(s, model)
        np.testing.assert_allclose(gram, [[1, 0, 1], [0, 1, 0], [1, 0, 3]], rtol=0, atol=1e-14)

    def test_constant_entry_exact(self, corr09):
        s = multi_index_set(2, 1, 2)
        assert basis_mod._exact_moment_matrix(s, corr09)[0, 0] == 1.0

    def test_cross_moment_correlated(self, corr09):
        s = multi_index_set(2, 2, 3)
        gram = basis_mod._exact_moment_matrix(s, corr09)
        # indices start [(0,0), (1,0), (0,1)]; E[X1 X2] = rho * sigma^2
        assert gram[1, 2] == pytest.approx(3.6, rel=1e-14)
        want = correlated_gaussian_gram(s, 2.0, 0.9)
        np.testing.assert_allclose(gram, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    def test_symmetry_exact(self, corr09):
        s = multi_index_set(2, 2, 3)
        gram = basis_mod._exact_moment_matrix(s, corr09)
        assert np.array_equal(gram, gram.T)

    @pytest.mark.parametrize(
        "kinds, corr, order, degree",
        [
            pytest.param("gl", _adjacent_pairs(6), 2, 3, id="pairs"),
            pytest.param("lg", _dense(5), 2, 3, id="dense"),
            pytest.param("gl", _dense(4), 3, 3, id="dense-s3"),
            pytest.param("gl", _chain(6), 2, 3, id="chain"),
            pytest.param("lg", np.eye(6), 2, 3, id="independent"),
            pytest.param("ul", _adjacent_pairs(4), 2, 2, id="pairs-uniform"),
            pytest.param("gu", _chain(4), 2, 2, id="chain-uniform"),
            pytest.param("u", _dense(3), 2, 2, id="dense-uniform"),
            pytest.param("ugl", np.eye(4), 2, 3, id="independent-uniform"),
        ],
    )
    def test_block_tables_match_the_per_entry_assembly(self, kinds, corr, order, degree):
        # The tables multiply the same group moments in the same order, so
        # the bits agree whenever no entry's groups from one block fall
        # between those of another.  In a chain, coordinates two apart
        # still get separate groups where the link between them is absent.
        model = _model(kinds, corr)
        s = multi_index_set(model.dimension, order, degree)
        gram = basis_mod._exact_moment_matrix(s, model)
        assert np.array_equal(gram, per_entry_moment_matrix(s, model))

    @pytest.mark.parametrize("kinds", ["gl", "lg"])
    def test_block_tables_of_an_interleaved_chain_agree_to_rounding(self, kinds):
        # Coordinates 0-2-4 are chained (C04 = 0), 1 and 3 are independent:
        # an entry over 0, 1, 3 and 4 multiplies the groups {0} and {4} of
        # one block first, so it may differ from the per-entry product in
        # the last bit.
        model = _model(kinds, _correlated(5, [(0, 2), (2, 4)]))
        s = multi_index_set(5, 2, 3)
        gram = basis_mod._exact_moment_matrix(s, model)
        np.testing.assert_allclose(gram, per_entry_moment_matrix(s, model), rtol=1e-15, atol=0)
        assert np.array_equal(gram, gram.T)

    def test_memory_is_bounded_by_the_block_tables(self):
        # Twenty inputs in correlated pairs: G is 631 x 631 (3.2 MB), and
        # each pair's table is 10 x 10.  A list of moment keys for every
        # entry of G would peak near 129 MB.
        peak, basis = traced_peak(build_basis, _model("gl", _adjacent_pairs(20)), 2, 3)
        assert len(basis) == 631
        assert peak < 32e6

    def test_quadrature_below_cardinality_rejected(self, corr09):
        # There is no sample count to get wrong: the sampled estimate and
        # its parameter are gone.
        assert not hasattr(basis_mod, "moment_matrix")
        assert not hasattr(basis_mod, "DEFAULT_QUADRATURE")
        with pytest.raises(TypeError):
            build_basis(corr09, 2, 3, quadrature=5)

    def test_rank_deficient_estimate_rejected(self):
        # Twenty-one sampled points could not give a degree-20 moment
        # matrix full rank; the exact one factors without jitter, and the
        # error type for a bad estimate is gone.
        basis = build_basis(InputModel([Gaussian(0, 1)]), 1, 20)
        assert basis.provenance["jittered"] is False
        assert not hasattr(exceptions, "MomentMatrixError")
        assert not hasattr(tailrisk, "MomentMatrixError")


class TestWhitening:
    def test_identity_moment_matrix(self):
        s = multi_index_set(1, 1, 2)
        basis = whiten(np.eye(3), s)
        np.testing.assert_array_equal(basis.whitening, np.eye(3))

    def test_hermite_coefficients(self):
        s = multi_index_set(1, 1, 2)
        basis = whiten(np.array([[1.0, 0, 1], [0, 1, 0], [1, 0, 3]]), s)
        expected = np.array(
            [[1, 0, 0], [0, 1, 0], [-1 / math.sqrt(2), 0, 1 / math.sqrt(2)]]
        )
        np.testing.assert_allclose(basis.whitening, expected, atol=1e-12)

    def test_whitening_identity_property(self):
        rng = np.random.default_rng(3)
        s = multi_index_set(2, 2, 2)
        n = len(s)
        a = rng.normal(size=(n, n))
        gram = a @ a.T + n * np.eye(n)
        basis = whiten(gram, s)
        residual = basis.whitening @ gram @ basis.whitening.T - np.eye(n)
        assert np.max(np.abs(residual)) < 1e-10

    def test_scaled_whitening_same_identity(self, corr09):
        s = multi_index_set(2, 1, 3)
        gram = correlated_gaussian_gram(s, 2.0, 0.9)
        basis = whiten(gram, s, coordinate_scales=corr09.marginal_stddevs)
        residual = basis.whitening @ gram @ basis.whitening.T - np.eye(len(s))
        assert np.max(np.abs(residual)) < 1e-10
        assert np.allclose(np.triu(basis.whitening, 1), 0.0)
        assert np.all(np.diag(basis.whitening) > 0)

    def test_jitter_rescues_psd_singular(self):
        s = multi_index_set(1, 1, 2)
        gram = np.array([[1.0, 0, 1], [0, 1, 0], [1, 0, 1]])
        basis = whiten(gram, s)
        assert basis.provenance["jittered"] is True

    def test_indefinite_matrix_reports_pivot(self):
        s = multi_index_set(1, 1, 2)
        gram = np.array([[1.0, 0, 1], [0, -1.0, 0], [1, 0, 1.0]])
        with pytest.raises(PositiveDefinitenessError) as err:
            whiten(gram, s)
        assert "pivot 2" in str(err.value)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("entry", [(1, 1), (0, 2)])
    def test_non_finite_moment_matrix_rejected(self, bad, entry):
        s = multi_index_set(1, 1, 2)
        gram = np.array([[1.0, 0, 1], [0, 1, 0], [1, 0, 3]])
        gram[entry] = bad
        with pytest.raises(ValueError, match="non-finite"):
            whiten(gram, s)


class TestBasisEvaluation:
    def test_first_entry_is_one(self, corr09):
        basis = build_basis(corr09, 1, 3)
        pts = np.random.default_rng(1).normal(0, 2, size=(50, 2))
        values = basis.evaluate(pts)
        np.testing.assert_allclose(values[:, 0], 1.0, atol=1e-12)

    def test_hermite_at_one(self):
        s = multi_index_set(1, 1, 2)
        basis = whiten(np.array([[1.0, 0, 1], [0, 1, 0], [1, 0, 3]]), s)
        np.testing.assert_allclose(basis.evaluate(np.array([[1.0]]))[0], [1, 1, 0], atol=1e-12)

    def test_orthonormality_on_independent_stream(self, corr09):
        # Degree-6 sample moments at 1e6 quasi-MC points carry ~1e-3
        # stream-to-stream noise; far higher degrees drown the tolerance
        # (the acceptance suite checks m=5 against exact moments).
        q = 1 << 20
        basis = build_basis(corr09, 1, 3)
        engine = qmc.Sobol(d=2, scramble=False)
        engine.fast_forward(1)  # the all-zeros point maps to -inf under ndtri
        points = corr09.transform_gauss(ndtri(engine.random(2 * q)))
        acc = np.zeros((len(basis), len(basis)))
        for start in range(q, 2 * q, 1 << 17):  # the points after the first q
            v = basis.evaluate(points[start:start + (1 << 17)])
            acc += v.T @ v
        residual = acc / q - np.eye(len(basis))
        assert np.max(np.abs(residual)) <= 5e-3

    def test_nesting_property(self, corr09):
        low = build_basis(corr09, 1, 2)
        high = build_basis(corr09, 1, 3)
        pts = np.random.default_rng(2).normal(0, 2, size=(20, 2))
        low_values = low.evaluate(pts)
        high_values = high.evaluate(pts)
        np.testing.assert_allclose(
            high_values[:, : len(low)], low_values, atol=1e-10
        )

    def test_independent_gaussian_reproduces_tensor_hermite(self):
        from numpy.polynomial.hermite_e import hermeval

        s = multi_index_set(2, 2, 3)
        basis = whiten(analytic_gaussian_gram(s), s)
        pts = np.random.default_rng(4).normal(size=(20, 2))
        values = basis.evaluate(pts)

        def hermite_norm(n, x):
            coeffs = [0] * n + [1]
            return hermeval(x, coeffs) / math.sqrt(math.factorial(n))

        for col, j in enumerate(s.indices):
            expected = hermite_norm(j[0], pts[:, 0]) * hermite_norm(j[1], pts[:, 1])
            np.testing.assert_allclose(values[:, col], expected, atol=1e-8)


def _gram(basis, moment):
    """Moment matrix ``G[a, b] = moment(j_a + j_b)`` over the basis's index set."""
    idx = basis.index_set.indices
    return np.array([[moment(a + b) for b in idx] for a in idx])


def _orthonormality_error(basis, gram):
    """max |W G W^T - I|."""
    residual = basis.whitening @ gram @ basis.whitening.T - np.eye(len(basis))
    return float(np.max(np.abs(residual)))


class TestExactMoments:
    def test_gauss_hermite_rule_is_numpys_bit_for_bit(self):
        # The basis takes its rules from a port of numpy's ``hermegauss``;
        # every node count it can ask for must give numpy's bits, signed
        # zeros included.
        from numpy.polynomial.hermite_e import hermegauss

        for deg in range(1, basis_mod._UNIFORM_MAX_NODES + 1):
            ours, numpys = _hermegauss.hermegauss(deg), hermegauss(deg)
            assert [a.tobytes() for a in ours] == [a.tobytes() for a in numpys], deg

    def test_correlated_oracle_reduces_to_independent(self):
        s = multi_index_set(2, 2, 4)
        np.testing.assert_allclose(
            correlated_gaussian_gram(s, 1.0, 0.0), analytic_gaussian_gram(s), rtol=1e-15
        )

    def test_negatively_correlated_gaussian_pair_interactions(self):
        # The acceptance suite checks univariate terms at rho = 0.9; this
        # adds bivariate terms (S = 2) and a negative correlation.
        std, rho = 1.5, -0.5
        model = InputModel([Gaussian(0, std)] * 2, [[1, rho], [rho, 1]])
        basis = build_basis(model, 2, 6)
        gram = correlated_gaussian_gram(basis.index_set, std, rho)
        assert _orthonormality_error(basis, gram) <= 1e-8

    def test_uniform_marginal(self):
        lo, hi = -1.0, 3.0
        basis = build_basis(InputModel([Uniform(lo, hi)]), 1, 4)

        def moment(j):
            p = int(j[0])
            return (hi ** (p + 1) - lo ** (p + 1)) / ((p + 1) * (hi - lo))

        assert _orthonormality_error(basis, _gram(basis, moment)) <= 1e-8

    def test_lognormal_marginal(self):
        marginal = Lognormal(2.0, 30.0)
        basis = build_basis(InputModel([marginal]), 1, 4)

        def moment(j):
            p = int(j[0])
            return math.exp(p * marginal.mu_log + 0.5 * (p * marginal.sigma_log) ** 2)

        assert _orthonormality_error(basis, _gram(basis, moment)) <= 1e-8

    def test_correlated_gaussian_lognormal_pair(self):
        mean, std, rho = 1.0, 2.0, 0.6
        marginal = Lognormal(2.0, 30.0)
        model = InputModel([Gaussian(mean, std), marginal], [[1, rho], [rho, 1]])
        basis = build_basis(model, 1, 3)

        def moment(j):
            # With t = b sigma_log, E[Z1^k e^{t Z2}] = e^{t^2/2} E[(Z + rho t)^k].
            a, b = int(j[0]), int(j[1])
            t = b * marginal.sigma_log
            centre = mean + std * rho * t
            poly = sum(
                math.comb(a, k) * centre ** (a - k) * std**k * gaussian_moment(k)
                for k in range(a + 1)
            )
            return math.exp(b * marginal.mu_log + 0.5 * t * t) * poly

        assert _orthonormality_error(basis, _gram(basis, moment)) <= 1e-8

    def test_unconverged_uniform_moment_warns(self):
        # Four correlated uniform axes: already 32^4 grid points, so the
        # node count cannot double and the fallback must say so.
        corr = np.full((4, 4), 0.3) + 0.7 * np.eye(4)
        model = InputModel([Uniform(0.0, 1.0)] * 4, corr)
        with pytest.warns(RuntimeWarning, match="did not converge"):
            build_basis(model, 2, 2)

    @pytest.mark.parametrize("axes", [5, 6])
    def test_oversized_grid_falls_back_to_sampled_moments(self, axes, monkeypatch):
        # At S = 3 some entry couples five mutually correlated uniform axes,
        # whose first grid would hold 32^5 points (over a gigabyte): the
        # basis is refused before any moment is integrated.
        corr = np.full((axes, axes), 0.3) + 0.7 * np.eye(axes)
        model = InputModel([Uniform(0.0, 1.0)] * axes, corr)

        def integrate(*args):
            raise AssertionError("a moment was integrated before the grids were checked")

        monkeypatch.setattr(basis_mod, "_group_moment", integrate)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                build_basis(model, 3, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert str(err.value) == (
            "the moment with exponents {0: 1, 1: 1, 2: 1, 3: 1, 4: 1} needs "
            f"{32**5} Gauss-Hermite points, more than the cap of {1 << 20}"
        )

    @pytest.mark.parametrize(
        "kinds, blocks, named",
        [
            # Two blocks of five interleaved: coordinate 0's block comes first
            # in both the entry order and the block order.
            pytest.param("u", [[0, 2, 4, 6, 8], [1, 3, 5, 7, 9]], [0, 2, 4, 6, 8], id="interleaved"),
            # Coordinate 0 is Gaussian, so its block's first oversized moment
            # is over 3..7, in a later entry than the other block's.
            pytest.param("gu", [[0, 3, 4, 5, 6, 7], [1, 2, 8, 9, 10]], [1, 2, 8, 9, 10],
                         id="later-block-first"),
        ],
    )
    def test_oversized_grid_refusal_names_the_earliest_entry(self, kinds, blocks, named,
                                                             monkeypatch):
        # Across dependence blocks, the refused moment is the one that the
        # earliest entry of G's upper triangle needs.
        dimension = sum(map(len, blocks))
        corr = _correlated(dimension, [p for b in blocks for p in itertools.combinations(b, 2)], 0.3)
        model = InputModel(
            [Gaussian(0.0, 1.0) if k == 0 and kinds == "gu" else Uniform(0.0, 1.0)
             for k in range(dimension)],
            corr,
        )

        def integrate(*args):
            raise AssertionError("a moment was integrated before the grids were checked")

        monkeypatch.setattr(basis_mod, "_group_moment", integrate)
        with pytest.raises(ValueError) as err:
            build_basis(model, 3, 3)
        assert str(err.value) == (
            f"the moment with exponents {dict.fromkeys(named, 1)} needs "
            f"{32**5} Gauss-Hermite points, more than the cap of {1 << 20}"
        )

    def test_quadrature_and_seed_recorded_but_inert(self, corr09):
        # The basis is a function of the model and the orders alone: it takes
        # no sample count and no seed, and its provenance records neither.
        basis = build_basis(corr09, 1, 3)
        assert basis.provenance == {"jittered": False, "coordinate_scales": [2.0, 2.0]}
        with pytest.raises(TypeError):
            build_basis(corr09, 1, 3, quadrature=12_345)
        with pytest.raises(TypeError):
            build_basis(corr09, 1, 3, seed=6)
        with pytest.raises(TypeError):
            whiten(np.eye(len(basis)), basis.index_set, provenance={"moments": "exact"})
        assert not hasattr(inputs, "iter_sample_blocks")


class TestSerialization:
    def test_round_trip(self, corr09):
        basis = build_basis(corr09, 1, 2)
        loaded = OrthonormalBasis.from_dict(json.loads(json.dumps(basis.to_dict())))
        np.testing.assert_array_equal(loaded.whitening, basis.whitening)
        np.testing.assert_array_equal(loaded.index_set.indices, basis.index_set.indices)
        assert loaded.provenance == basis.provenance == {"jittered": False,
                                                         "coordinate_scales": [2.0, 2.0]}
        with pytest.raises(TypeError):
            build_basis(corr09, 1, 2, quadrature=30_000)

    def test_version_mismatch(self, corr09):
        basis = build_basis(corr09, 1, 1)
        payload = basis.to_dict()
        payload["version"] = 999
        with pytest.raises(ArtifactError):
            OrthonormalBasis.from_dict(payload)

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda p: p.pop("indices"),
            lambda p: p.pop("whitening"),
            lambda p: p.update(whitening=p["whitening"][:-1]),
            lambda p: p.update(indices=[row[:1] for row in p["indices"]]),
        ],
    )
    def test_malformed_artifact_refused(self, corr09, tamper):
        payload = build_basis(corr09, 1, 1).to_dict()
        tamper(payload)
        with pytest.raises(ArtifactError):
            OrthonormalBasis.from_dict(payload)
