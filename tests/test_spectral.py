import itertools

import numpy as np
import pytest

import gwfam as g
from gwfam.errors import InvalidArgument, NotPositivelyRegular
from tests_support import random_primitive_model

RDS_PRINTED_B = np.array([0.02667997, 0.01284096, 0.17786649, 0.78261257])


class TestReproductionMatrix:
    def test_mitosis_closed_form(self):
        for a, t in [(0.8, 0.8), (0.9, 0.7), (0.3, 0.6)]:
            m = g.reproduction_matrix(g.mitosis_model(a, t))
            expect = np.array([[2 * t, 2 * (1 - t)], [2 * (1 - a), 2 * a]])
            assert np.abs(m - expect).max() <= 1e-12

    def test_point_mass_permutation(self):
        model = g.branching_model(
            [g.offspring_law([((0, 1), 1.0)]), g.offspring_law([((1, 0), 1.0)])]
        )
        assert g.reproduction_matrix(model).tolist() == [[0.0, 1.0], [1.0, 0.0]]


class TestPositiveRegularity:
    def test_mitosis_positive(self, mitosis88):
        assert g.is_positively_regular(g.reproduction_matrix(mitosis88))

    def test_period_two_pattern(self):
        assert not g.is_positively_regular(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_rds_positive(self, rds):
        assert g.is_positively_regular(g.reproduction_matrix(rds))

    def test_reducible(self):
        assert not g.is_positively_regular(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("m", [np.ones((2, 3)), np.ones(4), np.array([[1.0, -1.0], [1.0, 1.0]])])
    def test_malformed_matrix_rejected(self, m):
        with pytest.raises(InvalidArgument):
            g.is_positively_regular(m)

    def test_primitive_needs_high_power(self):
        # cyclic shift plus one self-loop: primitive, positive only at high powers
        m = np.zeros((4, 4))
        for i in range(4):
            m[i, (i + 1) % 4] = 1.0
        m[0, 0] = 1.0
        assert g.is_positively_regular(m)

    def test_agrees_with_reachability(self):
        # oracle: pattern is primitive iff A^k > 0 for some k <= (l-1)^2 + 1,
        # checked by brute-force integer powers
        rng = np.random.default_rng(3)
        for _ in range(200):
            l = int(rng.integers(2, 6))
            pattern = (rng.random((l, l)) < 0.4).astype(float)
            power = np.eye(l, dtype=np.int64)
            boolean = pattern.astype(np.int64)
            brute = False
            for _ in range((l - 1) ** 2 + 1):
                power = np.minimum(power @ boolean, 1)
                if power.all():
                    brute = True
                    break
            assert g.is_positively_regular(pattern) == brute


class TestPerron:
    def test_mitosis_pairs(self):
        for (a, t), b1 in [((0.9, 0.7), 0.25), ((0.8, 0.9), 2.0 / 3.0)]:
            pair = g.perron(g.reproduction_matrix(g.mitosis_model(a, t)))
            assert pair.rho == pytest.approx(2.0, abs=1e-10)
            assert pair.b[0] == pytest.approx(b1, abs=1e-9)
            assert pair.residual <= 1e-10

    def test_rds_pair(self, rds):
        pair = g.perron(g.reproduction_matrix(rds))
        assert pair.rho == pytest.approx(2.328872, abs=1e-5)
        assert np.abs(pair.b - RDS_PRINTED_B).max() <= 1e-6

    def test_b_normalized(self, rds):
        pair = g.perron(g.reproduction_matrix(rds))
        assert abs(pair.b.sum() - 1.0) <= 1e-12
        assert (pair.b >= 0).all()

    def test_residual_gate_scales_with_rho(self):
        # entries near 1e7: the absolute residual of a converged pair is
        # about 1e-8, far above 1e-10 but tiny next to rho
        m = np.array([[3e7, 1e6], [7e5, 4e7]])
        pair = g.perron(m)
        assert pair.rho == pytest.approx(max(np.linalg.eigvals(m).real), rel=1e-12)
        assert pair.residual <= 1e-10 * pair.rho
        small = g.perron(m / 1e7)
        assert pair.rho == pytest.approx(1e7 * small.rho, rel=1e-12)
        assert np.abs(pair.b - small.b).max() <= 1e-12

    def test_not_positively_regular_raises(self):
        with pytest.raises(NotPositivelyRegular):
            g.perron(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            model = random_primitive_model(rng)
            m = g.reproduction_matrix(model)
            pair = g.perron(m)
            perm = rng.permutation(m.shape[0])
            m_perm = m[np.ix_(perm, perm)]
            pair_perm = g.perron(m_perm)
            assert pair_perm.rho == pytest.approx(pair.rho, abs=1e-10)
            assert np.abs(pair_perm.b - pair.b[perm]).max() <= 1e-9


class TestSizeBiasedLaw:
    def test_symmetric_mitosis(self, mitosis88):
        pair = g.perron(g.reproduction_matrix(mitosis88))
        assert np.abs(pair.b - 0.5).max() <= 1e-12
        ps = g.size_biased_pmf(mitosis88, pair)
        assert ps.prob_of((2, 0)) == pytest.approx(0.34, abs=1e-12)
        assert ps.prob_of((1, 1)) == pytest.approx(0.32, abs=1e-12)
        assert ps.prob_of((0, 2)) == pytest.approx(0.34, abs=1e-12)

    def test_asymmetric_mitosis(self, mitosis97):
        pair = g.perron(g.reproduction_matrix(mitosis97))
        ps = g.size_biased_pmf(mitosis97, pair)
        assert ps.prob_of((2, 0)) == pytest.approx(0.13, abs=1e-9)
        assert ps.prob_of((1, 1)) == pytest.approx(0.24, abs=1e-9)
        assert ps.prob_of((0, 2)) == pytest.approx(0.63, abs=1e-9)

    def test_identical_laws_reduce_to_one_dimensional_bias(self):
        # all types share one law: mass at u must be |u| p(u) / rho
        law_entries = [((2, 0), 0.3), ((1, 0), 0.5), ((1, 2), 0.2)]
        law = g.offspring_law(law_entries)
        model = g.branching_model([law, law])
        pair = g.perron(g.reproduction_matrix(model))
        ps = g.size_biased_pmf(model, pair)
        for v, p in law_entries:
            assert ps.prob_of(v) == pytest.approx(sum(v) * p / pair.rho, abs=1e-12)

    def test_moment_identities_deterministic_size(self, mitosis97):
        pair = g.perron(g.reproduction_matrix(mitosis97))
        ps = g.size_biased_pmf(mitosis97, pair)
        inv_mean, ratio_mean = g.moment_identities(ps)
        assert inv_mean == pytest.approx(0.5, abs=1e-12)  # every family has 2 members
        assert ratio_mean[0] == pytest.approx(0.25, abs=1e-9)
        assert ratio_mean[1] == pytest.approx(0.75, abs=1e-9)

    def test_moment_identities_rds(self, rds):
        pair = g.perron(g.reproduction_matrix(rds))
        ps = g.size_biased_pmf(rds, pair)
        inv_mean, ratio_mean = g.moment_identities(ps)
        assert inv_mean == pytest.approx(1.0 / pair.rho, abs=1e-9)
        assert np.abs(ratio_mean - pair.b).max() <= 1e-9


class TestAsymptoticVariances:
    def test_mitosis_inv_size_variance_zero(self, mitosis88):
        pair = g.perron(g.reproduction_matrix(mitosis88))
        var = g.asymptotic_variances(mitosis88, pair)
        assert var.inv_size_variance <= 1e-14
        assert var.degenerate

    def test_mitosis_ratio_covariance(self, mitosis88):
        pair = g.perron(g.reproduction_matrix(mitosis88))
        var = g.asymptotic_variances(mitosis88, pair)
        assert var.ratio_covariance[0, 0] == pytest.approx(0.17, abs=1e-12)
        # implied sd of the proportion estimate at r = 400
        assert np.sqrt(var.ratio_covariance[0, 0] / 400) == pytest.approx(0.0206, abs=1e-4)

    def test_rows_sum_to_zero(self, mitosis88, rds):
        for model in (mitosis88, rds):
            pair = g.perron(g.reproduction_matrix(model))
            var = g.asymptotic_variances(model, pair)
            assert np.abs(var.ratio_covariance @ np.ones(model.n_types)).max() <= 1e-10

    def test_psd_and_symmetric(self, rds):
        pair = g.perron(g.reproduction_matrix(rds))
        var = g.asymptotic_variances(rds, pair)
        sig = var.ratio_covariance
        assert np.abs(sig - sig.T).max() == 0.0
        assert np.linalg.eigvalsh(sig).min() >= -1e-10

    def test_matches_direct_size_biased_moments(self, rds):
        # the displayed formulas equal plain central moments under the law
        pair = g.perron(g.reproduction_matrix(rds))
        var = g.asymptotic_variances(rds, pair)
        ps = g.size_biased_pmf(rds, pair)
        w = ps.probs / ps.probs.sum()
        inv = 1.0 / ps.sizes
        direct_var = float(w @ (inv - w @ inv) ** 2)
        assert var.inv_size_variance == pytest.approx(direct_var, abs=1e-12)
        ratios = ps.vectors / ps.sizes[:, None]
        centered = ratios - w @ ratios
        direct_cov = (centered * w[:, None]).T @ centered
        assert np.abs(var.ratio_covariance - direct_cov).max() <= 1e-10


class TestRandomizedIdentitySuite:
    def test_identities_on_random_models(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            model = random_primitive_model(rng)
            pair = g.perron(g.reproduction_matrix(model))
            ps = g.size_biased_pmf(model, pair)
            assert abs(ps.total_mass() - 1.0) <= 1e-10
            inv_mean, ratio_mean = g.moment_identities(ps)
            assert inv_mean == pytest.approx(1.0 / pair.rho, abs=1e-9)
            assert np.abs(ratio_mean - pair.b).max() <= 1e-9
