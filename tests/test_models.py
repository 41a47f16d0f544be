import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gwfam as g
from gwfam.errors import (
    DimensionMismatch,
    DuplicateSupportPoint,
    ParameterOutOfRange,
    ProbabilitiesDontSumToOne,
    ZeroVectorInSupport,
)


class TestOffspringLaw:
    def test_mitosis_p1_law(self):
        law = g.offspring_law([((2, 0), 0.64), ((1, 1), 0.32), ((0, 2), 0.04)])
        assert law.n_points == 3
        assert law.prob_of((2, 0)) == pytest.approx(0.64, abs=1e-15)
        assert abs(law.probs.sum() - 1.0) <= 1e-12

    def test_support_lookup_shared_by_every_table(self, mitosis97):
        # the law, its size-biased limit and the pair table look vectors up
        # the same way: a row for each support point, 0.0 off support
        law = mitosis97.laws[0]
        ps = g.size_biased_pmf(mitosis97, g.perron(g.reproduction_matrix(mitosis97)))
        pair = g.pair_pmf_exact(mitosis97, (1, 1))
        for table in (law, ps, pair):
            for j, v in enumerate(table.vectors.tolist()):
                assert table.row_of(v) == table.row_of(np.array(v)) == j
            assert table.row_of((3, 0)) is None and table.row_of((1, 1, 0)) is None
        for table in (law, ps):
            assert table.prob_of((1, 1)) == float(table.probs[1])
            assert table.prob_of((3, 0)) == 0.0 and table.prob_of((2,)) == 0.0
        assert pair.prob_of((1, 1), (2, 0)) == float(pair.table[1, 2])
        assert pair.prob_of((1, 1), (3, 0)) == 0.0 == pair.prob_of((0, 0), (1, 1))
        assert law.sizes.tolist() == ps.sizes.tolist() == pair.sizes.tolist() == [2, 2, 2]

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorInSupport):
            g.offspring_law([((0, 0), 1.0)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateSupportPoint):
            g.offspring_law([((1, 0), 0.5), ((1, 0), 0.5)])

    def test_bad_sum_rejected(self):
        with pytest.raises(ProbabilitiesDontSumToOne):
            g.offspring_law([((1, 0), 0.5), ((0, 1), 0.4)])

    def test_near_one_sum_renormalized(self):
        law = g.offspring_law([((1, 0), 0.5 + 2e-10), ((0, 1), 0.5)])
        assert abs(law.probs.sum() - 1.0) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            g.offspring_law([((1, 0), 0.5), ((0, 1, 0), 0.5)])

    def test_nonpositive_probability(self):
        with pytest.raises(ValueError):
            g.offspring_law([((1, 0), 0.0), ((0, 1), 1.0)])

    def test_mean_point_mass(self):
        law = g.offspring_law([((3, 1), 1.0)])
        assert law.mean().tolist() == [3.0, 1.0]
        assert law.inverse_moment() == pytest.approx(0.25)

    def test_inverse_moment_two_terms(self):
        law = g.offspring_law([((1, 0), 0.5), ((3, 0), 0.5)])
        assert law.inverse_moment() == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_inverse_moment_point_mass_single(self):
        law = g.offspring_law([((1, 0), 1.0)])
        assert law.inverse_moment() == 1.0

    @given(
        st.lists(
            st.tuples(
                st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda v: sum(v) > 0),
                st.floats(0.01, 1.0),
            ),
            min_size=1,
            max_size=6,
            unique_by=lambda e: e[0],
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_moments_match_bruteforce(self, entries):
        total = sum(p for _, p in entries)
        entries = [(v, p / total) for v, p in entries]
        law = g.offspring_law(entries)
        mean = np.zeros(2)
        inv = 0.0
        second = 0.0
        for v, p in entries:
            mean += p * np.array(v)
            inv += p / sum(v)
            second += p * sum(v) ** 2
        assert law.mean() == pytest.approx(mean, abs=1e-12)
        assert law.inverse_moment() == pytest.approx(inv, abs=1e-12)
        assert law.second_moment() == pytest.approx(second, abs=1e-12)


class TestMitosisModel:
    def test_standard_parameters(self):
        m = g.mitosis_model(0.8, 0.8)
        p1, p2 = m.laws
        assert p1.prob_of((2, 0)) == pytest.approx(0.64)
        assert p1.prob_of((1, 1)) == pytest.approx(0.32)
        assert p1.prob_of((0, 2)) == pytest.approx(0.04)
        # mirrored marked-parent law
        assert p2.prob_of((2, 0)) == pytest.approx(0.04)
        assert p2.prob_of((0, 2)) == pytest.approx(0.64)

    def test_symmetric_case(self):
        m = g.mitosis_model(0.5, 0.5)
        for law in m.laws:
            assert law.prob_of((2, 0)) == pytest.approx(0.25)
            assert law.prob_of((1, 1)) == pytest.approx(0.5)
            assert law.prob_of((0, 2)) == pytest.approx(0.25)

    def test_boundary_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            g.mitosis_model(1.0, 0.5)
        with pytest.raises(ParameterOutOfRange):
            g.mitosis_model(0.5, 0.0)

    def test_every_family_has_two_members(self):
        m = g.mitosis_model(0.3, 0.7)
        for law in m.laws:
            assert law.n_points == 3
            assert set(law.sizes.tolist()) == {2}


class TestRdsModel:
    def test_referral_distributions(self, rds):
        # type A and D share one referral law, B and C the other
        pi_ad = (0.026785714, 0.008928571, 0.178571429, 0.785714286)
        pi_bc = (0.02631579, 0.02631579, 0.17543860, 0.77192982)
        h10 = sum(1.0 / k for k in range(1, 11))
        mean_a = rds.laws[0].mean()
        assert np.allclose(mean_a, np.array(pi_ad) * (10.0 / h10), atol=1e-7)
        h7 = sum(1.0 / k for k in range(1, 8))
        mean_c = rds.laws[2].mean()
        assert np.allclose(mean_c, np.array(pi_bc) * (7.0 / h7), atol=1e-7)

    def test_expected_survey_count(self, rds):
        h10 = sum(1.0 / k for k in range(1, 11))
        assert 10.0 / h10 == pytest.approx(3.4141715, abs=1e-6)
        assert rds.laws[0].mean().sum() == pytest.approx(10.0 / h10, abs=1e-10)

    def test_pmfs_sum_to_one(self, rds):
        for law in rds.laws:
            assert abs(law.probs.sum() - 1.0) <= 1e-12

    def test_wald_identity_exact(self, rds):
        # mean vector = E(surveys) * referral distribution, componentwise
        from gwfam.models import RDS_MAX_SURVEYS

        for x, cap in enumerate(RDS_MAX_SURVEYS):
            law = rds.laws[x]
            mean = law.mean()
            e_n = float((law.probs * law.sizes).sum())
            pi = mean / e_n
            assert np.abs(mean - e_n * pi).max() <= 1e-12
            harmonic = sum(1.0 / k for k in range(1, cap + 1))
            assert e_n == pytest.approx(cap / harmonic, abs=1e-10)

    def test_support_sizes(self, rds):
        assert rds.laws[0].n_points == 1000
        assert rds.laws[2].n_points == sum(
            math.comb(k + 3, 3) for k in range(1, 8)
        )

    def test_bad_proportions(self):
        with pytest.raises(ParameterOutOfRange):
            g.rds_model(pop_props=(0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ParameterOutOfRange):
            g.rds_model(max_surveys=(10, 10, 0, 5))
        # a fractional cap is rejected, not truncated
        with pytest.raises(ParameterOutOfRange):
            g.rds_model(max_surveys=(3.5, 3, 3, 3))


class TestValidateModel:
    def test_mitosis_report(self, mitosis88):
        rep = g.validate_model(mitosis88)
        assert rep.assumption1_ok and rep.assumption2_ok and rep.ok
        assert rep.rho == pytest.approx(2.0, abs=1e-10)
        assert rep.inverse_moment_bound == pytest.approx(0.5)
        assert rep.max_alpha == pytest.approx(1.0, abs=1e-12)
        assert rep.second_moment_bound == pytest.approx(4.0)

    def test_positive_regularity_any_interior_params(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, t = rng.uniform(0.05, 0.95, size=2)
            assert g.validate_model(g.mitosis_model(a, t)).positively_regular

    def test_degenerate_single_child_laws_fail_assumption1(self):
        e1 = g.offspring_law([((1, 0), 1.0)])
        model = g.branching_model([e1, e1])
        rep = g.validate_model(model)
        assert not rep.assumption1_ok
        assert not rep.ok
        assert rep.messages

    def test_rds_report(self, rds):
        rep = g.validate_model(rds)
        assert rep.ok
        assert rep.rho == pytest.approx(2.328872, abs=1e-5)
        assert rep.max_alpha == pytest.approx(0.526, abs=1e-3)


class TestModelFiles:
    def test_round_trip(self, tmp_path, mitosis88):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(g.model_to_dict(mitosis88)))
        loaded = g.load_model(path)
        for a, b in zip(loaded.laws, mitosis88.laws):
            assert (a.vectors == b.vectors).all()
            assert np.allclose(a.probs, b.probs)
        assert loaded.type_names == mitosis88.type_names

    def test_builtin_dict(self):
        m = g.model_from_dict({"builtin": "mitosis", "params": {"alpha": 0.9, "theta": 0.7}})
        assert m.laws[0].prob_of((2, 0)) == pytest.approx(0.49)

    def test_parse_model_arg(self):
        m = g.parse_model_arg("mitosis:alpha=0.9,theta=0.7")
        assert m.laws[0].prob_of((2, 0)) == pytest.approx(0.49)

    def test_parse_model_arg_file(self, tmp_path, mitosis88):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(g.model_to_dict(mitosis88)))
        m = g.parse_model_arg(str(path))
        assert m.type_names == mitosis88.type_names
