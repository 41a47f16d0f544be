import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gwfam as g
from gwfam.errors import (
    EnumerationTooLarge,
    InvalidArgument,
    InvalidSampleSize,
    SampleExceedsPopulation,
)
from gwfam.sampling import SampleSizeRule, _distinct_uniform_indices
from gwfam.simulate import SeedSpec
from tests_support import (
    all_family_size_lists,
    elementary_symmetric,
    mitosis_prob_distinct,
    random_small_model,
)


def brute_force_prob_distinct(sizes, r) -> Fraction:
    total = sum(sizes)
    if r > total:
        raise ValueError
    numer = sum(
        math.prod(combo) for combo in itertools.combinations(sizes, r)
    )
    return Fraction(numer, math.comb(total, r))


class TestDrawFamilySample:
    def test_census_reports_each_family_with_multiplicity(self, mitosis88):
        trace = g.simulate_aggregate(mitosis88, (2, 1), 1, SeedSpec(5))
        sample = g.draw_family_sample(trace, 6, SeedSpec(5))
        parents = Counter(zip(sample.parent_types.tolist(), sample.parent_indices.tolist()))
        assert sum(parents.values()) == 6
        assert set(parents.values()) == {2}  # every mitosis family has two members
        assert not g.is_non_sibling(sample)

    def test_exhaustive_two_family_case(self):
        model = g.branching_model(
            [g.offspring_law([((1, 1), 1.0)]), g.offspring_law([((2, 0), 1.0)])]
        )
        trace = g.simulate_aggregate(model, (1, 1), 1, SeedSpec(6))
        sample = g.draw_family_sample(trace, 4, SeedSpec(6))
        broods = Counter(tuple(b) for b in sample.broods.tolist())
        assert broods == {(1, 1): 2, (2, 0): 2}

    def test_sample_too_large(self, mitosis88):
        trace = g.simulate_aggregate(mitosis88, (1, 1), 1, SeedSpec(7))
        with pytest.raises(SampleExceedsPopulation):
            g.draw_family_sample(trace, 5, SeedSpec(7))

    def test_selection_is_uniform(self, mitosis88):
        # 4 children; every 2-subset should appear with frequency 1/6
        model = g.branching_model(
            [g.offspring_law([((1, 1), 1.0)]), g.offspring_law([((2, 0), 1.0)])]
        )
        reps = 6000
        counts = Counter()
        trace = g.simulate_aggregate(model, (1, 1), 1, SeedSpec(8))
        for k in range(reps):
            s = g.draw_family_sample(trace, 2, SeedSpec(8, replicate=k))
            key = tuple(sorted(zip(s.parent_types.tolist(), s.parent_indices.tolist())))
            counts[key] += 1
        # pairs of (family, family): (0,0)x2 -> within family 0; etc.
        expected = {
            ((0, 0), (0, 0)): 1 / 6,
            ((1, 0), (1, 0)): 1 / 6,
            ((0, 0), (1, 0)): 4 / 6,
        }
        for key, p in expected.items():
            sd = math.sqrt(p * (1 - p) / reps)
            assert abs(counts[key] / reps - p) <= 4 * sd

    def test_floyd_indices_distinct_and_in_range(self):
        rng = np.random.default_rng(0)
        for n, r in [(10, 10), (100, 7), (2**21, 400)]:
            idx = _distinct_uniform_indices(rng, n, r)
            assert len(idx) == r
            assert len(set(idx.tolist())) == r
            assert idx.min() >= 0 and idx.max() < n
            assert (np.diff(idx) > 0).all()

    def test_floyd_single_call_matches_scalar_draws(self):
        # the one vectorized call draws exactly what r scalar calls drew
        def scalar_floyd(rng, n, r):
            chosen = set()
            for j in range(n - r, n):
                t = int(rng.integers(0, j + 1))
                chosen.add(j if t in chosen else t)
            return sorted(chosen)

        for n, r in [(1, 1), (5, 0), (10, 10), (100, 7), (2**21, 400), (2**32 + 3, 300), (2**40, 400)]:
            for s in range(3):
                expected = scalar_floyd(np.random.default_rng(s), n, r)
                got = _distinct_uniform_indices(np.random.default_rng(s), n, r)
                assert got.tolist() == expected

    def test_matches_pair_oracle_at_small_scale(self, mitosis88):
        # every ordered cell (X1, X2) against the exact two-individual law;
        # off-diagonal cells would expose a sample whose order is not random
        z_prev = (1, 1)
        oracle = g.pair_pmf_exact(mitosis88, z_prev)
        reps = 20_000
        hits = Counter()
        for k in range(reps):
            seed = SeedSpec(77, replicate=k)
            trace = g.simulate_aggregate(mitosis88, z_prev, 1, seed)
            s = g.draw_family_sample(trace, 2, seed)
            hits[tuple(s.broods[0].tolist()), tuple(s.broods[1].tolist())] += 1
        vectors = [tuple(v) for v in oracle.vectors.tolist()]
        assert len(vectors) == 3
        for u in vectors:
            for v in vectors:
                target = oracle.prob_of(u, v)
                sd = math.sqrt(target * (1 - target) / reps)
                assert abs(hits[u, v] / reps - target) <= 4 * sd, (u, v)

    @pytest.mark.parametrize("model_seed, parents", [(0, 4), (9, 3)])
    def test_matches_pair_oracle_on_random_models(self, model_seed, parents):
        # every ordered cell of the support union, cells no brood pair reaches
        # included; seed 0 has three types and parents (2, 1, 1), seed 9 two
        # types and parents (2, 1), every law with two or three support points
        model = random_small_model(np.random.default_rng(model_seed))
        z_prev = [0] * model.n_types
        for j in range(parents):
            z_prev[j % model.n_types] += 1
        oracle = g.pair_pmf_exact(model, z_prev)
        reps = 20_000
        hits = Counter()
        for k in range(reps):
            seed = SeedSpec(model_seed, replicate=k)
            trace = g.simulate_aggregate(model, z_prev, 1, seed)
            s = g.draw_family_sample(trace, 2, seed)
            hits[tuple(s.broods[0].tolist()), tuple(s.broods[1].tolist())] += 1
        vectors = [tuple(v) for v in oracle.vectors.tolist()]
        assert set(hits) <= {(u, v) for u in vectors for v in vectors}
        for u in vectors:
            for v in vectors:
                target = oracle.prob_of(u, v)
                sd = math.sqrt(target * (1 - target) / reps)
                assert abs(hits[u, v] / reps - target) <= 5 * sd, (u, v, target)


class TestIsNonSibling:
    def test_distinct_parents(self):
        sample = g.FamilySample(
            broods=np.array([[1, 1], [2, 0]]),
            parent_types=np.array([0, 1]),
            parent_indices=np.array([0, 0]),
        )
        assert g.is_non_sibling(sample)

    def test_shared_parent(self):
        sample = g.FamilySample(
            broods=np.array([[1, 1], [1, 1]]),
            parent_types=np.array([0, 0]),
            parent_indices=np.array([0, 0]),
        )
        assert not g.is_non_sibling(sample)


class TestProbDistinctExact:
    def test_spot_values(self):
        assert g.prob_distinct_exact([2, 1, 3], 2) == Fraction(11, 15)
        assert g.prob_distinct_exact([1, 1, 1], 3) == 1
        assert g.prob_distinct_exact([3], 2) == 0
        assert g.prob_distinct_exact([2, 2], 2) == Fraction(2, 3)

    def test_r_at_most_one(self):
        assert g.prob_distinct_exact([5, 2], 0) == 1
        assert g.prob_distinct_exact([5, 2], 1) == 1

    def test_invalid_r(self):
        with pytest.raises(InvalidSampleSize):
            g.prob_distinct_exact([2, 2], 5)
        with pytest.raises(InvalidSampleSize):
            g.prob_distinct_exact([2, 2], -1)

    def test_accepts_size_counts(self):
        assert g.prob_distinct_exact({2: 8}, 2) == Fraction(14, 15)

    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=8),
        st.integers(0, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce(self, sizes, r):
        if r > sum(sizes):
            return
        assert g.prob_distinct_exact(sizes, r) == brute_force_prob_distinct(sizes, r)

    @given(st.lists(st.integers(1, 5), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_monotone_nonincreasing_in_r(self, sizes):
        values = [g.prob_distinct_exact(sizes, r) for r in range(sum(sizes) + 1)]
        assert values[0] == values[1] == 1
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_elementary_symmetric_dp_agrees_with_grouped_path(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            sizes = rng.integers(1, 6, size=rng.integers(1, 10)).tolist()
            r = int(rng.integers(0, len(sizes) + 1))
            e_dp = elementary_symmetric(sizes, r)
            total = sum(sizes)
            if r <= total:
                assert g.prob_distinct_exact(sizes, r) == Fraction(
                    e_dp, math.comb(total, r)
                )


def relative_gap(value: float, exact: Fraction) -> float:
    if exact == 0:
        return abs(value)
    return float(abs(Fraction(value) - exact) / exact)


# The float path against the big-integer oracle; the benchmark's replay
# gate is the same 1e-12.
PROB_REL_GATE = 1e-12


class TestProbDistinct:
    def test_spot_values(self):
        assert g.prob_distinct([2, 1, 3], 2) == pytest.approx(11 / 15, rel=1e-15)
        assert g.prob_distinct([1, 1, 1], 3) == 1.0
        assert g.prob_distinct([3], 2) == 0.0
        assert g.prob_distinct({2: 8}, 2) == pytest.approx(14 / 15, rel=1e-15)
        assert g.prob_distinct({5: 2, 7: 0}, 1) == 1.0
        assert isinstance(g.prob_distinct({2: 8}, 2), float)

    def test_same_errors_as_exact(self):
        for sizes, r, error in [
            ([2, 2], 5, InvalidSampleSize),
            ([2, 2], -1, InvalidSampleSize),
            ({2: 3}, 7, InvalidSampleSize),
            ([0, 2], 1, ValueError),
            ({-1: 2}, 1, ValueError),
            ([2.5, 1], 2, InvalidArgument),
            ({2: 1.5}, 1, InvalidArgument),
            ([2, 2], 1.7, InvalidArgument),
            ({2: -3, 1: 2}, 1, InvalidArgument),
        ]:
            with pytest.raises(error):
                g.prob_distinct_exact(sizes, r)
            with pytest.raises(error):
                g.prob_distinct(sizes, r)

    def test_numpy_and_integral_float_inputs(self):
        for sizes, r in [(np.array([2, 1, 3]), np.int64(2)), ([2.0, 1, 3], 2.0)]:
            assert g.prob_distinct_exact(sizes, r) == Fraction(11, 15)
            assert g.prob_distinct(sizes, r) == pytest.approx(11 / 15, rel=1e-15)

    def test_every_family_sampled(self):
        # r = F families: the product's top coefficient, prod s^c / C(N, F)
        for counts in [{1: 3, 2: 5, 7: 2}, {3: 40}, {1: 1, 9: 30, 4: 12}]:
            f = sum(counts.values())
            n_total = sum(s * c for s, c in counts.items())
            exact = Fraction(math.prod(s**c for s, c in counts.items()), math.comb(n_total, f))
            assert g.prob_distinct_exact(counts, f) == exact
            assert relative_gap(g.prob_distinct(counts, f), exact) <= PROB_REL_GATE
            assert g.prob_distinct(counts, f + 1) == 0.0
            assert g.prob_distinct_exact(counts, f + 1) == 0

    def test_singletons_are_always_distinct(self):
        for n_total in (1, 2, 7, 600):
            for r in range(n_total + 1):
                assert g.prob_distinct({1: n_total}, r) == 1.0
        assert g.prob_distinct([1] * 9, 9) == 1.0

    def test_independent_of_dict_order(self):
        counts = {7: 3, 2: 40, 5: 11, 1: 9, 3: 25}
        value = g.prob_distinct(counts, 60)
        rng = np.random.default_rng(8)
        for _ in range(5):
            keys = rng.permutation(list(counts)).tolist()
            assert g.prob_distinct({s: counts[s] for s in keys}, 60) == value
        assert relative_gap(value, g.prob_distinct_exact(counts, 60)) <= PROB_REL_GATE

    def test_criterion_06_size_lists(self):
        worst = 0.0
        for sizes in all_family_size_lists():
            for r in range(0, min(4, sum(sizes)) + 1):
                gap = relative_gap(g.prob_distinct(sizes, r), g.prob_distinct_exact(sizes, r))
                worst = max(worst, gap)
        assert worst <= PROB_REL_GATE

    @given(
        st.dictionaries(st.integers(1, 12), st.integers(1, 50), min_size=1, max_size=4),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_on_random_multisets(self, counts, data):
        r = data.draw(st.integers(0, sum(s * c for s, c in counts.items())), label="r")
        exact = g.prob_distinct_exact(counts, r)
        assert relative_gap(g.prob_distinct(counts, r), exact) <= PROB_REL_GATE

    def test_long_binomial_rows_and_tiny_values(self):
        # rows longer than one 512-ratio run, and probabilities far below
        # the hypothesis draws' typical range
        for counts, r in [({1: 300, 2: 300, 5: 200}, 700), ({2: 2000}, 1300)]:
            exact = g.prob_distinct_exact(counts, r)
            assert 0 < exact < 1e-100
            assert relative_gap(g.prob_distinct(counts, r), exact) <= PROB_REL_GATE

    def test_matches_mitosis_closed_form(self):
        # 2^n families of two children: one size group, so this is the
        # group's own distinct-draw product rho_r alone
        for n in range(8, 21):
            got = g.prob_distinct({2: 2**n}, n * n)
            assert relative_gap(got, mitosis_prob_distinct(n, n * n)) <= PROB_REL_GATE

    def test_matches_exact_on_rds_at_paper_depth(self, rds):
        # |Z_20| is about 1e8 over ten family sizes; r = 400
        for k in range(3):
            trace = g.simulate_aggregate(rds, (1, 1, 1, 1), 20, SeedSpec(2020, replicate=k))
            counts = trace.family_size_counts()
            assert len(counts) == 10
            exact = g.prob_distinct_exact(counts, 400)
            assert relative_gap(g.prob_distinct(counts, 400), exact) <= PROB_REL_GATE


def prob_distinct_values(model, z0, n, r, replicates, master_seed):
    # P(D_n) given each replicate tree's family sizes
    return [
        g.prob_distinct(
            g.simulate_aggregate(model, z0, n, SeedSpec(master_seed, replicate=k))
            .family_size_counts(),
            r,
        )
        for k in range(replicates)
    ]


class TestEstimateProbDistinct:
    def test_mitosis_depth_three_exact(self, mitosis88):
        # 8 families of two children: zero Monte Carlo variance
        values = prob_distinct_values(mitosis88, (1, 1), 3, 2, 5, 2)
        assert np.mean(values) == pytest.approx(14.0 / 15.0, abs=1e-15)
        assert max(values) - min(values) <= 1e-12

    def test_r_one_is_certain(self, rds):
        assert np.mean(prob_distinct_values(rds, (1, 1, 1, 1), 3, 1, 3, 3)) == 1.0

    def test_trend_toward_one(self, mitosis88):
        rule = SampleSizeRule()  # r_n = n^2
        estimates = []
        for n in (8, 10, 12, 14, 18, 20):
            r = rule.sample_size(n)
            estimate = np.mean(prob_distinct_values(mitosis88, (1, 1), n, r, 2, 4))
            estimates.append(estimate)
            # every estimate equals the zero-variance closed form
            assert estimate == pytest.approx(float(mitosis_prob_distinct(n, r)), rel=1e-12)
        # the union bound 1 - r^2 rho^-n is positive only once the validity
        # ratio is below 1: 0.60 at n = 18 and 0.85 at n = 20
        for n, estimate in zip((18, 20), estimates[4:]):
            lower = 1.0 - rule.sample_size(n) ** 2 / 2.0**n
            assert lower > 0
            assert estimate >= lower
        assert all(a < b for a, b in zip(estimates, estimates[1:]))

    def test_indicator_frequency_consistent_with_exact(self, rds):
        # Monte Carlo of the 0/1 indicator vs the conditional-exact average
        n, r, reps = 6, 30, 150
        hits = 0
        values = []
        for k in range(reps):
            seed = SeedSpec(5, replicate=k)
            trace = g.simulate_aggregate(rds, (1, 1, 1, 1), n, seed)
            values.append(g.prob_distinct(trace.family_size_counts(), r))
            sample = g.draw_family_sample(trace, r, seed)
            hits += g.is_non_sibling(sample)
        freq = hits / reps
        estimate = float(np.mean(values))
        sigma = math.sqrt(max(estimate * (1 - estimate), 1e-4) / reps)
        assert abs(freq - estimate) <= 4 * sigma


class TestSampleSizeRule:
    def test_polynomial_default(self):
        rule = SampleSizeRule()
        assert rule.sample_size(20) == 400
        assert rule.validity(8, 2.0) == pytest.approx(64.0**2 / 2.0**8)

    def test_fixed(self):
        assert SampleSizeRule(kind="fixed", size=7).sample_size(99) == 7

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidSampleSize):
            SampleSizeRule(kind="fixed", size=0).sample_size(4)

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(InvalidSampleSize):
            SampleSizeRule(kind="bogus")
        with pytest.raises(InvalidSampleSize):
            SampleSizeRule.from_dict({"kind": "bogus"})

    @pytest.mark.parametrize("exponent", [math.nan, math.inf, -math.inf])
    def test_non_finite_exponent_rejected_at_construction(self, exponent):
        with pytest.raises(InvalidSampleSize):
            SampleSizeRule(exponent=exponent)

    def test_unrepresentable_size_rejected(self):
        with pytest.raises(InvalidSampleSize):
            SampleSizeRule(exponent=1e308).sample_size(2)

    def test_round_trip(self):
        rule = SampleSizeRule(kind="polynomial", exponent=1.5)
        assert SampleSizeRule.from_dict(rule.to_dict()) == rule


class TestPairPmf:
    def test_normalized_and_symmetric(self, mitosis88):
        table = g.pair_pmf_exact(mitosis88, (1, 1))
        assert table.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(table.table - table.table.T).max() <= 1e-12

    def test_matches_closed_form(self, mitosis88):
        for z_prev in [(1, 1), (2, 0), (2, 1)]:
            enum = g.pair_pmf_exact(mitosis88, z_prev)
            formula = g.pair_pmf_closed_form(mitosis88, z_prev)
            assert np.abs(enum.table - formula.table).max() <= 1e-10

    def test_same_family_term_is_load_bearing(self, mitosis88):
        enum = g.pair_pmf_exact(mitosis88, (2, 0))
        broken = g.pair_pmf_closed_form(mitosis88, (2, 0), include_same_family=False)
        assert np.abs(enum.table - broken.table).max() > 1e-3

    def test_diagonal_carries_same_family_mass(self, mitosis88):
        # single size-2 family: sampling two individuals always yields u = v
        table = g.pair_pmf_exact(mitosis88, (1, 0))
        off_diag = table.table - np.diag(np.diag(table.table))
        assert np.abs(off_diag).max() == 0.0
        assert table.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_enumeration_guard(self, mitosis88):
        with pytest.raises(EnumerationTooLarge):
            g.pair_pmf_exact(mitosis88, (9, 0))

    def test_random_model_agreement(self):
        rng = np.random.default_rng(23)
        from tests_support import random_small_model

        for _ in range(10):
            model = random_small_model(rng)
            z_prev = tuple(int(x) for x in rng.integers(0, 3, size=model.n_types))
            if sum(z_prev) < 1 or sum(z_prev) > 5:
                continue
            enum = g.pair_pmf_exact(model, z_prev)
            formula = g.pair_pmf_closed_form(model, z_prev)
            assert np.abs(enum.table - formula.table).max() <= 1e-10

    @pytest.mark.parametrize("z_prev", [(1, 0, 0, 1), (0, 1, 1, 0), (2, 0, 0, 0), (1, 0, 0, 0)])
    def test_four_type_agreement(self, z_prev):
        # rds with every survey cap at 3: four types, 34 support points
        model = g.rds_model(max_surveys=(3, 3, 3, 3))
        enum = g.pair_pmf_exact(model, z_prev)
        formula = g.pair_pmf_closed_form(model, z_prev)
        assert np.abs(enum.table - formula.table).max() <= 1e-10

    def test_full_rds_is_a_symmetric_law(self, rds):
        table = g.pair_pmf_closed_form(rds, (1, 1, 1, 1))
        assert table.table.shape == (1000, 1000)
        assert table.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(table.table - table.table.T).max() <= 1e-12

    @pytest.mark.parametrize("z_prev, cap", [((1, 0, 0, 0), 10), ((0, 0, 0, 1), 5)])
    def test_single_rds_family_mass(self, rds, z_prev, cap):
        # one family of size k, P(k) = (1/k) / H_cap, yields two individuals
        # unless k = 1: the mass is 1 - 1/H_cap
        harmonic = math.fsum(1.0 / k for k in range(1, cap + 1))
        mass = g.pair_pmf_closed_form(rds, z_prev).total_mass()
        assert mass == pytest.approx(1.0 - 1.0 / harmonic, abs=1e-12)


class TestEmpiricalTv:
    def _sample_of(self, broods):
        arr = np.array(broods)
        return g.FamilySample(
            broods=arr,
            parent_types=np.zeros(len(broods), dtype=np.int64),
            parent_indices=np.arange(len(broods), dtype=np.int64),
        )

    def test_exact_match_gives_zero(self, mitosis88):
        pair = g.perron(g.reproduction_matrix(mitosis88))
        ps = g.size_biased_pmf(mitosis88, pair)
        # empirical distribution exactly 0.34 / 0.32 / 0.34 over 50 draws
        broods = [(2, 0)] * 17 + [(1, 1)] * 16 + [(0, 2)] * 17
        tv_m = g.empirical_tv_to_limit([self._sample_of(broods)], ps)
        assert tv_m == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_support_gives_one(self, mitosis88):
        pair = g.perron(g.reproduction_matrix(mitosis88))
        ps = g.size_biased_pmf(mitosis88, pair)
        tv_m = g.empirical_tv_to_limit([self._sample_of([(5, 5)] * 10)], ps)
        assert tv_m == pytest.approx(1.0, abs=1e-12)

    def test_no_broods_rejected(self, mitosis88):
        ps = g.size_biased_pmf(mitosis88, g.perron(g.reproduction_matrix(mitosis88)))
        with pytest.raises(InvalidArgument):
            g.empirical_tv_to_limit([], ps)
