import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gwfam as g
from gwfam.errors import (
    EmptySample,
    InvalidArgument,
    ModelConstructionFailed,
    OptimizerDiverged,
    ParameterOutOfRange,
)
from gwfam.estimators import _normal_quantile, _tally
from gwfam.simulate import SeedSpec
from gwfam.spectral import AsymptoticVariances
from tests_support import model_family

MITOSIS_BOUNDS = ((1e-6, 1.0 - 1e-6), (1e-6, 1.0 - 1e-6))
# the mitosis amle family built through the model, the oracle of the closed form
mitosis_oracle = model_family(lambda th: g.mitosis_model(th[0], th[1]), MITOSIS_BOUNDS)
MITOSIS_FAMILIES = (g.mitosis_size_biased_pmf, mitosis_oracle)


def counts_to_broods(n1, nb, n2):
    return np.array([(2, 0)] * n1 + [(1, 1)] * nb + [(0, 2)] * n2, dtype=np.int64)


class TestMomEstimates:
    def test_hand_arithmetic(self):
        est = g.mom_estimates(np.array([[2, 0], [1, 1], [0, 2], [1, 1]]))
        assert est.inv_size_mean == pytest.approx(0.5)
        assert est.rho_hat == pytest.approx(2.0)
        assert est.ratio_means == pytest.approx(np.array([0.5, 0.5]))

    def test_mitosis_inv_size_constant(self):
        est = g.mom_estimates(counts_to_broods(3, 5, 2))
        assert est.inv_size_mean == 0.5

    def test_single_observation(self):
        est = g.mom_estimates(np.array([[3, 1]]))
        assert est.rho_hat == pytest.approx(4.0)
        assert est.ratio_means == pytest.approx(np.array([0.75, 0.25]))

    def test_empty_rejected(self):
        with pytest.raises(EmptySample):
            g.mom_estimates(np.zeros((0, 2), dtype=int))

    @pytest.mark.parametrize(
        "broods",
        [[[1.5, 0.5], [1, 1]], [[3, -1], [1, 1]], [[np.nan, 1.0]], [[np.inf, 1.0]], [[1e30, 1.0]]],
    )
    def test_fractional_negative_or_nonfinite_entries_rejected(self, broods):
        # a cast to int64 would truncate them into broods the caller never passed
        for estimator in (g.mom_estimates, g.plugin_variances, g.mitosis_counts):
            with pytest.raises(InvalidArgument):
                estimator(broods)

    def test_whole_float_entries_accepted(self):
        assert g.mitosis_counts([[2.0, 0.0], [1.0, 1.0], [1.0, 1.0]]) == (1, 2, 0)

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)).filter(
                lambda v: sum(v) > 0
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_ratio_means_on_simplex(self, rows):
        est = g.mom_estimates(np.array(rows))
        assert float(est.ratio_means.sum()) == pytest.approx(1.0, abs=1e-12)
        assert (est.ratio_means >= 0).all()
        assert 0.0 < est.inv_size_mean <= 1.0
        assert est.rho_hat >= 1.0


class TestMomConfidence:
    def test_normal_quantile(self):
        assert _normal_quantile(0.95) == pytest.approx(1.959964, abs=1e-6)
        assert _normal_quantile(0.99) == pytest.approx(2.575829, abs=1e-6)

    def test_degenerate_rho_interval(self, mitosis88):
        pair = g.perron(g.reproduction_matrix(mitosis88))
        var = g.asymptotic_variances(mitosis88, pair)
        est = g.mom_confidence(g.mom_estimates(counts_to_broods(10, 20, 10)), var)
        assert est.rho_ci_degenerate
        assert est.ci_rho == (est.rho_hat, est.rho_hat)
        # proportion intervals stay real
        assert est.ci_b[0, 0] < est.ratio_means[0] < est.ci_b[0, 1]

    def test_b1_half_width_at_r400(self, mitosis88):
        pair = g.perron(g.reproduction_matrix(mitosis88))
        var = g.asymptotic_variances(mitosis88, pair)
        est = g.mom_confidence(g.mom_estimates(counts_to_broods(136, 128, 136)), var, 0.95)
        half = (est.ci_b[0, 1] - est.ci_b[0, 0]) / 2
        assert half == pytest.approx(1.959964 * 0.020616, abs=1e-4)

    def test_rho_interval_with_real_variance(self, rds):
        pair = g.perron(g.reproduction_matrix(rds))
        var = g.asymptotic_variances(rds, pair)
        rng = np.random.default_rng(1)
        ps = g.size_biased_pmf(rds, pair)
        rows = ps.vectors[rng.choice(len(ps.probs), size=300, p=ps.probs / ps.probs.sum())]
        est = g.mom_confidence(g.mom_estimates(rows), var, 0.95)
        assert not est.rho_ci_degenerate
        width = est.ci_rho[1] - est.ci_rho[0]
        z = _normal_quantile(0.95)
        expected = 2 * z * math.sqrt(var.inv_size_variance * est.rho_hat**4 / 300)
        assert width == pytest.approx(expected, rel=1e-12)


class TestPluginVariances:
    def test_mitosis_sample_degenerate(self):
        var = g.plugin_variances(counts_to_broods(5, 5, 5))
        assert var.inv_size_variance == 0.0

    def test_two_point_sample(self):
        var = g.plugin_variances(np.array([[1, 0], [0, 1]]))
        assert var.ratio_covariance[0, 0] == pytest.approx(0.5)

    def test_monte_carlo_matches_exact(self, rds):
        pair = g.perron(g.reproduction_matrix(rds))
        exact = g.asymptotic_variances(rds, pair)
        ps = g.size_biased_pmf(rds, pair)
        rng = np.random.default_rng(7)
        rows = ps.vectors[rng.choice(len(ps.probs), size=100_000, p=ps.probs / ps.probs.sum())]
        plug = g.plugin_variances(rows)
        # entrywise within 3 sigma of the estimator's own sampling noise
        assert plug.inv_size_variance == pytest.approx(exact.inv_size_variance, rel=0.05)
        assert np.abs(plug.ratio_covariance - exact.ratio_covariance).max() <= 0.003


class TestMitosisSizeBiasedPmf:
    # Off-support rows: a wrong size, a three-child brood of one type, a
    # negative count summing to two.
    OFF_SUPPORT = ((1, 0), (3, 0), (1, 2), (3, -1))
    ROWS = np.array([(2, 0), (1, 1), (0, 2), *OFF_SUPPORT], dtype=np.int64)

    def test_matches_the_model_oracle_at_random_parameters(self):
        rng = np.random.default_rng(2023)
        for _ in range(200):
            theta = rng.uniform(0.0, 1.0, size=2)
            closed, _ = g.mitosis_size_biased_pmf(theta, self.ROWS)
            oracle, _ = mitosis_oracle(theta, self.ROWS)
            assert (np.abs(closed[:3] - oracle[:3]) <= 1e-14 * oracle[:3]).all()
            assert (closed[3:] == 0.0).all() and (oracle[3:] == 0.0).all()

    def test_matches_the_model_oracle_at_the_fit_box_edges(self):
        # Relative to the law's largest mass: the model computes Bin(2, 1 - alpha)
        # through 1 - (1 - alpha), which puts the oracle's (1, 1) mass 1.4e-11
        # off at alpha = 1e-6; the exact test below covers each mass alone.
        edges = (1e-6, 0.5, 1.0 - 1e-6)
        for theta in itertools.product(edges, edges):
            closed, _ = g.mitosis_size_biased_pmf(theta, self.ROWS)
            oracle, _ = mitosis_oracle(theta, self.ROWS)
            assert np.abs(closed - oracle).max() <= 1e-14 * oracle.max()
            assert (closed[3:] == 0.0).all() and (oracle[3:] == 0.0).all()

    def test_exact_near_the_box_edges(self):
        # each mass against rational arithmetic on the same float parameters
        edges = (1e-6, 1e-3, 0.5, 1.0 - 1e-3, 1.0 - 1e-6)
        for alpha, theta in itertools.product(edges, edges):
            a, t = Fraction(alpha), Fraction(theta)
            b1 = (1 - a) / ((1 - a) + (1 - t))
            exact = [
                b1 * t**2 + (1 - b1) * (1 - a) ** 2,
                b1 * 2 * t * (1 - t) + (1 - b1) * 2 * a * (1 - a),
                b1 * (1 - t) ** 2 + (1 - b1) * a**2,
            ]
            closed, jac = g.mitosis_size_biased_pmf((alpha, theta), self.ROWS[:3])
            for got, want in zip(closed, exact):
                assert abs(Fraction(float(got)) - want) <= Fraction(1e-14) * want
            # the Jacobian against the exact derivatives, relative to each
            # column's largest entry
            d = (1 - a) + (1 - t)
            keep = [t**2, 2 * t * (1 - t), (1 - t) ** 2]
            swap = [(1 - a) ** 2, 2 * a * (1 - a), a**2]
            columns = [
                [
                    -(1 - t) / d**2 * (k - w) + (1 - b1) * dw
                    for k, w, dw in zip(keep, swap, [-2 * (1 - a), 2 - 4 * a, 2 * a])
                ],
                [
                    (1 - a) / d**2 * (k - w) + b1 * dk
                    for k, w, dk in zip(keep, swap, [2 * t, 2 - 4 * t, -2 * (1 - t)])
                ],
            ]
            for got, want in zip(jac.T, columns):
                scale = max(abs(x) for x in want)
                for x, y in zip(got, want):
                    assert abs(Fraction(float(x)) - y) <= Fraction(1e-14) * scale

    def test_jacobian_matches_the_differenced_oracle(self):
        rng = np.random.default_rng(2310)
        for _ in range(200):
            theta = rng.uniform(0.01, 0.99, size=2)
            _, closed = g.mitosis_size_biased_pmf(theta, self.ROWS)
            _, oracle = mitosis_oracle(theta, self.ROWS)
            assert np.abs(closed - oracle).max() <= 1e-6
            assert (closed[3:] == 0.0).all()

    @pytest.mark.parametrize(
        "rows", [[(3, -1), (1, 2), (3, 0)], [(2, 0, 0), (1, 1, 0), (0, 0, 2)], [(2,), (1,)]]
    )
    def test_off_support_rows_are_zero(self, rows):
        # no brood of another width or size is on the mitosis support
        p, jac = g.mitosis_size_biased_pmf((0.9, 0.7), np.array(rows, dtype=np.int64))
        assert p.shape == (len(rows),) and jac.shape == (len(rows), 2)
        assert (p == 0.0).all() and (jac == 0.0).all()

    @pytest.mark.parametrize("theta", [(0.0, 0.5), (0.5, 1.0), (1.2, 0.5)])
    def test_outside_the_open_box_rejected(self, theta):
        with pytest.raises(ParameterOutOfRange):
            g.mitosis_size_biased_pmf(theta, self.ROWS)


class TestAmleFit:
    def test_expected_counts_recover_parameters(self):
        for family in MITOSIS_FAMILIES:
            fit = g.amle_fit(family, counts_to_broods(52, 96, 252), (0.5, 0.5), MITOSIS_BOUNDS)
            assert fit.theta_hat == pytest.approx(np.array([0.9, 0.7]), abs=1e-4)
            assert fit.converged
            assert fit.stationarity_residual is not None
            assert fit.stationarity_residual < 1e-3

    def test_symmetric_counts_find_one_of_the_twin_optima(self):
        # (0.8, 0.8) and (0.2, 0.2) produce the same size-biased law, so both
        # are exact global maximizers for these counts
        for family in MITOSIS_FAMILIES:
            fit = g.amle_fit(family, counts_to_broods(136, 128, 136), (0.4, 0.6), MITOSIS_BOUNDS)
            d_plus = np.abs(fit.theta_hat - np.array([0.8, 0.8])).max()
            d_minus = np.abs(fit.theta_hat - np.array([0.2, 0.2])).max()
            assert min(d_plus, d_minus) <= 1e-4

    def test_loglik_not_below_truth_on_exact_samples(self):
        broods = counts_to_broods(52, 96, 252)

        def loglik_at(theta):
            model = g.mitosis_model(*theta)
            pair = g.perron(g.reproduction_matrix(model))
            ps = g.size_biased_pmf(model, pair)
            return sum(
                c * math.log(ps.prob_of(u))
                for u, c in [((2, 0), 52), ((1, 1), 96), ((0, 2), 252)]
            )

        for family in MITOSIS_FAMILIES:
            fit = g.amle_fit(family, broods, (0.5, 0.5), MITOSIS_BOUNDS)
            assert fit.loglik >= loglik_at((0.9, 0.7)) - 1e-8

    def test_off_support_brood_diverges(self):
        # no parameter gives a (3, 0) brood positive mass
        broods = np.vstack((counts_to_broods(5, 5, 5), [(3, 0)]))
        with pytest.raises(OptimizerDiverged):
            g.amle_fit(g.mitosis_size_biased_pmf, broods, (0.5, 0.5), MITOSIS_BOUNDS)

    def test_raising_family_is_model_construction_failed(self):
        # the box reaches 0, where the mitosis family is undefined
        with pytest.raises(ModelConstructionFailed):
            g.amle_fit(
                g.mitosis_size_biased_pmf, counts_to_broods(1, 1, 1), (0.0, 0.5), ((0.0, 1.0),) * 2
            )

    def test_boundary_optimum_skips_stationarity(self):
        # one-parameter family whose likelihood increases toward the box edge
        def build(theta):
            q = float(theta[0])
            return g.branching_model(
                [
                    g.offspring_law([((2, 0), q), ((1, 1), 1.0 - q)]),
                    g.offspring_law([((1, 1), 1.0)]),
                ]
            )

        family = model_family(build)
        broods = np.array([(2, 0)] * 30, dtype=np.int64)
        fit = g.amle_fit(family, broods, (0.5,), ((0.05, 0.95),))
        assert fit.theta_hat[0] == pytest.approx(0.95, abs=1e-9)
        assert fit.stationarity_residual is None

    def test_fold_saddle_start_reaches_a_root(self):
        # symmetric counts make the fold point (0.5, 0.5) a stationary saddle
        # with a singular information; the probe along its null direction
        # must climb off it to one of the twin roots
        n1, nb, n2 = 162, 76, 162
        cf = g.mitosis_closed_form(n1, nb, n2, 400)
        roots = [(cf.alpha_hat, cf.theta_hat), g.mitosis_twin_root(n1, nb, n2, 400)]
        for family in MITOSIS_FAMILIES:
            fit = g.amle_fit(family, counts_to_broods(n1, nb, n2), (0.5, 0.5), MITOSIS_BOUNDS)
            assert min(np.abs(fit.theta_hat - np.array(root)).max() for root in roots) <= 1e-6
            assert fit.converged

    def test_converges_on_every_simulated_fit_sample(self):
        # the fit-mitosis setting: mitosis(0.9, 0.7) from (1, 1), n = 14, r = 196
        model = g.mitosis_model(0.9, 0.7)
        evaluations = []
        for k in range(200):
            seed = SeedSpec(4242, replicate=k)
            sample = g.draw_family_sample(g.simulate_aggregate(model, (1, 1), 14, seed), 196, seed)
            fit = g.amle_fit(g.mitosis_size_biased_pmf, sample.broods, (0.9, 0.9), MITOSIS_BOUNDS)
            assert fit.converged, k
            n1, nb, n2 = g.mitosis_counts(sample)
            cf = g.mitosis_closed_form(n1, nb, n2, 196)
            roots = [(cf.alpha_hat, cf.theta_hat), g.mitosis_twin_root(n1, nb, n2, 196)]
            gap = min(np.abs(fit.theta_hat - root).max() for root in roots if root is not None)
            assert gap <= 1e-7, (k, gap)
            evaluations.append(fit.n_evaluations)
        # one family call per point visited, so a typical fit makes few
        assert np.median(evaluations) <= 10

    def test_mismatched_counts_converge_to_the_fold_optimum(self):
        # with 4 n1 n2 < nb^2 the likelihood peaks on the fold alpha + theta = 1,
        # where the law is Bin(2, theta): theta = U / 2r with U = 2 n1 + nb
        n1, nb, n2 = 30, 180, 190
        for family in MITOSIS_FAMILIES:
            fit = g.amle_fit(family, counts_to_broods(n1, nb, n2), (0.9, 0.9), MITOSIS_BOUNDS)
            assert fit.theta_hat == pytest.approx(np.array([0.7, 0.3]), abs=1e-6)
            assert fit.converged

    def test_theta0_outside_box_rejected(self):
        with pytest.raises(ValueError):
            g.amle_fit(mitosis_oracle, counts_to_broods(1, 1, 1), (0.5, 2.0), MITOSIS_BOUNDS)
        # a start of the wrong dimension is outside the box too
        with pytest.raises(InvalidArgument):
            g.amle_fit(mitosis_oracle, counts_to_broods(1, 1, 1), (0.5,), MITOSIS_BOUNDS)

    @pytest.mark.parametrize(
        "theta0, bounds",
        [
            ((math.nan, 0.5), MITOSIS_BOUNDS),
            ((0.5, 0.5), ((math.nan, 1.0), (0.0, 1.0))),
            ((0.5, 0.5), ((0.0, math.nan), (0.0, 1.0))),
            ((0.5, 0.5), ((-math.inf, math.inf), (0.0, 1.0))),
        ],
    )
    def test_non_finite_start_or_bound_rejected_before_any_family_call(self, theta0, bounds):
        def family(theta, broods):
            raise AssertionError(f"family called at {theta}")

        with pytest.raises(InvalidArgument):
            g.amle_fit(family, counts_to_broods(1, 1, 1), theta0, bounds)


class TestTally:
    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.lists(
                st.lists(
                    st.integers(0, 3) | st.integers(2**40 - 2, 2**40 + 2), min_size=k, max_size=k
                ),
                min_size=1,
                max_size=30,
            )
        )
    )
    @example([[2**40 + 1]])
    @example([[2**40, 3, 0, 2**40 - 1]])
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_unique_rows(self, rows):
        broods = np.array(rows, dtype=np.int64)
        want_rows, want_counts = np.unique(broods, axis=0, return_counts=True)
        got_rows, got_counts = _tally(broods)
        assert got_rows.tolist() == want_rows.tolist()
        assert got_counts.tolist() == want_counts.tolist()
        assert got_counts.dtype == want_counts.dtype


class TestMitosisClosedForm:
    def test_expected_count_oracles(self):
        est = g.mitosis_closed_form(52, 96, 252, 400)
        assert (est.alpha_hat, est.theta_hat, est.b1_hat) == pytest.approx((0.9, 0.7, 0.25))
        est = g.mitosis_closed_form(136, 128, 136, 400)
        assert (est.alpha_hat, est.theta_hat, est.b1_hat) == pytest.approx((0.8, 0.8, 0.5))
        assert not est.degenerate and est.in_range

    def test_degenerate_all_unmarked(self):
        est = g.mitosis_closed_form(400, 0, 0, 400)
        assert est.degenerate
        assert (est.alpha_hat, est.theta_hat) == (0.0, 1.0)

    def test_degenerate_all_marked(self):
        est = g.mitosis_closed_form(0, 0, 400, 400)
        assert est.degenerate
        assert (est.alpha_hat, est.theta_hat) == (1.0, 0.0)

    def test_counts_must_sum_to_r(self):
        with pytest.raises(ValueError):
            g.mitosis_closed_form(1, 1, 1, 4)
        with pytest.raises(InvalidArgument):
            g.mitosis_closed_form(-1, 2, 3, 4)

    def test_twin_root_matches_frequencies_exactly(self):
        # the family is two-to-one from its size-biased law: whenever the
        # twin root is inside the box it reproduces the frequencies too
        def ps_at(alpha, theta):
            model = g.mitosis_model(alpha, theta)
            pair = g.perron(g.reproduction_matrix(model))
            ps = g.size_biased_pmf(model, pair)
            return np.array([ps.prob_of(u) for u in [(2, 0), (1, 1), (0, 2)]])

        rng = np.random.default_rng(31)
        twins_seen = 0
        for _ in range(40):
            counts = rng.multinomial(400, (0.25, 0.4, 0.35))
            n1, nb, n2 = (int(c) for c in counts)
            cf = g.mitosis_closed_form(n1, nb, n2, 400)
            if cf.degenerate or not cf.in_range or 4 * n1 * n2 < nb * nb:
                continue
            freqs = counts / 400
            assert np.abs(ps_at(cf.alpha_hat, cf.theta_hat) - freqs).max() <= 1e-12
            twin = g.mitosis_twin_root(n1, nb, n2, 400)
            if twin is not None:
                assert np.abs(ps_at(*twin) - freqs).max() <= 1e-12
                twins_seen += 1
        assert twins_seen > 0

    def test_b1_equals_moment_estimate(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            counts = rng.multinomial(200, (0.3, 0.45, 0.25))
            broods = counts_to_broods(*counts)
            cf = g.mitosis_closed_form(*counts, 200)
            mom = g.mom_estimates(broods)
            assert cf.b1_hat == mom.ratio_means[0]

    def test_counts_from_sample(self, mitosis88):
        seed = SeedSpec(15)
        trace = g.simulate_aggregate(mitosis88, (1, 1), 10, seed)
        sample = g.draw_family_sample(trace, 50, seed)
        n1, nb, n2 = g.mitosis_counts(sample)
        assert n1 + nb + n2 == 50

    def test_rejects_foreign_broods(self):
        with pytest.raises(ValueError):
            g.mitosis_counts(np.array([[3, 0]]))
        with pytest.raises(InvalidArgument):
            g.mitosis_counts(np.array([[2, 0], [1, 2]]))


class TestCiCoverage:
    def test_b1_coverage_at_moderate_depth(self, mitosis88):
        # nominal 95% interval from the exact limit variance should cover
        # the true proportion in 93..97% of 5000 replicates at n=16, r=256;
        # the Monte Carlo sd of the rate is 0.003, a sixth of the window's
        # half-width (at 500 replicates it was half, and 5% of correct runs
        # fell outside)
        pair = g.perron(g.reproduction_matrix(mitosis88))
        var = g.asymptotic_variances(mitosis88, pair)
        covered = 0
        reps = 5000
        for k in range(reps):
            seed = SeedSpec(1606, replicate=k)
            trace = g.simulate_aggregate(mitosis88, (1, 1), 16, seed)
            sample = g.draw_family_sample(trace, 256, seed)
            est = g.mom_confidence(g.mom_estimates(sample.broods), var, 0.95)
            if est.ci_b[0, 0] <= 0.5 <= est.ci_b[0, 1]:
                covered += 1
        assert 0.93 * reps <= covered <= 0.97 * reps


class TestAmleAgreesWithClosedForm:
    def test_randomized_multinomial_counts(self):
        # draws from the size-biased law at interior parameters; the exact
        # frequency-matching branch (4 n1 n2 >= nb^2) is the one where the
        # closed form is a likelihood optimum, possibly tied with its twin
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 15:
            a, t = rng.uniform(0.2, 0.9, size=2)
            model = g.mitosis_model(a, t)
            pair = g.perron(g.reproduction_matrix(model))
            ps = g.size_biased_pmf(model, pair)
            probs = [ps.prob_of(u) for u in [(2, 0), (1, 1), (0, 2)]]
            n1, nb, n2 = rng.multinomial(400, probs)
            cf = g.mitosis_closed_form(n1, nb, n2, 400)
            if cf.degenerate or not cf.in_range or 4 * n1 * n2 < nb * nb:
                continue
            fit = g.amle_fit(
                g.mitosis_size_biased_pmf, counts_to_broods(n1, nb, n2), (0.5, 0.5), MITOSIS_BOUNDS
            )
            roots = [(cf.alpha_hat, cf.theta_hat)]
            twin = g.mitosis_twin_root(n1, nb, n2, 400)
            if twin is not None:
                roots.append(twin)
            gap = min(
                max(abs(fit.theta_hat[0] - ra), abs(fit.theta_hat[1] - rt))
                for ra, rt in roots
            )
            assert gap <= 1e-4
            checked += 1

    def test_optimizer_beats_mismatched_branch(self):
        # when 4 n1 n2 < nb^2 the printed closed form is the real part of a
        # complex root pair, not a stationary point; the optimizer must find
        # a strictly better likelihood
        n1, nb, n2 = 30, 180, 190
        cf = g.mitosis_closed_form(n1, nb, n2, 400)
        assert not cf.degenerate

        def loglik_at(alpha, theta):
            model = g.mitosis_model(alpha, theta)
            pair = g.perron(g.reproduction_matrix(model))
            ps = g.size_biased_pmf(model, pair)
            return (
                n1 * math.log(ps.prob_of((2, 0)))
                + nb * math.log(ps.prob_of((1, 1)))
                + n2 * math.log(ps.prob_of((0, 2)))
            )

        fit = g.amle_fit(
            g.mitosis_size_biased_pmf, counts_to_broods(n1, nb, n2), (0.5, 0.5), MITOSIS_BOUNDS
        )
        assert fit.loglik > loglik_at(cf.alpha_hat, cf.theta_hat) + 1.0
