import numpy as np
import pytest

import gwfam as g
from gwfam.errors import PopulationOverflow
from gwfam.sampling import _distinct_uniform_indices
from gwfam.simulate import SeedSpec


class TestSeedSpec:
    def test_streams_are_reproducible(self):
        s = SeedSpec(123, replicate=4)
        a = s.family_stream(3, 1).random(16)
        b = s.family_stream(3, 1).random(16)
        assert (a == b).all()

    def test_streams_are_distinct(self):
        s = SeedSpec(123)
        a = s.family_stream(0, 0).random(8)
        b = s.family_stream(0, 1).random(8)
        c = s.family_stream(1, 0).random(8)
        d = s.sampling_stream(0).random(8)
        e = SeedSpec(123, replicate=1).family_stream(0, 0).random(8)
        streams = [a, b, c, d, e]
        for i in range(len(streams)):
            for j in range(i + 1, len(streams)):
                assert not (streams[i] == streams[j]).all()

    def test_chunked_draws_match_bulk(self):
        s = SeedSpec(9)
        bulk = s.family_stream(0, 0).random(1000)
        rng = s.family_stream(0, 0)
        parts = np.concatenate([rng.random(137), rng.random(500), rng.random(363)])
        assert (bulk == parts).all()

    def test_cell_master_fixed(self):
        a = SeedSpec.cell_master(42, 0)
        b = SeedSpec.cell_master(42, 1)
        assert a != b
        assert a == SeedSpec.cell_master(42, 0)

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)


class TestSimulateAggregate:
    def test_mitosis_totals_are_deterministic(self, mitosis88):
        trace = g.simulate_aggregate(mitosis88, (1, 1), 5, SeedSpec(1))
        assert trace.totals().tolist() == [2, 4, 8, 16, 32, 64]

    def test_depth_twenty_total(self, mitosis88):
        trace = g.simulate_aggregate(mitosis88, (1, 1), 20, SeedSpec(2))
        assert int(trace.totals()[-1]) == 2_097_152

    def test_trace_consistency(self, rds):
        trace = g.simulate_aggregate(rds, (1, 1, 1, 1), 8, SeedSpec(3))
        totals = trace.totals()
        for k in range(trace.n):
            assert totals[k + 1] == trace.child_totals[k].sum()
            assert (trace.child_totals[k] >= trace.z[k]).all()
        assert (totals >= 1).all()

    def test_determinism_across_runs(self, rds):
        a = g.simulate_aggregate(rds, (1, 0, 0, 0), 10, SeedSpec(7, replicate=3))
        b = g.simulate_aggregate(rds, (1, 0, 0, 0), 10, SeedSpec(7, replicate=3))
        assert (a.z == b.z).all()
        assert (a.child_totals == b.child_totals).all()

    def test_generation_one_is_the_offspring_law(self, mitosis88):
        # Z_1 from a single unmarked parent must follow that law exactly;
        # Monte Carlo frequencies checked at 4 binomial sigma
        reps = 20_000
        counts = {(2, 0): 0, (1, 1): 0, (0, 2): 0}
        for k in range(reps):
            tr = g.simulate_aggregate(mitosis88, (1, 0), 1, SeedSpec(11, replicate=k))
            counts[tuple(tr.z[1].tolist())] += 1
        for v, p in [((2, 0), 0.64), ((1, 1), 0.32), ((0, 2), 0.04)]:
            sd = np.sqrt(p * (1 - p) / reps)
            assert abs(counts[v] / reps - p) <= 4 * sd

    def test_mean_growth_matches_reproduction_matrix(self, rds):
        m = g.reproduction_matrix(rds)
        reps = 3000
        for i in [0, 3]:
            z0 = np.eye(4, dtype=int)[i]
            draws = np.array(
                [
                    g.simulate_aggregate(rds, z0, 1, SeedSpec(13 + i, replicate=k)).z[1]
                    for k in range(reps)
                ],
                dtype=float,
            )
            sd = draws.std(axis=0, ddof=1)
            assert np.all(np.abs(draws.mean(axis=0) - m[i]) <= 4 * sd / np.sqrt(reps) + 1e-12)

    def test_population_cap(self, mitosis88):
        # |Z_40| = 2^41 passes DEFAULT_POPULATION_CAP = 2^40
        with pytest.raises(PopulationOverflow):
            g.simulate_aggregate(mitosis88, (1, 1), 40, SeedSpec(1))

    def test_non_integral_z0_rejected(self, mitosis88):
        with pytest.raises(ValueError):
            g.simulate_aggregate(mitosis88, (1.5, 1), 3, SeedSpec(1))
        trace = g.simulate_aggregate(mitosis88, (1.0, 1), 3, SeedSpec(1))
        assert trace.z[0].tolist() == [1, 1]

    def test_zero_generations(self, mitosis88):
        trace = g.simulate_aggregate(mitosis88, (2, 3), 0, SeedSpec(1))
        assert trace.n == 0
        assert trace.z.tolist() == [[2, 3]]
        assert trace.last_brood_counts is None

    def test_family_size_counts(self, mitosis88):
        trace = g.simulate_aggregate(mitosis88, (1, 1), 4, SeedSpec(5))
        counts = trace.family_size_counts()
        assert counts == {2: 16}  # |Z_3| = 16 parents, every family of size 2


class TestFamilyStream:
    """The final transition's families, as seen through ``sampling_view``."""

    def test_tiny_counts_forced(self, mitosis88):
        view = g.sampling_view(g.simulate_aggregate(mitosis88, (1, 1), 1, SeedSpec(7)))
        assert [int(c.sum()) for c in view.brood_counts] == [1, 1]
        assert view.child_totals().tolist() == [2, 2]
        sample = g.draw_family_sample(view, 4)
        ids = sorted(zip(sample.parent_types.tolist(), sample.parent_indices.tolist()))
        assert ids == [(0, 0), (0, 0), (1, 0), (1, 0)]

    def test_replay_identical(self, rds):
        seed = SeedSpec(21)
        first = g.sampling_view(g.simulate_aggregate(rds, (5, 5, 5, 5), 1, seed))
        second = g.sampling_view(g.simulate_aggregate(rds, (5, 5, 5, 5), 1, seed))
        for a, b in zip(first.brood_counts, second.brood_counts):
            assert (a == b).all()
        x = g.draw_family_sample(first, 30, seed)
        y = g.draw_family_sample(second, 30, seed)
        assert (x.broods == y.broods).all()
        assert (x.parent_types == y.parent_types).all()
        assert (x.parent_indices == y.parent_indices).all()

    def test_canonical_order(self, rds):
        # a census of every child finds each parent once per child, under
        # ids 0..z_prev[i]-1 of its type, with one brood of that many members
        view = g.sampling_view(g.simulate_aggregate(rds, (3, 0, 2, 1), 1, SeedSpec(22)))
        sample = g.draw_family_sample(view, view.total_children())
        families = {}
        for t, p, brood in zip(
            sample.parent_types.tolist(), sample.parent_indices.tolist(), sample.broods.tolist()
        ):
            families.setdefault((t, p), []).append(tuple(brood))
        assert sorted(families) == [(0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (3, 0)]
        for broods in families.values():
            assert len(set(broods)) == 1
            assert len(broods) == sum(broods[0])

    def test_aggregate_final_step_equals_materialization(self, rds):
        seed = SeedSpec(23, replicate=1)
        trace = g.simulate_aggregate(rds, (1, 1, 1, 1), 6, seed)
        view = g.sampling_view(trace)
        summed = np.zeros(4, dtype=np.int64)
        for i, (counts, law) in enumerate(zip(view.brood_counts, rds.laws)):
            assert counts.sum() == trace.z[5, i]
            assert counts @ law.sizes == trace.child_totals[5, i]
            summed += counts @ law.vectors
        assert (summed == trace.z[6]).all()
        assert (view.child_totals() == trace.child_totals[5]).all()
        assert view.total_children() == trace.totals()[6]

    def test_select_children_matches_iteration(self, rds):
        seed = SeedSpec(33)
        view = g.sampling_view(g.simulate_aggregate(rds, (10, 10, 10, 10), 1, seed))
        # the block layout built the slow way: type-major, support points in
        # law order, family ids counted per parent type
        children = []
        for i, (counts, law) in enumerate(zip(view.brood_counts, rds.laws)):
            family = 0
            for c, v in zip(counts.tolist(), law.vectors):
                for _ in range(c):
                    children.extend([(i, family, tuple(v.tolist()))] * int(v.sum()))
                    family += 1
        assert len(children) == view.total_children()
        r = len(children)
        sample = g.draw_family_sample(view, r, seed)
        rng = seed.sampling_stream(view.generation)
        chosen = _distinct_uniform_indices(rng, r, r)[rng.permutation(r)]
        for pos, i in enumerate(chosen.tolist()):
            t, p, brood = children[i]
            assert sample.parent_types[pos] == t
            assert sample.parent_indices[pos] == p
            assert tuple(sample.broods[pos].tolist()) == brood


class TestKestenStigumDiagnostic:
    """|Z_k| rho^-k and the distance of Z_n / |Z_n| from the stable vector b."""

    def test_mitosis_w_proxy_constant(self, mitosis88):
        trace = g.simulate_aggregate(mitosis88, (1, 1), 10, SeedSpec(41))
        pair = g.perron(g.reproduction_matrix(mitosis88))
        w_proxy = trace.totals() / pair.rho ** np.arange(trace.n + 1)
        assert w_proxy == pytest.approx(np.full(trace.n + 1, 2.0), abs=1e-12)

    def test_proportions_approach_b(self, mitosis88):
        pair = g.perron(g.reproduction_matrix(mitosis88))
        hits = 0
        reps = 200
        for k in range(reps):
            trace = g.simulate_aggregate(mitosis88, (1, 1), 20, SeedSpec(43, replicate=k))
            if np.abs(trace.z[-1] / trace.totals()[-1] - pair.b).max() <= 0.02:
                hits += 1
        assert hits >= 0.95 * reps

    def test_rds_proportions_at_reduced_depth(self, rds):
        pair = g.perron(g.reproduction_matrix(rds))
        hits = 0
        reps = 200
        for k in range(reps):
            trace = g.simulate_aggregate(rds, (1, 1, 1, 1), 12, SeedSpec(47, replicate=k))
            if np.abs(trace.z[-1] / trace.totals()[-1] - pair.b).max() <= 0.05:
                hits += 1
        assert hits >= 0.90 * reps
