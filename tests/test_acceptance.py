"""Acceptance suite: every release criterion, one test per criterion.

Each test prints a single [acceptance] PASS/FAIL line (run with ``-s`` to see
them live). Monte Carlo criteria use the fixed preset seeds, so outcomes are
reproducible bit for bit.
"""

import dataclasses
import hashlib
import itertools
import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gwfam as g
from gwfam.experiment import ExperimentCell, ExperimentConfig
from gwfam.sampling import SampleSizeRule
from gwfam.simulate import SeedSpec
from tests_support import (
    all_family_size_lists,
    mitosis_prob_distinct,
    random_primitive_model,
)

TABLE1_PAIRS = [(0.8, 0.8), (0.8, 0.9), (0.9, 0.7), (0.9, 0.9)]
TABLE1_B1 = [0.5, 2.0 / 3.0, 0.25, 0.5]
RDS_PRINTED_M = np.array(
    [
        [0.09145102, 0.08984662, 0.07104538, 0.05865485],
        [0.03048367, 0.08984662, 0.07104538, 0.01955162],
        [0.60967349, 0.59897746, 0.47363588, 0.39103233],
        [2.68256334, 2.63550082, 2.08399787, 1.72054223],
    ]
)
RDS_RHO = 2.328872
RDS_B = np.array([0.02667997, 0.01284096, 0.17786649, 0.78261257])
TABLE1_88_ROW = {"alpha_hat": 0.79913, "theta_hat": 0.79931, "b1_hat": 0.50024}
TABLE2_MEANS = np.array([0.0267, 0.0128, 0.1779, 0.7826])


def check(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status}  {detail}")
    assert ok, f"{name}: {detail}"


def best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def table1_cell_run(tmp_path_factory):
    """The (0.8, 0.8) grid cell at 1000 replicates, seeded as in the preset.

    The first 200 replicates are the desk-scale run (seeds are a prefix),
    and the full 1000 reproduce the published protocol. Shared between the
    replication and the coverage criteria.
    """
    cell = ExperimentCell(
        label="a0.8_t0.8",
        model_spec={"builtin": "mitosis", "params": {"alpha": 0.8, "theta": 0.8}},
        z0=(1, 1),
        n=20,
        rule=SampleSizeRule(),
    )
    config = ExperimentConfig(
        name="accept3",
        cells=(cell,),
        replicates=1000,
        master_seed=g.preset("table1").master_seed,
        estimator="mitosis_closed_form",
        out_dir=tmp_path_factory.mktemp("accept3"),
    )
    t0 = time.perf_counter()
    summary = g.run_experiment(config)
    elapsed = time.perf_counter() - t0
    import csv

    with open(summary.per_replicate_paths["a0.8_t0.8"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    return summary, rows, elapsed


def test_criterion_01_mitosis_spectral_exactness():
    worst_rho = worst_b1 = worst_time = 0.0
    for (a, t), b1_true in zip(TABLE1_PAIRS, TABLE1_B1):
        m = g.reproduction_matrix(g.mitosis_model(a, t))
        pair = g.perron(m)
        worst_rho = max(worst_rho, abs(pair.rho - 2.0))
        worst_b1 = max(worst_b1, abs(float(pair.b[0]) - b1_true))
        worst_time = max(worst_time, best_of(lambda: g.perron(m)))
    check(
        "criterion 1 (mitosis spectral exactness)",
        worst_rho <= 1e-10 and worst_b1 <= 1e-9 and worst_time < 1e-3,
        f"max |rho-2|={worst_rho:.2e} max |b1-true|={worst_b1:.2e} "
        f"max time={worst_time * 1e3:.3f}ms",
    )


def test_criterion_02_rds_spectral_reproduction(rds):
    m = g.reproduction_matrix(rds)
    matrix_err = float(np.abs(m.T - RDS_PRINTED_M).max())
    pair = g.perron(m)
    rho_err = abs(pair.rho - RDS_RHO)
    b_err = float(np.abs(pair.b - RDS_B).max())
    elapsed = best_of(lambda: g.perron(g.reproduction_matrix(rds)))
    check(
        "criterion 2 (survey-model spectral reproduction)",
        matrix_err <= 1e-6 and rho_err <= 1e-5 and b_err <= 1e-6 and elapsed < 1e-2,
        f"|M^T-printed|={matrix_err:.2e} |rho-ref|={rho_err:.2e} "
        f"|b-ref|={b_err:.2e} time={elapsed * 1e3:.2f}ms",
    )


def test_criterion_03_table1_replication(table1_cell_run):
    summary, rows, elapsed = table1_cell_run
    desk = rows[:200]
    means = {
        key: float(np.mean([float(r[key]) for r in desk]))
        for key in ("alpha_hat", "theta_hat", "b1_hat")
    }
    sd_b1 = float(np.std([float(r["b1_hat"]) for r in desk], ddof=1))
    full_means = {
        key: summary.value("a0.8_t0.8", key) for key in TABLE1_88_ROW
    }
    full_gap = max(abs(full_means[k] - TABLE1_88_ROW[k]) for k in TABLE1_88_ROW)
    ok = (
        abs(means["alpha_hat"] - 0.8) <= 0.005
        and abs(means["theta_hat"] - 0.8) <= 0.005
        and abs(means["b1_hat"] - 0.5) <= 0.005
        and 0.015 <= sd_b1 <= 0.027
        and full_gap <= 0.003
        and elapsed < 180.0
    )
    check(
        "criterion 3 (mitosis grid-cell replication)",
        ok,
        f"desk means=({means['alpha_hat']:.5f},{means['theta_hat']:.5f},"
        f"{means['b1_hat']:.5f}) sd_b1={sd_b1:.5f} "
        f"full-run max gap to published row={full_gap:.5f} runtime={elapsed:.0f}s",
    )


def test_criterion_04_table2_replication(tmp_path):
    config = dataclasses.replace(g.preset("table2"), out_dir=tmp_path)
    t0 = time.perf_counter()
    summary = g.run_experiment(config)
    elapsed = time.perf_counter() - t0
    gaps = []
    for i in range(4):
        mean = summary.value("defaults", f"b{i + 1}")
        sd = summary.value("defaults", f"b{i + 1}", "sd")
        se = sd / math.sqrt(config.replicates)
        gaps.append(abs(mean - TABLE2_MEANS[i]) / se)
    rho_mean = summary.value("defaults", "rho_hat")
    ok = max(gaps) <= 3.0 and 2.10 <= rho_mean <= 2.33 and elapsed < 600.0
    check(
        "criterion 4 (survey-model replication)",
        ok,
        f"b gaps in MC standard errors={[f'{x:.2f}' for x in gaps]} "
        f"mean rho_hat={rho_mean:.5f} runtime={elapsed:.0f}s",
    )


def test_criterion_05_size_biased_identity_suite():
    rng = np.random.default_rng(20_08_05)
    worst_mass = worst_inv = worst_ratio = 0.0
    for _ in range(50):
        model = random_primitive_model(rng, max_types=4, max_points=6)
        pair = g.perron(g.reproduction_matrix(model))
        ps = g.size_biased_pmf(model, pair)
        worst_mass = max(worst_mass, abs(ps.total_mass() - 1.0))
        inv_mean, ratio_mean = g.moment_identities(ps)
        worst_inv = max(worst_inv, abs(inv_mean - 1.0 / pair.rho))
        worst_ratio = max(worst_ratio, float(np.abs(ratio_mean - pair.b).max()))
    check(
        "criterion 5 (size-biased identity suite)",
        worst_mass <= 1e-10 and worst_inv <= 1e-9 and worst_ratio <= 1e-9,
        f"max |mass-1|={worst_mass:.2e} max inv gap={worst_inv:.2e} "
        f"max ratio gap={worst_ratio:.2e} over 50 random models",
    )


def test_criterion_06_non_sibling_oracle_equivalence():
    lists = all_family_size_lists()
    checked = 0
    for sizes in lists:
        total = sum(sizes)
        for r in range(0, min(4, total) + 1):
            expect = sum(
                math.prod(c) for c in itertools.combinations(sizes, r)
            )
            got = g.prob_distinct_exact(sizes, r)
            assert got == Fraction(expect, math.comb(total, r)), (sizes, r)
            checked += 1
    spot = (
        g.prob_distinct_exact([2, 1, 3], 2) == Fraction(11, 15)
        and g.prob_distinct_exact([2] * 8, 2) == Fraction(14, 15)
    )
    check(
        "criterion 6 (non-sibling probability oracle)",
        spot,
        f"{checked} exact rational comparisons over {len(lists)} size lists",
    )


def test_criterion_07_pair_law_oracle(mitosis88):
    worst = 0.0
    for z_prev in [(1, 1), (2, 0), (2, 1)]:
        enum = g.pair_pmf_exact(mitosis88, z_prev)
        formula = g.pair_pmf_closed_form(mitosis88, z_prev)
        worst = max(worst, float(np.abs(enum.table - formula.table).max()))
    broken = g.pair_pmf_closed_form(mitosis88, (2, 0), include_same_family=False)
    enum20 = g.pair_pmf_exact(mitosis88, (2, 0))
    break_gap = float(np.abs(enum20.table - broken.table).max())
    check(
        "criterion 7 (two-individual law oracle)",
        worst <= 1e-10 and break_gap > 1e-10,
        f"max enum-vs-formula gap={worst:.2e}; "
        f"dropping the same-family term opens a {break_gap:.3f} gap",
    )


@pytest.fixture(scope="module")
def non_sibling_trend(tmp_path_factory):
    # the mean over 5 replicates of P(D_n) given the realized family sizes
    spec = {"builtin": "mitosis", "params": {"alpha": 0.8, "theta": 0.8}}
    config = ExperimentConfig(
        name="pdn",
        cells=tuple(
            ExperimentCell(f"n{n:02d}", spec, (1, 1), n, SampleSizeRule())
            for n in (8, 10, 12, 14, 20)
        ),
        replicates=5,
        master_seed=20_08_08,
        estimator="prob_distinct",
        out_dir=tmp_path_factory.mktemp("pdn"),
    )
    summary = g.run_experiment(config)
    return {n: summary.value(f"n{n:02d}", "prob_distinct") for n in (8, 10, 12, 14, 20)}


def test_criterion_08a_non_sibling_trend_and_tv(mitosis88, non_sibling_trend):
    values = [non_sibling_trend[n] for n in (8, 10, 12, 14)]
    increasing = all(a < b for a, b in zip(values, values[1:]))
    pair = g.perron(g.reproduction_matrix(mitosis88))
    ps = g.size_biased_pmf(mitosis88, pair)
    samples = []
    for k in range(200):
        seed = SeedSpec(20_08_08, replicate=k)
        trace = g.simulate_aggregate(mitosis88, (1, 1), 16, seed)
        samples.append(g.draw_family_sample(g.sampling_view(trace), 256, seed))
    tv_marginal, _ = g.empirical_tv_to_limit(samples, ps)
    check(
        "criterion 8a (non-sibling trend + sampling-law convergence)",
        increasing and tv_marginal < 0.05,
        f"P(D_n) over n=8..14: {[f'{v:.4f}' for v in values]}; "
        f"pooled marginal TV at n=16, r=256: {tv_marginal:.5f}",
    )


def test_criterion_08b_non_sibling_level_at_n14(mitosis88, non_sibling_trend):
    # Mitosis from z0 = (1, 1) has 2^n families of exactly two children at
    # depth n, so the conditional non-sibling probability has no Monte Carlo
    # variance and a closed form: with N = 2^(n+1) and r = n^2,
    # P(D_n) = prod_{a<r} (N - 2a)/(N - a). That gives 0.556163 at n = 14
    # and 0.962656 at n = 20.
    # The paper's theorem sends P(D_n) to 1 only while the validity ratio
    # r^2 rho^-n heads to 0. It is 196^2 / 2^14 = 2.34 at n = 14, outside that
    # regime, and 400^2 / 2^20 = 0.153 at n = 20, the paper depth of table1.
    # (a) n = 14 is checked against the closed form to 1e-12: this catches a
    #     drift in r, in the family sizes or in the estimator.
    # (b) the 0.95 level is asked for at n = 20, where the theorem applies,
    #     and the value there must match the closed form as well.
    # (c) n = 14 is asserted to lie outside the regime, which is why it is
    #     not held to the 0.95 level.
    rule = SampleSizeRule()
    rho = g.perron(g.reproduction_matrix(mitosis88)).rho
    exact14 = float(mitosis_prob_distinct(14, 14**2))
    value14 = non_sibling_trend[14]
    err14 = abs(value14 - exact14) / exact14
    validity14 = rule.validity(14, rho)
    value20 = non_sibling_trend[20]
    validity20 = rule.validity(20, rho)
    exact20 = float(mitosis_prob_distinct(20, 20**2))
    err20 = abs(value20 - exact20) / exact20
    check(
        "criterion 8b (exact level at n=14; 0.95 level at n=20)",
        err14 <= 1e-12
        and validity14 > 1
        and validity20 < 1
        and value20 > 0.95
        and err20 <= 1e-12,
        f"P(D_14) = {value14:.6f} vs closed form {exact14:.6f} (rel err "
        f"{err14:.1e}, r^2 rho^-n = {validity14:.3f}); "
        f"P(D_20) = {value20:.6f} vs closed form {exact20:.6f} (rel err "
        f"{err20:.1e}, r^2 rho^-n = {validity20:.3f})",
    )


def test_criterion_09a_optimizer_matches_closed_form():
    rng = np.random.default_rng(20_08_09)
    family = lambda th: g.mitosis_model(th[0], th[1])
    bounds = ((1e-6, 1 - 1e-6), (1e-6, 1 - 1e-6))
    checked = 0
    worst = 0.0
    while checked < 100:
        a, t = rng.uniform(0.2, 0.9, size=2)
        model = g.mitosis_model(a, t)
        ps = g.size_biased_pmf(model, g.perron(g.reproduction_matrix(model)))
        probs = [ps.prob_of(u) for u in [(2, 0), (1, 1), (0, 2)]]
        n1, nb, n2 = (int(x) for x in rng.multinomial(400, probs))
        cf = g.mitosis_closed_form(n1, nb, n2, 400)
        if cf.degenerate or not cf.in_range or 4 * n1 * n2 < nb * nb:
            continue
        broods = np.array(
            [(2, 0)] * n1 + [(1, 1)] * nb + [(0, 2)] * n2, dtype=np.int64
        )
        fit = g.amle_fit(family, broods, (0.5, 0.5), bounds)
        roots = [(cf.alpha_hat, cf.theta_hat)]
        twin = g.mitosis_twin_root(n1, nb, n2, 400)
        if twin is not None:
            # equal-likelihood twin: same size-biased law, indistinguishable
            roots.append(twin)
        gap = min(
            max(abs(fit.theta_hat[0] - ra), abs(fit.theta_hat[1] - rt))
            for ra, rt in roots
        )
        worst = max(worst, gap)
        checked += 1
    check(
        "criterion 9a (optimizer vs closed form, 100 triples)",
        worst <= 1e-4,
        f"max parameter gap to the exact solution set = {worst:.2e}",
    )


def test_criterion_09b_proportion_ci_coverage(table1_cell_run):
    _, rows, _ = table1_cell_run
    first = rows[:500]
    covered = sum(
        1 for r in first if float(r["b1_lo"]) <= 0.5 <= float(r["b1_hi"])
    )
    rate = covered / 500
    check(
        "criterion 9b (95% CI coverage for the leading proportion)",
        0.93 <= rate <= 0.97,
        f"coverage {covered}/500 = {rate:.3f}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    def run(out, workers):
        res = subprocess.run(
            [
                sys.executable, "-m", "gwfam.cli", "experiment",
                "--preset", "pdn-trend", "--replicates", "16",
                "--seed", "77", "--workers", str(workers), "--out-dir", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out).glob("*.csv"))
        }

    serial = run(tmp_path / "w1", 1)
    parallel = run(tmp_path / "w8", 8)
    repeat = run(tmp_path / "again", 1)
    ok = serial == parallel == repeat and len(serial) == 5
    check(
        "criterion 10 (byte-identical outputs across workers and reruns)",
        ok,
        f"{len(serial)} CSVs hashed identically for 1 worker, 8 workers, and a rerun",
    )
