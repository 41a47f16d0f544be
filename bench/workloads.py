"""The benchmark's workloads and the checks that can fail them.

Each workload is one experiment cell run through ``gwfam.run_experiment``
with ``workers=1``. A run repeats the cell in batches; batch ``b`` of a run
with workload seed ``s`` uses the master seed ``batch_seed(s, b)``, so the
same seed always gives the same inputs.

The checks read the per-replicate rows back from the CSV the harness wrote
and replay each replicate from its ``SeedSpec(cell_master(master, 0), k)``,
the same derivation ``run_experiment`` uses for its single cell.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gwfam
from gwfam.experiment import ExperimentCell, ExperimentConfig
from gwfam.sampling import SampleSizeRule
from gwfam.simulate import SeedSpec

# A mean further than this many Monte Carlo standard errors from theory
# fails the run. Criterion 4 uses 3; the benchmark is run about seventy
# times per comparison on fresh seeds, and the estimators' small-sample
# bias is about half a standard error at a run's size, so 3 would raise a
# false alarm in one comparison out of ten.
MEAN_GATE_SE = 5.0
# The means check needs enough rows for the sample sd to mean something.
MEAN_MIN_ROWS = 20
FIT_GATE = 1e-4  # criterion 9a
PROB_REL_GATE = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    model_spec: dict
    z0: tuple[int, ...]
    n: int
    estimator: str
    batch: int  # replicates per run_experiment call, about one second of work
    # Batches whose replicates are replayed; None replays every batch. The
    # rows of the other batches get only the checks that need no replay.
    # A nonsib replay runs the exact oracle and costs a whole replicate.
    replayed_batches: int | None = None

    def replays(self, batch: int) -> bool:
        return self.replayed_batches is None or batch < self.replayed_batches

    @property
    def r(self) -> int:
        return SampleSizeRule().sample_size(self.n)

    def config(self, master_seed: int, out_dir: Path, replicates: int | None = None):
        cell = ExperimentCell(
            label="cell",
            model_spec=self.model_spec,
            z0=self.z0,
            n=self.n,
            rule=SampleSizeRule(),
        )
        return ExperimentConfig(
            name=self.name,
            cells=(cell,),
            replicates=self.batch if replicates is None else replicates,
            master_seed=master_seed,
            estimator=self.estimator,
            workers=1,
            out_dir=out_dir,
        )

    def shape(self) -> dict:
        return {
            "model": self.model_spec,
            "z0": list(self.z0),
            "n": self.n,
            "r": self.r,
            "estimator": self.estimator,
            "replicates_per_batch": self.batch,
        }


def _mitosis(alpha: float, theta: float) -> dict:
    return {"builtin": "mitosis", "params": {"alpha": alpha, "theta": theta}}


# Why each workload exists is in NOTES.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table1-mitosis",
            _mitosis(0.8, 0.8),
            (1, 1),
            20,
            "mitosis_closed_form",
            batch=10,
        ),
        Workload(
            "nonsib-rds",
            {"builtin": "rds"},
            (1, 1, 1, 1),
            16,
            "prob_distinct",
            batch=1,
            replayed_batches=8,
        ),
        Workload(
            "fit-mitosis",
            _mitosis(0.9, 0.7),
            (1, 1),
            14,
            "amle",
            batch=8,
        ),
    )
}


def batch_seed(seed: int, batch: int) -> int:
    """Master seed of batch ``batch`` of a run with workload seed ``seed``."""
    state = np.random.SeedSequence(entropy=seed, spawn_key=(batch,)).generate_state(1, np.uint64)
    return int(state[0])


def replay(wl: Workload, master_seed: int, k: int):
    """Replicate k's trace and seed, regenerated exactly as the harness drew them."""
    model = gwfam.model_from_dict(wl.model_spec)
    seed = SeedSpec(SeedSpec.cell_master(master_seed, 0), replicate=k)
    trace = gwfam.simulate_aggregate(model, wl.z0, wl.n, seed)
    return trace, seed


def check_rows(
    wl: Workload, master_seed: int, replicates: int, rows: list[dict], replay_rows: bool = True
) -> dict[int, str]:
    """Failed replicate index -> reason, for one batch's per-replicate rows.

    A replicate fails when its row is missing, fails a check of the row
    alone, or, with ``replay_rows``, disagrees with the replay.
    """
    by_k = {int(row["replicate"]): row for row in rows}
    failed = {k: "row missing" for k in range(replicates) if k not in by_k}
    for k, row in by_k.items():
        reason = _check_row_alone(wl, row)
        if reason is None and replay_rows:
            reason = _check_row_replayed(wl, master_seed, k, row)
        if reason:
            failed[k] = reason
    return failed


def _check_row_alone(wl: Workload, row: dict) -> str | None:
    if wl.estimator == "mitosis_closed_form":
        lo, hat, hi = (float(row[c]) for c in ("b1_lo", "b1_hat", "b1_hi"))
        if not lo <= hat <= hi:
            return f"b1 interval [{lo}, {hi}] does not hold b1_hat {hat}"
    elif wl.estimator == "prob_distinct":
        got = float(row["prob_distinct"])
        if not 0.0 <= got <= 1.0:
            return f"prob_distinct {got!r} is not in [0, 1]"
    return None


def _check_row_replayed(wl: Workload, master_seed: int, k: int, row: dict) -> str | None:
    trace, seed = replay(wl, master_seed, k)
    population = int(trace.totals()[-1])
    if int(row["population"]) != population:
        return f"population {row['population']} != replayed {population}"
    if wl.estimator == "prob_distinct":
        got = float(row["prob_distinct"])
        exact = float(gwfam.prob_distinct_exact(trace.family_size_counts(), wl.r))
        if abs(got - exact) > PROB_REL_GATE * exact:
            return f"prob_distinct {got!r} vs exact {exact!r}"
    elif wl.estimator == "amle":
        sample = gwfam.draw_family_sample(gwfam.sampling_view(trace), wl.r, seed)
        counts = gwfam.mitosis_counts(sample)
        cf = gwfam.mitosis_closed_form(*counts, wl.r)
        roots = [(cf.alpha_hat, cf.theta_hat)]
        twin = gwfam.mitosis_twin_root(*counts, wl.r)
        if twin is not None:
            roots.append(twin)
        fit = (float(row["alpha_hat"]), float(row["theta_hat"]))
        gap = min(max(abs(fit[0] - a), abs(fit[1] - t)) for a, t in roots)
        if not gap <= FIT_GATE:
            return f"fit {fit} is {gap:.3g} from the closed-form roots {roots}"
    return None


def check_means(wl: Workload, rows: list[dict]) -> str | None:
    """Run-level check of the closed-form estimates' means against theory."""
    if wl.estimator != "mitosis_closed_form" or len(rows) < MEAN_MIN_ROWS:
        return None
    model = gwfam.model_from_dict(wl.model_spec)
    b1 = float(gwfam.perron(gwfam.reproduction_matrix(model)).b[0])
    params = wl.model_spec["params"]
    theory = {"alpha_hat": params["alpha"], "theta_hat": params["theta"], "b1_hat": b1}
    for column, value in theory.items():
        xs = [float(row[column]) for row in rows]
        se = statistics.stdev(xs) / math.sqrt(len(xs))
        gap = abs(statistics.fmean(xs) - value)
        if not gap <= MEAN_GATE_SE * se:
            return f"mean {column} is {gap:.3g} from {value}, over {MEAN_GATE_SE} x se {se:.3g}"
    return None
