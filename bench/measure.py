"""The measured process: one workload timed in batches, then checked.

bench.py starts it in a fresh interpreter with BLAS/OpenMP threads pinned
to one and ``src`` on the path:

    python3 bench/measure.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR

It runs one untimed warm-up batch, then batches of ``run_experiment`` calls
until ``--seconds`` have passed. With ``--trace 1`` it spends half the time
untraced and then reruns the same batches traced. Afterwards it replays
every replicate to check the rows. It prints one JSON object as its last
line of output.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
import scipy

import gwfam
import spans
from workloads import WORKLOADS, Workload, batch_seed, check_means, check_rows

WARMUP_BATCH = 1 << 30  # batch index of the untimed warm-up, never a timed one
MAX_FAILURES_REPORTED = 10


@dataclass
class Batch:
    index: int
    master_seed: int
    replicates: int
    wall: float = 0.0
    cpu: float = 0.0
    rows: list[dict] = field(default_factory=list)
    csv_bytes: int = 0
    error: str | None = None


def per_replicate(batches: list[Batch]) -> float:
    """Wall time of the timed batches over the replicates they ran.

    Other tenants of a shared machine slow whole stretches of a run. Over
    runs on different seeds, the mean over the whole run spread less than
    the median or a low quantile of the per-batch times, because it
    averages the slow and fast stretches instead of picking among them.
    """
    return sum(b.wall for b in batches) / sum(b.replicates for b in batches)


def run_batch(wl: Workload, seed: int, index: int, work: Path, replicates: int | None = None) -> Batch:
    config = wl.config(batch_seed(seed, index), work, replicates)
    batch = Batch(index, config.master_seed, config.replicates)
    t0, c0 = perf_counter(), process_time()
    try:
        summary = gwfam.run_experiment(config)
    except Exception:
        batch.error = traceback.format_exc(limit=3)
    batch.wall, batch.cpu = perf_counter() - t0, process_time() - c0
    if batch.error:
        return batch
    path = summary.per_replicate_paths["cell"]
    with open(path, newline="", encoding="utf-8") as fh:
        batch.rows = list(csv.DictReader(fh))
    batch.csv_bytes = path.stat().st_size + summary.summary_path.stat().st_size
    return batch


def measure(wl: Workload, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    work = out / f"csv-{wl.name}"
    batches: list[Batch] = []
    traced: list[Batch] = []
    tracer = spans.Tracer()
    try:
        run_batch(wl, seed, WARMUP_BATCH, work, replicates=1)
        deadline = perf_counter() + (seconds / 2 if trace else seconds)
        while not batches or perf_counter() < deadline:
            batches.append(run_batch(wl, seed, len(batches), work))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            with tracer:
                for b in batches:
                    tracer.batch = b.index
                    with tracer.span(spans.ROOT, {"replicates": b.replicates}):
                        traced.append(run_batch(wl, seed, b.index, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed, failures = check(wl, batches, traced)
    ok = [b for b in batches if b.error is None]
    populations = [int(row["population"]) for b in ok for row in b.rows]
    model = gwfam.model_from_dict(wl.model_spec)
    rho = gwfam.perron(gwfam.reproduction_matrix(model)).rho
    result = {
        "attempted": sum(b.replicates for b in batches),
        "failed": failed,
        "correct": not failures,
        "failures": failures[:MAX_FAILURES_REPORTED],
        "replicate_s": per_replicate(ok) if ok else None,
        "peak_rss_mb": peak_rss_mb,
        "batches": [
            {
                "index": b.index,
                "master_seed": b.master_seed,
                "replicates": b.replicates,
                "wall_s": b.wall,
                "cpu_s": b.cpu,
            }
            for b in batches
        ],
        "population": {
            "min": min(populations, default=None),
            "median": statistics.median(populations) if populations else None,
            "max": max(populations, default=None),
        },
        "validity_ratio": gwfam.SampleSizeRule().validity(wl.n, rho),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if trace:
        result["layer"] = _layer(wl, batches, traced, tracer)
        result["absent"] = tracer.absent
        spans.write_spans(tracer.spans, out / f"spans-{wl.name}.jsonl")
    return result


def check(wl: Workload, batches: list[Batch], traced: list[Batch]) -> tuple[int, list[str]]:
    """Failed replicates and the reasons, over every batch of the run."""
    failed = 0
    failures = []
    for b in batches:
        if b.error:
            failed += b.replicates
            failures.append(f"batch {b.index}: run_experiment raised\n{b.error}")
            continue
        bad = check_rows(wl, b.master_seed, b.replicates, b.rows, replay_rows=wl.replays(b.index))
        for k, reason in sorted(bad.items()):
            failed += 1
            failures.append(f"batch {b.index} replicate {k}: {reason}")
    for b, t in zip(batches, traced):
        if b.error is None and t.rows != b.rows:
            failed += b.replicates
            failures.append(f"batch {b.index}: the traced rerun wrote other rows")
    means = check_means(wl, [row for b in batches for row in b.rows])
    if means:
        failures.append(means)
    return failed, failures


def _layer(wl: Workload, batches: list[Batch], traced: list[Batch], tracer) -> dict:
    pairs = [(b, t) for b, t in zip(batches, traced) if b.error is None and t.error is None]
    replicates = sum(t.replicates for _, t in pairs)
    layer = spans.layer_metrics(tracer, max(replicates, 1), wl.r)
    layer["trace_overhead_frac"] = (
        sum(t.wall for _, t in pairs) / sum(b.wall for b, _ in pairs) - 1.0 if pairs else 0.0
    )
    layer["experiment.csv_bytes"] = (
        sum(t.csv_bytes for _, t in pairs) / replicates if replicates else 0.0
    )
    rows = [row for _, t in pairs for row in t.rows]
    layer["sampling.non_sibling_rate"] = (
        statistics.fmean(int(row["non_sibling"]) for row in rows) if rows else 0.0
    )
    return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.out)
    result["gwfam_file"] = gwfam.__file__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
