"""Smoke test of the benchmark, kept out of the tier-1 suite by its name.

    python -m pytest bench/smoke.py

Runs every workload for one second in both modes and checks that every
metric BENCHMARK.json declares is printed with its unit. Then it feeds each
workload's checks a corrupted row, to show that they can fail.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gwfam  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, batch_seed, check_means, check_rows  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/bench.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    printed = {name: unit for name, _, unit in (line.split() for line in lines[:-1])}
    assert printed == {**declared, "failed_frac": "ratio"}


CORRUPTIONS = {
    "table1-mitosis": ("population", lambda v: str(int(v) + 1)),
    "nonsib-rds": ("prob_distinct", lambda v: repr(float(v) * (1.0 + 1e-9))),
    "fit-mitosis": ("alpha_hat", lambda v: repr(float(v) + 1e-3)),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checks_count_a_corrupted_or_missing_row_as_failed(workload, tmp_path):
    wl = WORKLOADS[workload]
    master = batch_seed(1, 0)
    summary = gwfam.run_experiment(wl.config(master, tmp_path, replicates=2))
    with open(summary.per_replicate_paths["cell"], newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert check_rows(wl, master, 2, rows) == {}
    column, corrupt = CORRUPTIONS[workload]
    bad = dict(rows[1], **{column: corrupt(rows[1][column])})
    assert set(check_rows(wl, master, 2, [rows[0], bad])) == {1}
    assert set(check_rows(wl, master, 2, rows[1:])) == {0}


def test_rows_not_replayed_still_get_the_row_checks(tmp_path):
    wl = WORKLOADS["table1-mitosis"]
    master = batch_seed(1, 0)
    summary = gwfam.run_experiment(wl.config(master, tmp_path, replicates=2))
    with open(summary.per_replicate_paths["cell"], newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    outside = dict(rows[0], b1_hat=repr(float(rows[0]["b1_hi"]) + 1.0))
    wrong_population = dict(rows[1], population=str(int(rows[1]["population"]) + 1))
    assert set(check_rows(wl, master, 2, [outside, wrong_population], replay_rows=False)) == {0}
    nonsib = WORKLOADS["nonsib-rds"]
    assert nonsib.replays(nonsib.replayed_batches - 1) and not nonsib.replays(nonsib.replayed_batches)


def test_means_check_flags_a_mean_far_from_theory():
    wl = WORKLOADS["table1-mitosis"]
    rows = [
        {"alpha_hat": 0.8 + d, "theta_hat": 0.8 - d, "b1_hat": 0.5 + d}
        for d in [0.01, -0.01] * 20
    ]
    assert check_means(wl, rows) is None
    shifted = [dict(row, alpha_hat=row["alpha_hat"] + 0.01) for row in rows]
    assert "alpha_hat" in check_means(wl, shifted)


def test_tracer_reports_a_missing_name_as_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(gwfam.experiment, "amle_fit")
    simulate = gwfam.experiment.simulate_aggregate
    wl = WORKLOADS["table1-mitosis"]
    with spans.Tracer() as tracer:
        with tracer.span(spans.ROOT, {"replicates": 2}):
            gwfam.run_experiment(wl.config(batch_seed(1, 0), tmp_path, replicates=2))
    assert gwfam.experiment.simulate_aggregate is simulate
    assert tracer.absent == ["gwfam.experiment.amle_fit"]
    layer = spans.layer_metrics(tracer, 2, wl.r)
    assert layer["estimators.amle_fit.calls"] == 0
    assert layer["simulate.simulate_aggregate.calls"] == 1
    sims = [s for s in tracer.spans if s.name == "simulate.simulate_aggregate"]
    assert [s.id for s in sims] == [0, 1]
    assert all(tracer.spans[s.parent].name == spans.ROOT for s in sims)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "table1-mitosis", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
