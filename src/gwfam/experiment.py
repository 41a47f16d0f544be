"""Configuration-driven replication harness.

An experiment is a list of cells (model + run parameters) executed for many
replicates each. Every replicate derives its randomness from
(master seed, cell index, replicate index) alone, so runs are reproducible
byte-for-byte no matter how many workers execute them. Outputs are CSV: one
per-replicate file per cell plus a tidy summary with one row per estimand
(theoretical value, mean, sd), mirroring the layout of the simulation-study
tables this harness reproduces.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field
from multiprocessing import Pool
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import GwfamError, InvalidArgument, MalformedCsv, UnknownPreset
from .estimators import (
    _normal_quantile,
    amle_fit,
    mitosis_closed_form,
    mitosis_counts,
    mom_confidence,
    mom_estimates,
)
from .models import mitosis_model, model_from_dict
from .sampling import (
    SampleSizeRule,
    draw_family_sample,
    is_non_sibling,
    prob_distinct,
)
from .simulate import SeedSpec, sampling_view, simulate_aggregate
from .spectral import asymptotic_variances, perron, reproduction_matrix

DEFAULT_OUT_ENV = "GWFAM_OUTDIR"


@dataclass(frozen=True)
class ExperimentCell:
    """One parameter combination of an experiment grid."""

    label: str
    model_spec: dict
    z0: tuple[int, ...]
    n: int
    rule: SampleSizeRule

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "model": self.model_spec,
            "z0": list(self.z0),
            "n": self.n,
            "rule": self.rule.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "ExperimentCell":
        if not all(isinstance(x, (int, float)) and float(x).is_integer() for x in d["z0"]):
            raise InvalidArgument(f"z0 must hold integer counts, got {d['z0']}")
        return ExperimentCell(
            label=str(d["label"]),
            model_spec=d["model"],
            z0=tuple(int(x) for x in d["z0"]),
            n=int(d["n"]),
            rule=SampleSizeRule.from_dict(d["rule"]),
        )


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    cells: tuple[ExperimentCell, ...]
    replicates: int
    master_seed: int
    estimator: str  # mom | amle | mitosis_closed_form | prob_distinct
    ci_level: float = 0.95
    workers: int = 1
    out_dir: Path = field(default_factory=lambda: Path(os.environ.get(DEFAULT_OUT_ENV, "gwfam_out")))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "replicates": self.replicates,
            "master_seed": self.master_seed,
            "estimator": self.estimator,
            "ci_level": self.ci_level,
            "workers": self.workers,
            "out_dir": str(self.out_dir),
            "cells": [c.to_dict() for c in self.cells],
        }

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        return ExperimentConfig(
            name=str(d["name"]),
            cells=tuple(ExperimentCell.from_dict(c) for c in d["cells"]),
            replicates=int(d["replicates"]),
            master_seed=int(d["master_seed"]),
            estimator=str(d["estimator"]),
            ci_level=float(d.get("ci_level", 0.95)),
            workers=int(d.get("workers", 1)),
            out_dir=Path(d.get("out_dir", os.environ.get(DEFAULT_OUT_ENV, "gwfam_out"))),
        )


@dataclass(frozen=True)
class ReplicationSummary:
    """Aggregated experiment outcome plus pointers to the emitted CSVs."""

    config: ExperimentConfig
    rows: tuple[dict, ...]
    per_replicate_paths: dict[str, Path]
    summary_path: Path
    runtime_seconds: float

    def value(self, cell: str, estimand: str, column: str = "mean") -> float:
        for row in self.rows:
            if row["cell"] == cell and row["estimand"] == estimand:
                return float(row[column])
        raise KeyError(f"no summary row for cell={cell!r} estimand={estimand!r}")


# --- per-replicate work ----------------------------------------------------

_BUNDLE_CACHE: dict[str, tuple] = {}


def _bundle(spec_json: str):
    """Model plus derived spectral objects, cached per worker process."""
    bundle = _BUNDLE_CACHE.get(spec_json)
    if bundle is None:
        model = model_from_dict(json.loads(spec_json))
        pair = perron(reproduction_matrix(model))
        var = asymptotic_variances(model, pair)
        _BUNDLE_CACHE[spec_json] = bundle = (model, pair, var)
    return bundle


def _replicate_row(task: tuple) -> dict:
    payload, k = task
    model, pair, var = _bundle(payload["model_spec_json"])
    seed = SeedSpec(payload["cell_master"], replicate=k)
    n = payload["n"]
    r = payload["r"]
    trace = simulate_aggregate(model, payload["z0"], n, seed)
    sample = draw_family_sample(sampling_view(trace), r, seed)
    row: dict = {
        "replicate": k,
        "population": int(trace.totals()[-1]),
        "non_sibling": int(is_non_sibling(sample)),
    }
    estimator = payload["estimator"]
    if estimator == "mitosis_closed_form":
        n1, nb, n2 = mitosis_counts(sample)
        est = mitosis_closed_form(n1, nb, n2, r)
        z = _normal_quantile(payload["ci_level"])
        half = z * math.sqrt(var.ratio_covariance[0, 0] / r)
        row.update(
            alpha_hat=est.alpha_hat,
            theta_hat=est.theta_hat,
            b1_hat=est.b1_hat,
            b1_lo=est.b1_hat - half,
            b1_hi=est.b1_hat + half,
            degenerate=int(est.degenerate),
        )
    elif estimator == "mom":
        est = mom_confidence(mom_estimates(sample.broods), var, payload["ci_level"])
        row["rho_hat"] = est.rho_hat
        row["rho_lo"], row["rho_hi"] = est.ci_rho
        for i in range(model.n_types):
            row[f"b{i + 1}"] = float(est.ratio_means[i])
            row[f"b{i + 1}_lo"] = float(est.ci_b[i, 0])
            row[f"b{i + 1}_hi"] = float(est.ci_b[i, 1])
    elif estimator == "amle":
        spec = json.loads(payload["model_spec_json"])
        if spec.get("builtin") != "mitosis":
            raise ValueError("the amle estimator is wired up for the mitosis family only")
        fit = amle_fit(
            lambda th: mitosis_model(th[0], th[1]),
            sample.broods,
            theta0=(0.5, 0.5),
            bounds=((1e-6, 1.0 - 1e-6), (1e-6, 1.0 - 1e-6)),
        )
        row.update(
            alpha_hat=float(fit.theta_hat[0]),
            theta_hat=float(fit.theta_hat[1]),
            loglik=fit.loglik,
            converged=int(fit.converged),
        )
    elif estimator == "prob_distinct":
        row["prob_distinct"] = prob_distinct(trace.family_size_counts(), r)
        row["r"] = r
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return row


# --- the harness -----------------------------------------------------------


def run_experiment(config: ExperimentConfig) -> ReplicationSummary:
    """Run every cell for the configured replicates and write the CSVs.

    Deterministic for a fixed config: cell seeds derive from
    (master_seed, cell index) and replicate seeds from (cell seed, replicate
    index), so worker count and scheduling cannot change any output byte.
    """
    if config.replicates < 1:
        raise GwfamError(f"replicates must be >= 1, got {config.replicates}")
    t0 = time.perf_counter()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_rows: list[dict] = []
    per_replicate_paths: dict[str, Path] = {}
    for cell_index, cell in enumerate(config.cells):
        spec_json = json.dumps(cell.model_spec, sort_keys=True)
        payload = {
            "model_spec_json": spec_json,
            "cell_master": SeedSpec.cell_master(config.master_seed, cell_index),
            "z0": cell.z0,
            "n": cell.n,
            "r": cell.rule.sample_size(cell.n),
            "estimator": config.estimator,
            "ci_level": config.ci_level,
        }
        tasks = [(payload, k) for k in range(config.replicates)]
        try:
            if config.workers > 1:
                with Pool(processes=config.workers) as pool:
                    rows = pool.map(_replicate_row, tasks)
            else:
                rows = [_replicate_row(t) for t in tasks]
        except Exception as exc:
            _write_failure_manifest(out_dir, config, cell, exc)
            raise
        path = out_dir / f"{config.name}__{cell.label}__replicates.csv"
        _write_csv(path, rows)
        per_replicate_paths[cell.label] = path
        summary_rows.extend(
            _summarize_cell(cell, rows, _theoretical_values(cell), config.replicates)
        )
    summary_path = out_dir / f"{config.name}__summary.csv"
    _write_csv(summary_path, summary_rows)
    return ReplicationSummary(
        config=config,
        rows=tuple(summary_rows),
        per_replicate_paths=per_replicate_paths,
        summary_path=summary_path,
        runtime_seconds=time.perf_counter() - t0,
    )


def _theoretical_values(cell: ExperimentCell) -> dict[str, float]:
    model, pair, _ = _bundle(json.dumps(cell.model_spec, sort_keys=True))
    theo = {"rho_hat": pair.rho, "b1_hat": float(pair.b[0])}
    for i in range(model.n_types):
        theo[f"b{i + 1}"] = float(pair.b[i])
    params = cell.model_spec.get("params", {})
    if "alpha" in params:
        theo["alpha_hat"] = float(params["alpha"])
    if "theta" in params:
        theo["theta_hat"] = float(params["theta"])
    return theo


_SUMMARY_SKIP = {"replicate"}


def _summarize_cell(
    cell: ExperimentCell, rows: list[dict], theo: dict[str, float], replicates: int
) -> list[dict]:
    out = []
    for column in rows[0]:
        if column in _SUMMARY_SKIP:
            continue
        values = np.array([float(row[column]) for row in rows])
        out.append(
            {
                "cell": cell.label,
                "estimand": column,
                "theoretical": theo.get(column, ""),
                "mean": float(values.mean()),
                "sd": float(values.std(ddof=1)) if len(values) > 1 else 0.0,
                "replicates": replicates,
            }
        )
    return out


def _write_csv(path: Path, rows: Sequence[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = list(rows[0])
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_value(row[c]) for c in header])


def _format_value(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_failure_manifest(out_dir: Path, config, cell, exc: Exception) -> None:
    manifest = {
        "experiment": config.name,
        "failed_cell": cell.label,
        "error": f"{type(exc).__name__}: {exc}",
    }
    with open(out_dir / f"{config.name}__FAILED.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


# --- presets ---------------------------------------------------------------

TABLE1_GRID = ((0.8, 0.8), (0.8, 0.9), (0.9, 0.7), (0.9, 0.9))
PRESET_NAMES = ("table1", "table2", "pdn-trend", "pdn-rds")


def preset(name: str, scale: str = "desk") -> ExperimentConfig:
    """Built-in experiment configurations.

    ``table1``: the four-cell mitosis grid, closed-form estimates of
    (alpha, theta, b1) from samples of r_n = n^2 = 400 broods at n = 20.
    ``table2``: the referral-survey model with moment estimates of (rho, b);
    desk scale trims the depth to n = 14.
    ``pdn-trend``: exact-conditional non-sibling probabilities across
    n = 8..14 under the r_n = n^2 rule.
    ``pdn-rds``: the same on the referral-survey model from one seed per
    group, n = 12..20, where families have ten different sizes.

    ``scale="desk"`` keeps replicate counts laptop-friendly;
    ``scale="paper"`` restores the full 1000-replicate, n = 20 protocol.
    """
    if scale not in ("desk", "paper"):
        raise UnknownPreset(f"unknown scale {scale!r}; use desk or paper")
    desk = scale == "desk"
    rule = SampleSizeRule(kind="polynomial", exponent=2.0)
    if name == "table1":
        cells = tuple(
            ExperimentCell(
                label=f"a{a}_t{t}",
                model_spec={"builtin": "mitosis", "params": {"alpha": a, "theta": t}},
                z0=(1, 1),
                n=20,
                rule=rule,
            )
            for a, t in TABLE1_GRID
        )
        return ExperimentConfig(
            name="table1",
            cells=cells,
            replicates=200 if desk else 1000,
            master_seed=20_08_01,
            estimator="mitosis_closed_form",
        )
    if name == "table2":
        # One seed respondent per group: a single seed leaves a heavy left
        # tail on |Z_n| (a run of 1-survey chains can keep the tree under
        # the sample size even at n = 14); four independent seeds make that
        # event vanishingly rare.
        cell = ExperimentCell(
            label="defaults",
            model_spec={"builtin": "rds"},
            z0=(1, 1, 1, 1),
            n=14 if desk else 20,
            rule=rule,
        )
        return ExperimentConfig(
            name="table2",
            cells=(cell,),
            replicates=200 if desk else 1000,
            master_seed=20_08_02,
            estimator="mom",
        )
    if name == "pdn-trend":
        cells = tuple(
            ExperimentCell(
                label=f"n{n:02d}",
                model_spec={"builtin": "mitosis", "params": {"alpha": 0.8, "theta": 0.8}},
                z0=(1, 1),
                n=n,
                rule=rule,
            )
            for n in (8, 10, 12, 14)
        )
        return ExperimentConfig(
            name="pdn-trend",
            cells=cells,
            replicates=50 if desk else 200,
            master_seed=20_08_03,
            estimator="prob_distinct",
        )
    if name == "pdn-rds":
        cells = tuple(
            ExperimentCell(
                label=f"n{n:02d}",
                model_spec={"builtin": "rds"},
                z0=(1, 1, 1, 1),
                n=n,
                rule=rule,
            )
            for n in (12, 14, 16, 18, 20)
        )
        return ExperimentConfig(
            name="pdn-rds",
            cells=cells,
            replicates=50 if desk else 200,
            master_seed=20_08_04,
            estimator="prob_distinct",
        )
    raise UnknownPreset(f"unknown preset {name!r}; have {', '.join(PRESET_NAMES)}")


# --- histograms ------------------------------------------------------------


def emit_histograms(
    per_replicate_csv: str | Path, bins: int, out_path: str | Path | None = None
) -> Path:
    """Bin every numeric column of a per-replicate CSV for external plotting.

    Equal-width bins over the observed range; a constant column occupies a
    single bin. Returns the path of the written histogram CSV.
    """
    src = Path(per_replicate_csv)
    if bins < 1:
        raise ValueError("need at least one bin")
    with open(src, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        data_rows = list(reader)
    if not data_rows or reader.fieldnames is None:
        raise MalformedCsv(f"{src} has no data rows")
    columns: dict[str, list[float]] = {}
    for name in reader.fieldnames:
        if name in ("replicate",):
            continue
        try:
            columns[name] = [float(row[name]) for row in data_rows]
        except (TypeError, ValueError):
            continue
    if not columns:
        raise MalformedCsv(f"{src} has no numeric columns")
    out = Path(out_path) if out_path else src.with_name(src.stem + f"__hist{bins}.csv")
    rows = []
    for name, values in columns.items():
        arr = np.array(values)
        lo, hi = float(arr.min()), float(arr.max())
        if lo == hi:
            rows.append(
                {"column": name, "bin": 0, "lo": lo, "hi": hi, "count": arr.size}
            )
            continue
        counts, edges = np.histogram(arr, bins=bins, range=(lo, hi))
        for b, c in enumerate(counts):
            rows.append(
                {
                    "column": name,
                    "bin": b,
                    "lo": float(edges[b]),
                    "hi": float(edges[b + 1]),
                    "count": int(c),
                }
            )
    _write_csv(out, rows)
    return out
