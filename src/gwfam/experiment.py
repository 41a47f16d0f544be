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
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    GwfamError,
    InvalidArgument,
    MalformedCsv,
    ReplicateFailed,
    UnknownPreset,
)
from .estimators import (
    _normal_quantile,
    amle_fit,
    mitosis_closed_form,
    mitosis_counts,
    mitosis_size_biased_pmf,
    mom_confidence,
    mom_estimates,
)
from .models import model_from_dict
from .sampling import (
    SampleSizeRule,
    _integral,
    draw_family_sample,
    is_non_sibling,
    prob_distinct,
)
from .simulate import SeedSpec, simulate_aggregate
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
        return ExperimentCell(
            label=str(d["label"]),
            model_spec=d["model"],
            z0=tuple(_integral(x, "each z0 count") for x in d["z0"]),
            n=_integral(d["n"], "cell n"),
            rule=SampleSizeRule.from_dict(d["rule"]),
        )


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    cells: tuple[ExperimentCell, ...]
    replicates: int
    master_seed: int
    estimator: str  # a key of ESTIMATORS
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
        # keys left out take the field defaults
        optional = {
            "ci_level": float,
            "workers": lambda v: _integral(v, "workers"),
            "out_dir": Path,
        }
        try:
            return ExperimentConfig(
                name=str(d["name"]),
                cells=tuple(ExperimentCell.from_dict(c) for c in d["cells"]),
                replicates=_integral(d["replicates"], "replicates"),
                master_seed=_integral(d["master_seed"], "master_seed"),
                estimator=str(d["estimator"]),
                **{key: cast(d[key]) for key, cast in optional.items() if key in d},
            )
        except GwfamError:
            raise
        except KeyError as exc:
            raise InvalidArgument(f"experiment config lacks the key {exc}") from None
        except (TypeError, ValueError) as exc:
            # a value of the wrong type, such as a string ci_level or a number for cells
            raise InvalidArgument(f"experiment config has a wrongly typed value: {exc}") from None


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

@lru_cache(maxsize=None)
def _bundle(spec_json: str):
    """Model plus derived spectral objects, cached per worker process."""
    model = model_from_dict(json.loads(spec_json))
    pair = perron(reproduction_matrix(model))
    return model, pair, asymptotic_variances(model, pair)


# Each estimator's columns of a replicate row, from the replicate's trace and
# sample, the sample size, the model's limit variances and the CI level. The
# layer functions are looked up as module globals at call time, so they can
# be wrapped from outside.


def _mitosis_closed_form_row(trace, sample, r, var, ci_level) -> dict:
    est = mitosis_closed_form(*mitosis_counts(sample), r)
    half = _normal_quantile(ci_level) * math.sqrt(var.ratio_covariance[0, 0] / r)
    return {
        "alpha_hat": est.alpha_hat,
        "theta_hat": est.theta_hat,
        "b1_hat": est.b1_hat,
        "b1_lo": est.b1_hat - half,
        "b1_hi": est.b1_hat + half,
        "degenerate": int(est.degenerate),
    }


def _mom_row(trace, sample, r, var, ci_level) -> dict:
    est = mom_confidence(mom_estimates(sample.broods), var, ci_level)
    row = {"rho_hat": est.rho_hat, "rho_lo": est.ci_rho[0], "rho_hi": est.ci_rho[1]}
    for i, (b, (lo, hi)) in enumerate(zip(est.ratio_means, est.ci_b), start=1):
        row.update({f"b{i}": float(b), f"b{i}_lo": float(lo), f"b{i}_hi": float(hi)})
    return row


def _amle_row(trace, sample, r, var, ci_level) -> dict:
    fit = amle_fit(
        mitosis_size_biased_pmf,
        sample.broods,
        theta0=(0.9, 0.9),
        bounds=((1e-6, 1.0 - 1e-6), (1e-6, 1.0 - 1e-6)),
    )
    return {
        "alpha_hat": float(fit.theta_hat[0]),
        "theta_hat": float(fit.theta_hat[1]),
        "loglik": fit.loglik,
        "converged": int(fit.converged),
    }


def _prob_distinct_row(trace, sample, r, var, ci_level) -> dict:
    return {"prob_distinct": prob_distinct(trace.family_size_counts(), r), "r": r}


ESTIMATORS = {
    "mom": _mom_row,
    "amle": _amle_row,  # wired up for the builtin mitosis family only
    "mitosis_closed_form": _mitosis_closed_form_row,
    "prob_distinct": _prob_distinct_row,
}


def _replicate_row(task: tuple) -> dict:
    payload, k = task
    try:
        model, pair, var = _bundle(payload["model_spec_json"])
        seed = SeedSpec(payload["cell_master"], replicate=k)
        r = payload["r"]
        trace = simulate_aggregate(model, payload["z0"], payload["n"], seed)
        sample = draw_family_sample(trace, r, seed)
        row = {
            "replicate": k,
            "population": int(trace.totals()[-1]),
            "non_sibling": int(is_non_sibling(sample)),
        }
        row.update(ESTIMATORS[payload["estimator"]](trace, sample, r, var, payload["ci_level"]))
        return row
    except Exception as exc:
        raise ReplicateFailed(k, f"{type(exc).__name__}: {exc}") from exc


# --- the harness -----------------------------------------------------------


def run_experiment(config: ExperimentConfig) -> ReplicationSummary:
    """Run every cell for the configured replicates and write the CSVs.

    Deterministic for a fixed config: cell seeds derive from
    (master_seed, cell index) and replicate seeds from (cell seed, replicate
    index), so worker count and scheduling cannot change any output byte.

    The run stops at the first failing replicate (the lowest index of the
    failing cell): cells finished before it keep their CSVs, the failing
    cell writes none, and ``<name>__FAILED.json`` records the cell, the
    replicate and the cell seed, so ``SeedSpec(cell_seed, replicate)``
    replays it.
    """
    if config.replicates < 1:
        raise InvalidArgument(f"replicates must be >= 1, got {config.replicates}")
    if config.workers < 1:
        raise InvalidArgument(f"workers must be >= 1, got {config.workers}")
    SeedSpec(config.master_seed)  # rejects a seed outside 64 unsigned bits
    if not config.cells:
        raise InvalidArgument("an experiment needs at least one cell")
    if config.estimator not in ESTIMATORS:
        raise InvalidArgument(
            f"unknown estimator {config.estimator!r}; have {', '.join(ESTIMATORS)}"
        )
    _normal_quantile(config.ci_level)  # rejects a level outside (0, 1)
    spec_jsons = [json.dumps(cell.model_spec, sort_keys=True) for cell in config.cells]
    sample_sizes = [cell.rule.sample_size(cell.n) for cell in config.cells]
    for cell, spec_json in zip(config.cells, spec_jsons):
        # built once here, before any output, and cached for every replicate
        try:
            _bundle(spec_json)
        except GwfamError:
            raise
        except Exception as exc:
            raise InvalidArgument(
                f"cell {cell.label!r}: cannot build its model: {type(exc).__name__}: {exc}"
            ) from exc
    if config.estimator == "amle" and any(
        cell.model_spec.get("builtin") != "mitosis" for cell in config.cells
    ):
        raise InvalidArgument("the amle estimator is wired up for the builtin mitosis family only")
    t0 = time.perf_counter()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_rows: list[dict] = []
    per_replicate_paths: dict[str, Path] = {}
    for cell_index, (cell, spec_json) in enumerate(zip(config.cells, spec_jsons)):
        cell_seed = SeedSpec.cell_master(config.master_seed, cell_index)
        payload = {
            "model_spec_json": spec_json,
            "cell_master": cell_seed,
            "z0": cell.z0,
            "n": cell.n,
            "r": sample_sizes[cell_index],
            "estimator": config.estimator,
            "ci_level": config.ci_level,
        }
        tasks = [(payload, k) for k in range(config.replicates)]
        try:
            if config.workers > 1:
                # imported here: multiprocessing pulls in socket and selectors
                from multiprocessing import Pool
                chunk = -(-len(tasks) // (4 * config.workers))
                with Pool(processes=config.workers) as pool:
                    # in order, so the failure raised is the lowest index
                    rows = list(pool.imap(_replicate_row, tasks, chunksize=chunk))
            else:
                rows = [_replicate_row(t) for t in tasks]
        except ReplicateFailed as exc:
            manifest = {
                "experiment": config.name,
                "failed_cell": cell.label,
                "cell_seed": cell_seed,
                "replicate": exc.replicate,
                "error": exc.error,
            }
            with open(out_dir / f"{config.name}__FAILED.json", "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
            raise
        path = out_dir / f"{config.name}__{cell.label}__replicates.csv"
        write_csv(path, list(rows[0]), rows)
        per_replicate_paths[cell.label] = path
        theo = _theoretical_values(cell, payload["model_spec_json"])
        summary_rows.extend(_summarize_cell(cell, rows, theo, config.replicates))
    summary_path = out_dir / f"{config.name}__summary.csv"
    write_csv(summary_path, list(summary_rows[0]), summary_rows)
    return ReplicationSummary(
        config=config,
        rows=tuple(summary_rows),
        per_replicate_paths=per_replicate_paths,
        summary_path=summary_path,
        runtime_seconds=time.perf_counter() - t0,
    )


def _theoretical_values(cell: ExperimentCell, spec_json: str) -> dict[str, float]:
    model, pair, _ = _bundle(spec_json)
    theo = {"rho_hat": pair.rho, "b1_hat": float(pair.b[0])}
    for i in range(model.n_types):
        theo[f"b{i + 1}"] = float(pair.b[i])
    params = cell.model_spec.get("params", {})
    if "alpha" in params:
        theo["alpha_hat"] = float(params["alpha"])
    if "theta" in params:
        theo["theta_hat"] = float(params["theta"])
    return theo


def _summarize_cell(
    cell: ExperimentCell, rows: list[dict], theo: dict[str, float], replicates: int
) -> list[dict]:
    out = []
    for column in rows[0]:
        if column == "replicate":
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


def write_csv(out: str | Path | None, header: Sequence[str], rows) -> None:
    """Write a header line and rows as CSV to the file ``out``, or to stdout
    when ``out`` is None or "-".

    Floats are written with ``repr``, everything else with ``str``; lines end
    in "\\n". A dict row is read in header order.
    """
    fh = sys.stdout if out is None or out == "-" else open(out, "w", encoding="utf-8", newline="")
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            values = [row[c] for c in header] if isinstance(row, dict) else row
            writer.writerow([repr(float(v)) if isinstance(v, float) else str(v) for v in values])
    finally:
        if fh is not sys.stdout:
            fh.close()


# --- presets ---------------------------------------------------------------

TABLE1_GRID = ((0.8, 0.8), (0.8, 0.9), (0.9, 0.7), (0.9, 0.9))


def _mitosis_spec(alpha: float, theta: float) -> dict:
    return {"builtin": "mitosis", "params": {"alpha": alpha, "theta": theta}}


# name -> (cells, replicates at desk / paper scale, master seed, estimator);
# a cell is (label, model spec, z0, depth at desk / paper scale).
# table2 starts from one seed respondent per group: a single seed leaves a
# heavy left tail on |Z_n| (a run of 1-survey chains can keep the tree under
# the sample size even at n = 14); four independent seeds make that event
# vanishingly rare.
_PRESETS = {
    "table1": (
        [(f"a{a}_t{t}", _mitosis_spec(a, t), (1, 1), (20, 20)) for a, t in TABLE1_GRID],
        (200, 1000),
        20_08_01,
        "mitosis_closed_form",
    ),
    "table2": (
        [("defaults", {"builtin": "rds"}, (1, 1, 1, 1), (14, 20))],
        (200, 1000),
        20_08_02,
        "mom",
    ),
    "pdn-trend": (
        [(f"n{n:02d}", _mitosis_spec(0.8, 0.8), (1, 1), (n, n)) for n in (8, 10, 12, 14)],
        (50, 200),
        20_08_03,
        "prob_distinct",
    ),
    "pdn-rds": (
        [(f"n{n:02d}", {"builtin": "rds"}, (1, 1, 1, 1), (n, n)) for n in (12, 14, 16, 18, 20)],
        (50, 200),
        20_08_04,
        "prob_distinct",
    ),
}
PRESET_NAMES = tuple(_PRESETS)


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
    if name not in _PRESETS:
        raise UnknownPreset(f"unknown preset {name!r}; have {', '.join(PRESET_NAMES)}")
    cells, replicates, master_seed, estimator = _PRESETS[name]
    at_scale = 0 if scale == "desk" else 1
    return ExperimentConfig(
        name=name,
        cells=tuple(
            # a fresh copy of the spec, so no config shares the table's dicts
            ExperimentCell(label, json.loads(json.dumps(spec)), z0, depth[at_scale], SampleSizeRule())
            for label, spec, z0, depth in cells
        ),
        replicates=replicates[at_scale],
        master_seed=master_seed,
        estimator=estimator,
    )


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
        raise InvalidArgument(f"need at least one bin, got {bins}")
    with open(src, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        data_rows = list(reader)
    if not data_rows or reader.fieldnames is None:
        raise MalformedCsv(f"{src} has no data rows")
    columns: dict[str, list[float]] = {}
    for name in reader.fieldnames:
        if name == "replicate":
            continue
        try:
            columns[name] = [float(row[name]) for row in data_rows]
        except (TypeError, ValueError):
            continue
        if not all(map(math.isfinite, columns[name])):
            raise MalformedCsv(f"{src}: column {name!r} holds a non-finite value")
    if not columns:
        raise MalformedCsv(f"{src} has no numeric columns")
    out = Path(out_path) if out_path else src.with_name(src.stem + f"__hist{bins}.csv")
    rows = []
    for name, values in columns.items():
        arr = np.array(values)
        lo, hi = float(arr.min()), float(arr.max())
        if lo == hi:
            rows.append((name, 0, lo, hi, arr.size))
            continue
        counts, edges = np.histogram(arr, bins=bins, range=(lo, hi))
        edges = edges.tolist()
        rows.extend((name, b, edges[b], edges[b + 1], c) for b, c in enumerate(counts.tolist()))
    write_csv(out, ["column", "bin", "lo", "hi", "count"], rows)
    return out
