"""Command-line interface.

Subcommands cover the full pipeline: model validation and spectral analysis,
simulation, family sampling, estimation from sampled CSVs, the exact
combinatorial oracles, and the replication experiments with their presets.
Models are given either as a builtin spec like ``mitosis:alpha=0.8,theta=0.8``
or as a path to a JSON model file.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .errors import GwfamError, InvalidArgument, MalformedCsv
from .estimators import mom_confidence, mom_estimates, plugin_variances
from .experiment import (
    PRESET_NAMES,
    ExperimentConfig,
    emit_histograms,
    preset,
    run_experiment,
    write_csv,
)
from .models import parse_model_arg, validate_model
from .sampling import (
    draw_family_sample,
    is_non_sibling,
    pair_pmf_closed_form,
    pair_pmf_exact,
    prob_distinct_exact,
)
from .simulate import SeedSpec, sampling_view, simulate_aggregate
from .spectral import (
    asymptotic_variances,
    perron,
    reproduction_matrix,
    size_biased_pmf,
)


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InvalidArgument(f"expected comma-separated integers, got {text!r}") from None


def _cmd_validate(args) -> int:
    model = parse_model_arg(args.model)
    report = validate_model(model)
    payload = {**dataclasses.asdict(report), "messages": list(report.messages)}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key:22s} {value}")
    return 0 if report.ok else 2


def _cmd_spectral(args) -> int:
    model = parse_model_arg(args.model)
    m = reproduction_matrix(model)
    pair = perron(m)
    var = asymptotic_variances(model, pair)
    ps = size_biased_pmf(model, pair)
    max_alpha = validate_model(model).max_alpha
    if args.json:
        print(
            json.dumps(
                {
                    "rho": pair.rho,
                    "b": pair.b.tolist(),
                    "residual": pair.residual,
                    "inv_size_variance": var.inv_size_variance,
                    "ratio_covariance": var.ratio_covariance.tolist(),
                    "max_alpha": max_alpha,
                    "size_biased_total_mass": ps.total_mass(),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(f"{'rho':18s} {pair.rho!r}")
    print(f"{'b':18s} " + "  ".join(f"{x:.9f}" for x in pair.b))
    print(f"{'residual':18s} {pair.residual:.3e}")
    print(f"{'sigma_T^2':18s} {var.inv_size_variance!r}")
    for i, row in enumerate(var.ratio_covariance):
        label = "Sigma" if i == 0 else ""
        print(f"{label:18s} " + "  ".join(f"{x: .9f}" for x in row))
    print(f"{'max_alpha':18s} {max_alpha}")
    return 0


def _cmd_simulate(args) -> int:
    model = parse_model_arg(args.model)
    seed = SeedSpec(args.seed, replicate=args.replicate)
    trace = simulate_aggregate(model, _parse_ints(args.z0), args.n, seed)
    rows = []
    for k in range(trace.n + 1):
        for i, name in enumerate(model.type_names):
            children = int(trace.child_totals[k, i]) if k < trace.n else ""
            rows.append((k, name, int(trace.z[k, i]), children))
    write_csv(args.out, ["generation", "type", "count", "children"], rows)
    return 0


def _cmd_sample(args) -> int:
    model = parse_model_arg(args.model)
    header = ["replicate", "index", "parent_type", "parent_index", "non_sibling"] + [
        f"brood_{name}" for name in model.type_names
    ]
    rows = []
    for rep in range(args.replicates):
        seed = SeedSpec(args.seed, replicate=rep)
        trace = simulate_aggregate(model, _parse_ints(args.z0), args.n, seed)
        sample = draw_family_sample(sampling_view(trace), args.r, seed)
        flag = int(is_non_sibling(sample))
        records = zip(
            sample.parent_types.tolist(), sample.parent_indices.tolist(), sample.broods.tolist()
        )
        rows.extend((rep, j, t, i, flag, *b) for j, (t, i, b) in enumerate(records))
    write_csv(args.out, header, rows)
    return 0


def _brood_count(path: str, row: dict, column: str) -> int:
    try:
        return int(row[column])
    except (TypeError, ValueError):
        raise MalformedCsv(f"{path}: {column} holds {row[column]!r}, not an integer") from None


def _cmd_estimate(args) -> int:
    with open(args.input, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        brood_cols = [c for c in reader.fieldnames or [] if c.startswith("brood_")]
        if not brood_cols:
            raise MalformedCsv(f"{args.input}: no brood_* columns found")
        broods = [[_brood_count(args.input, row, c) for c in brood_cols] for row in reader]
    if not broods:
        raise MalformedCsv(f"{args.input}: no data rows")
    broods = np.array(broods, dtype=np.int64)
    est = mom_estimates(broods)
    if args.model:
        model = parse_model_arg(args.model)
        var = asymptotic_variances(model, perron(reproduction_matrix(model)))
        variance_source = "exact"
    else:
        var = plugin_variances(broods)
        variance_source = "plugin"
    est = mom_confidence(est, var, args.level)
    payload = {
        "r": est.r,
        "inv_size_mean": est.inv_size_mean,
        "rho_hat": est.rho_hat,
        "rho_ci": list(est.ci_rho),
        "rho_ci_degenerate": est.rho_ci_degenerate,
        "b_hat": est.ratio_means.tolist(),
        "b_ci": est.ci_b.tolist(),
        "ci_level": est.ci_level,
        "variance_source": variance_source,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        rows = [("rho", est.rho_hat, *est.ci_rho)] + [
            (name.removeprefix("brood_"), b, lo, hi)
            for name, b, (lo, hi) in zip(brood_cols, est.ratio_means.tolist(), est.ci_b.tolist())
        ]
        write_csv(args.out, ["estimand", "estimate", "lo", "hi"], rows)
    return 0


def _cmd_oracle_distinct(args) -> int:
    sizes = _parse_ints(args.sizes)
    value = prob_distinct_exact(sizes, args.r)
    if args.json:
        print(
            json.dumps(
                {
                    "sizes": list(sizes),
                    "r": args.r,
                    "numerator": value.numerator,
                    "denominator": value.denominator,
                    "value": float(value),
                }
            )
        )
    else:
        print(f"{value} = {float(value)!r}")
    return 0


def _cmd_oracle_pair(args) -> int:
    model = parse_model_arg(args.model)
    z_prev = _parse_ints(args.z_prev)
    table = (
        pair_pmf_closed_form(model, z_prev)
        if args.closed_form
        else pair_pmf_exact(model, z_prev)
    )
    labels = [",".join(map(str, v)) for v in table.vectors.tolist()]
    rows = [
        (labels[a], labels[b], p)
        for a, row in enumerate(table.table.tolist())
        for b, p in enumerate(row)
        if p > 0.0
    ]
    write_csv(args.out, ["u", "v", "prob"], rows)
    return 0


def _cmd_experiment(args) -> int:
    if args.preset:
        config = preset(args.preset, scale=args.scale)
    else:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                spec = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidArgument(f"{args.config} is not valid JSON: {exc}") from None
        config = ExperimentConfig.from_dict(spec)
    given = {
        "master_seed": args.seed,
        "replicates": args.replicates,
        "workers": args.workers,
        "out_dir": args.out_dir,
    }
    overrides = {key: value for key, value in given.items() if value is not None}
    summary = run_experiment(dataclasses.replace(config, **overrides))
    print(f"wrote {summary.summary_path}")
    for label, path in summary.per_replicate_paths.items():
        print(f"wrote {path}")
    print(f"runtime: {summary.runtime_seconds:.2f}s")
    widths = (12, 16, 14, 14, 14)
    print(
        f"{'cell':{widths[0]}s} {'estimand':{widths[1]}s} "
        f"{'theoretical':{widths[2]}s} {'mean':{widths[3]}s} {'sd':{widths[4]}s}"
    )
    for row in summary.rows:
        theo = row["theoretical"]
        theo_s = f"{theo:.6f}" if isinstance(theo, float) else str(theo)
        print(
            f"{row['cell']:{widths[0]}s} {row['estimand']:{widths[1]}s} "
            f"{theo_s:{widths[2]}s} {row['mean']:< 14.6f} {row['sd']:< 14.6f}"
        )
    return 0


def _cmd_preset(args) -> int:
    config = preset(args.name, scale=args.scale)
    print(json.dumps(config.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_histogram(args) -> int:
    out = emit_histograms(args.input, args.bins, args.out)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwfam",
        description="Multi-type branching processes under family-size sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(p):
        p.add_argument(
            "--model",
            required=True,
            help="builtin spec (e.g. mitosis:alpha=0.8,theta=0.8 or rds) or JSON file path",
        )

    p = sub.add_parser("validate", help="check model assumptions")
    add_model(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("spectral", help="Perron root, eigenvector, limit variances")
    add_model(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("simulate", help="aggregate generation trace as CSV")
    add_model(p)
    p.add_argument("--z0", required=True, help="initial type counts, e.g. 1,1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--replicate", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sample", help="draw family samples as CSV")
    add_model(p)
    p.add_argument("--z0", required=True)
    p.add_argument("--n", type=int, required=True, help="generation to sample from")
    p.add_argument("--r", type=int, required=True, help="individuals per replicate")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("estimate", help="moment estimates + CIs from a sample CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--model", default=None, help="use exact limit variances of this model")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--out", default=None, help="also write estimates as CSV")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("oracle", help="exact combinatorial oracles")
    oracle_sub = p.add_subparsers(dest="oracle", required=True)
    q = oracle_sub.add_parser("distinct", help="P(all sampled from distinct families)")
    q.add_argument("--sizes", required=True, help="family sizes, e.g. 2,1,3")
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_oracle_distinct)
    q = oracle_sub.add_parser("pair", help="two-individual joint sampling law")
    add_model(q)
    q.add_argument("--z-prev", required=True, help="parent type counts, e.g. 1,1")
    q.add_argument(
        "--closed-form",
        action="store_true",
        help="evaluate the term-by-term formula instead of enumerating",
    )
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_oracle_pair)

    p = sub.add_parser("experiment", help="run a replication experiment")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=PRESET_NAMES)
    group.add_argument("--config", help="experiment config JSON file")
    p.add_argument("--scale", choices=["desk", "paper"], default="desk")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument(
        "--out-dir",
        type=Path,
        help="output directory, overriding the preset's or config's "
        "(which default to $GWFAM_OUTDIR, else ./gwfam_out)",
    )
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("preset", help="print a preset experiment config as JSON")
    p.add_argument("name", choices=PRESET_NAMES)
    p.add_argument("--scale", choices=["desk", "paper"], default="desk")
    p.set_defaults(func=_cmd_preset)

    p = sub.add_parser("histogram", help="bin a per-replicate CSV for plotting")
    p.add_argument("--input", required=True)
    p.add_argument("--bins", type=int, default=30)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_histogram)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GwfamError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
