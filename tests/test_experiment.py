import csv
import dataclasses
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import gwfam as g
import gwfam.experiment
from gwfam.errors import (
    GwfamError,
    MalformedCsv,
    ReplicateFailed,
    SampleExceedsPopulation,
    UnknownPreset,
)
from gwfam.cli import main
from gwfam.experiment import ExperimentCell, ExperimentConfig
from gwfam.sampling import SampleSizeRule


def tiny_config(out_dir, estimator="mitosis_closed_form", replicates=6, workers=1):
    cell = ExperimentCell(
        label="cell0",
        model_spec={"builtin": "mitosis", "params": {"alpha": 0.8, "theta": 0.8}},
        z0=(1, 1),
        n=8,
        rule=SampleSizeRule(kind="fixed", size=30),
    )
    return ExperimentConfig(
        name="tiny",
        cells=(cell,),
        replicates=replicates,
        master_seed=99,
        estimator=estimator,
        workers=workers,
        out_dir=Path(out_dir),
    )


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRunExperiment:
    def test_outputs_and_summary(self, tmp_path):
        summary = g.run_experiment(tiny_config(tmp_path))
        assert summary.summary_path.exists()
        rows = read_csv(summary.per_replicate_paths["cell0"])
        assert len(rows) == 6
        assert {"alpha_hat", "theta_hat", "b1_hat", "non_sibling"} <= set(rows[0])
        assert summary.value("cell0", "alpha_hat", "theoretical") == 0.8

    def test_summary_matches_recomputation(self, tmp_path):
        summary = g.run_experiment(tiny_config(tmp_path, replicates=12))
        rows = read_csv(summary.per_replicate_paths["cell0"])
        for estimand in ("alpha_hat", "theta_hat", "b1_hat"):
            values = np.array([float(r[estimand]) for r in rows])
            assert summary.value("cell0", estimand) == pytest.approx(
                values.mean(), abs=1e-12
            )
            assert summary.value("cell0", estimand, "sd") == pytest.approx(
                values.std(ddof=1), abs=1e-12
            )

    def test_deterministic_across_runs_and_workers(self, tmp_path):
        out1 = g.run_experiment(tiny_config(tmp_path / "a", replicates=8, workers=1))
        out2 = g.run_experiment(tiny_config(tmp_path / "b", replicates=8, workers=4))
        b1 = out1.per_replicate_paths["cell0"].read_bytes()
        b2 = out2.per_replicate_paths["cell0"].read_bytes()
        assert b1 == b2
        assert out1.summary_path.read_bytes() == out2.summary_path.read_bytes()

    def test_mom_estimator_columns(self, tmp_path):
        cfg = dataclasses.replace(tiny_config(tmp_path, estimator="mom"))
        summary = g.run_experiment(cfg)
        rows = read_csv(summary.per_replicate_paths["cell0"])
        assert {"rho_hat", "rho_lo", "rho_hi", "b1", "b2", "b1_lo"} <= set(rows[0])
        assert summary.value("cell0", "b1", "theoretical") == pytest.approx(0.5)

    def test_prob_distinct_row_is_the_float_path(self, tmp_path):
        cfg = dataclasses.replace(
            tiny_config(tmp_path, estimator="prob_distinct", replicates=3),
            cells=(
                ExperimentCell(
                    label="rds",
                    model_spec={"builtin": "rds"},
                    z0=(1, 1, 1, 1),
                    n=8,
                    rule=SampleSizeRule(),
                ),
            ),
        )
        summary = g.run_experiment(cfg)
        rows = read_csv(summary.per_replicate_paths["rds"])
        model = g.rds_model()
        for row in rows:
            seed = g.SeedSpec(
                g.SeedSpec.cell_master(cfg.master_seed, 0), replicate=int(row["replicate"])
            )
            trace = g.simulate_aggregate(model, (1, 1, 1, 1), 8, seed)
            counts = trace.family_size_counts()
            assert float(row["prob_distinct"]) == g.prob_distinct(counts, 64)
            exact = g.prob_distinct_exact(counts, 64)
            assert abs(float(row["prob_distinct"]) - exact) <= 1e-12 * exact

    def test_prob_distinct_estimator(self, tmp_path):
        cfg = tiny_config(tmp_path, estimator="prob_distinct", replicates=3)
        summary = g.run_experiment(cfg)
        # mitosis families all have two members: the value is exact and constant
        expect = float(g.prob_distinct_exact({2: 2**8}, 30))
        assert summary.value("cell0", "prob_distinct") == pytest.approx(expect, abs=1e-15)
        assert summary.value("cell0", "prob_distinct", "sd") <= 1e-15

    def test_failure_manifest(self, tmp_path):
        # the second cell's populations at n = 2 run from 9 to 56 children,
        # so a sample of 20 fails on some of its replicates only
        bad = ExperimentCell(
            label="rds",
            model_spec={"builtin": "rds"},
            z0=(1, 1, 1, 1),
            n=2,
            rule=SampleSizeRule(kind="fixed", size=20),
        )
        model = g.rds_model()
        for workers in (1, 2):
            out_dir = tmp_path / f"w{workers}"
            cfg = tiny_config(out_dir, estimator="mom", replicates=12, workers=workers)
            cfg = dataclasses.replace(cfg, cells=(cfg.cells[0], bad))
            with pytest.raises(ReplicateFailed):
                g.run_experiment(cfg)
            manifest = json.loads((out_dir / "tiny__FAILED.json").read_text())
            assert manifest["failed_cell"] == "rds"
            assert manifest["cell_seed"] == g.SeedSpec.cell_master(cfg.master_seed, 1)
            assert manifest["error"].startswith("SampleExceedsPopulation: ")
            # the lowest failing index for any worker count, and it replays
            traces = [
                g.simulate_aggregate(model, bad.z0, bad.n, g.SeedSpec(manifest["cell_seed"], k))
                for k in range(cfg.replicates)
            ]
            first = min(k for k, t in enumerate(traces) if t.totals()[-1] < 20)
            assert manifest["replicate"] == first > 0
            seed = g.SeedSpec(manifest["cell_seed"], manifest["replicate"])
            with pytest.raises(SampleExceedsPopulation):
                g.draw_family_sample(g.sampling_view(traces[first]), 20, seed)
            # the finished cell keeps its CSV; the failing cell and the summary write none
            assert sorted(p.name for p in out_dir.iterdir()) == [
                "tiny__FAILED.json",
                "tiny__cell0__replicates.csv",
            ]

    def test_replicate_failure_is_one_error_line(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path / "out").to_dict()
        cfg["cells"][0]["rule"] = {"kind": "fixed", "size": 10_000}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: replicate 0: SampleExceedsPopulation: ")
        assert err.count("\n") == 1, err
        assert (tmp_path / "out" / "tiny__FAILED.json").exists()

    @pytest.mark.parametrize(
        "change",
        [
            {"replicates": None},
            {"estimator": "median"},
            {"estimator": "amle", "model": {"builtin": "rds"}},
            {"ci_level": 1.5},
            {"cells": [{"label": "c"}]},
            "{not json",
            {"replicates": "many"},
            {"cells": []},
            {"replicates": 2.7},
            {"master_seed": 1.5},
            {"workers": 2.5},
            {"n": 3.9},
            {"rule": {"kind": "fixed", "size": 2.7}},
        ],
    )
    def test_bad_config_is_one_error_line_before_any_output(self, change, tmp_path, capsys):
        cfg = tiny_config(tmp_path / "out").to_dict()
        if isinstance(change, str):
            text = change
        else:
            for key, value in change.items():
                # model, n and rule are keys of the (first) cell
                target = cfg["cells"][0] if key in ("model", "n", "rule") else cfg
                if value is None:
                    del target[key]
                else:
                    target[key] = value
            text = json.dumps(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["experiment", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    def test_config_defaults(self, tmp_path, monkeypatch):
        d = tiny_config(tmp_path).to_dict()
        for key in ("ci_level", "workers", "out_dir"):
            del d[key]
        monkeypatch.setenv("GWFAM_OUTDIR", str(tmp_path / "env"))
        cfg = ExperimentConfig.from_dict(d)
        assert (cfg.ci_level, cfg.workers, cfg.out_dir) == (0.95, 1, tmp_path / "env")
        monkeypatch.delenv("GWFAM_OUTDIR")
        assert ExperimentConfig.from_dict(d).out_dir == Path("gwfam_out")

    def test_non_integral_z0_in_config_rejected(self, tmp_path):
        spec = tiny_config(tmp_path).cells[0].to_dict()
        spec["z0"] = [1.5, 1]
        with pytest.raises(GwfamError, match="z0"):
            ExperimentCell.from_dict(spec)
        spec["z0"] = [1.0, 1]
        assert ExperimentCell.from_dict(spec).z0 == (1, 1)

    def test_no_replicates_rejected_before_any_work(self, tmp_path):
        out_dir = tmp_path / "out"
        with pytest.raises(GwfamError, match="replicates"):
            g.run_experiment(tiny_config(out_dir, replicates=0))
        assert not out_dir.exists()

    def test_config_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path)
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_pdn_trend_non_sibling_freq_nondecreasing(self, tmp_path):
        # allow 3 sigma of binomial slack between consecutive depths
        cfg = dataclasses.replace(
            g.preset("pdn-trend"), replicates=40, out_dir=Path(tmp_path)
        )
        summary = g.run_experiment(cfg)
        freqs = [summary.value(f"n{n:02d}", "non_sibling") for n in (8, 10, 12, 14)]
        for lo, hi in zip(freqs, freqs[1:]):
            slack = 3 * np.sqrt((lo * (1 - lo) + hi * (1 - hi)) / 40 + 1e-9)
            assert hi >= lo - slack


class TestLayerLookup:
    # The functions of each estimator's path beyond simulating and sampling.
    PATHS = {
        "mitosis_closed_form": {"mitosis_counts", "mitosis_closed_form"},
        "mom": set(),
        "amle": {"amle_fit"},
        "prob_distinct": {"prob_distinct"},
    }
    WRAPPED = (
        "simulate_aggregate",
        "draw_family_sample",
        "mitosis_counts",
        "mitosis_closed_form",
        "amle_fit",
        "prob_distinct",
    )

    def test_every_estimator_has_a_path(self):
        assert set(gwfam.experiment.ESTIMATORS) == set(self.PATHS)

    @pytest.mark.parametrize("estimator", sorted(PATHS))
    def test_layer_functions_looked_up_at_call_time(self, estimator, tmp_path, monkeypatch):
        # wrappers set on the module after import must see every call, as
        # the benchmark's tracer relies on
        calls = Counter()
        for name in self.WRAPPED:

            def counted(*args, _fn=getattr(gwfam.experiment, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(gwfam.experiment, name, counted)
        g.run_experiment(tiny_config(tmp_path, estimator=estimator, replicates=2))
        on_path = {"simulate_aggregate", "draw_family_sample"} | self.PATHS[estimator]
        assert calls == Counter({name: 2 for name in on_path})


class TestPresets:
    def test_table1_grid(self):
        cfg = g.preset("table1")
        assert len(cfg.cells) == 4
        assert cfg.estimator == "mitosis_closed_form"
        assert cfg.replicates == 200
        assert all(cell.n == 20 for cell in cfg.cells)
        assert all(cell.rule.sample_size(20) == 400 for cell in cfg.cells)
        params = {tuple(c.model_spec["params"].values()) for c in cfg.cells}
        assert params == {(0.8, 0.8), (0.8, 0.9), (0.9, 0.7), (0.9, 0.9)}

    def test_table1_paper_scale(self):
        cfg = g.preset("table1", scale="paper")
        assert cfg.replicates == 1000

    def test_table2(self):
        cfg = g.preset("table2")
        assert cfg.cells[0].model_spec == {"builtin": "rds"}
        assert cfg.cells[0].n == 14
        assert cfg.estimator == "mom"
        paper = g.preset("table2", scale="paper")
        assert paper.cells[0].n == 20 and paper.replicates == 1000

    def test_pdn_trend(self):
        cfg = g.preset("pdn-trend")
        assert [c.n for c in cfg.cells] == [8, 10, 12, 14]
        assert cfg.estimator == "prob_distinct"

    def test_pdn_rds(self):
        cfg = g.preset("pdn-rds")
        assert [c.n for c in cfg.cells] == [12, 14, 16, 18, 20]
        assert {c.model_spec["builtin"] for c in cfg.cells} == {"rds"}
        assert {c.z0 for c in cfg.cells} == {(1, 1, 1, 1)}
        assert [c.rule.sample_size(c.n) for c in cfg.cells] == [144, 196, 256, 324, 400]
        assert cfg.estimator == "prob_distinct"
        assert g.preset("pdn-rds", scale="paper").replicates == 200

    def test_pdn_rds_runs(self, tmp_path):
        cfg = dataclasses.replace(g.preset("pdn-rds"), replicates=2, out_dir=Path(tmp_path))
        summary = g.run_experiment(cfg)
        assert len(summary.per_replicate_paths) == 5
        for cell in cfg.cells:
            rows = read_csv(summary.per_replicate_paths[cell.label])
            assert [int(r["replicate"]) for r in rows] == [0, 1]
            assert all(0.0 < float(r["prob_distinct"]) < 1.0 for r in rows)
            assert all(int(r["r"]) == cell.n**2 for r in rows)
        # r^2 rho^-n falls from 0.81 at n = 12 to 0.0073 at n = 20
        rho = g.perron(g.reproduction_matrix(g.rds_model())).rho
        validity = [c.rule.validity(c.n, rho) for c in cfg.cells]
        assert all(a > b for a, b in zip(validity, validity[1:]))
        assert validity[0] < 1 and validity[-1] < 0.01

    def test_presets_share_no_dicts(self):
        a, b = g.preset("table1"), g.preset("table1")
        assert a == b
        assert a.cells[0].model_spec is not b.cells[0].model_spec
        assert a.cells[0].model_spec["params"] is not b.cells[0].model_spec["params"]

    def test_unknown(self):
        with pytest.raises(UnknownPreset):
            g.preset("table9")
        with pytest.raises(UnknownPreset):
            g.preset("table1", scale="galactic")


class TestHistograms:
    def test_unimodal_and_constant_columns(self, tmp_path):
        summary = g.run_experiment(tiny_config(tmp_path, replicates=40))
        out = g.emit_histograms(summary.per_replicate_paths["cell0"], bins=10)
        rows = read_csv(out)
        by_col = {}
        for row in rows:
            by_col.setdefault(row["column"], []).append(row)
        # population is constant (deterministic mitosis totals): single bin
        assert len(by_col["population"]) == 1
        assert int(by_col["population"][0]["count"]) == 40
        hist = by_col["alpha_hat"]
        assert len(hist) == 10
        assert sum(int(r["count"]) for r in hist) == 40
        # the mode bin should contain the true value 0.8
        top = max(hist, key=lambda r: int(r["count"]))
        assert float(top["lo"]) <= 0.8 <= float(top["hi"]) or max(
            int(r["count"]) for r in hist
        ) <= 12  # tolerate flat histograms at this replicate count

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("alpha_hat\n")
        with pytest.raises(MalformedCsv):
            g.emit_histograms(path, bins=5)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            g.emit_histograms(tmp_path / "nope.csv", bins=5)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "gwfam.cli", *args],
        capture_output=True,
        text=True,
    )


class TestCli:
    def test_validate(self):
        res = run_cli("validate", "--model", "mitosis:alpha=0.8,theta=0.8", "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["rho"] == pytest.approx(2.0)

    def test_spectral_json(self):
        res = run_cli("spectral", "--model", "rds", "--json")
        payload = json.loads(res.stdout)
        assert payload["rho"] == pytest.approx(2.328872, abs=1e-5)
        assert payload["size_biased_total_mass"] == pytest.approx(1.0, abs=1e-10)

    def test_simulate_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        res = run_cli(
            "simulate", "--model", "mitosis:alpha=0.8,theta=0.8",
            "--z0", "1,1", "--n", "3", "--seed", "4", "--out", str(out),
        )
        assert res.returncode == 0
        rows = read_csv(out)
        assert len(rows) == 8  # (n + 1) generations x 2 types
        assert rows[0]["generation"] == "0"

    def test_sample_and_estimate_round_trip(self, tmp_path):
        sample_csv = tmp_path / "sample.csv"
        res = run_cli(
            "sample", "--model", "rds", "--z0", "1,1,1,1", "--n", "8",
            "--r", "64", "--seed", "12", "--replicates", "3", "--out", str(sample_csv),
        )
        assert res.returncode == 0, res.stderr
        rows = read_csv(sample_csv)
        assert len(rows) == 3 * 64
        est_csv = tmp_path / "est.csv"
        res = run_cli(
            "estimate", "--input", str(sample_csv), "--model", "rds",
            "--out", str(est_csv),
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["r"] == 192
        assert payload["variance_source"] == "exact"
        assert 1.5 < payload["rho_hat"] < 3.5
        est_rows = read_csv(est_csv)
        assert est_rows[0]["estimand"] == "rho"

    def test_estimate_plugin_variances(self, tmp_path):
        sample_csv = tmp_path / "sample.csv"
        run_cli(
            "sample", "--model", "rds", "--z0", "1,1,1,1", "--n", "8",
            "--r", "64", "--seed", "12", "--out", str(sample_csv),
        )
        res = run_cli("estimate", "--input", str(sample_csv))
        payload = json.loads(res.stdout)
        assert payload["variance_source"] == "plugin"

    def test_oracle_distinct(self):
        res = run_cli("oracle", "distinct", "--sizes", "2,1,3", "--r", "2", "--json")
        payload = json.loads(res.stdout)
        assert payload["numerator"] == 11 and payload["denominator"] == 15

    def test_oracle_pair_matches_closed_form(self, tmp_path):
        out_e = tmp_path / "enum.csv"
        out_c = tmp_path / "formula.csv"
        run_cli(
            "oracle", "pair", "--model", "mitosis:alpha=0.8,theta=0.8",
            "--z-prev", "2,0", "--out", str(out_e),
        )
        run_cli(
            "oracle", "pair", "--model", "mitosis:alpha=0.8,theta=0.8",
            "--z-prev", "2,0", "--closed-form", "--out", str(out_c),
        )
        enum = {(r["u"], r["v"]): float(r["prob"]) for r in read_csv(out_e)}
        formula = {(r["u"], r["v"]): float(r["prob"]) for r in read_csv(out_c)}
        assert set(enum) == set(formula)
        assert all(abs(enum[k] - formula[k]) <= 1e-10 for k in enum)

    def test_preset_json(self):
        res = run_cli("preset", "table1", "--scale", "paper")
        payload = json.loads(res.stdout)
        assert payload["replicates"] == 1000
        assert len(payload["cells"]) == 4

    def test_experiment_and_histogram(self, tmp_path):
        res = run_cli(
            "experiment", "--preset", "pdn-trend", "--replicates", "2",
            "--seed", "5", "--out-dir", str(tmp_path),
        )
        assert res.returncode == 0, res.stderr
        rep_csv = tmp_path / "pdn-trend__n08__replicates.csv"
        assert rep_csv.exists()
        res = run_cli("histogram", "--input", str(rep_csv), "--bins", "4")
        assert res.returncode == 0

    def test_error_exit_code(self):
        res = run_cli("oracle", "distinct", "--sizes", "2,2", "--r", "9")
        assert res.returncode == 1
        assert "error:" in res.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("validate", "--model", "mitosis:alpha=0.5,gamma=0.5"),
            ("validate", "--model", "mitosis:alpha=0.5"),
            ("validate", "--model", "mitosis:alpha=x,theta=0.5"),
            ("validate", "--model", "mitosis:alpha"),
            ("simulate", "--model", "rds", "--z0", "1.5,1,1,1", "--n", "3", "--seed", "1"),
            ("simulate", "--model", "rds", "--z0", "1,1", "--n", "3", "--seed", "1"),
            ("oracle", "distinct", "--sizes", "2,x", "--r", "2"),
            ("oracle", "distinct", "--sizes", "0,1", "--r", "1"),
            ("histogram", "--input", "replicates.csv", "--bins", "0"),
            ("estimate", "--input", "brood.csv"),
            ("oracle", "pair", "--model", "rds", "--z-prev", "1,0,0,1"),
        ],
    )
    def test_bad_input_is_one_error_line(self, args, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("brood.csv").write_text("replicate,brood_a,brood_b\n0,1,1\n0,1.5,1\n")
        assert main(list(args)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_invalid_model_flagged(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "type_names": ["a", "b"],
                    "laws": [
                        {"support": [[1, 0]], "probs": [1.0]},
                        {"support": [[0, 1]], "probs": [1.0]},
                    ],
                }
            )
        )
        res = run_cli("validate", "--model", str(path))
        assert res.returncode == 2  # assumptions fail, reported not raised
