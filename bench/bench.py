"""gwfam benchmark: one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 bench/bench.py --workload table1-mitosis --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json and
``--trace 1`` its per-layer metrics, one ``name value unit`` line each, then
``failed_frac``, then one JSON object as the last line. The run record,
with versions, the workload's shape and its population range, goes to
``bench/out/``. The exit code is 0 only when every output check passed.

Set-up time is the median of several fresh interpreters running
setup_probe.py; the replicates run in one more fresh interpreter,
measure.py. Every child gets BLAS/OpenMP threads pinned to one and the
checkout's ``src`` as its only source of gwfam.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# A later change's claim is confirmed on this seed as well. It was never
# used while the benchmark was tuned; tuning and the spread runs used seeds
# below 100.
CLAIM_SEED = 20_230_512
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], timeout: float) -> dict:
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(args[:1]))
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} ran past {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def setup_times(spec: dict, deadline: float) -> dict[str, float]:
    """Median of each set-up figure over fresh interpreters, after one warm one."""
    arg = json.dumps(spec)
    probe = str(HERE / "setup_probe.py")
    run_child([probe, arg], deadline - perf_counter())  # fills the bytecode and page caches
    runs = [run_child([probe, arg], deadline - perf_counter()) for _ in range(SETUP_PROBES)]
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    deadline = perf_counter() + TIME_LIMIT_S
    if not (SRC / "gwfam" / "__init__.py").is_file():
        raise BenchError(f"no gwfam sources at {SRC}; run from a checkout of the repository")
    end_to_end, per_layer = declared_metrics()
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
    spec = WORKLOADS[workload].shape()
    setup = setup_times(spec["model"], deadline)
    measured = run_child(
        [
            str(HERE / "measure.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
            "--out", str(OUT),
        ],
        deadline - perf_counter(),
    )
    if not Path(measured["gwfam_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"gwfam was imported from {measured['gwfam_file']}, not {SRC}")
    if trace:
        values = dict(measured["layer"])
        values["import_s"] = setup["import_s"]
        values["models.build_s"] = setup["build_s"]
        values["spectral.setup_s"] = setup["spectral_s"]
        for key, value in measured["population"].items():
            values[f"simulate.population_{key}"] = value
        units = per_layer
    else:
        values = {
            "replicate_s": measured["replicate_s"],
            "setup_s": setup["setup_s"],
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        units = end_to_end
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    result = {
        "correct": measured["correct"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "claim_seed": CLAIM_SEED,
        "seconds": seconds,
        "trace": int(trace),
        "shape": {**spec, "replicates": measured["attempted"]},
        "machine": {**measured["versions"], "nproc": len(os.sched_getaffinity(0))},
        "git_sha": git_sha(),
        "population": measured["population"],
        "validity_ratio": measured["validity_ratio"],
        "setup": setup,
        "batches": measured["batches"],
        "failures": measured["failures"],
        "absent": measured.get("absent", []),
        "layer": values if trace else None,
        "result": result,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']!r} {entry['unit']}")
    print(f"failed_frac {result['failed'] / result['attempted']!r} ratio")
    for failure in record["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    for absent in record["absent"]:
        print(f"layer absent: {absent}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
