"""Pipeline benchmark for synwatch: one workload per pipeline stage.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

It generates the workload's inputs from ``--seed`` (``gen.py``), then
runs the stage in fresh child processes (``child.py``), one at a time,
each checking its own outputs.

* ``--trace 0`` runs the stage once to warm up, then repeats it for about
  ``--seconds`` seconds and, between the repetitions, times ``setup_s``
  (a fresh interpreter importing ``synwatch.cli``).  It reports the upper
  quartile of ``stage_s`` and the medians of ``setup_s`` and
  ``peak_rss_mb`` (see ``STATISTIC``).
* ``--trace 1`` runs the stage once untraced and once with spans around
  the calls into each synwatch module, and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The full
record of the run (inputs' sha256, metadata, every repetition, span
statistics) is written to ``.perfbench/results/``.  ``--smoke`` shrinks
every input so that all workloads run in seconds.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

import gen

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
FIXTURE = HERE / "fixture"
RUN_LIMIT_S = 170      # a child still running this long into a run is killed
SETUP_SAMPLES = 7      # at least this many setup_s samples per run

# Input sizes per workload: (full, smoke).  Each full size makes one
# module do most of the stage's work, and is small enough that a run holds
# many repetitions; see README.md for the reasons.
SIZES = {
    "train-default": ({"steps": 2000, "epochs": 300},
                      {"steps": 200, "epochs": 20}),
    "calibrate-noisy": ({"steps": 5000, "attacks": 15},
                        {"steps": 1500, "attacks": 4}),
    "detect-stream": ({"steps": 20000, "attacks": 60},
                      {"steps": 2000, "attacks": 6}),
    "ingest-capture": ({"rows": 100000}, {"rows": 3000}),
}

# The stage time under the name the README uses for it.  detect-stream's
# stage is the batch detect command plus the online replay of the same
# stream; the two parts are also printed on their own.
STAGE_NAME = {"train-default": "train_s", "calibrate-noisy": "calibrate_s",
              "detect-stream": "detect_online_s",
              "ingest-capture": "ingest_s"}

QUALITY_UNITS = {"train_final_loss": "mse", "detection_rate_pct": "%",
                 "false_alarms": "count", "online_step_p50_us": "us",
                 "online_step_p99_us": "us"}

END_TO_END_UNITS = {"stage_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Which statistic of a run's samples each end-to-end metric reports.  On a
# shared host a stage mostly runs at one speed, with bursts of up to twice
# that speed that can cover close to half a run.  The upper quartile of the
# repetitions reads the common speed and moves less between runs than the
# median (README.md, "Noise").
STATISTIC = {"stage_s": "q3", "setup_s": "median", "peak_rss_mb": "median"}

LAYERS = ("pipeline", "lstm", "kernels", "calibration", "detector")

# Per-layer counts reported from a stage's output checks; 0 where the
# workload's stage does no such work.
COUNTS = {"pipeline.rows_parsed": "count", "pipeline.rows_rejected": "count",
          "calibration.grid_cells": "count",
          "calibration.events_scored": "count",
          "calibration.repeat_cell_ratio": "ratio",
          "detector.steps": "count", "detector.alarm_events": "count"}


def prepare(workload: str, seed: int, work: Path, smoke: bool) -> dict:
    """Write the workload's inputs under ``work`` and describe them."""
    size = SIZES[workload][smoke]
    inputs, out = work / "inputs", work / "out"
    inputs.mkdir(parents=True)
    out.mkdir()
    spec = {"workload": workload, "seed": seed, "smoke": smoke,
            "out": str(out), "lag": 3, "inputs": {}}
    if workload == "train-default":
        path = inputs / "train.csv"
        gen.write_series(path, gen.make_stream(
            gen.rng_for(seed, "train"), size["steps"], 0), labeled=False)
        spec["inputs"]["train"] = str(path)
        spec["epochs"] = size["epochs"]
    elif workload == "ingest-capture":
        path = inputs / "capture.csv"
        capture = gen.write_capture(path, gen.rng_for(seed, "capture"),
                                    size["rows"])
        spec["inputs"]["capture"] = str(path)
        spec["capture"] = asdict(capture)
    else:
        role = "validation" if workload == "calibrate-noisy" else "test"
        path = inputs / f"{role}.csv"
        stream = gen.make_stream(gen.rng_for(seed, role), size["steps"],
                                 size["attacks"])
        gen.write_series(path, stream, labeled=True)
        spec["inputs"][role] = str(path)
        spec["intervals"] = stream.intervals
        spec["steps"] = size["steps"]
        spec["model"] = str(FIXTURE / "model.txt")
        spec["config"] = str(FIXTURE / "detector.cfg")
    files = dict(spec["inputs"])
    if "model" in spec:
        files.update(model=spec["model"], scaler=spec["model"] + ".scaler",
                     config=spec["config"])
    spec["inputs_sha256"] = {name: gen.sha256(p) for name, p in files.items()}
    return spec


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # One caller, no extra threads: BLAS runs single-threaded unless the
    # caller chose otherwise.
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    env.setdefault("OMP_NUM_THREADS", "1")
    return env


def run_child(args: list[str], env: dict, log: Path,
              deadline: float) -> tuple[int, float]:
    """Run child.py to completion; returns (exit code, wall seconds).

    A blocking wait keeps the wall time exact: a wait with a timeout polls
    in steps of up to 50 ms.  A timer kills the child at ``deadline``
    (a ``time.perf_counter`` value).
    """
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), *args], env=env,
                                stdout=fh, stderr=fh)
        killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return code, time.perf_counter() - start


def run_rep(spec_path: Path, work: Path, env: dict, trace: bool,
            deadline: float) -> dict:
    """One stage repetition; a dict with ``error`` set when it failed."""
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    args = ["--spec", str(spec_path), "--result", str(result_path)]
    code, _ = run_child(args + (["--trace"] if trace else []), env,
                        work / "child.log", deadline)
    if code != 0 or not result_path.exists():
        return {"error": f"child exited {code}; see {work / 'child.log'}"}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["error"] = result.pop("check_failed")
    return result


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def metadata(root: Path, env: dict) -> dict:
    meta = {"git_sha": None, "git_dirty": None,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
            "env": {k: env.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "SYNWATCH_BACKEND", "PYTHONDONTWRITEBYTECODE")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        meta["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        meta["blas"] = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=30)
            status = subprocess.run(["git", "status", "--porcelain"],
                                    cwd=root, capture_output=True, text=True,
                                    timeout=30)
            meta["git_sha"] = sha.stdout.strip() or None
            meta["git_dirty"] = bool(status.stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return meta


def measure(spec: dict, spec_path: Path, work: Path, env: dict,
            seconds: int, deadline: float) -> tuple[list, dict, dict]:
    """``--trace 0``: stage repetitions for about ``seconds`` seconds, with
    setup samples between them.  Returns (repetitions, metrics, record)."""
    smoke = spec["smoke"]
    log = work / "child.log"

    def setup_sample() -> float:
        code, wall = run_child(["--setup"], env, log, deadline)
        if code != 0:
            raise RuntimeError(f"setup child exited {code}; see {log}")
        return wall

    setup_sample()  # fill the bytecode and file caches
    # One warm-up repetition: checked and counted, but not timed.
    warmup = run_rep(spec_path, work, env, False, deadline)
    warmup["warmup"] = True
    # Setup samples are spread between the repetitions, so that their
    # median covers the whole run rather than one moment of it.
    setups, reps = [], [warmup]
    start = time.perf_counter()
    while True:
        setups.append(setup_sample())
        reps.append(run_rep(spec_path, work, env, False, deadline))
        now = time.perf_counter()
        per_rep = (now - start) / (len(reps) - 1)
        if (smoke or now - start + per_rep > seconds
                or now + per_rep > deadline):
            break
    while len(setups) < (1 if smoke else SETUP_SAMPLES):
        setups.append(setup_sample())
    timed = [r for r in reps[1:] if "stage_s" in r]
    if not timed:
        return reps, {}, {}
    figures = {"stage_s": spread([r["stage_s"] for r in timed]),
               "setup_s": spread(setups),
               "peak_rss_mb": spread([r["peak_rss_mb"] for r in timed])}
    metrics = {name: {"value": figures[name][STATISTIC[name]], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    quality = {}
    for r in timed:
        for key, value in (r.get("quality") or {}).items():
            quality.setdefault(key, []).append(value)
    parts = {name: spread([r["parts"][name] for r in timed])
             for name in timed[0].get("parts", {})}
    record = {"figures": figures, "parts": parts,
              "quality": {k: statistics.median(v) for k, v in quality.items()
                          if k in QUALITY_UNITS}}
    return reps, metrics, record


def layer_metrics(spec: dict, plain: dict, traced: dict) -> tuple[dict, dict]:
    """``--trace 1`` metrics from one untraced and one traced repetition."""
    wall = traced["stage_s"]
    summary = traced["trace"]
    values = {"cli.import_s": (statistics.mean(
                  [plain["import_s"], traced["import_s"]]), "s"),
              "cli.self_pct": (100.0 * summary["caller_self_s"] / wall, "%")}
    for layer in LAYERS:
        values[f"{layer}.self_pct"] = (
            100.0 * summary["layer_self_s"][layer] / wall, "%")
    values["proc.cpu_s"] = (plain["cpu_s"], "s")
    values["trace.overhead_pct"] = (
        100.0 * (wall - plain["stage_s"]) / plain["stage_s"], "%")
    values["trace.spans"] = (summary["spans"], "count")
    values["trace.missing"] = (len(summary["missing"]), "count")
    bench = traced["kernel_bench"]
    for name in ("loss_and_grads", "predict_batch"):
        values[f"kernels.numpy.{name}_ms"] = (
            bench.get(f"kernels.numpy.{name}_ms", 0.0), "ms")
    if spec["workload"] == "train-default":
        model = Path(spec["out"]) / "model.txt"
    else:
        model = Path(spec["model"]) if "model" in spec else None
    values["lstm.model_bytes"] = (model.stat().st_size if model else 0,
                                  "bytes")
    values["lstm.live_param_share"] = (traced["live_param_share"], "ratio")
    quality = traced.get("quality") or {}
    for name, unit in COUNTS.items():
        values[name] = (quality.get(name, 0), unit)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    # Every span name's figures, for the record and the printed table.
    detail = {}
    for name, stats in summary["per_name"].items():
        detail[f"{name}_s"] = stats["total_s"]
        detail[f"{name}.self_s"] = stats["self_s"]
        detail[f"{name}.calls"] = stats["calls"]
        for q in ("p50", "p99", "p99.99"):
            detail[f"{name}_us_{q}"] = stats[f"{q}_us"]
    detail["cli.self_s"] = summary["caller_self_s"]
    detail["stage_traced_s"] = wall
    detail["stage_untraced_s"] = plain["stage_s"]
    detail["covered_s"] = (summary["caller_self_s"]
                           + sum(summary["layer_self_s"].values()))
    detail.update(bench)
    detail["missing"] = summary["missing"]
    return metrics, detail


def print_lines(workload: str, seed: int, trace: int, reps: list,
                record: dict, metrics: dict) -> None:
    failed = sum(1 for r in reps if r.get("error"))
    print(f"perfbench {workload} seed={seed} trace={trace} "
          f"attempted={len(reps)} failed={failed}")
    for r in reps:
        if r.get("error"):
            print(f"  FAILED: {r['error']}")
    if trace:
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
        for name, value in record.get("detail", {}).items():
            if name != "missing":
                print(f"    {name:<44} {value:>14.6g}")
        if record.get("detail", {}).get("missing"):
            print(f"    missing spans: {record['detail']['missing']}")
        return
    figures = record.get("figures", {})
    for name, f in figures.items():
        label = STAGE_NAME[workload] if name == "stage_s" else name
        stat = STATISTIC[name]
        print(f"  {label:<20} {f[stat]:>12.6g} {END_TO_END_UNITS[name]:<4}"
              f" {stat} of {f['n']} [q1 {f['q1']:.6g}, median "
              f"{f['median']:.6g}, q3 {f['q3']:.6g}]")
    for name, f in record.get("parts", {}).items():
        print(f"    {name:<18} {f['median']:>12.6g} s    median of {f['n']}"
              f" [q1 {f['q1']:.6g}, q3 {f['q3']:.6g}]")
    for name, value in record.get("quality", {}).items():
        print(f"  {name:<20} {value:>12.6g} {QUALITY_UNITS[name]}")
    print(f"  {'error_rate':<20} {failed / max(len(reps), 1):>12.6g} "
          f"({failed}/{len(reps)})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one repetition")
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "synwatch" / "cli.py").is_file():
        print("perfbench: run from a synwatch checkout (no src/synwatch/)",
              file=sys.stderr)
        return 2
    work = root / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    spec = prepare(args.workload, args.seed, work, args.smoke)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = child_env(root)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "meta": metadata(root, env),
              "sizes": SIZES[args.workload][args.smoke],
              "inputs_sha256": spec["inputs_sha256"]}

    if args.trace:
        reps = [run_rep(spec_path, work, env, False, deadline),
                run_rep(spec_path, work, env, True, deadline)]
        metrics = {}
        if all("stage_s" in r for r in reps) and "trace" in reps[1]:
            metrics, record["detail"] = layer_metrics(spec, *reps)
    else:
        reps, metrics, figures = measure(spec, spec_path, work, env,
                                         args.seconds, deadline)
        record.update(figures)
    record["backend"] = next((r["backend"] for r in reps if "backend" in r),
                             None)
    record["reps"] = reps
    failed = sum(1 for r in reps if r.get("error"))
    result = {"correct": failed == 0, "attempted": len(reps),
              "failed": failed, "metrics": metrics}
    record["result"] = result

    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / out_name).write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print_lines(args.workload, args.seed, args.trace, reps, record, metrics)
    if not metrics:
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
