"""One measured repetition, run in a fresh interpreter by ``run.py``.

    python3 perfbench/child.py --spec SPEC --result RESULT [--trace]
    python3 perfbench/child.py --setup

With ``--setup`` it only imports ``synwatch.cli`` (and, on the numba
backend, compiles the kernels) and exits: the parent times that as
``setup_s``.  Otherwise it runs the workload's stage once, timing the
stage alone, records the process's peak RSS and CPU time, then checks the
stage's outputs and writes one JSON result.  With ``--trace`` the calls
into each synwatch module are recorded as spans during the stage, and the
kernel micro-benchmark runs after it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import spans

ONLINE_REL_TOL = 1e-12   # batch and single-window predictions differ by ulps
KERNEL_SHAPE = (2000, 3, 23)   # windows, lag, hidden: bench_kernels defaults


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def run_cli(argv: list[str]) -> tuple[float, str]:
    """Run one synwatch command in this process; returns (wall s, stdout)."""
    from synwatch.cli import main
    out = io.StringIO()
    start = time.perf_counter()
    # A failing command raises SystemExit or a click error, which ends this
    # process with a non-zero code: the parent counts that as a failure.
    with contextlib.redirect_stdout(out):
        main.main(args=argv, prog_name="synwatch", standalone_mode=False)
    wall = time.perf_counter() - start
    return wall, out.getvalue()


def printed(stdout: str, key: str) -> str:
    for token in stdout.split():
        if token.startswith(key + "="):
            return token.split("=", 1)[1]
    raise CheckFailed(f"stdout has no {key}=")


def read_counts(path) -> np.ndarray:
    """Count column of a series CSV, parsed without the program."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return np.array([float(ln.split(",")[2]) for ln in lines[1:] if ln])


# --- stages: each returns (wall_s, context for its checks); ``tracer`` is
# the active Tracer or None -----------------------------------------------

def stage_train(spec, tracer):
    out = spec["out"]
    wall, stdout = run_cli([
        "train", spec["inputs"]["train"], "--seed", "0",
        "--epochs", str(spec["epochs"]), "-o", f"{out}/model.txt"])
    return wall, {"stdout": stdout}


def stage_calibrate(spec, tracer):
    wall, stdout = run_cli([
        "calibrate", spec["model"], spec["inputs"]["validation"],
        "-o", f"{spec['out']}/detector.cfg"])
    return wall, {"stdout": stdout}


def stage_detect(spec, tracer):
    """The batch detect command, then the same stream replayed online."""
    detect_s, stdout = run_cli([
        "detect", spec["model"], spec["config"], spec["inputs"]["test"],
        "-o", f"{spec['out']}/verdicts.csv"])
    if tracer:
        tracer.begin_phase("online")
    online_s, ctx = online_replay(spec)
    ctx.update(stdout=stdout, parts={"detect_s": detect_s,
                                     "online_s": online_s})
    return detect_s + online_s, ctx


def stage_ingest(spec, tracer):
    cap = spec["capture"]
    wall, stdout = run_cli([
        "ingest", spec["inputs"]["capture"], "--start", cap["start_iso"],
        "--end", cap["end_iso"], "-o", f"{spec['out']}/series.csv"])
    return wall, {"stdout": stdout}


def online_replay(spec):
    """Closed loop, one caller: each count is fed only after the previous
    verdict returns.  A step covers scaling the window, predict_window,
    inverting the scale and Detector.step.  The wall time also covers
    loading the model, scaler and config."""
    from synwatch.detector import Detector, DetectorConfig
    from synwatch.lstm import load_model, predict_window
    from synwatch.pipeline import load_scaler

    values = read_counts(spec["inputs"]["test"])
    clock = time.perf_counter
    start = clock()
    params = load_model(spec["model"])
    scaler = load_scaler(spec["model"] + ".scaler")
    config = DetectorConfig.from_text(
        Path(spec["config"]).read_text(encoding="utf-8"))
    lag = params.input_dim
    n = len(values) - lag
    latency = np.empty(n)
    preds = np.empty(n)
    alarms = np.zeros(n, dtype=bool)
    detector = Detector(config)
    for k, t in enumerate(range(lag, len(values))):
        t0 = clock()
        x = scaler.apply(values[t - lag:t])
        p = float(scaler.invert(predict_window(params, x)))
        verdict = detector.step(t, float(values[t]), p)
        latency[k] = clock() - t0
        preds[k] = p
        alarms[k] = verdict.collective_alarm
    wall = clock() - start
    return wall, {"latency": latency, "preds": preds, "alarms": alarms}


# --- output checks: each returns the workload's quality figures ------------

def check_train(spec, ctx):
    from synwatch.lstm import load_model
    model = f"{spec['out']}/model.txt"
    load_model(model)
    final = printed(ctx["stdout"], "final_loss")
    curve = Path(model + ".curve.csv").read_text(encoding="utf-8").split()
    expect(len(curve) == spec["epochs"] + 1, "loss curve length")
    expect(curve[-1].split(",")[1] == final,
           "curve's last loss differs from the printed final_loss")
    return {"train_final_loss": float(final)}


def check_calibrate(spec, ctx):
    from synwatch.calibration import evaluate, prediction_pairs
    from synwatch.detector import Detector, DetectorConfig
    from synwatch.lstm import load_model
    from synwatch.pipeline import load_scaler, load_series
    out = Path(spec["out"])
    config_text = (out / "detector.cfg").read_text(encoding="utf-8")
    chosen = dict(tok.split("=") for tok in config_text.split())
    lines = (out / "detector.cfg.sweep.csv").read_text(
        encoding="utf-8").split()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    match = [r for r in rows if all(float(r[k]) == float(chosen[k])
                                    for k in ("ret", "alpha", "beta"))]
    expect(len(match) == 1, "selected config is not one sweep row")
    row = match[0]
    pairs = prediction_pairs(load_model(spec["model"]),
                             load_scaler(spec["model"] + ".scaler"),
                             load_series(spec["inputs"]["validation"]).series)
    detector = Detector(DetectorConfig.from_text(config_text))
    report = evaluate([detector.step(*pair) for pair in pairs],
                      spec["intervals"])
    expect(float(row["detection_rate_pct"]) == report.detection_rate_pct
           and int(row["false_alarms"]) == report.false_alarms
           and int(row["events_total"]) == report.events_total,
           "streaming Detector does not reproduce the selected sweep row")
    expect(all(printed(ctx["stdout"], k) == row[k]
               for k in ("detection_rate_pct", "false_alarms")),
           "printed metrics differ from the sweep row")
    # Rows come ret-major, then alpha, then beta ascending.
    key = ("detection_rate_pct", "false_alarms", "events_total")
    repeats = sum(
        1 for prev, cur in zip(rows, rows[1:])
        if prev["ret"] == cur["ret"] and prev["alpha"] == cur["alpha"]
        and all(prev[k] == cur[k] for k in key))
    return {"detection_rate_pct": report.detection_rate_pct,
            "false_alarms": report.false_alarms,
            "calibration.grid_cells": len(rows),
            "calibration.events_scored": sum(int(r["events_total"])
                                             for r in rows),
            "calibration.repeat_cell_ratio": repeats / len(rows)}


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    edges = np.diff(np.concatenate(([0], mask.astype(np.int8), [0])))
    return list(zip(np.flatnonzero(edges == 1).tolist(),
                    (np.flatnonzero(edges == -1) - 1).tolist()))


def check_detect(spec, ctx):
    """Batch outputs are consistent; the online replay predicts within
    ONLINE_REL_TOL of the batch and raises the same alarm events."""
    from synwatch.detector import read_alarms, read_verdicts, segment_alarms
    out, lag = spec["out"], spec["lag"]
    verdicts = read_verdicts(f"{out}/verdicts.csv")
    expect(len(verdicts) == spec["steps"] - lag,
           "verdict rows != steps - lag")
    events = read_alarms(f"{out}/verdicts.csv.alarms.csv")
    expect(events == segment_alarms(verdicts),
           "alarm log differs from segment_alarms of the verdicts")
    batch = np.array([v.predicted for v in verdicts])
    rel = np.abs(ctx["preds"] - batch) / np.maximum(np.abs(batch), 1e-300)
    expect(float(rel.max()) <= ONLINE_REL_TOL,
           f"online predictions differ from batch by {rel.max():.3g}")
    online = [(s + lag, e + lag) for s, e in _runs(ctx["alarms"])]
    expect(online == [(e.start_step, e.end_step) for e in events],
           "online alarm events differ from the batch alarm log")
    p50, p99 = np.percentile(ctx["latency"] * 1e6, [50, 99])
    return {"detection_rate_pct": float(printed(ctx["stdout"],
                                                "detection_rate_pct")),
            "false_alarms": int(printed(ctx["stdout"], "false_alarms")),
            "online_step_p50_us": float(p50), "online_step_p99_us": float(p99),
            "detector.steps": len(verdicts),
            "detector.alarm_events": len(events)}


def check_ingest(spec, ctx):
    cap = spec["capture"]
    parsed = int(ctx["stdout"].split("parsed ")[1].split()[0])
    rejected = int(ctx["stdout"].split("rejected ")[1].split()[0])
    expect(rejected == cap["malformed"],
           f"rejected {rejected} rows, {cap['malformed']} were malformed")
    counts = read_counts(f"{spec['out']}/series.csv")
    expect(len(counts) == cap["steps"], "series length")
    expect(int(counts.sum()) == cap["in_range"],
           "series sum differs from the valid in-range rows")
    return {"pipeline.rows_parsed": parsed, "pipeline.rows_rejected": rejected}


STAGES = {
    "train-default": (stage_train, check_train),
    "calibrate-noisy": (stage_calibrate, check_calibrate),
    "detect-stream": (stage_detect, check_detect),
    "ingest-capture": (stage_ingest, check_ingest),
}


# --- per-layer extras, traced run only --------------------------------------

def live_param_share(spec) -> float:
    """Share of parameters with a non-zero gradient on the stage's windows."""
    from synwatch.lstm import bptt_gradients, load_model
    from synwatch.pipeline import (build_windows, fit_scaler, load_scaler,
                                   load_series, scale_windows)
    if spec["workload"] == "train-default":
        model = f"{spec['out']}/model.txt"
        data = load_series(spec["inputs"]["train"])
        scaler = fit_scaler(data)
    else:
        model = spec["model"]
        data = load_series(spec["inputs"]["validation" if "validation"
                                          in spec["inputs"] else "test"])
        data = data.series
        scaler = load_scaler(model + ".scaler")
    params = load_model(model)
    grads, _ = bptt_gradients(
        params, scale_windows(build_windows(data, params.input_dim), scaler))
    flat = np.concatenate([a.ravel() for a in grads.arrays()]
                          + [np.array([grads.b_y])])
    return float(np.count_nonzero(flat) / flat.size)


def backends() -> tuple[str, tuple[str, ...]]:
    """The active and the available kernel backends.  A build without
    backend selection (ROADMAP item 2 may remove it) runs numpy only."""
    from synwatch import kernels
    active = getattr(kernels, "active_backend", lambda: "numpy")()
    available = getattr(kernels, "available_backends", lambda: ("numpy",))()
    return active, tuple(available)


def kernel_bench() -> dict:
    """bench_kernels.py's measurement: best of 5 batches per call, on the
    default shape, for each available backend."""
    import os
    from synwatch.lstm import bptt_gradients, init_params, predict_windows
    from synwatch.pipeline import WindowSet
    n, lag, hidden = KERNEL_SHAPE
    rng = np.random.default_rng(0)
    params = init_params(lag, hidden, 0)
    x = rng.uniform(0, 1, size=(n, lag))
    y = rng.uniform(0, 1, size=n)
    windows = WindowSet(lag, x, y, np.arange(n))
    results = {}
    saved = os.environ.get("SYNWATCH_BACKEND")
    try:
        for backend in backends()[1]:
            os.environ["SYNWATCH_BACKEND"] = backend
            for name, fn, arg in (("predict_batch", predict_windows, x),
                                  ("loss_and_grads", bptt_gradients, windows)):
                fn(params, arg)
                best = float("inf")
                for _ in range(5):
                    start = time.perf_counter()
                    for _ in range(20):
                        fn(params, arg)
                    best = min(best, (time.perf_counter() - start) / 20)
                results[f"kernels.{backend}.{name}_ms"] = best * 1e3
    finally:
        if saved is None:
            os.environ.pop("SYNWATCH_BACKEND", None)
        else:
            os.environ["SYNWATCH_BACKEND"] = saved
    return results


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--spec")
    parser.add_argument("--result")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import synwatch.cli  # noqa: F401
    active, available = backends()
    if active == "numba":
        warm_kernels()
    import_s = time.perf_counter() - start
    if args.setup:
        return 0

    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    stage, check = STAGES[spec["workload"]]
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    try:
        wall, ctx = stage(spec, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    after = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "stage_s": wall, "import_s": import_s,
        "cpu_s": (after.ru_utime - before.ru_utime
                  + after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "parts": ctx.get("parts", {}),
        "backend": active,
        "available_backends": list(available),
    }
    try:
        result["quality"] = check(spec, ctx)
        result["check_failed"] = None
    except CheckFailed as exc:
        result["check_failed"] = str(exc)
    if tracer:
        result["trace"] = tracer.summary(wall)
        tracer.save(Path(spec["out"]) / "spans.npz")
        result["live_param_share"] = (
            live_param_share(spec) if spec["workload"] != "ingest-capture"
            else 0.0)
        result["kernel_bench"] = kernel_bench()
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def warm_kernels() -> None:
    """Compile the numba kernels once, as the first real call would."""
    from synwatch.lstm import bptt_gradients, init_params, predict_windows
    from synwatch.pipeline import WindowSet
    params = init_params(3, 2, 0)
    x = np.zeros((2, 3))
    predict_windows(params, x)
    bptt_gradients(params, WindowSet(3, x, np.zeros(2), np.arange(2)))


if __name__ == "__main__":
    sys.exit(main())
