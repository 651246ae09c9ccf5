"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

from synwatch.calibration import (CalibrationGrid, calibrate, default_grid,
                                  evaluate, prediction_pairs, replay_trace)
from synwatch.cli import main as cli_main
from synwatch.detector import Detector, DetectorConfig
from synwatch.lstm import TrainConfig, bptt_gradients, init_params, train
from synwatch.pipeline import (SynthConfig, TimeSeries, WindowSet,
                               build_windows, fit_scaler, generate_synthetic,
                               scale_windows)

from fd_oracle import finite_difference_gradient

START_OF_DAY = __import__("datetime").datetime(2000, 1, 1)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def train_on(series_values, rng_seed=0, epochs=1500):
    series = TimeSeries(START_OF_DAY, 1_000_000, series_values)
    scaler = fit_scaler(series)
    windows = scale_windows(build_windows(series, 3), scaler)
    config = TrainConfig(rng_seed=rng_seed, epochs=epochs)
    params, report = train(config, windows)
    return params, scaler, report


@pytest.fixture(scope="module")
def clean_run():
    """Frozen clean fixture family: baseline N(100, 10), bursts x8."""
    started = time.perf_counter()
    train_data = generate_synthetic(
        SynthConfig(length=2000, attack_count=0, rng_seed=101))
    val_data = generate_synthetic(
        SynthConfig(length=2000, attack_count=3, rng_seed=202))
    test_data = generate_synthetic(
        SynthConfig(length=2000, attack_count=3, rng_seed=303))
    params, scaler, report = train_on(train_data.series.values)
    val_pairs = prediction_pairs(params, scaler, val_data.series)
    trace = replay_trace(*zip(*val_pairs), DetectorConfig.mat)
    grid = default_grid(trace)
    config, cal_report, rows = calibrate(trace, val_data.attack_intervals,
                                         grid)
    return {
        "test_data": test_data,
        "params": params,
        "scaler": scaler,
        "grid": grid,
        "config": config,
        "cal_report": cal_report,
        "elapsed_through_calibration": time.perf_counter() - started,
    }


def test_criterion_1_gradient_correctness():
    with criterion(1, "BPTT matches central finite differences to 1e-4 "
                      "on 50 random instances in under 10 s"):
        started = time.perf_counter()
        rng = np.random.default_rng(2026)
        worst = 0.0
        for trial in range(50):
            lag = int(rng.integers(1, 4))
            hidden = int(rng.integers(1, 5))
            n = int(rng.integers(1, 9))
            params = init_params(lag, hidden, rng_seed=trial)
            windows = WindowSet(
                lag=lag, inputs=rng.normal(0.5, 0.3, size=(n, lag)),
                targets=rng.normal(0.5, 0.3, size=n),
                origin_steps=np.arange(lag - 1, lag - 1 + n))
            analytic, _ = bptt_gradients(params, windows)
            numeric = finite_difference_gradient(params, windows)
            for a, b in zip(analytic.arrays(), numeric.arrays()):
                denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
                worst = max(worst, float(np.max(np.abs(a - b) / denom)))
            worst = max(worst, abs(analytic.b_y - numeric.b_y)
                        / max(abs(analytic.b_y), abs(numeric.b_y), 1e-8))
        elapsed = time.perf_counter() - started
        assert worst <= 1e-4, f"worst relative deviation {worst:.3e}"
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_2_ring_oracle_equivalence():
    with criterion(2, "Detector.step's DC/ARE equal full-history-suffix "
                      "recomputation over 1000 random streams"):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            mat = int(rng.integers(1, 20))
            length = int(rng.integers(mat, mat + 40))
            ret = float(rng.uniform(0.05, 1.5))
            detector = Detector(DetectorConfig(ret=ret, beta=0.0, mat=mat))
            history = []
            for step, value in enumerate(rng.uniform(0, 2, size=length)):
                verdict = detector.step(step, 1.0, 1.0 - float(value))
                history.append(verdict.re)
                if verdict.warmup:
                    continue
                suffix = history[-mat:]
                dc_oracle = sum(1 for v in suffix if v > ret) / mat
                # left to right, as Detector.step sums: the built-in sum()
                # of floats is compensated from Python 3.12 on
                are_oracle = 0.0
                for v in suffix:
                    are_oracle += v
                are_oracle /= mat
                assert verdict.dc == dc_oracle
                # same summation order: bitwise equality
                assert verdict.are == are_oracle
            assert not verdict.warmup  # the window filled at least once


def test_criterion_3_table_tradeoff_structure():
    with criterion(3, "beta sweep 0.69/0.66/0.62/0.52 at MAT=12 alpha=0.66 "
                      "has non-decreasing detection and false-alarm columns"):
        # frozen noisy family; numba-backend reference rows:
        # rates [40, 40, 60, 100], false alarms [4, 8, 10, 13]
        train_data = generate_synthetic(SynthConfig(
            length=2000, baseline_std=30.0, attack_count=0, rng_seed=404))
        val_data = generate_synthetic(SynthConfig(
            length=6000, baseline_std=30.0, attack_count=10,
            attack_multiplier=3.8, rng_seed=44))
        params, scaler, _ = train_on(train_data.series.values)
        pairs = prediction_pairs(params, scaler, val_data.series)
        # the table's rows run from the largest beta down
        _, report, counts = calibrate(
            replay_trace(*zip(*pairs), 12), val_data.attack_intervals,
            CalibrationGrid((0.3,), (0.66,), (0.52, 0.62, 0.66, 0.69)))
        _, falses, detected = counts[:, 0, 0, ::-1].tolist()
        rates = [100.0 * d / report.intervals_total for d in detected]
        assert all(a <= b for a, b in zip(rates, rates[1:])), rates
        assert all(a <= b for a, b in zip(falses, falses[1:])), falses
        assert rates[-1] == 100.0, rates
        assert falses[-1] > falses[0], falses


def test_criterion_4_end_to_end_detection(clean_run):
    with criterion(4, "calibrated thresholds detect 3/3 bursts with 0 false "
                      "alarms; grid-minimum beta keeps 100% detection"):
        started = time.perf_counter()
        test_data = clean_run["test_data"]
        assert len(test_data) >= 2000
        assert len(test_data.attack_intervals) == 3

        config = clean_run["config"]
        pairs = prediction_pairs(clean_run["params"], clean_run["scaler"],
                                 test_data.series)
        detector = Detector(config)
        verdicts = [detector.step(*p) for p in pairs]
        report = evaluate(verdicts, test_data.attack_intervals)
        assert report.detection_rate_pct == 100.0, report
        assert report.false_alarms == 0, report

        beta_floor = min(clean_run["grid"].beta_candidates)
        _, _, counts = calibrate(replay_trace(*zip(*pairs), config.mat),
                                 test_data.attack_intervals,
                                 CalibrationGrid((config.ret,),
                                                 (config.alpha,),
                                                 (beta_floor,)))
        _, false_alarms, detected = counts.ravel().tolist()
        assert detected == len(test_data.attack_intervals), counts
        assert false_alarms >= report.false_alarms, counts

        elapsed = clean_run["elapsed_through_calibration"] \
            + (time.perf_counter() - started)
        assert elapsed < 120.0, f"took {elapsed:.1f} s"


def test_criterion_5_training_convergence():
    with criterion(5, "defaults on the period-20 sinusoid reach a final "
                      "loss at most 10% of the epoch-1 loss"):
        t = np.arange(400)
        sinusoid = 100.0 + 50.0 * np.sin(2 * np.pi * t / 20.0)
        _, _, report = train_on(sinusoid, rng_seed=42)
        first = report.epoch_losses[0]
        final = report.epoch_losses[-1]
        # frozen reference (seed 42, both backends): first 0.1212639,
        # final 0.0036649, ratio 0.0302
        assert final <= 0.10 * first, (first, final)
        assert final < report.epoch_losses[100]
        assert len(report.epoch_losses) == 1500


def test_criterion_6_lag_comparison_harness(tmp_path):
    with criterion(6, "compare-lags emits a 3-row table with deterministic "
                      "per-lag losses"):
        runner = CliRunner()
        series_path = tmp_path / "train.csv"
        result = runner.invoke(cli_main, ["synth", "--length", "600",
                                          "--seed", "101",
                                          "-o", str(series_path)])
        assert result.exit_code == 0
        tables = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            result = runner.invoke(cli_main, [
                "compare-lags", str(series_path), "--epochs", "80",
                "--hidden", "8", "--seed", "5", "-o", str(out)])
            assert result.exit_code == 0, result.output
            tables.append(out.read_text().splitlines())
        header, *rows = tables[0]
        assert header == "lag,final_loss,seconds"
        assert [r.split(",")[0] for r in rows] == ["1", "2", "3"]
        assert all(float(r.split(",")[2]) > 0 for r in rows)
        losses_a = [r.split(",")[1] for r in tables[0][1:]]
        losses_b = [r.split(",")[1] for r in tables[1][1:]]
        assert losses_a == losses_b


def test_criterion_7_ingestion_conservation(tmp_path):
    with criterion(7, "1000-record tshark fixture aggregates to 1000 packets;"
                      " malformed fixture reports its exact rejection count"):
        runner = CliRunner()
        rng = np.random.default_rng(1234)
        offsets = np.sort(rng.uniform(0, 200, size=1000))
        rows = ["frame.number,frame.len,frame.time,ip.proto"]
        rows += [
            f'{i+1},60,"1999-03-11 08:{int(s // 60):02d}:{s % 60:09.6f}",6'
            for i, s in enumerate(offsets)]
        clean = tmp_path / "packets.csv"
        clean.write_text("\n".join(rows) + "\n")
        out = tmp_path / "series.csv"
        result = runner.invoke(cli_main, ["ingest", str(clean),
                                          "--step-seconds", "1",
                                          "-o", str(out)])
        assert result.exit_code == 0
        from synwatch.pipeline import load_series
        assert load_series(out).values.sum() == 1000
        assert "parsed 1000 records, rejected 0 rows" in result.output

        bad_rows = rows[:]
        for k, position in enumerate((100, 400, 700, 900)):
            bad_rows.insert(position, f"{5000 + k},60,not-a-time,6")
        dirty = tmp_path / "dirty.csv"
        dirty.write_text("\n".join(bad_rows) + "\n")
        result = runner.invoke(cli_main, ["ingest", str(dirty),
                                          "-o", str(tmp_path / "s2.csv")])
        assert result.exit_code == 0
        assert "parsed 1000 records, rejected 4 rows" in result.output


def test_criterion_8_determinism_suite(tmp_path):
    with criterion(8, "every command run twice with identical flags and seed "
                      "yields byte-identical primary outputs"):
        runner = CliRunner()

        def run(args):
            result = runner.invoke(cli_main, args)
            assert result.exit_code == 0, result.output
            return result

        def twice(build_args, outputs):
            contents = []
            for tag in ("one", "two"):
                tagged = {key: str(tmp_path / f"{tag}.{name}")
                          for key, name in outputs.items()}
                run(build_args(tagged))
                contents.append({key: open(path, "rb").read()
                                 for key, path in tagged.items()})
            assert contents[0] == contents[1]
            return {key: str(tmp_path / f"one.{name}")
                    for key, name in outputs.items()}

        # synth: series CSV
        synth_out = twice(
            lambda p: ["synth", "--length", "700", "--attacks", "2",
                       "--seed", "19", "-o", p["series"]],
            {"series": "synth.csv"})

        # ingest: series CSV
        rows = ["frame.number,frame.len,frame.time,ip.proto"]
        rows += [f"{i+1},60,1999-03-11T08:00:{i % 60:02d}.{i:06d},6"
                 for i in range(120)]
        packets = tmp_path / "packets.csv"
        packets.write_text("\n".join(rows) + "\n")
        twice(lambda p: ["ingest", str(packets), "-o", p["series"]],
              {"series": "ingest.csv"})

        # train: model file (plus scaler and curve, also compared)
        normal = tmp_path / "normal.csv"
        run(["synth", "--length", "500", "--seed", "23", "-o", str(normal)])
        train_out = twice(
            lambda p: ["train", str(normal), "--epochs", "120", "--hidden",
                       "8", "--seed", "3", "-o", p["model"]],
            {"model": "model.txt", "scaler": "model.txt.scaler",
             "curve": "model.txt.curve.csv"})

        # calibrate: config + sweep CSV
        labeled = tmp_path / "labeled.csv"
        run(["synth", "--length", "700", "--attacks", "2", "--seed", "29",
             "-o", str(labeled)])
        cal_out = twice(
            lambda p: ["calibrate", train_out["model"], str(labeled),
                       "--scaler", train_out["scaler"], "-o", p["config"]],
            {"config": "detector.cfg", "sweep": "detector.cfg.sweep.csv"})

        # detect: verdict CSV + alarm log
        twice(
            lambda p: ["detect", train_out["model"], cal_out["config"],
                       str(labeled), "--scaler", train_out["scaler"],
                       "-o", p["verdicts"]],
            {"verdicts": "verdicts.csv", "alarms": "verdicts.csv.alarms.csv"})
