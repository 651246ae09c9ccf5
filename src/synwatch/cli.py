"""Command-line surface binding the full pipeline.

Every command is deterministic given its flags and seed, and writes a
``<output>.manifest.json`` recording the resolved configuration so a run
can be replayed exactly.

Exit codes: 0 success, 2 usage error, 3 data error, 4 training divergence.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

import click

from . import __version__
from .calibration import (CalibrationGrid, _prediction_table, default_grid,
                          evaluate_events, replay_trace, sweep_beta,
                          write_sweep)
from .calibration import calibrate as run_calibration
from .detector import DetectorConfig, StepVerdict, segment_alarms, \
    write_alarms, write_verdicts
from .errors import DataError, DivergenceError
from .lstm import TrainConfig, load_model, save_model, train
from .pipeline import (EPOCH, LabeledTimeSeries, SynthConfig,
                       _parse_timestamp, _step_microseconds, aggregate_counts,
                       build_windows, fit_scaler, generate_synthetic,
                       load_scaler, load_series, load_tshark_csv, save_scaler,
                       save_series, scale_windows, split_protocol)

EXIT_DATA_ERROR = 3
EXIT_DIVERGENCE = 4

_seed_option = click.option(
    "--seed", type=int, default=0, show_default=True, envvar="CLD_SEED",
    help="RNG seed (falls back to the CLD_SEED environment variable).")


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DataError as exc:
            click.echo(f"data error: {exc}", err=True)
            sys.exit(EXIT_DATA_ERROR)
        except DivergenceError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DIVERGENCE)
    return wrapper


def _write_manifest(output: str, command: str, inputs: dict,
                    outputs: dict, config: dict) -> None:
    payload = {
        "artifact_version": __version__,
        "command": command,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
    }
    Path(f"{output}.manifest.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@click.group()
@click.version_option(version=__version__, prog_name="synwatch")
def main():
    """Train, calibrate and run the traffic anomaly detector."""


@main.command()
@click.option("--length", type=click.IntRange(min=1), required=True,
              help="Number of time steps.")
@click.option("--attacks", type=click.IntRange(min=0), default=0,
              show_default=True, help="Number of attack bursts to inject.")
@click.option("--baseline-mean", type=float, default=100.0, show_default=True)
@click.option("--baseline-std", type=float, default=10.0, show_default=True)
@click.option("--attack-min-len", type=click.IntRange(min=1), default=20,
              show_default=True)
@click.option("--attack-max-len", type=click.IntRange(min=1), default=40,
              show_default=True)
@click.option("--attack-multiplier", type=float, default=8.0, show_default=True)
@_seed_option
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True)
@_handle_errors
def synth(length, attacks, baseline_mean, baseline_std, attack_min_len,
          attack_max_len, attack_multiplier, seed, output):
    """Generate a labeled synthetic traffic series."""
    try:
        config = SynthConfig(
            length=length, baseline_mean=baseline_mean,
            baseline_std=baseline_std, attack_count=attacks,
            attack_min_len=attack_min_len, attack_max_len=attack_max_len,
            attack_multiplier=attack_multiplier, rng_seed=seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    labeled = generate_synthetic(config)
    save_series(output, labeled, seed=seed)
    _write_manifest(output, "synth",
                    inputs={}, outputs={"series": str(output)},
                    config={"length": length, "attacks": attacks,
                            "baseline_mean": baseline_mean,
                            "baseline_std": baseline_std,
                            "attack_min_len": attack_min_len,
                            "attack_max_len": attack_max_len,
                            "attack_multiplier": attack_multiplier,
                            "seed": seed})
    click.echo(f"wrote {length} steps with {len(labeled.attack_intervals)} "
               f"attack intervals -> {output}")


def _timestamp_flag(flag: str, text):
    """A timestamp flag's value, or None when it is not given; a text
    that is not a timestamp is a usage error."""
    if text is None:
        return None
    try:
        return _parse_timestamp(text)
    except ValueError as exc:
        raise click.UsageError(f"{flag}: {exc}")


@main.command()
@click.argument("packets", type=click.Path(exists=True, dir_okay=False))
@click.option("--step-seconds", type=float, default=1.0, show_default=True,
              help="Aggregation step duration.")
@click.option("--start", "start_text", type=str, default=None,
              help="Range start (default: first record's timestamp).")
@click.option("--end", "end_text", type=str, default=None,
              help="Range end, exclusive (default: just past the last record).")
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True)
@_handle_errors
def ingest(packets, step_seconds, start_text, end_text, output):
    """Aggregate a tshark packet CSV into a per-step count series."""
    try:
        _step_microseconds(step_seconds)
    except ValueError as exc:
        raise click.UsageError(f"--step-seconds: {exc}")
    start = _timestamp_flag("--start", start_text)
    end = _timestamp_flag("--end", end_text)
    if start is not None and end is not None and start >= end:
        raise click.UsageError("--start must precede --end")

    result = load_tshark_csv(packets)
    stamps = result.timestamps_us
    click.echo(f"parsed {len(stamps)} records, "
               f"rejected {len(result.rejected)} rows")
    if result.rejected:
        click.echo("rejected by reason: " + " ".join(
            f"{reason}={count}"
            for reason, count in result.rejected_by_reason.items()), err=True)
    for row_no, reason in result.rejected[:20]:
        click.echo(f"  rejected row {row_no}: {reason}", err=True)

    if start is None or end is None:
        if not len(stamps):
            raise DataError("no parseable records and no --start/--end given")
        if start is None:
            start = EPOCH + timedelta(microseconds=int(stamps[0]))
        if end is None:
            end = EPOCH + timedelta(microseconds=int(stamps[-1]) + 1)
        if start >= end:
            raise DataError(f"range start {start.isoformat()} does not "
                            f"precede range end {end.isoformat()}")

    series = aggregate_counts(stamps, step_seconds, start, end)
    save_series(output, series)
    _write_manifest(output, "ingest",
                    inputs={"packets": str(packets)},
                    outputs={"series": str(output)},
                    config={"step_seconds": step_seconds,
                            "start": start.isoformat(),
                            "end": end.isoformat()})
    click.echo(f"wrote {len(series)} steps "
               f"({int(series.values.sum())} packets) -> {output}")


def _train_config(**fields) -> TrainConfig:
    """TrainConfig from command flags; an invalid value (such as a
    non-finite or non-positive --lr or --clip) is a usage error."""
    try:
        return TrainConfig(**fields)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _load_training_series(path):
    data = load_series(path)
    if isinstance(data, LabeledTimeSeries):
        if data.labels.any():
            raise DataError(
                "training series contains attack-labeled steps; "
                "train on normal data only")
        return data.series
    return data


@main.command()
@click.argument("series_path", metavar="SERIES",
                type=click.Path(exists=True, dir_okay=False))
@click.option("--lag", type=click.IntRange(1, 3), default=3, show_default=True,
              help="How many previous steps feed one prediction.")
@click.option("--hidden", type=click.IntRange(min=1), default=23,
              show_default=True)
@click.option("--lr", type=float, default=0.01, show_default=True)
@click.option("--epochs", type=click.IntRange(min=1), default=1500,
              show_default=True)
@click.option("--clip", type=float, default=None,
              help="Optional element-wise gradient clip.")
@_seed_option
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True,
              help="Model file path; scaler and loss curve land next to it.")
@_handle_errors
def train_cmd(series_path, lag, hidden, lr, epochs, clip, seed, output):
    """Train the next-step predictor on a normal-only series."""
    config = _train_config(learning_rate=lr, epochs=epochs, hidden_dim=hidden,
                           lag=lag, rng_seed=seed, gradient_clip=clip)
    series = _load_training_series(series_path)
    scaler = fit_scaler(series)
    windows = scale_windows(build_windows(series, lag), scaler)
    params, report = train(config, windows)
    save_model(output, params)
    save_scaler(f"{output}.scaler", scaler)
    curve_path = f"{output}.curve.csv"
    lines = ["epoch,loss"]
    lines += [f"{i + 1},{loss:.17g}"
              for i, loss in enumerate(report.epoch_losses)]
    Path(curve_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(output, "train",
                    inputs={"series": str(series_path)},
                    outputs={"model": str(output),
                             "scaler": f"{output}.scaler",
                             "curve": curve_path},
                    config={"lag": lag, "hidden": hidden, "lr": lr,
                            "epochs": epochs, "clip": clip, "seed": seed})
    click.echo(f"final_loss={report.epoch_losses[-1]:.17g} "
               f"wall_seconds={report.wall_seconds:.3f} -> {output}")


main.add_command(train_cmd, name="train")


@main.command(name="compare-lags")
@click.argument("series_path", metavar="SERIES",
                type=click.Path(exists=True, dir_okay=False))
@click.option("--hidden", type=click.IntRange(min=1), default=23,
              show_default=True)
@click.option("--lr", type=float, default=0.01, show_default=True)
@click.option("--epochs", type=click.IntRange(min=1), default=1500,
              show_default=True)
@_seed_option
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True)
@_handle_errors
def compare_lags(series_path, hidden, lr, epochs, seed, output):
    """Train once per lag width (1, 2, 3) and tabulate loss and runtime."""
    config = _train_config(learning_rate=lr, epochs=epochs, hidden_dim=hidden,
                           rng_seed=seed)
    series = _load_training_series(series_path)
    scaler = fit_scaler(series)
    rows = []
    for lag in (1, 2, 3):
        windows = scale_windows(build_windows(series, lag), scaler)
        _, report = train(replace(config, lag=lag), windows)
        rows.append((lag, report.epoch_losses[-1], report.wall_seconds))
    lines = ["lag,final_loss,seconds"]
    lines += [f"{lag},{loss:.17g},{secs:.6f}" for lag, loss, secs in rows]
    Path(output).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(output, "compare-lags",
                    inputs={"series": str(series_path)},
                    outputs={"table": str(output)},
                    config={"hidden": hidden, "lr": lr, "epochs": epochs,
                            "seed": seed})
    for lag, loss, secs in rows:
        click.echo(f"lag={lag} final_loss={loss:.17g} seconds={secs:.6f}")


def _parse_beta_list(text: str) -> list[float]:
    try:
        betas = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise click.UsageError(f"bad --beta-list value: {text!r}")
    if not betas:
        raise click.UsageError("--beta-list produced an empty grid")
    return betas


@main.command(name="calibrate")
@click.argument("model_path", metavar="MODEL",
                type=click.Path(exists=True, dir_okay=False))
@click.argument("validation_path", metavar="VALIDATION",
                type=click.Path(exists=True, dir_okay=False))
@click.option("--mat", type=click.IntRange(min=1), default=12,
              show_default=True, help="Error-window capacity in steps.")
@click.option("--alpha", type=click.FloatRange(0.0, 1.0), default=None,
              help="Pin the anomalous-fraction threshold (else grid search).")
@click.option("--beta", type=float, default=None,
              help="Pin the mean-error threshold (else grid search).")
@click.option("--beta-list", type=str, default=None,
              help="Comma-separated betas; sweep table restricts to these.")
@click.option("--ret", type=float, default=None,
              help="Pin the per-step error threshold (else grid search).")
@click.option("--epsilon-floor", type=float, default=1e-6, show_default=True)
@click.option("--scaler", "scaler_path", type=click.Path(exists=True),
              default=None, help="Scaler file (default: MODEL.scaler).")
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True,
              help="Selected config path; sweep CSV lands next to it.")
@_handle_errors
def calibrate_cmd(model_path, validation_path, mat, alpha, beta, beta_list,
                  ret, epsilon_floor, scaler_path, output):
    """Pick detection thresholds from a labeled validation series."""
    if epsilon_floor <= 0:
        raise click.UsageError("--epsilon-floor must be positive")
    if beta is not None and beta_list is not None:
        raise click.UsageError("--beta and --beta-list are mutually exclusive")
    params = load_model(model_path)
    scaler = load_scaler(scaler_path or f"{model_path}.scaler")
    data = load_series(validation_path)
    if not isinstance(data, LabeledTimeSeries):
        raise DataError("validation series has no label column")
    pairs = _prediction_table(params, scaler, data.series)

    betas = _parse_beta_list(beta_list) if beta_list is not None else None
    base = default_grid(pairs, mat=mat, epsilon_floor=epsilon_floor)
    try:
        grid = CalibrationGrid(
            ret_candidates=(ret,) if ret is not None else base.ret_candidates,
            alpha_candidates=(alpha,) if alpha is not None
            else base.alpha_candidates,
            beta_candidates=tuple(sorted(betas)) if betas is not None
            else ((beta,) if beta is not None else base.beta_candidates),
            mat=mat)
    except ValueError as exc:
        raise click.UsageError(str(exc))

    config, report, rows = run_calibration(
        pairs, data.attack_intervals, grid, epsilon_floor=epsilon_floor)
    if betas is not None:
        rows = sweep_beta(config, pairs, data.attack_intervals, betas)

    Path(output).write_text(config.to_text() + "\n", encoding="utf-8")
    sweep_path = f"{output}.sweep.csv"
    write_sweep(sweep_path, rows)
    _write_manifest(output, "calibrate",
                    inputs={"model": str(model_path),
                            "validation": str(validation_path)},
                    outputs={"config": str(output), "sweep": sweep_path},
                    config={"mat": mat, "alpha": alpha, "beta": beta,
                            "beta_list": beta_list, "ret": ret,
                            "epsilon_floor": epsilon_floor})
    click.echo(f"selected {config.to_text()}")
    click.echo(f"metrics: detection_rate_pct={report.detection_rate_pct:.17g} "
               f"false_alarms={report.false_alarms} "
               f"events_total={report.events_total}")


def _replay_verdicts(trace, config: DetectorConfig) -> list[StepVerdict]:
    """The verdicts a streaming ``Detector`` gives for the trace's rows.

    The trace holds the Detector's relative errors and window means bit
    for bit, and its danger coefficients count the same flags, so the
    alarm rule applied column-wise gives the same verdicts.  Every field
    is a plain Python number, as the Detector's are.
    """
    dc = trace.danger(config.ret)
    alarm = ~trace.warmup & (dc > config.alpha) & (trace.are > config.beta)
    return list(map(
        StepVerdict, trace.steps.tolist(), trace.actual.tolist(),
        trace.predicted.tolist(), trace.re.tolist(),
        (trace.re > config.ret).tolist(), dc.tolist(), trace.are.tolist(),
        alarm.tolist(), trace.warmup.tolist()))


@main.command(name="detect")
@click.argument("model_path", metavar="MODEL",
                type=click.Path(exists=True, dir_okay=False))
@click.argument("config_path", metavar="CONFIG",
                type=click.Path(exists=True, dir_okay=False))
@click.argument("test_path", metavar="TEST",
                type=click.Path(exists=True, dir_okay=False))
@click.option("--epsilon-floor", type=float, default=1e-6, show_default=True)
@click.option("--scaler", "scaler_path", type=click.Path(exists=True),
              default=None, help="Scaler file (default: MODEL.scaler).")
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True,
              help="Verdict CSV path; alarm log lands next to it.")
@_handle_errors
def detect_cmd(model_path, config_path, test_path, epsilon_floor, scaler_path,
               output):
    """Stream a series through the detector; report alarms and metrics."""
    if epsilon_floor <= 0:
        raise click.UsageError("--epsilon-floor must be positive")
    params = load_model(model_path)
    scaler = load_scaler(scaler_path or f"{model_path}.scaler")
    config = DetectorConfig.from_text(
        Path(config_path).read_text(encoding="utf-8"),
        epsilon_floor=epsilon_floor)
    data = load_series(test_path)
    labeled = isinstance(data, LabeledTimeSeries)
    series = data.series if labeled else data

    if len(series) < params.input_dim + config.mat:
        click.echo("warning: series shorter than lag+mat; "
                   "all verdicts are warmup", err=True)
    if len(series) >= params.input_dim + 1:
        verdicts = _replay_verdicts(
            replay_trace(_prediction_table(params, scaler, series),
                         config.mat, config.epsilon_floor), config)
    else:
        verdicts = []
    write_verdicts(output, verdicts)
    events = segment_alarms(verdicts)
    alarms_path = f"{output}.alarms.csv"
    write_alarms(alarms_path, events)
    _write_manifest(output, "detect",
                    inputs={"model": str(model_path),
                            "config": str(config_path),
                            "test": str(test_path)},
                    outputs={"verdicts": str(output), "alarms": alarms_path},
                    config={"epsilon_floor": epsilon_floor,
                            "detector": config.to_text()})
    click.echo(f"wrote {len(verdicts)} verdicts, {len(events)} alarm events")
    if labeled:
        report = evaluate_events(events, data.attack_intervals)
        click.echo(
            f"metrics: detection_rate_pct={report.detection_rate_pct:.17g} "
            f"false_alarms={report.false_alarms} "
            f"events_total={report.events_total}")


@main.command(name="split")
@click.argument("series_path", metavar="SERIES",
                type=click.Path(exists=True, dir_okay=False))
@click.option("--train-fraction", type=float, default=0.4, show_default=True)
@click.option("--validation-fraction", type=float, default=0.2,
              show_default=True)
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True,
              help="Prefix; writes <prefix>.train.csv/.validation.csv/.test.csv")
@_handle_errors
def split_cmd(series_path, train_fraction, validation_fraction, output):
    """Chronologically split a labeled series (training part must be normal)."""
    data = load_series(series_path)
    if not isinstance(data, LabeledTimeSeries):
        raise DataError("split needs a labeled series")
    try:
        train_part, validation, test = split_protocol(
            data, train_fraction, validation_fraction)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    paths = {"train": f"{output}.train.csv",
             "validation": f"{output}.validation.csv",
             "test": f"{output}.test.csv"}
    save_series(paths["train"], train_part)
    save_series(paths["validation"], validation)
    save_series(paths["test"], test)
    _write_manifest(output, "split",
                    inputs={"series": str(series_path)},
                    outputs=paths,
                    config={"train_fraction": train_fraction,
                            "validation_fraction": validation_fraction})
    click.echo(f"train={len(train_part)} validation={len(validation)} "
               f"test={len(test)} steps")


if __name__ == "__main__":
    main()
