"""Command-line surface binding the full pipeline.

Every command is deterministic given its flags and input files, for a
fixed numpy and BLAS build and BLAS thread count; the seed comes from
``--seed`` alone.  Wall-clock time is the one exception: the ``seconds``
column of the ``compare-lags`` table, the one wall-clock output written to
a file, which the command also prints, and the ``wall_seconds`` that
``train`` prints.  Each writes a ``<output>.manifest.json`` recording the
resolved configuration and the files it read, the scaler included, so a
run can be replayed exactly.  No flag sets the relative error's floor
(``detector.EPSILON_FLOOR``), so ``detect`` with the config ``calibrate``
wrote gives calibrate's metrics on the same stream.

Exit codes: 0 success, 2 usage error, 3 data error, 4 training divergence.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path

import click
import numpy as np

from . import __version__
from .calibration import (CalibrationGrid, _prediction_table, default_grid,
                          evaluate_events, replay_trace, write_sweep)
from .calibration import calibrate as run_calibration
from .detector import DetectorConfig, segment_alarms, write_alarms, \
    write_verdicts
from .errors import DataError, DivergenceError
from .lstm import TrainConfig, load_model, save_model, train
from .pipeline import (EPOCH, LabeledTimeSeries, SynthConfig,
                       _parse_timestamp, _step_microseconds, _utf8_errors,
                       aggregate_counts, build_windows, fit_scaler,
                       generate_synthetic, load_scaler, load_series,
                       load_tshark_csv, save_scaler, save_series,
                       scale_windows, split_protocol)

EXIT_DATA_ERROR = 3
EXIT_DIVERGENCE = 4

#: The most steps ``ingest`` counts: ten times the longest series the
#: pipeline is measured on (100,000 steps), or about 11.6 days of 1-second
#: steps.  Writing a series that long takes about 4.4 s and 170 MB on a
#: 2-CPU host, growing linearly with the steps.  A longer range is most
#: often a stray timestamp, such as a year digit flipped from 2021 to 3021,
#: which would ask for 31,556,908,819 counts.
MAX_INGEST_STEPS = 1_000_000

_seed_option = click.option("--seed", type=int, default=0, show_default=True,
                            help="RNG seed.")


def _check_output_dir(ctx, param, value):
    """An output path in a directory that does not exist is a usage error,
    found before any work."""
    parent = Path(value).parent
    if not parent.is_dir():
        raise click.BadParameter(f"directory {str(parent)!r} does not exist")
    return value


def _output_option(help=None):
    return click.option("-o", "--output", type=click.Path(dir_okay=False),
                        required=True, callback=_check_output_dir, help=help)


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
@_output_option()
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
@_output_option()
@_handle_errors
def ingest(packets, step_seconds, start_text, end_text, output):
    """Aggregate a tshark packet CSV into a per-step count series."""
    try:
        step_us = _step_microseconds(step_seconds)
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
            last = EPOCH + timedelta(microseconds=int(stamps[-1]))
            if last == datetime.max:
                raise DataError(f"no range end follows the last record, "
                                f"{last.isoformat()}: give --end")
            end = last + timedelta(microseconds=1)
        if start >= end:
            raise DataError(f"range start {start.isoformat()} does not "
                            f"precede range end {end.isoformat()}")
    steps = -(-((end - start) // timedelta(microseconds=1)) // step_us)
    if steps > MAX_INGEST_STEPS:
        raise DataError(
            f"range {start.isoformat()} to {end.isoformat()} holds {steps} "
            f"steps, more than the limit of {MAX_INGEST_STEPS}: narrow it "
            f"with --start/--end or give a larger --step-seconds")

    series = aggregate_counts(stamps, step_seconds, start, end)
    save_series(output, series)
    _write_manifest(output, "ingest",
                    inputs={"packets": str(packets)},
                    outputs={"series": str(output)},
                    config={"step_seconds": series.step_duration,
                            "start": start.isoformat(),
                            "end": end.isoformat()})
    click.echo(f"wrote {len(series)} steps "
               f"({int(series.values.sum())} packets) -> {output}")


def _train_config(**fields) -> TrainConfig:
    """TrainConfig from command flags; an invalid value (such as a
    non-finite or non-positive --lr) is a usage error."""
    try:
        return TrainConfig(**fields)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _load_training_series(path, lag: int):
    """The normal-only series at ``path``, long enough for one window at
    ``lag``."""
    data = load_series(path)
    if isinstance(data, LabeledTimeSeries):
        if data.labels.any():
            raise DataError(
                "training series contains attack-labeled steps; "
                "train on normal data only")
        data = data.series
    if len(data) < lag + 1:
        raise DataError(
            f"training series has {len(data)} values; lag {lag} needs at "
            f"least {lag + 1}")
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
@_seed_option
@_output_option("Model file path; scaler and loss curve land next to it.")
@_handle_errors
def train_cmd(series_path, lag, hidden, lr, epochs, seed, output):
    """Train the next-step predictor on a normal-only series."""
    config = _train_config(learning_rate=lr, epochs=epochs, hidden_dim=hidden,
                           lag=lag, rng_seed=seed)
    series = _load_training_series(series_path, lag)
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
                            "epochs": epochs, "seed": seed})
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
@_output_option()
@_handle_errors
def compare_lags(series_path, hidden, lr, epochs, seed, output):
    """Train once per lag width (1, 2, 3) and tabulate loss and runtime."""
    config = _train_config(learning_rate=lr, epochs=epochs, hidden_dim=hidden,
                           rng_seed=seed)
    lags = (1, 2, 3)
    series = _load_training_series(series_path, max(lags))
    scaler = fit_scaler(series)
    rows = []
    for lag in lags:
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
@click.option("--scaler", "scaler_path", type=click.Path(exists=True),
              default=None, help="Scaler file (default: MODEL.scaler).")
@_output_option("Selected config path; sweep CSV lands next to it.")
@_handle_errors
def calibrate_cmd(model_path, validation_path, mat, alpha, beta, beta_list,
                  ret, scaler_path, output):
    """Pick detection thresholds from a labeled validation series."""
    if beta is not None and beta_list is not None:
        raise click.UsageError("--beta and --beta-list are mutually exclusive")
    params = load_model(model_path)
    scaler_path = scaler_path or f"{model_path}.scaler"
    scaler = load_scaler(scaler_path)
    data = load_series(validation_path)
    if not isinstance(data, LabeledTimeSeries):
        raise DataError("validation series has no label column")
    lag = params.input_dim
    if len(data.series) < lag + 1:
        raise DataError(
            f"validation series has {len(data.series)} values; lag {lag} "
            f"needs at least {lag + 1}")
    pairs = _prediction_table(params, scaler, data.series)

    betas = _parse_beta_list(beta_list) if beta_list is not None else None
    base = default_grid(pairs, mat=mat)
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

    config, report, counts = run_calibration(
        pairs, data.attack_intervals, grid)
    rets, alphas = grid.ret_candidates, grid.alpha_candidates
    if betas is None:
        betas = grid.beta_candidates
    else:
        # The selected (ret, alpha) at the listed betas, in their order;
        # equal betas share a column.
        i, j = rets.index(config.ret), alphas.index(config.alpha)
        columns = np.searchsorted(grid.beta_candidates, betas,
                                  side="right") - 1
        counts = counts[:, i:i + 1, j:j + 1, columns]
        rets, alphas = (config.ret,), (config.alpha,)

    Path(output).write_text(config.to_text() + "\n", encoding="utf-8")
    sweep_path = f"{output}.sweep.csv"
    write_sweep(sweep_path, rets, alphas, betas, counts,
                report.intervals_total)
    _write_manifest(output, "calibrate",
                    inputs={"model": str(model_path),
                            "scaler": str(scaler_path),
                            "validation": str(validation_path)},
                    outputs={"config": str(output), "sweep": sweep_path},
                    config={"mat": mat, "alpha": alpha, "beta": beta,
                            "beta_list": beta_list, "ret": ret})
    click.echo(f"selected {config.to_text()}")
    click.echo(f"metrics: detection_rate_pct={report.detection_rate_pct:.17g} "
               f"false_alarms={report.false_alarms} "
               f"events_total={report.events_total}")


@main.command(name="detect")
@click.argument("model_path", metavar="MODEL",
                type=click.Path(exists=True, dir_okay=False))
@click.argument("config_path", metavar="CONFIG",
                type=click.Path(exists=True, dir_okay=False))
@click.argument("test_path", metavar="TEST",
                type=click.Path(exists=True, dir_okay=False))
@click.option("--scaler", "scaler_path", type=click.Path(exists=True),
              default=None, help="Scaler file (default: MODEL.scaler).")
@_output_option("Verdict CSV path; alarm log lands next to it.")
@_handle_errors
def detect_cmd(model_path, config_path, test_path, scaler_path, output):
    """Stream a series through the detector; report alarms and metrics."""
    params = load_model(model_path)
    scaler_path = scaler_path or f"{model_path}.scaler"
    scaler = load_scaler(scaler_path)
    with _utf8_errors(config_path):
        text = Path(config_path).read_text(encoding="utf-8")
    config = DetectorConfig.from_text(text)
    data = load_series(test_path)
    labeled = isinstance(data, LabeledTimeSeries)
    series = data.series if labeled else data

    if len(series) < params.input_dim + config.mat:
        click.echo("warning: series shorter than lag+mat; "
                   "all verdicts are warmup", err=True)
    if len(series) >= params.input_dim + 1:
        trace = replay_trace(_prediction_table(params, scaler, series),
                             config.mat)
        verdicts = trace.verdicts(config)
    else:
        verdicts = []
    write_verdicts(output, verdicts)
    events = segment_alarms(verdicts)
    alarms_path = f"{output}.alarms.csv"
    write_alarms(alarms_path, events)
    _write_manifest(output, "detect",
                    inputs={"model": str(model_path),
                            "scaler": str(scaler_path),
                            "config": str(config_path),
                            "test": str(test_path)},
                    outputs={"verdicts": str(output), "alarms": alarms_path},
                    config={"detector": config.to_text()})
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
@_output_option("Prefix; writes <prefix>.train.csv/.validation.csv/.test.csv")
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
