"""Command-line surface binding the full pipeline.

Every command is deterministic given its flags and input files, for a
fixed numpy and BLAS build and BLAS thread count, and does not depend on
how many CPUs training uses; the seed comes from ``--seed`` alone.
Wall-clock time is the one exception: the ``seconds`` column of the
``compare-lags`` table, the one wall-clock output written to a file,
which the command also prints, and the ``wall_seconds`` that ``train``
prints.  No flag sets the relative error's floor
(``detector.EPSILON_FLOOR``), so ``detect`` with the config ``calibrate``
wrote gives calibrate's metrics on the same stream.

Each command writes a ``<output>.manifest.json`` so that a run can be
replayed exactly.  It holds every parameter but ``-o``, by name: file
parameters as ``inputs`` and the others as ``config``.  Where a command
resolves a value, the manifest holds it: ``ingest``'s rounded
``step_seconds`` and ISO ``start`` and ``end``, and the ``scaler`` file
``calibrate`` and ``detect`` read; ``detect`` adds its ``detector`` line.

Exit codes: 0 success, 2 usage error, 3 data error, 4 training divergence.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path

import click
import numpy as np

from . import __version__
from .calibration import (CalibrationGrid, _prediction_table, default_grid,
                          evaluate_events, write_sweep)
from .calibration import calibrate as run_calibration
from .detector import (DetectorConfig, Verdicts, replay_trace, segment_alarms,
                       write_alarms, write_verdicts)
from .errors import DataError, DivergenceError
from .lstm import TrainConfig, load_model, save_model, train
from .pipeline import (EPOCH, LAGS, LabeledTimeSeries, SynthConfig,
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

#: Every file a command reads.
_INPUT = click.Path(exists=True, dir_okay=False)


def _seed_option(config_class):
    return click.option("--seed", type=int, default=config_class.rng_seed,
                        show_default=True, help="RNG seed.")


def _train_options(fn):
    """``--hidden``, ``--lr`` and ``--epochs``, in that order."""
    fn = click.option("--epochs", type=click.IntRange(min=1),
                      default=TrainConfig.epochs, show_default=True)(fn)
    fn = click.option("--lr", type=float, default=TrainConfig.learning_rate,
                      show_default=True)(fn)
    return click.option("--hidden", type=click.IntRange(min=1),
                        default=TrainConfig.hidden_dim, show_default=True)(fn)


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


@contextmanager
def _usage_errors(prefix: str = ""):
    """A ``ValueError`` raised inside, such as a config class's rejection
    of a flag's value, becomes a usage error."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(f"{prefix}{exc}")


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


def _write_manifest(outputs: dict, **resolved) -> None:
    """Write the running command's ``<output>.manifest.json``: its
    parameters by name, file parameters as ``inputs`` and the others as
    ``config``, where ``resolved`` replaces or adds values."""
    ctx = click.get_current_context()
    files = {param.name for param in ctx.command.params
             if isinstance(param.type, click.Path)}
    values = {**ctx.params, **resolved}
    output = values.pop("output")
    payload = {"artifact_version": __version__, "command": ctx.info_name,
               "config": {k: v for k, v in values.items() if k not in files},
               "inputs": {k: v for k, v in values.items() if k in files},
               "outputs": outputs}
    Path(f"{output}.manifest.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@click.group()
@click.version_option(version=__version__, prog_name="synwatch")
def main():
    """Train, calibrate and run the traffic anomaly detector."""


@main.command()
@click.option("--length", type=click.IntRange(min=1), required=True,
              help="Number of time steps.")
@click.option("--attacks", type=click.IntRange(min=0),
              default=SynthConfig.attack_count, show_default=True,
              help="Number of attack bursts to inject.")
@click.option("--baseline-mean", type=float,
              default=SynthConfig.baseline_mean, show_default=True)
@click.option("--baseline-std", type=float, default=SynthConfig.baseline_std,
              show_default=True)
@click.option("--attack-min-len", type=click.IntRange(min=1),
              default=SynthConfig.attack_min_len, show_default=True)
@click.option("--attack-max-len", type=click.IntRange(min=1),
              default=SynthConfig.attack_max_len, show_default=True)
@click.option("--attack-multiplier", type=float,
              default=SynthConfig.attack_multiplier, show_default=True)
@_seed_option(SynthConfig)
@_output_option()
@_handle_errors
def synth(length, attacks, baseline_mean, baseline_std, attack_min_len,
          attack_max_len, attack_multiplier, seed, output):
    """Generate a labeled synthetic traffic series."""
    with _usage_errors():
        config = SynthConfig(
            length=length, baseline_mean=baseline_mean,
            baseline_std=baseline_std, attack_count=attacks,
            attack_min_len=attack_min_len, attack_max_len=attack_max_len,
            attack_multiplier=attack_multiplier, rng_seed=seed)
    labeled = generate_synthetic(config)
    save_series(output, labeled, seed=seed)
    _write_manifest({"series": output})
    click.echo(f"wrote {length} steps with {len(labeled.attack_intervals)} "
               f"attack intervals -> {output}")


def _timestamp_flag(flag: str, text):
    """A timestamp flag's value, or None when it is not given; a text
    that is not a timestamp is a usage error."""
    if text is None:
        return None
    with _usage_errors(f"{flag}: "):
        return _parse_timestamp(text)


@main.command()
@click.argument("packets", type=_INPUT)
@click.option("--step-seconds", type=float, default=1.0, show_default=True,
              help="Aggregation step duration.")
@click.option("--start", type=str, default=None,
              help="Range start (default: first record's timestamp).")
@click.option("--end", type=str, default=None,
              help="Range end, exclusive (default: just past the last record).")
@_output_option()
@_handle_errors
def ingest(packets, step_seconds, start, end, output):
    """Aggregate a tshark packet CSV into a per-step count series."""
    with _usage_errors("--step-seconds: "):
        step_us = _step_microseconds(step_seconds)
    start = _timestamp_flag("--start", start)
    end = _timestamp_flag("--end", end)
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
            missing = "/".join(flag for flag, value in (
                ("--start", start), ("--end", end)) if value is None)
            raise DataError(f"no parseable records and no {missing} given")
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

    series = aggregate_counts(stamps, step_us, start, end)
    save_series(output, series)
    _write_manifest({"series": output}, step_seconds=step_us / 10**6,
                    start=start.isoformat(), end=end.isoformat())
    click.echo(f"wrote {len(series)} steps "
               f"({int(series.values.sum())} packets) -> {output}")


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


@main.command(name="train")
@click.argument("series", type=_INPUT)
@click.option("--lag", type=click.IntRange(min(LAGS), max(LAGS)),
              default=TrainConfig.lag, show_default=True,
              help="How many previous steps feed one prediction.")
@_train_options
@_seed_option(TrainConfig)
@_output_option("Model file path; scaler and loss curve land next to it.")
@_handle_errors
def train_cmd(series, lag, hidden, lr, epochs, seed, output):
    """Train the next-step predictor on a normal-only series."""
    with _usage_errors():
        config = TrainConfig(learning_rate=lr, epochs=epochs,
                             hidden_dim=hidden, lag=lag, rng_seed=seed)
    data = _load_training_series(series, lag)
    scaler = fit_scaler(data)
    windows = scale_windows(build_windows(data, lag), scaler)
    params, report = train(config, windows)
    save_model(output, params)
    save_scaler(f"{output}.scaler", scaler)
    curve_path = f"{output}.curve.csv"
    lines = ["epoch,loss"]
    lines += [f"{i + 1},{loss:.17g}"
              for i, loss in enumerate(report.epoch_losses)]
    Path(curve_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest({"model": output, "scaler": f"{output}.scaler",
                     "curve": curve_path})
    click.echo(f"final_loss={report.epoch_losses[-1]:.17g} "
               f"wall_seconds={report.wall_seconds:.3f} -> {output}")


@main.command(name="compare-lags")
@click.argument("series", type=_INPUT)
@_train_options
@_seed_option(TrainConfig)
@_output_option()
@_handle_errors
def compare_lags(series, hidden, lr, epochs, seed, output):
    """Train once per lag width (1, 2, 3) and tabulate loss and runtime."""
    with _usage_errors():
        config = TrainConfig(learning_rate=lr, epochs=epochs,
                             hidden_dim=hidden, rng_seed=seed)
    data = _load_training_series(series, max(LAGS))
    scaler = fit_scaler(data)
    rows = []
    for lag in LAGS:
        windows = scale_windows(build_windows(data, lag), scaler)
        _, report = train(replace(config, lag=lag), windows)
        rows.append((lag, report.epoch_losses[-1], report.wall_seconds))
    lines = ["lag,final_loss,seconds"]
    lines += [f"{lag},{loss:.17g},{secs:.6f}" for lag, loss, secs in rows]
    Path(output).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest({"table": output})
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


_scaler_option = click.option("--scaler", type=_INPUT, default=None,
                              help="Scaler file (default: MODEL.scaler).")


def _echo_metrics(report) -> None:
    click.echo(f"metrics: detection_rate_pct={report.detection_rate_pct:.17g} "
               f"false_alarms={report.false_alarms} "
               f"events_total={report.events_total}")


def _predictor(model, scaler):
    """The parameters at ``model``, the scaler at ``scaler`` (by default
    ``<model>.scaler``) and the scaler's path."""
    scaler = scaler or f"{model}.scaler"
    return load_model(model), load_scaler(scaler), scaler


@main.command(name="calibrate")
@click.argument("model", type=_INPUT)
@click.argument("validation", type=_INPUT)
@click.option("--mat", type=click.IntRange(min=1), default=DetectorConfig.mat,
              show_default=True, help="Error-window capacity in steps.")
@click.option("--alpha", type=click.FloatRange(0.0, 1.0), default=None,
              help="Pin the anomalous-fraction threshold (else grid search).")
@click.option("--beta", type=float, default=None,
              help="Pin the mean-error threshold (else grid search).")
@click.option("--beta-list", type=str, default=None,
              help="Comma-separated betas; sweep table restricts to these.")
@click.option("--ret", type=float, default=None,
              help="Pin the per-step error threshold (else grid search).")
@_scaler_option
@_output_option("Selected config path; sweep CSV lands next to it.")
@_handle_errors
def calibrate_cmd(model, validation, mat, alpha, beta, beta_list, ret, scaler,
                  output):
    """Pick detection thresholds from a labeled validation series."""
    if beta is not None and beta_list is not None:
        raise click.UsageError("--beta and --beta-list are mutually exclusive")
    params, scaler, scaler_path = _predictor(model, scaler)
    data = load_series(validation)
    if not isinstance(data, LabeledTimeSeries):
        raise DataError("validation series has no label column")
    lag = params.input_dim
    if len(data.series) < lag + 1:
        raise DataError(
            f"validation series has {len(data.series)} values; lag {lag} "
            f"needs at least {lag + 1}")
    trace = replay_trace(
        *_prediction_table(params, scaler, data.series), mat)

    betas = _parse_beta_list(beta_list) if beta_list is not None else None
    base = default_grid(trace)
    with _usage_errors():
        grid = CalibrationGrid(
            ret_candidates=(ret,) if ret is not None else base.ret_candidates,
            alpha_candidates=(alpha,) if alpha is not None
            else base.alpha_candidates,
            beta_candidates=tuple(sorted(betas)) if betas is not None
            else ((beta,) if beta is not None else base.beta_candidates))

    config, report, counts = run_calibration(
        trace, data.attack_intervals, grid)
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
    _write_manifest({"config": output, "sweep": sweep_path},
                    scaler=scaler_path)
    click.echo(f"selected {config.to_text()}")
    _echo_metrics(report)


@main.command(name="detect")
@click.argument("model", type=_INPUT)
@click.argument("config", type=_INPUT)
@click.argument("test", type=_INPUT)
@_scaler_option
@_output_option("Verdict CSV path; alarm log lands next to it.")
@_handle_errors
def detect_cmd(model, config, test, scaler, output):
    """Stream a series through the detector; report alarms and metrics."""
    params, scaler, scaler_path = _predictor(model, scaler)
    with _utf8_errors(config):
        text = Path(config).read_text(encoding="utf-8")
    detector = DetectorConfig.from_text(text)
    data = load_series(test)
    labeled = isinstance(data, LabeledTimeSeries)
    series = data.series if labeled else data

    if len(series) < params.input_dim + detector.mat:
        click.echo("warning: series shorter than lag+mat; "
                   "all verdicts are warmup", err=True)
    if len(series) >= params.input_dim + 1:
        trace = replay_trace(*_prediction_table(params, scaler, series),
                             detector.mat)
        verdicts = trace.verdict_columns(detector)
    else:
        verdicts = Verdicts.of([])
    write_verdicts(output, verdicts)
    events = segment_alarms(verdicts)
    alarms_path = f"{output}.alarms.csv"
    write_alarms(alarms_path, events)
    _write_manifest({"verdicts": output, "alarms": alarms_path},
                    scaler=scaler_path, detector=detector.to_text())
    click.echo(f"wrote {len(verdicts.step)} verdicts, {len(events)} alarm "
               "events")
    if labeled:
        _echo_metrics(evaluate_events(events, data.attack_intervals))


@main.command(name="split")
@click.argument("series", type=_INPUT)
@click.option("--train-fraction", type=float, default=0.4, show_default=True)
@click.option("--validation-fraction", type=float, default=0.2,
              show_default=True)
@_output_option("Prefix; writes <prefix>.train.csv/.validation.csv/.test.csv")
@_handle_errors
def split_cmd(series, train_fraction, validation_fraction, output):
    """Chronologically split a labeled series (training part must be normal)."""
    data = load_series(series)
    if not isinstance(data, LabeledTimeSeries):
        raise DataError("split needs a labeled series")
    with _usage_errors():
        train_part, validation, test = split_protocol(
            data, train_fraction, validation_fraction)
    paths = {"train": f"{output}.train.csv",
             "validation": f"{output}.validation.csv",
             "test": f"{output}.test.csv"}
    save_series(paths["train"], train_part)
    save_series(paths["validation"], validation)
    save_series(paths["test"], test)
    _write_manifest(paths)
    click.echo(f"train={len(train_part)} validation={len(validation)} "
               f"test={len(test)} steps")


if __name__ == "__main__":
    main()
