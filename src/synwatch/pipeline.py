"""Build detector-ready traffic time series.

Ingests tshark-exported packet CSVs, aggregates per-step packet counts,
normalizes, windows series into supervised next-step pairs, splits them
chronologically, and generates labeled synthetic flood traffic for
self-contained runs.

The packet CSV is assumed to be pre-filtered upstream (e.g. to SYN_ACK
responses); no TCP-flag filtering happens here because the exported
columns do not carry flags.
"""

from __future__ import annotations

import csv
import io
import math
import re as _re
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .errors import DataError

TSHARK_FIELDS = ("frame.number", "frame.len", "frame.time", "ip.proto")

#: Minimum number of normal steps between generated attack intervals
#: (matches the default size of the detector's error window).
MIN_ATTACK_SEPARATION = 12

DEFAULT_START_TIME = datetime(2000, 1, 1, 0, 0, 0)

#: Zero of the int64 microsecond timestamps ``load_tshark_csv`` returns.
EPOCH = datetime(1970, 1, 1)

_MICROSECOND = timedelta(microseconds=1)

#: Why ``load_tshark_csv`` rejects a row, in the order it checks.
REJECT_REASONS = ("short_row", "bad_integer", "bad_timestamp",
                  "negative_length")

_MONTHS = {m: n for n, m in enumerate(
    ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
     "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"), start=1)}

_TSHARK_TIME_RE = _re.compile(
    r"^(?P<mon>[A-Z][a-z]{2}) +(?P<day>\d{1,2}), +(?P<year>\d{4}) +"
    r"(?P<h>\d{1,2}):(?P<m>\d{2}):(?P<s>\d{2})(?:\.(?P<frac>\d+))?"
    r"(?: +(?P<tz>[A-Za-z_/+\-0-9]+))?$")


@dataclass
class IngestResult:
    """Accepted packet timestamps plus the rows that could not be parsed."""
    timestamps_us: np.ndarray  # sorted int64 microseconds since EPOCH (UTC)
    rejected: list[tuple[int, str]]  # (1-based data row number, reason)
    rejected_by_reason: dict[str, int]  # REJECT_REASONS -> rows


@dataclass
class TimeSeries:
    """Per-step packet counts sampled at a fixed cadence."""
    start_time: datetime
    step_duration: float  # seconds
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.step_duration <= 0:
            raise ValueError("step_duration must be positive")
        if self.values.ndim != 1 or len(self.values) < 1:
            raise ValueError("values must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("packet counts must be finite")
        if np.any(self.values < 0):
            raise ValueError("packet counts cannot be negative")

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class LabeledTimeSeries:
    """A TimeSeries with a per-step normal/attack flag."""
    series: TimeSeries
    labels: np.ndarray  # bool, True = attack step
    attack_intervals: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=bool)
        if len(self.labels) != len(self.series):
            raise ValueError("labels length must match series length")
        expected = labels_from_intervals(len(self.series), self.attack_intervals)
        if not np.array_equal(expected, self.labels):
            raise ValueError("labels and attack_intervals disagree")

    def __len__(self) -> int:
        return len(self.series)


@dataclass
class WindowSet:
    """Supervised next-step pairs: each input is a contiguous slice of
    ``lag`` consecutive values (oldest first) and the target is the value
    one step after the slice."""
    lag: int
    inputs: np.ndarray        # (n, lag)
    targets: np.ndarray       # (n,)
    origin_steps: np.ndarray  # (n,) step index of each window's newest value

    def __len__(self) -> int:
        return len(self.targets)


@dataclass
class Scaler:
    """Affine map to roughly [0, 1]: apply(x) = (x - offset) / scale."""
    offset: float
    scale: float

    def __post_init__(self):
        if not math.isfinite(self.offset):
            raise ValueError(f"offset must be finite, got {self.offset!r}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(
                f"scale must be finite and positive, got {self.scale!r}")

    def apply(self, x):
        return (np.asarray(x, dtype=np.float64) - self.offset) / self.scale

    def invert(self, y):
        return np.asarray(y, dtype=np.float64) * self.scale + self.offset


@dataclass
class SynthConfig:
    length: int
    baseline_mean: float = 100.0
    baseline_std: float = 10.0
    attack_count: int = 0
    attack_min_len: int = 20
    attack_max_len: int = 40
    attack_multiplier: float = 8.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.baseline_mean < 0 or self.baseline_std < 0:
            raise ValueError("baseline mean/std must be non-negative")
        if self.attack_count < 0:
            raise ValueError("attack_count must be >= 0")
        if not 1 <= self.attack_min_len <= self.attack_max_len:
            raise ValueError("need 1 <= attack_min_len <= attack_max_len")
        if self.attack_multiplier <= 1:
            raise ValueError("attack_multiplier must exceed 1")


def intervals_from_labels(labels) -> list[tuple[int, int]]:
    """Maximal runs of True as closed [start, end] index pairs."""
    labels = np.asarray(labels, dtype=bool)
    intervals = []
    start = None
    for idx, flag in enumerate(labels):
        if flag and start is None:
            start = idx
        elif not flag and start is not None:
            intervals.append((start, idx - 1))
            start = None
    if start is not None:
        intervals.append((start, len(labels) - 1))
    return intervals


def labels_from_intervals(length: int, intervals) -> np.ndarray:
    labels = np.zeros(length, dtype=bool)
    for start, end in intervals:
        if not 0 <= start <= end < length:
            raise ValueError(f"interval [{start}, {end}] out of range")
        labels[start:end + 1] = True
    return labels


def _parse_timestamp(text: str) -> datetime:
    """Parse ISO-8601 or tshark's default textual frame.time form.

    Fractions finer than microseconds are truncated; timezone names or
    offsets are dropped after normalizing to UTC when an offset is known.
    A text whose offset takes it outside the datetime range is rejected.
    """
    text = text.strip()
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        pass
    else:
        if ts.tzinfo is not None:
            try:
                ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
            except OverflowError:
                raise ValueError(
                    f"timestamp out of range in UTC: {text!r}") from None
        return ts
    m = _TSHARK_TIME_RE.match(text)
    if m is None or m.group("mon") not in _MONTHS:
        raise ValueError(f"unrecognized timestamp: {text!r}")
    frac = (m.group("frac") or "")[:6].ljust(6, "0")
    return datetime(
        int(m.group("year")), _MONTHS[m.group("mon")], int(m.group("day")),
        int(m.group("h")), int(m.group("m")), int(m.group("s")), int(frac))


def _timestamp_us_parser():
    """A function from timestamp text to int microseconds since EPOCH that
    accepts, rejects and values every text as ``_parse_timestamp`` does.

    tshark's ``Mon DD, YYYY HH:MM:SS.f[ TZ]`` splits into the text up to
    the whole second, the fraction digits and the zone suffix.  Within one
    (prefix, suffix) key the fraction only adds its first six digits, so
    the whole-second value is memoised; a key enters the memo only from a
    full parse of a text that has it, so a bad text is still rejected with
    the full parse's message.  Every other text, ISO-8601 included, takes
    the full parse: ``datetime.fromisoformat`` reads an ISO text in less
    time than the memo lookup takes.
    """
    tshark_shape = _re.compile(
        r"([A-Z][a-z]{2} +\d{1,2}, +\d{4} +\d{1,2}:\d{2}:\d{2})\.(\d+)"
        r"( +[A-Za-z_/+\-0-9]+)?", _re.ASCII).fullmatch
    whole_seconds: dict[tuple, int] = {}

    def to_us(text: str) -> int:
        m = tshark_shape(text)
        if m is None:
            return (_parse_timestamp(text) - EPOCH) // _MICROSECOND
        prefix, digits, suffix = m.groups()
        frac = int(digits[:6].ljust(6, "0"))
        whole = whole_seconds.get((prefix, suffix))
        if whole is None:
            whole = (_parse_timestamp(text) - EPOCH) // _MICROSECOND - frac
            whole_seconds[prefix, suffix] = whole
        return whole + frac
    return to_us


def load_tshark_csv(source) -> IngestResult:
    """Parse a tshark field export into sorted packet timestamps.

    ``source`` may be a path or an open text/binary stream.  The header row
    must name all four exported fields.  A data row is accepted when it has
    every field, integer ``frame.number``, ``frame.len`` and ``ip.proto``, a
    non-negative ``frame.len`` and a timestamp ``_parse_timestamp`` reads.
    Malformed rows are collected in the result's ``rejected`` list with
    their 1-based row number instead of being silently dropped, and counted
    per ``REJECT_REASONS`` entry.  Timestamps come back as one sorted int64
    array of microseconds since ``EPOCH``, in UTC when the text had an
    offset.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return load_tshark_csv(fh)
    if isinstance(source, (bytes, bytearray)):
        return load_tshark_csv(io.StringIO(source.decode("utf-8")))
    if hasattr(source, "read") and isinstance(source.read(0), bytes):
        source = io.TextIOWrapper(source, encoding="utf-8", newline="")

    reader = csv.reader(source)
    try:
        header = [cell.strip() for cell in next(reader)]
    except StopIteration:
        raise DataError("missing header: input file is empty") from None
    try:
        cols = [header.index(name) for name in TSHARK_FIELDS]
    except ValueError:
        raise DataError(
            "missing header: expected columns "
            + ",".join(TSHARK_FIELDS) + f", got {','.join(header)}") from None

    number_col, len_col, time_col, proto_col = cols
    width = max(cols) + 1
    to_us = _timestamp_us_parser()
    stamps: list[int] = []
    rejected: list[tuple[int, str]] = []
    by_reason = dict.fromkeys(REJECT_REASONS, 0)

    def reject(row_no: int, reason: str, message: str) -> None:
        rejected.append((row_no, message))
        by_reason[reason] += 1

    for row_no, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) < width:
            reject(row_no, "short_row",
                   f"expected >= {width} fields, got {len(row)}")
            continue
        try:
            int(row[number_col].strip())
            negative = int(row[len_col].strip()) < 0
        except ValueError as exc:
            reject(row_no, "bad_integer", str(exc))
            continue
        try:
            us = to_us(row[time_col])
        except ValueError as exc:
            reject(row_no, "bad_timestamp", str(exc))
            continue
        try:
            int(row[proto_col].strip())
        except ValueError as exc:
            reject(row_no, "bad_integer", str(exc))
            continue
        if negative:
            reject(row_no, "negative_length", "negative frame.len")
            continue
        stamps.append(us)
    timestamps_us = np.array(stamps, dtype=np.int64)
    timestamps_us.sort()
    return IngestResult(timestamps_us=timestamps_us, rejected=rejected,
                        rejected_by_reason=by_reason)


def _step_microseconds(step_duration: float) -> int:
    """A step duration in whole microseconds, the resolution of
    ``aggregate_counts``; it must be finite and round to at least 1."""
    scaled = step_duration * 1e6
    if not 0 < scaled < math.inf:
        raise ValueError(f"step_duration must be finite and positive, "
                         f"got {step_duration!r}")
    step_us = round(scaled)
    if step_us < 1:
        raise ValueError("step_duration below microsecond resolution")
    return step_us


def aggregate_counts(timestamps_us, step_duration: float,
                     start: datetime, end: datetime) -> TimeSeries:
    """Count packet timestamps (int microseconds since ``EPOCH``) per step
    over [start, end).

    Step ``i`` covers [start + i*step, start + (i+1)*step); timestamps
    outside [start, end) are ignored.  The series has
    ceil((end-start)/step) steps.
    """
    step_us = _step_microseconds(step_duration)
    if start >= end:
        raise ValueError("start must precede end")
    total_us = (end - start) // _MICROSECOND
    n_steps = -(-total_us // step_us)  # ceil
    offsets = (np.asarray(timestamps_us, dtype=np.int64)
               - (start - EPOCH) // _MICROSECOND)
    offsets = offsets[(offsets >= 0) & (offsets < total_us)]
    # capped so that a step beyond int64 cannot overflow; a step longer
    # than the range puts every offset in step 0 either way
    counts = np.bincount(offsets // min(step_us, total_us), minlength=n_steps)
    return TimeSeries(start_time=start, step_duration=step_duration,
                      values=counts.astype(np.float64))


def fit_scaler(series: TimeSeries) -> Scaler:
    """Min-max scaler fit on one series (use the training segment only).

    A constant series maps to all zeros: offset = mean, scale = 1.
    """
    vmin = float(np.min(series.values))
    vmax = float(np.max(series.values))
    if vmax > vmin:
        return Scaler(offset=vmin, scale=vmax - vmin)
    return Scaler(offset=vmin, scale=1.0)


def build_windows(series: TimeSeries, lag: int) -> WindowSet:
    """Slice a series into all (lag consecutive values -> next value) pairs."""
    if lag not in (1, 2, 3):
        raise ValueError("lag must be 1, 2 or 3")
    values = series.values
    if len(values) < lag + 1:
        raise ValueError(
            f"series too short: need at least {lag + 1} values, got {len(values)}")
    inputs = np.lib.stride_tricks.sliding_window_view(values, lag)[:-1]
    return WindowSet(
        lag=lag,
        inputs=np.ascontiguousarray(inputs, dtype=np.float64),
        targets=values[lag:].copy(),
        origin_steps=np.arange(lag - 1, len(values) - 1, dtype=np.int64),
    )


def scale_windows(windows: WindowSet, scaler: Scaler) -> WindowSet:
    """Apply a fitted scaler to a window set's inputs and targets."""
    return WindowSet(
        lag=windows.lag,
        inputs=np.ascontiguousarray(scaler.apply(windows.inputs)),
        targets=scaler.apply(windows.targets),
        origin_steps=windows.origin_steps.copy(),
    )


def _shift_start(series: TimeSeries, steps: int) -> datetime:
    return series.start_time + timedelta(
        microseconds=round(steps * series.step_duration * 1e6))


def split_protocol(labeled: LabeledTimeSeries, train_fraction: float,
                   validation_fraction: float):
    """Chronological train/validation/test split.

    The training segment must be all-normal; an attack-labeled step inside
    it raises rather than being silently included.
    """
    if train_fraction <= 0 or validation_fraction <= 0:
        raise ValueError("fractions must be positive")
    if train_fraction + validation_fraction >= 1:
        raise ValueError("fractions must sum to less than 1")
    n = len(labeled)
    n_train = int(n * train_fraction)
    n_val = int(n * validation_fraction)
    if n_train < 1 or n_val < 1 or n_train + n_val >= n:
        raise ValueError("split produces an empty segment")

    contaminated = np.flatnonzero(labeled.labels[:n_train])
    if contaminated.size:
        raise DataError(
            f"attack-labeled step {int(contaminated[0])} falls inside the "
            f"training segment [0, {n_train - 1}]")

    series = labeled.series

    def _slice(lo: int, hi: int) -> TimeSeries:
        return TimeSeries(
            start_time=_shift_start(series, lo),
            step_duration=series.step_duration,
            values=series.values[lo:hi].copy(),
        )

    def _labeled_slice(lo: int, hi: int) -> LabeledTimeSeries:
        labels = labeled.labels[lo:hi].copy()
        return LabeledTimeSeries(
            series=_slice(lo, hi),
            labels=labels,
            attack_intervals=intervals_from_labels(labels),
        )

    train = _slice(0, n_train)
    validation = _labeled_slice(n_train, n_train + n_val)
    test = _labeled_slice(n_train + n_val, n)
    return train, validation, test


def generate_synthetic(config: SynthConfig) -> LabeledTimeSeries:
    """Labeled synthetic flood traffic.

    Baseline steps follow a normal distribution clamped at zero; attack
    intervals are placed uniformly at random, pairwise separated by at
    least MIN_ATTACK_SEPARATION normal steps (and offset from the series
    start by the same margin), with values drawn around
    baseline_mean * attack_multiplier.  Values are rounded to whole packet
    counts.  Fully deterministic for a given seed.
    """
    rng = np.random.default_rng(config.rng_seed)
    values = np.rint(np.maximum(
        rng.normal(config.baseline_mean, config.baseline_std, config.length), 0.0))
    labels = np.zeros(config.length, dtype=bool)
    intervals: list[tuple[int, int]] = []

    if config.attack_count > 0:
        gap = MIN_ATTACK_SEPARATION
        lengths = rng.integers(config.attack_min_len, config.attack_max_len + 1,
                               size=config.attack_count)
        needed = gap + int(np.sum(lengths)) + gap * (config.attack_count - 1)
        slack = config.length - needed
        if slack < 0:
            raise DataError(
                f"cannot place {config.attack_count} attack intervals of "
                f"{config.attack_min_len}-{config.attack_max_len} steps with "
                f"{gap}-step separation in a series of length {config.length}")
        offsets = np.sort(rng.integers(0, slack + 1, size=config.attack_count))
        cursor = gap
        for k in range(config.attack_count):
            start = cursor + int(offsets[k])
            end = start + int(lengths[k]) - 1
            burst = rng.normal(config.baseline_mean * config.attack_multiplier,
                               config.baseline_std, int(lengths[k]))
            values[start:end + 1] = np.rint(np.maximum(burst, 0.0))
            labels[start:end + 1] = True
            intervals.append((start, end))
            cursor += int(lengths[k]) + gap

    series = TimeSeries(start_time=DEFAULT_START_TIME, step_duration=1.0,
                        values=values)
    return LabeledTimeSeries(series=series, labels=labels,
                             attack_intervals=intervals)


def _format_count(value: float) -> str:
    return f"{value:.17g}"


def save_series(path, data, seed: int | None = None) -> None:
    """Write a series CSV: ``step,timestamp,count[,label]``.

    Synthetic fixtures carry their seed in a leading ``# seed=<n>`` line.
    """
    labeled = isinstance(data, LabeledTimeSeries)
    series = data.series if labeled else data
    step_us = round(series.step_duration * 1e6)
    lines = []
    if seed is not None:
        lines.append(f"# seed={seed}")
    lines.append("step,timestamp,count,label" if labeled else "step,timestamp,count")
    for i, value in enumerate(series.values):
        ts = (series.start_time + timedelta(microseconds=i * step_us)).isoformat()
        row = f"{i},{ts},{_format_count(value)}"
        if labeled:
            row += ",attack" if data.labels[i] else ",normal"
        lines.append(row)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_series(path):
    """Read a series CSV back; returns LabeledTimeSeries when a label
    column is present, TimeSeries otherwise.

    The cadence is the gap between the first two timestamps; every row
    must sit on it and carry its 0-based position in the ``step`` column.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    while lines and lines[0].lstrip().startswith("#"):
        lines.pop(0)
    if not lines:
        raise DataError(f"{path}: missing header")
    header = [c.strip() for c in lines[0].split(",")]
    if header[:3] != ["step", "timestamp", "count"]:
        raise DataError(f"{path}: expected header step,timestamp,count[,label]")
    labeled = len(header) > 3 and header[3] == "label"

    start = previous = delta = None
    values: list[float] = []
    labels: list[bool] = []
    for row_no, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if len(parts) < (4 if labeled else 3):
            raise DataError(f"{path}: malformed row {row_no}")
        try:
            step_no = int(parts[0])
            timestamp = _parse_timestamp(parts[1])
            count = float(parts[2])
        except ValueError as exc:
            raise DataError(f"{path}: row {row_no}: {exc}") from None
        if step_no != row_no - 1:
            raise DataError(
                f"{path}: row {row_no}: step {step_no}, expected {row_no - 1}")
        if previous is None:
            start = timestamp
        elif delta is None:
            delta = timestamp - previous
            if delta <= timedelta(0):
                raise DataError(f"{path}: non-increasing timestamps")
        elif timestamp - previous != delta:
            # datetime arithmetic is exact: equal gaps are an exact cadence
            expected = start + (row_no - 1) * delta
            raise DataError(
                f"{path}: row {row_no}: timestamp {timestamp.isoformat()} is "
                f"off the cadence, expected {expected.isoformat()}")
        previous = timestamp
        if not math.isfinite(count) or count < 0:
            kind = "negative" if math.isfinite(count) else "non-finite"
            raise DataError(
                f"{path}: row {row_no}: {kind} count {parts[2].strip()!r}")
        values.append(count)
        if labeled:
            token = parts[3].strip()
            if token not in ("normal", "attack"):
                raise DataError(f"{path}: row {row_no}: bad label {token!r}")
            labels.append(token == "attack")
    if not values:
        raise DataError(f"{path}: no data rows")

    step = delta.total_seconds() if delta is not None else 1.0
    series = TimeSeries(start_time=start, step_duration=step,
                        values=np.asarray(values))
    if not labeled:
        return series
    labels_arr = np.asarray(labels, dtype=bool)
    return LabeledTimeSeries(series=series, labels=labels_arr,
                             attack_intervals=intervals_from_labels(labels_arr))


def save_scaler(path, scaler: Scaler) -> None:
    Path(path).write_text(
        f"offset={scaler.offset:.17g} scale={scaler.scale:.17g}\n",
        encoding="utf-8")


def load_scaler(path) -> Scaler:
    try:
        text = Path(path).read_text(encoding="utf-8").strip()
    except FileNotFoundError:
        raise DataError(f"scaler file not found: {path}") from None
    m = _re.fullmatch(r"offset=(\S+) scale=(\S+)", text)
    if m is None:
        raise DataError(f"{path}: not a scaler file")
    try:
        return Scaler(offset=float(m.group(1)), scale=float(m.group(2)))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
