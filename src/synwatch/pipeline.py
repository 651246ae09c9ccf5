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
import operator
import os
import re as _re
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import chain
from pathlib import Path

import numpy as np

from .detector import DetectorConfig
from .errors import DataError

TSHARK_FIELDS = ("frame.number", "frame.len", "frame.time", "ip.proto")

#: Minimum number of normal steps between generated attack intervals: the
#: default size of the detector's error window.
MIN_ATTACK_SEPARATION = DetectorConfig.mat

DEFAULT_START_TIME = datetime(2000, 1, 1, 0, 0, 0)

#: The lag widths a predictor may take: how many previous steps feed one
#: prediction.
LAGS = (1, 2, 3)

#: Zero of the int64 microsecond timestamps ``load_tshark_csv`` returns.
EPOCH = datetime(1970, 1, 1)

_MICROSECOND = timedelta(microseconds=1)


def _integer(name: str, value, least: int) -> int:
    """``value`` as an ``int`` of at least ``least``; else ValueError."""
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if number < least:
        raise ValueError(f"{name} must be >= {least}")
    return number


@contextmanager
def _utf8_errors(path):
    """Turn a ``UnicodeDecodeError`` while the block reads the file at
    ``path`` into a DataError that names the file and the offset of its
    first byte that is not UTF-8."""
    try:
        yield
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: byte "
                            f"0x{data[exc.start]:02x} at offset {exc.start}"
                            ) from None
        raise DataError(f"{path}: not UTF-8 text") from None


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
    start_time: datetime  # naive, as series files carry it
    step_us: int  # microseconds, at least 1
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not (isinstance(self.start_time, datetime)
                and self.start_time.tzinfo is None):
            raise ValueError(f"start_time must be a naive datetime, got "
                             f"{self.start_time!r}")
        step_us = self.step_us = _integer("step_us", self.step_us, 1)
        if self.values.ndim != 1 or len(self.values) < 1:
            raise ValueError("values must be a non-empty 1-d sequence")
        try:
            self.start_time + (len(self.values) - 1) * step_us * _MICROSECOND
        except OverflowError:
            raise ValueError(f"the last step falls past {datetime.max}, the "
                             "end of the datetime range") from None
        if not np.all(np.isfinite(self.values)):
            raise ValueError("packet counts must be finite")
        if np.any(self.values < 0):
            raise ValueError("packet counts cannot be negative")

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class LabeledTimeSeries:
    """A TimeSeries with a per-step normal/attack flag.

    The labels are the only form of the ground truth it holds;
    ``attack_intervals`` reads their runs."""
    series: TimeSeries
    labels: np.ndarray  # bool, True = attack step

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=bool)
        if len(self.labels) != len(self.series):
            raise ValueError("labels length must match series length")

    @property
    def attack_intervals(self) -> list[tuple[int, int]]:
        """The runs of attack steps, as closed [start, end] index pairs."""
        return intervals_from_labels(self.labels)

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
        # One temporary: the difference is made as float64 and divided in
        # place, with the same two roundings as the plain expression.
        out = np.subtract(x, self.offset, dtype=np.float64)
        out /= self.scale
        return out

    def invert(self, y):
        if isinstance(y, float):
            # one online prediction: the same two IEEE operations, unboxed
            return y * self.scale + self.offset
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
        for name in ("baseline_mean", "baseline_std", "attack_multiplier"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.baseline_mean < 0 or self.baseline_std < 0:
            raise ValueError("baseline mean/std must be non-negative")
        if self.attack_count < 0:
            raise ValueError("attack_count must be >= 0")
        if not 1 <= self.attack_min_len <= self.attack_max_len:
            raise ValueError("need 1 <= attack_min_len <= attack_max_len")
        if self.attack_multiplier <= 1:
            raise ValueError("attack_multiplier must exceed 1")
        self.rng_seed = _integer("rng_seed", self.rng_seed, 0)
        if self.attack_count and not math.isfinite(
                self.baseline_mean * self.attack_multiplier):
            raise ValueError("attack mean baseline_mean * attack_multiplier "
                             "must be finite")


def intervals_from_labels(labels) -> list[tuple[int, int]]:
    """Maximal runs of True as closed [start, end] index pairs."""
    labels = np.asarray(labels, dtype=bool)
    # a run starts where the flag rises and ends where it falls
    edges = np.flatnonzero(np.diff(labels, prepend=False, append=False))
    return list(zip(edges[0::2].tolist(), (edges[1::2] - 1).tolist()))


def _parse_timestamp(text: str) -> datetime:
    """Parse ISO-8601 or tshark's default textual frame.time form.

    Fractions finer than microseconds are truncated; timezone names or
    offsets are dropped after normalizing to UTC when an offset is known.
    A text whose offset takes it outside the datetime range is rejected,
    and so is one holding a NUL, which ``datetime.fromisoformat`` takes as
    the date-time separator or skips after the seconds.  The ISO forms are
    Python 3.11's, hence its floor of 3.11: 3.10's ``fromisoformat``
    rejects ``2024-03-05T06:07:08Z``, ``...:08.1`` and ``20240305T060708``.
    """
    text = text.strip()
    if "\x00" in text:
        raise ValueError(f"unrecognized timestamp: {text!r}")
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


#: Bytes ``load_tshark_csv`` and ``load_series`` read at a time; each block
#: is cut after its last line end.  No output depends on it.
_BLOCK_BYTES = 1 << 18


def _blocks(read):
    """The bytes ``read(size)`` returns, in blocks of about ``_BLOCK_BYTES``
    that each end after a line end: a ``\\n``, or a ``\\r`` followed by
    another byte.  The last block, which may be empty, ends with the
    input."""
    pending = []
    while chunk := read(_BLOCK_BYTES):
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, len(chunk) - 1))
        if cut < 0:
            pending.append(chunk)
            continue
        block = b"".join([*pending, chunk[:cut + 1]])
        pending = [chunk[cut + 1:]]
        del chunk  # so that one block at a time is held
        yield block
    yield b"".join(pending)


def _utf8_checked(blocks):
    """``blocks``, each checked to be UTF-8 before it is passed on: a block
    that is not raises ``UnicodeDecodeError``."""
    for block in blocks:
        if not block.isascii():
            block.decode("utf-8")
        yield block


def _text_lines(blocks):
    """The lines of the UTF-8 ``blocks`` as the csv module reads them from
    a file opened with ``newline=""``."""
    for block in blocks:
        yield from io.StringIO(block.decode("utf-8"), newline="")


def _header_columns(records) -> tuple[int, list[int]]:
    """The field count of the header, the first of the csv ``records``, and
    the indices of ``TSHARK_FIELDS`` in it."""
    try:
        header = [cell.strip() for cell in next(records)]
    except StopIteration:
        raise DataError("missing header: input file is empty") from None
    except csv.Error as exc:
        raise DataError(f"header: {exc}") from None
    try:
        return len(header), [header.index(name) for name in TSHARK_FIELDS]
    except ValueError:
        raise DataError(
            "missing header: expected columns "
            + ",".join(TSHARK_FIELDS) + f", got {','.join(header)}") from None


def load_tshark_csv(path) -> IngestResult:
    """Parse the tshark field export at ``path`` into sorted packet
    timestamps.

    The file must be UTF-8; a byte that is not is a DataError that names
    its offset.  The header row must name all four exported fields.  A
    data row is accepted when it has every field, integer ``frame.number``,
    ``frame.len`` and ``ip.proto``, a non-negative ``frame.len`` and a
    timestamp ``_parse_timestamp`` reads.  Malformed rows are collected in
    the result's ``rejected`` list with their 1-based row number instead of
    being silently dropped, and counted per ``REJECT_REASONS`` entry.
    Timestamps come back as one sorted int64 array of microseconds since
    ``EPOCH``, in UTC when the text had an offset.

    The capture is read as bytes, ``_BLOCK_BYTES`` at a time, and each
    block is cut after its last line end.  Array scans (``_bulk.scan``)
    find the lines, their quotes and the commas that end fields.  A plain
    line (printable ASCII, quotes only around whole fields) with the
    header's field count is checked in place (``_bulk.read``): it is taken
    when its three integers are 1 to 18 ASCII digits and its timestamp is
    ISO ``YYYY-MM-DDTHH:MM:SS`` with or without ``.ffffff``, or tshark's
    ``Mmm DD, YYYY HH:MM:SS.fffffffff`` with or without a zone; such a row
    always passes the per-row checks, with the same value.  Every other
    line goes through the csv module and the per-row checks, and from a
    line that may open a quoted field on, the rest of the input does, as
    it reads a file opened with ``newline=""``.  So acceptance, values and
    messages are exactly per row, whatever the block size, and no Python
    object is made per common row.
    """
    with open(path, "rb") as fh, _utf8_errors(path):
        return _load_blocks(_utf8_checked(_blocks(fh.read)))


def _load_blocks(blocks) -> IngestResult:
    """``load_tshark_csv`` of the capture in the UTF-8 ``blocks`` (see
    ``_blocks``)."""
    # imported here, so that only the commands that read a capture load it
    from . import _bulk

    parts: list[np.ndarray] = []
    stamps: list[int] = []
    rejected: list[tuple[int, str]] = []
    by_reason = dict.fromkeys(REJECT_REASONS, 0)
    cols = None

    def reject(row_no: int, reason: str, message: str) -> None:
        rejected.append((row_no, message))
        by_reason[reason] += 1

    def check(records, row_no: int) -> int:
        """The per-row checks of the csv ``records``, numbered from
        ``row_no + 1``; returns the number of the last."""
        number_col, len_col, time_col, proto_col = cols
        width = max(cols) + 1
        try:
            for row_no, row in enumerate(records, start=row_no + 1):
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
                    offset = _parse_timestamp(row[time_col]) - EPOCH
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
                stamps.append(offset // _MICROSECOND)
        except csv.Error as exc:
            # a row the csv module cannot split (a field past its size
            # limit, say) ends the read
            raise DataError(f"row {row_no + 1}: {exc}") from None
        return row_no

    blocks = iter(blocks)
    row_no = 0  # rows before the block
    rest = None
    for data in blocks:
        lines = _bulk.scan(data)
        first = 0
        if cols is None:
            if not (lines.safe and lines.plain[0]):
                rest = data
                break
            count, cols = _header_columns(csv.reader(
                [data[:lines.stops[0]].decode("ascii")]))
            first = 1
        taken, us = _bulk.read(data, lines, first, count, cols)
        parts.append(us)
        # Runs of lines not taken go through the csv module, which may read
        # more or fewer rows from a run than it has lines: ``shift`` is the
        # number of rows before line i, less i.
        shift = row_no - first
        slow = np.flatnonzero(~taken[first:lines.safe]) + first
        for run in np.split(slow, np.flatnonzero(np.diff(slow) != 1) + 1):
            if len(run):
                begin, end = int(run[0]), int(run[-1]) + 1
                text = data[lines.starts[begin]:lines.ends[end - 1]].decode(
                    "utf-8")
                shift = check(csv.reader(io.StringIO(text, newline="")),
                              begin + shift) - end
        row_no = lines.safe + shift
        if lines.safe < len(lines.starts):
            rest = data[lines.starts[lines.safe]:]
            break
    if rest is not None:
        # From a line that may open a quoted field on, or from the header
        # when it is not plain, the rest goes through the csv module.
        records = csv.reader(_text_lines(chain([rest], blocks)))
        if cols is None:
            _, cols = _header_columns(records)
        check(records, row_no)

    parts.append(np.array(stamps, dtype=np.int64))
    timestamps_us = np.concatenate(parts)
    timestamps_us.sort()
    return IngestResult(timestamps_us=timestamps_us, rejected=rejected,
                        rejected_by_reason=by_reason)


def _step_microseconds(step_seconds: float) -> int:
    """``step_seconds`` in whole microseconds, the resolution of a series;
    it must be finite and round to at least 1."""
    scaled = step_seconds * 1e6
    if not 0 < scaled < math.inf:
        raise ValueError(f"step must be finite and positive, "
                         f"got {step_seconds!r}")
    step_us = round(scaled)
    if step_us < 1:
        raise ValueError("step below microsecond resolution")
    return step_us


def aggregate_counts(timestamps_us, step_us: int,
                     start: datetime, end: datetime) -> TimeSeries:
    """Count packet timestamps (int microseconds since ``EPOCH``) per step
    of ``step_us`` microseconds over [start, end).

    Step ``i`` covers [start + i*step, start + (i+1)*step); timestamps
    outside [start, end) are ignored; ceil((end-start)/step) steps in all.
    """
    step_us = _integer("step_us", step_us, 1)
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
    return TimeSeries(start_time=start, step_us=step_us,
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
    if lag not in LAGS:
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


def split_protocol(labeled: LabeledTimeSeries, train_fraction: float,
                   validation_fraction: float):
    """Chronological train/validation/test split.

    The training segment must be all-normal; an attack-labeled step inside
    it raises rather than being silently included.
    """
    if not (math.isfinite(train_fraction)
            and math.isfinite(validation_fraction)):
        raise ValueError("fractions must be finite")
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
            start_time=series.start_time + lo * series.step_us * _MICROSECOND,
            step_us=series.step_us,
            values=series.values[lo:hi].copy(),
        )

    def _labeled_slice(lo: int, hi: int) -> LabeledTimeSeries:
        return LabeledTimeSeries(series=_slice(lo, hi),
                                 labels=labeled.labels[lo:hi].copy())

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
    counts.  Fully deterministic for a given seed.  Parameters whose draws
    overflow to non-finite counts are a DataError.
    """
    rng = np.random.default_rng(config.rng_seed)
    values = np.rint(np.maximum(
        rng.normal(config.baseline_mean, config.baseline_std, config.length), 0.0))
    labels = np.zeros(config.length, dtype=bool)

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
            cursor += int(lengths[k]) + gap

    if not np.all(np.isfinite(values)):
        # finite parameters still overflow a draw near the float limit
        raise DataError(
            f"baseline mean {config.baseline_mean!r}, std "
            f"{config.baseline_std!r} and attack multiplier "
            f"{config.attack_multiplier!r} draw non-finite packet counts")
    series = TimeSeries(start_time=DEFAULT_START_TIME, step_us=1_000_000,
                        values=values)
    return LabeledTimeSeries(series=series, labels=labels)


#: Series files of at most this many bytes are read row by row: on so few
#: rows the byte path saves less time than loading ``_bulk`` takes (about
#: 3 ms when Python compiles it afresh, as it does with
#: ``PYTHONDONTWRITEBYTECODE``).  No output depends on it.
_BULK_MIN_BYTES = 1 << 18


class _SeriesReader:
    """``load_series`` between blocks: the header, the number of rows read,
    the first and last timestamps and the cadence, and the counts and
    attack flags read, as arrays.  ``read`` takes a block in place where
    it can; ``check`` reads rows one at a time."""

    def __init__(self, path):
        self.path = path
        self.width: int | None = None  # fields per row, from the header
        self.labeled = False
        self.rows = 0
        self.start: datetime | None = None
        self.last: datetime | None = None
        self.delta: timedelta | None = None
        self.counts: list[np.ndarray] = []
        self.attack: list[np.ndarray] = []

    def series(self):
        """The series read, once every block has been."""
        if self.width is None:
            raise DataError(f"{self.path}: missing header")
        if not self.rows:
            raise DataError(f"{self.path}: no data rows")
        # one row has no cadence: it loads with a 1 s step
        step_us = (self.delta or timedelta(seconds=1)) // _MICROSECOND
        series = TimeSeries(start_time=self.start, step_us=step_us,
                            values=np.concatenate(self.counts))
        if not self.labeled:
            return series
        return LabeledTimeSeries(series=series,
                                 labels=np.concatenate(self.attack))

    def read(self, data: bytes, bulk) -> None:
        """Read the block ``data`` (see ``_blocks``).  With ``bulk``, the
        ``_bulk`` module, the lines up to the header go through ``check``,
        and the rest is read in place when ``_bulk.read_series`` reads it
        and ``take`` accepts it; otherwise ``check`` reads the block."""
        if bulk is None:
            return self.check(data)
        lines = bulk.scan(data)
        first = 0
        while self.width is None and first < len(lines.starts):
            self.check(data[lines.starts[first]:lines.ends[first]])
            first += 1
        if first == len(lines.starts):
            return
        # only the fields of these two headers are all checked in place
        columns = (self.width == 3 + self.labeled
                   and bulk.read_series(data, lines, first, self.labeled))
        if not (columns and self.take(columns)):
            self.check(data[lines.starts[first]:])

    def take(self, columns) -> bool:
        """Add the rows ``_bulk.read_series`` read, its ``columns`` (steps,
        int64 microseconds since ``EPOCH``, counts and attack flags), and
        return True when their steps count the rows and their timestamps
        keep the cadence; or add nothing and return False, so that
        ``check`` reads the block and names its first bad row."""
        steps, us, counts, attack = columns
        if np.any(steps != np.arange(self.rows, self.rows + len(steps))):
            return False
        if self.last is not None:
            us = np.append((self.last - EPOCH) // _MICROSECOND, us)
        gaps = np.diff(us)
        if len(gaps):
            delta = (int(gaps[0]) if self.delta is None
                     else self.delta // _MICROSECOND)
            if delta <= 0 or np.any(gaps != delta):
                return False
            self.delta = delta * _MICROSECOND
        if self.start is None:
            self.start = EPOCH + int(us[0]) * _MICROSECOND
        self.last = EPOCH + int(us[-1]) * _MICROSECOND
        self.rows += len(steps)
        self.counts.append(counts)
        self.attack.append(attack)
        return True

    def check(self, data: bytes) -> None:
        """Read the lines of ``data`` one at a time, as ``str.splitlines``
        splits them, with the per-row checks: the first bad row raises a
        DataError that names it."""
        path, width, labeled = self.path, self.width, self.labeled
        rows, start, last, delta = self.rows, self.start, self.last, self.delta
        counts: list[float] = []
        attack: list[bool] = []
        for line in data.decode("utf-8").splitlines():
            if not line.strip():
                continue
            if width is None:
                if line.lstrip().startswith("#"):
                    continue
                header = [c.strip() for c in line.split(",")]
                if header[:3] != ["step", "timestamp", "count"]:
                    raise DataError(f"{path}: expected header "
                                    "step,timestamp,count[,label]")
                width = self.width = len(header)
                labeled = self.labeled = width > 3 and header[3] == "label"
                continue
            rows += 1
            parts = line.split(",")
            if len(parts) != width:
                raise DataError(f"{path}: malformed row {rows}: "
                                f"{len(parts)} fields, the header has "
                                f"{width}")
            try:
                step_no = int(parts[0])
                timestamp = _parse_timestamp(parts[1])
                count = float(parts[2])
            except ValueError as exc:
                raise DataError(f"{path}: row {rows}: {exc}") from None
            if step_no != rows - 1:
                raise DataError(f"{path}: row {rows}: step {step_no}, "
                                f"expected {rows - 1}")
            if last is None:
                start = timestamp
            elif delta is None:
                delta = timestamp - last
                if delta <= timedelta(0):
                    raise DataError(f"{path}: non-increasing timestamps")
            elif timestamp - last != delta:
                # datetime arithmetic is exact: equal gaps are an exact
                # cadence
                expected = start + (rows - 1) * delta
                raise DataError(
                    f"{path}: row {rows}: timestamp {timestamp.isoformat()} "
                    f"is off the cadence, expected {expected.isoformat()}")
            last = timestamp
            if not math.isfinite(count) or count < 0:
                kind = "negative" if math.isfinite(count) else "non-finite"
                raise DataError(f"{path}: row {rows}: {kind} count "
                                f"{parts[2].strip()!r}")
            if labeled:
                token = parts[3].strip()
                if token not in ("normal", "attack"):
                    raise DataError(
                        f"{path}: row {rows}: bad label {token!r}")
                attack.append(token == "attack")
            counts.append(count)
        self.rows, self.start, self.last, self.delta = rows, start, last, delta
        self.counts.append(np.array(counts, dtype=np.float64))
        self.attack.append(np.array(attack, dtype=bool))


def save_series(path, data, seed: int | None = None) -> None:
    """Write a series CSV: ``step,timestamp,count[,label]``.

    Synthetic fixtures carry their seed in a leading ``# seed=<n>`` line.
    The rows are formatted from the arrays ``_bulk._CHUNK`` at a time,
    each block by one ``%`` format, so no copy of the whole text is held
    in memory.  Counts and the parts of a timestamp repeat, so each
    distinct one is formatted once per block.
    """
    from . import _bulk  # loaded with the first series file written
    _bulk.write_series(path, data, seed)


def load_series(path):
    """Read a series CSV back; returns LabeledTimeSeries when a label
    column is present, TimeSeries otherwise.

    The cadence is the gap between the first two timestamps; every row
    must sit on it, carry its 0-based position in the ``step`` column and
    have as many fields as the header.  A one-row file has no cadence: it
    loads with a 1 s step, whatever step it was saved with.  The file must
    be UTF-8; its lines are those ``str.splitlines`` gives, and blank lines
    are skipped, as are ``#`` lines before the header.

    The file is read as bytes, ``_BLOCK_BYTES`` at a time (``_blocks``).
    In a file of more than ``_BULK_MIN_BYTES``, a block of plain lines
    (printable ASCII) with ASCII-digit steps and counts, ISO
    ``YYYY-MM-DDTHH:MM:SS[.ffffff]`` timestamps and ``normal`` or
    ``attack`` labels is read in place (``_bulk.read_series``), and the
    step and cadence checks run on arrays.  Every other block is read row
    by row (``_SeriesReader.check``), so that an error names the first bad
    row with the message the per-row checks give.  A byte that is not
    UTF-8 is reported before any other error, wherever it is.
    """
    with open(path, "rb") as fh, _utf8_errors(path):
        bulk = None
        if os.fstat(fh.fileno()).st_size > _BULK_MIN_BYTES:
            # imported here, so that only the commands that read a large
            # file load it
            from . import _bulk as bulk
        reader = _SeriesReader(path)
        blocks = _utf8_checked(_blocks(fh.read))
        try:
            for data in blocks:
                reader.read(data, bulk)
            return reader.series()
        except DataError:
            for _ in blocks:  # so that a byte that is not UTF-8 raises
                pass
            raise


def save_scaler(path, scaler: Scaler) -> None:
    Path(path).write_text(
        f"offset={scaler.offset:.17g} scale={scaler.scale:.17g}\n",
        encoding="utf-8")


def load_scaler(path) -> Scaler:
    try:
        with _utf8_errors(path):
            text = Path(path).read_text(encoding="utf-8").strip()
    except FileNotFoundError:
        raise DataError(f"scaler file not found: {path}") from None
    except IsADirectoryError:
        raise DataError(f"scaler file is a directory: {path}") from None
    m = _re.fullmatch(r"offset=(\S+) scale=(\S+)", text)
    if m is None:
        raise DataError(f"{path}: not a scaler file")
    try:
        return Scaler(offset=float(m.group(1)), scale=float(m.group(2)))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
