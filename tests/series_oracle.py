"""A reference series reader: the whole text, one line at a time.

``load_series`` reads the common lines of a series file in place, on its
bytes, and sends every other line, and every block that holds a bad row,
through per-row checks.  This reader sends every line through them, in
the order and with the messages the loader promises, so the two must
agree on each file: the same values, labels, start and cadence, or the
same ``DataError`` message.
"""

import math
from datetime import timedelta
from pathlib import Path

import numpy as np

from synwatch.errors import DataError
from synwatch.pipeline import (LabeledTimeSeries, TimeSeries,
                               _parse_timestamp, _utf8_errors,
                               intervals_from_labels)


def load_series_per_row(path):
    """``load_series`` of the file at ``path``, row by row."""
    with _utf8_errors(path):
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
        if len(parts) != len(header):
            raise DataError(f"{path}: malformed row {row_no}: {len(parts)} "
                            f"fields, the header has {len(header)}")
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
