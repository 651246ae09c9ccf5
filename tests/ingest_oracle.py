"""A reference tshark reader: one csv row at a time, no byte path.

``load_tshark_csv`` checks the common lines in place, on the bytes of the
capture, and sends every other line through the csv module and the
per-row checks below.  This reader sends every row through them, in the
order and with the messages the loader promises, so the two must agree on
each capture: the same sorted timestamps, the same ``rejected`` list and
the same ``rejected_by_reason`` counts.
"""

import csv
import io
from datetime import timedelta
from pathlib import Path

import numpy as np

from synwatch.errors import DataError
from synwatch.pipeline import (EPOCH, REJECT_REASONS, TSHARK_FIELDS,
                               IngestResult, _parse_timestamp)


def load_tshark_csv_per_row(path) -> IngestResult:
    """``load_tshark_csv`` of the UTF-8 capture at ``path``, row by row,
    read as the csv module reads a file opened with ``newline=""``."""
    text = Path(path).read_bytes().decode("utf-8")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = [cell.strip() for cell in next(reader)]
    except StopIteration:
        raise DataError("missing header: input file is empty") from None
    except csv.Error as exc:
        raise DataError(f"header: {exc}") from None
    try:
        cols = [header.index(name) for name in TSHARK_FIELDS]
    except ValueError:
        raise DataError(
            "missing header: expected columns "
            + ",".join(TSHARK_FIELDS) + f", got {','.join(header)}") from None

    number_col, len_col, time_col, proto_col = cols
    width = max(cols) + 1
    stamps: list[int] = []
    rejected: list[tuple[int, str]] = []
    by_reason = dict.fromkeys(REJECT_REASONS, 0)

    def reject(row_no: int, reason: str, message: str) -> None:
        rejected.append((row_no, message))
        by_reason[reason] += 1

    row_no = 0
    try:
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
                when = _parse_timestamp(row[time_col])
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
            stamps.append((when - EPOCH) // timedelta(microseconds=1))
    except csv.Error as exc:
        raise DataError(f"row {row_no + 1}: {exc}") from None
    timestamps_us = np.array(stamps, dtype=np.int64)
    timestamps_us.sort()
    return IngestResult(timestamps_us=timestamps_us, rejected=rejected,
                        rejected_by_reason=by_reason)
