"""The byte paths of ``load_tshark_csv`` and ``load_series``, and the
block writer of ``save_series``: find the lines and fields of a block of
bytes with array scans, then check the common fields in place, with no
Python object per line.

``scan`` finds a block's structural bytes (line ends, quotes, commas and
every byte outside printable ASCII) in one vectorized pass, as the first
stage of simdjson does (Langdale & Lemire, arXiv:1902.08318), and derives
from their offsets where each line starts and stops, which lines are
plain, and the commas that end fields.  ``read`` and ``read_series`` then
read the fields of the plain lines at those offsets: the integers by
digit class and length, the timestamps by their fixed-width forms, and a
series count with a point by numpy's C float parser.  A line they take
always passes the per-row checks in ``pipeline``, with the same value;
every other line is left to those checks (``SeriesReader`` sends a
series block to them when a line is not taken or a row fails).
``write_series`` formats series rows from their arrays, a block at a
time.  The functions in
``pipeline`` import this module when they run: ``load_tshark_csv``,
``save_series``, and ``load_series`` on a file larger than
``pipeline._BULK_MIN_BYTES``.  So importing ``synwatch`` does not
compile it, and the commands that read only small series never load it.
"""

from __future__ import annotations

import csv
import re
from datetime import timedelta
from typing import NamedTuple

import numpy as np

from .detector import _float_texts, _texts
from .pipeline import (EPOCH, _MICROSECOND, _MONTHS, LabeledTimeSeries,
                       _SeriesReader)

_NL, _CR, _QUOTE, _COMMA = b'\n\r",'


class Lines(NamedTuple):
    """Where the lines of a block are, as ``scan`` finds them."""
    starts: np.ndarray  # offset of each line's first byte
    stops: np.ndarray   # offset of its ``\n`` or ``\r\n``, or the block end
    ends: np.ndarray    # offset of the next line, or the block end
    plain: np.ndarray   # bool: printable ASCII and shorter than the csv limit
    safe: int           # lines before the first that may open a quoted field
    delims: np.ndarray  # offsets of the commas outside quoted fields
    # the index in ``delims`` of each line's first comma, then the number
    # of commas: line i's commas are ``delims[bounds[i]:bounds[i + 1]]``
    bounds: np.ndarray


def scan(data: bytes) -> Lines:
    """Find the lines of ``data``, which starts at a line start, and their
    field-ending commas.

    A line ends after each ``\\n`` and at the end of ``data``.  It is plain
    when it holds only printable ASCII before a ``\\n`` or ``\\r\\n``
    terminator, and is shorter than ``csv.field_size_limit()``, so that no
    field of it can pass that limit.  A quote is at a field boundary when
    it opens a field (at the line start or after a comma) or closes one
    (before a comma or the line's terminator), taking the quotes of a
    line in turn as opening and closing.  A line with a quote elsewhere,
    or with an odd number of quotes, may open a quoted field that the csv
    module reads on into the next lines, so it and every line after it are
    not ``safe``.  In a safe line, each quoted field is one csv field and
    each comma outside one ends a field.
    """
    a = np.frombuffer(data, dtype=np.uint8)
    n = len(a)
    # The structural bytes: a quote, a comma, and every byte outside
    # printable ASCII (which takes in \n and \r).  np.compress picks the
    # entries of a mask, faster here than indexing with the mask.
    structural = np.subtract(a, 32, dtype=np.uint8) > 94
    structural |= a == _QUOTE
    structural |= a == _COMMA
    special = np.flatnonzero(structural)
    kinds = a[special]
    newline = kinds == _NL
    ends = np.compress(newline, special) + 1
    if n and a[-1] != _NL:
        ends = np.append(ends, n)
    starts = np.concatenate(([0], ends))[:-1]
    stops = ends - (a[ends - 1] == _NL)
    stops -= (stops > starts) & (a[stops - 1] == _CR) & (stops < ends)

    plain = stops - starts < csv.field_size_limit()
    other = np.compress((np.subtract(kinds, 32, dtype=np.uint8) > 94)
                        & ~newline, special)
    if len(other):
        # a \r that ends a \r\n terminator is the only one a line may hold
        at = np.minimum(other + 1, n - 1)
        other = other[(a[other] != _CR) | (other + 1 == n) | (a[at] != _NL)]
        plain[np.searchsorted(ends, other, side="right")] = False

    delim = kinds == _COMMA
    quote = kinds == _QUOTE
    unsafe = [len(ends)]
    if quote.any():
        # Taking a line's quotes in turn as opening and closing, ``inside``
        # is set from an opening quote up to its closing one.  An opening
        # quote must follow a comma or a line end, and a closing one must
        # precede a comma or a line end: the structural bytes right next to
        # it.
        inside = np.logical_xor.accumulate(quote)
        near = np.diff(special) == 1
        before, after = np.empty_like(kinds), np.empty_like(kinds)
        before[:1] = _NL * (special[:1] == 0)  # the block starts a line
        before[1:] = kinds[:-1] * near
        after[-1:] = _NL * (special[-1:] == n - 1)  # and ends one
        after[:-1] = kinds[1:] * near
        opening = quote & inside
        misplaced = ((opening & (before != _COMMA) & (before != _NL))
                     | ((quote ^ opening) & (after != _COMMA)
                        & (after != _NL) & (after != _CR)))
        if misplaced.any():
            unsafe.append(np.searchsorted(ends, special[misplaced.argmax()],
                                          side="right"))
        # a line with an odd number of quotes
        odd = np.compress(newline, inside)
        if odd.any():
            unsafe.append(odd.argmax())
        if n and a[-1] != _NL and inside[-1:].any():
            unsafe.append(len(ends) - 1)  # so is the last, unended line
        delim &= ~inside
    safe = int(min(unsafe))

    delims = np.compress(delim, special)
    bounds = np.searchsorted(delims, np.append(starts, n))
    return Lines(starts, stops, ends, plain, safe, delims, bounds)


#: The longest integer field the byte path takes; ``int()`` reads any text
#: of at most this many decimal digits.
_BULK_INT_CHARS = 18

#: Each byte's class in a field form: an ASCII digit is ``9``, any other
#: byte itself.
_CLASS = bytes.maketrans(b"0123456789", b"9" * 10)


def read(data: bytes, lines: Lines, first: int, count: int, cols):
    """Check in place the safe plain lines of ``data`` from line ``first``
    on that have ``count`` fields, reading the columns ``cols`` (the
    indices of ``frame.number``, ``frame.len``, ``frame.time`` and
    ``ip.proto``).

    Returns a mask of the lines taken and the int64 timestamps of those
    lines, in line order.  A line is taken when its integers are 1 to
    ``_BULK_INT_CHARS`` ASCII digits and its timestamp is one that
    ``timestamps`` reads.
    """
    starts, _, _, plain, safe, _, bounds = lines
    rows = np.flatnonzero(plain[first:safe]
                          & (np.diff(bounds[first:safe + 1]) == count - 1))
    rows += first
    classes = data.translate(_CLASS)
    a = np.frombuffer(data, dtype=np.uint8)

    def field(col):
        """The offsets of field ``col`` of each row, without its quotes."""
        start, stop = fields(lines, rows, col, count)
        quoted = (stop > start) & (a[np.minimum(start, len(a) - 1)] == _QUOTE)
        return start + quoted, stop - quoted

    number, length, time, proto = map(field, cols)
    ok, us = timestamps(data, classes, *time)
    for start, stop in (number, length, proto):
        ok &= integers(classes, start, stop)
    taken = np.zeros(len(starts), dtype=bool)
    taken[rows[ok]] = True
    return taken, us[ok]


def _strings(data: bytes, at: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of ``data`` from each offset in ``at``, as an
    array of byte strings."""
    every = np.ndarray((max(len(data) - width + 1, 0),), f"S{width}", data,
                       strides=(1,))
    return every[at]


def _widths(lengths: np.ndarray, longest: int) -> list[int]:
    """The field lengths from 1 to ``longest`` that occur in ``lengths``."""
    return (np.flatnonzero(np.bincount(lengths.clip(0, longest + 1))
                           [1:longest + 1]) + 1).tolist()


def _integer_fields(classes: bytes, starts: np.ndarray, stops: np.ndarray):
    """For each width of the fields ``classes[start:stop]``, of a block
    translated by ``_CLASS``, the width and the indices of the fields of
    that width that are 1 to ``_BULK_INT_CHARS`` ASCII digits, so that
    ``int()`` reads them as non-negative integers."""
    lengths = stops - starts
    for width in _widths(lengths, _BULK_INT_CHARS):
        rows = np.flatnonzero(lengths == width)
        yield width, rows[_strings(classes, starts[rows], width)
                          == b"9" * width]


def integers(classes: bytes, starts: np.ndarray, stops: np.ndarray):
    """Whether each field is an integer ``_integer_fields`` takes."""
    ok = np.zeros(len(starts), dtype=bool)
    for _, rows in _integer_fields(classes, starts, stops):
        ok[rows] = True
    return ok


#: The place value of each digit of an integer field, last digit last.
_POWERS = 10 ** np.arange(_BULK_INT_CHARS - 1, -1, -1, dtype=np.int64)


def naturals(data: bytes, classes: bytes, starts: np.ndarray,
             stops: np.ndarray):
    """Whether each field ``data[start:stop]`` is an integer that
    ``_integer_fields`` takes, and its value (0 where not)."""
    ok = np.zeros(len(starts), dtype=bool)
    values = np.zeros(len(starts), dtype=np.int64)
    for width, rows in _integer_fields(classes, starts, stops):
        ok[rows] = True
        values[rows] = ((_bytes(data, starts[rows], width) - ord("0"))
                        @ _POWERS[-width:])
    return ok, values


def fields(lines: Lines, rows: np.ndarray, col: int, count: int):
    """The offsets of field ``col`` of each line in ``rows``, lines of
    ``count`` fields: its first byte and the byte after its last."""
    at = lines.bounds[rows] + col  # the comma that ends the field
    start = lines.starts[rows] if col == 0 else lines.delims[at - 1] + 1
    stop = lines.stops[rows] if col == count - 1 else lines.delims[at]
    return start, stop


#: The longest count field the byte path takes.
_BULK_COUNT_CHARS = 32


def decimals(data: bytes, classes: bytes, starts: np.ndarray,
             stops: np.ndarray):
    """Whether each field ``data[start:stop]`` is a plain decimal of at
    most ``_BULK_COUNT_CHARS`` bytes, ASCII digits with at most one ``.``
    between two of them (the form ``.17g`` gives a number from 1e-4 up to
    1e17), and its value (0 where not): the value ``float()`` gives the
    text.  An integer of at most ``_BULK_INT_CHARS`` digits is read by
    ``naturals`` and rounded to a float as ``float()`` rounds its text;
    numpy's C parser reads the others."""
    ok, whole = naturals(data, classes, starts, stops)
    values = whole.astype(np.float64)
    lengths = stops - starts
    for width in _widths(lengths[~ok], _BULK_COUNT_CHARS):
        rows = np.flatnonzero(~ok & (lengths == width))
        form = _strings(classes, starts[rows], width)
        fits = form == b"9" * width
        for dot in range(1, width - 1):
            fits |= form == b"9" * dot + b"." + b"9" * (width - dot - 1)
        rows = rows[fits]
        ok[rows] = True
        values[rows] = _strings(data, starts[rows], width).astype(np.float64)
    return ok, values


def read_series(data: bytes, lines: Lines, first: int, count: int,
                labeled: bool):
    """Check in place the plain lines of series ``data`` from line
    ``first`` on that have ``count`` fields, ``step,timestamp,count`` and
    with ``labeled`` a fourth, ``label``.

    A line is taken when its step is 1 to ``_BULK_INT_CHARS`` ASCII
    digits, its timestamp is one that ``timestamps`` reads, its count is
    one that ``decimals`` reads and its label is ``normal`` or ``attack``.
    Returns the indices of the lines taken, in order, and their steps,
    int64 timestamps, counts and attack flags.
    """
    rows = np.flatnonzero(lines.plain[first:]
                          & (np.diff(lines.bounds[first:]) == count - 1))
    rows += first
    classes = data.translate(_CLASS)
    ok, steps = naturals(data, classes, *fields(lines, rows, 0, count))
    parsed, us = timestamps(data, classes, *fields(lines, rows, 1, count))
    ok &= parsed
    parsed, counts = decimals(data, classes, *fields(lines, rows, 2, count))
    ok &= parsed
    attack = np.zeros(len(rows), dtype=bool)
    if labeled:
        start, stop = fields(lines, rows, 3, count)
        six = np.flatnonzero(stop - start == 6)
        label = _strings(data, start[six], 6)
        named = np.zeros(len(rows), dtype=bool)
        named[six] = (label == b"normal") | (label == b"attack")
        ok &= named
        attack[six] = label == b"attack"
    return rows[ok], steps[ok], us[ok], counts[ok], attack[ok]


#: The longest timestamp the byte path takes.  A longer one, which no form
#: below has but a zone name might, takes the per-row parse, so that the
#: count of fields per length stays short.
_BULK_TIME_CHARS = 64


def _runs(form: bytes, *, month: bool = False) -> np.ndarray:
    """A weight matrix that reads each run of ``9``s in ``form`` from digit
    values, one column per run, as a number of at most its first six
    digits (so a fraction gives its microseconds).  With ``month``, a
    first column reads the three bytes that open ``form`` as one number,
    the key of a month name (``_MONTH_KEYS``)."""
    spans = [m.span() for m in re.finditer(b"9+", form)]
    weights = np.zeros((len(form), month + len(spans)), dtype=np.float32)
    if month:
        weights[:3, 0] = [1 << 16, 1 << 8, 1]
    for col, (start, stop) in enumerate(spans, start=month):
        digits = min(stop - start, 6)
        weights[start:start + digits, col] = 10 ** np.arange(digits - 1, -1,
                                                              -1)
    return weights


# The forms the byte path reads, as byte classes.  ISO-8601 as
# ``datetime.isoformat`` writes it, with or without the fraction; its runs
# are year, month, day, hour, minute, second and microsecond.
_ISO = b"9999-99-99T99:99:99.999999"
_ISO_RUNS = _runs(_ISO)
# tshark's default frame.time, up to the space before its zone.  The month
# name (``???``) is read as a key and the day is zero- or space-padded; the
# runs are day, year, hour, minute, second and microsecond.
_TSHARK = (b"??? 99, 9999 99:99:99.999999999 ",
           b"???  9, 9999 99:99:99.999999999 ")
_TSHARK_RUNS = _runs(_TSHARK[0], month=True)
_TSHARK_CHARS = 31  # without a zone

#: The key of each month name, as ``_TSHARK_RUNS`` reads it, in order, and
#: the month's number.
_MONTH_KEYS, _MONTH_OF_KEY = map(np.array, zip(*sorted(
    (sum((byte - 48) << shift for byte, shift in zip(name.encode(),
                                                     (16, 8, 0))), number)
    for name, number in _MONTHS.items())))
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])

#: The bytes of a tshark zone name, the ``tz`` group of
#: ``pipeline._TSHARK_TIME_RE``.
_ZONE_BYTES = np.zeros(256, dtype=bool)
_ZONE_BYTES[list(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                 b"_/+-0123456789")] = True


def _bytes(data: bytes, at: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of ``data`` from each offset in ``at``, one row
    of a uint8 matrix each."""
    return _strings(data, at, width).view(np.uint8).reshape(len(at), width)


def _digit_runs(digits: np.ndarray, weights: np.ndarray):
    """The number in each run of ``weights`` (see ``_runs``) of each row of
    the uint8 matrix ``digits``, read as digit values: one int32 row per
    run.  The bytes between the runs have no weight."""
    runs = weights.T @ digits.T - ord("0") * weights.sum(axis=0)[:, None]
    return runs.astype(np.int32)


def _month_numbers(keys: np.ndarray) -> np.ndarray:
    """1 to 12 for the key of each English three-letter month name in
    ``keys``, as tshark writes them, and 0 for any other key."""
    at = np.searchsorted(_MONTH_KEYS, keys).clip(max=11)
    return np.where(_MONTH_KEYS[at] == keys, _MONTH_OF_KEY[at], 0)


def _calendar_us(year, month, day, hour, minute, second, micro):
    """Whether each date and time exists, as ``datetime`` checks it, and
    its int64 microseconds since 1970-01-01 (``pipeline.EPOCH``).  The
    fields may be int32: each step below stays in range until the days
    are widened."""
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[month.clip(0, 12)] + ((month == 2) & leap)
    valid = ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
             & (day <= month_days) & (hour <= 23) & (minute <= 59)
             & (second <= 59))
    # days since 1970-01-01, proleptic Gregorian, counted in eras of 400
    # years that start on 1 March
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468
    seconds = (days.astype(np.int64) * 86400
               + (hour * 3600 + minute * 60 + second))
    return valid, seconds * 1_000_000 + micro


def timestamps(data: bytes, classes: bytes, starts: np.ndarray,
               stops: np.ndarray):
    """Read the timestamps ``data[start:stop]`` that have a fixed-width
    form: ISO ``YYYY-MM-DDTHH:MM:SS[.ffffff]`` or tshark's
    ``Mmm DD, YYYY HH:MM:SS.fffffffff[ ZONE]``, in ASCII.  ``classes`` is
    ``data`` translated by ``_CLASS``.

    Returns a mask of the fields read and their int64 microseconds since
    ``pipeline.EPOCH`` (0 elsewhere).  Each field read has the value
    ``pipeline._parse_timestamp`` gives its text; any other field, valid or
    not, is left to that parser.
    """
    lengths = stops - starts
    read = np.zeros(len(starts), dtype=bool)
    stamps = np.zeros(len(starts), dtype=np.int64)
    for width in _widths(lengths, _BULK_TIME_CHARS):
        rows = np.flatnonzero(lengths == width)
        at = starts[rows]
        iso = width in (19, 26)
        if iso:
            fits = _strings(classes, at, width) == _ISO[:width]
        elif width == _TSHARK_CHARS or width > _TSHARK_CHARS + 1:
            head = min(width, _TSHARK_CHARS + 1)  # up to a zone, if any
            form = _strings(classes, at + 3, head - 3)
            fits = (form == _TSHARK[0][3:head]) | (form == _TSHARK[1][3:head])
            if width > head:
                # the zone: tshark's zone characters to the end of the field
                zone = _bytes(data, at + head, width - head)
                fits &= _ZONE_BYTES[zone].all(axis=1)
        else:
            continue
        rows, at = rows[fits], at[fits]
        if iso:
            year, month, day, hour, minute, second, micro = _digit_runs(
                _bytes(data, at, width), _ISO_RUNS[:width])
        else:
            # the space that pads a day reads as 0
            key, day, year, hour, minute, second, micro = _digit_runs(
                np.maximum(_bytes(data, at, head), ord("0")),
                _TSHARK_RUNS[:head])
            month = _month_numbers(key)
        valid, us = _calendar_us(year, month, day, hour, minute, second,
                                 micro)
        read[rows[valid]] = True
        stamps[rows[valid]] = us[valid]
    return read, stamps


#: Rows ``save_series`` formats at a time.  No output depends on it.
_CHUNK = 4096

_MINUTE_US, _DAY_US = 60_000_000, 86_400_000_000

#: The end of a labeled series line, by its attack flag.
_LABEL_ENDS = np.array([",normal\n", ",attack\n"], dtype=object)


def _minute_texts(minutes) -> list[str]:
    """``HH:MM:`` for each minute of the day in ``minutes``."""
    return ["%02d:%02d:" % divmod(minute, 60) for minute in minutes.tolist()]


def _second_texts(us) -> list[str]:
    """The seconds of ``isoformat``, ``SS`` or ``SS.ffffff``, for each
    microsecond of the minute in ``us``."""
    return ["%02d.%06d" % divmod(u, 1_000_000) if u % 1_000_000
            else "%02d" % (u // 1_000_000) for u in us.tolist()]


def _date_texts(days) -> list[str]:
    """``YYYY-MM-DD`` for each day since ``EPOCH`` in ``days``."""
    return [(EPOCH + timedelta(days=day)).date().isoformat()
            for day in days.tolist()]


def write_series(path, data, seed: int | None = None) -> None:
    """``pipeline.save_series``: rows formatted from the arrays in blocks
    of ``_CHUNK``."""
    labeled = isinstance(data, LabeledTimeSeries)
    series = data.series if labeled else data
    step_us = round(series.step_duration * 1e6)
    values = series.values
    # raises OverflowError, as a row past the datetime range would
    series.start_time + timedelta(microseconds=(len(values) - 1) * step_us)
    first_us = (series.start_time - EPOCH) // _MICROSECOND
    with open(path, "w", encoding="utf-8") as fh:
        if seed is not None:
            fh.write(f"# seed={seed}\n")
        fh.write("step,timestamp,count,label\n" if labeled
                 else "step,timestamp,count\n")
        for lo in range(0, len(values), _CHUNK):
            block = slice(lo, lo + _CHUNK)
            steps = np.arange(lo, lo + len(values[block]))
            us = first_us + steps * step_us
            day, us = np.divmod(us, _DAY_US)
            minute, us = np.divmod(us, _MINUTE_US)
            table = np.empty((len(steps), 6), dtype=object)
            table[:, 0] = steps
            table[:, 1] = _texts(day, _date_texts)
            table[:, 2] = _texts(minute, _minute_texts)
            table[:, 3] = _texts(us, _second_texts)
            table[:, 4] = _float_texts(values[block])
            table[:, 5] = _LABEL_ENDS[data.labels[block].view(np.uint8)] \
                if labeled else "\n"
            fh.write("%d,%sT%s%s,%s%s" * len(steps)
                     % tuple(table.ravel().tolist()))


class SeriesReader(_SeriesReader):
    """``pipeline._SeriesReader`` on the byte path: ``read`` takes the rows
    of a block in bulk where it can, and sends the block to the per-row
    ``check`` where it cannot."""

    def read(self, blocks) -> None:
        """Read ``blocks`` (see ``pipeline._blocks``)."""
        for data in blocks:
            lines = scan(data)
            n = len(lines.starts)
            first = 0
            while self.width is None and first < n:  # up to the header
                self.check(data[lines.starts[first]:lines.ends[first]])
                first += 1
            if first < n and not self.take(data, lines, first):
                self.check(data[lines.starts[first]:])

    def take(self, data: bytes, lines: Lines, first: int) -> bool:
        """Read the lines of ``data`` from line ``first`` on in bulk, and
        return True; or take nothing and return False, so that ``check``
        reads the block and names its first bad row.

        ``read_series`` reads the lines in place; a line it does not read
        sends the block to ``check``.  Then the steps must count the rows
        and the timestamps keep the cadence, as array checks on
        microseconds since ``EPOCH``.
        """
        if self.width not in (3, 4) or self.labeled != (self.width == 4):
            return False
        rows, steps, us, counts, attack = read_series(
            data, lines, first, self.width, self.labeled)
        if len(rows) < len(lines.starts) - first:
            return False
        # the steps count the rows, and the timestamps keep one cadence
        if not np.array_equal(steps, np.arange(self.rows,
                                               self.rows + len(steps))):
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
