"""The bulk path of ``load_tshark_csv``: the checks of one block of
capture rows, column by column, in a few vectorized passes.

``integers`` and ``timestamps`` take a column of a block and say which of
its fields have one of the common shapes, and the value of each
timestamp that does.  A field of such a shape always passes the per-row
check in ``pipeline``, with the same value; every other field is left to
that check.  ``load_tshark_csv`` imports this module when it runs, so
the commands that never read a capture do not load it.
"""

from __future__ import annotations

import re

import numpy as np

from .pipeline import _MONTHS

#: The longest integer field the bulk path takes; ``int()`` reads any text
#: of at most this many decimal digits.
_BULK_INT_CHARS = 18


def integers(fields):
    """Whether each text is 1 to ``_BULK_INT_CHARS`` decimal digits, so
    that ``int()`` reads it as a non-negative integer."""
    n = len(fields)
    decimal = np.frombuffer(bytes(map(str.isdecimal, fields)), dtype=bool)
    return decimal & (np.fromiter(map(len, fields), np.intp, n)
                      <= _BULK_INT_CHARS)


#: The longest timestamp text the bulk path takes.  A longer one, which no
#: bulk form has but a zone name might, takes the per-row parse, so a
#: block's byte copies of its timestamps stay small.
_BULK_TIME_CHARS = 64

#: Each byte's class in a timestamp form: an ASCII digit is ``9``, any
#: other byte itself.
_CLASS = bytes.maketrans(b"0123456789", b"9" * 10)

#: Each byte's digit value; any other byte, such as the space that pads a
#: tshark day, reads as 0.
_DIGIT_VALUE = bytes(b - 48 if 48 <= b <= 57 else 0 for b in range(256))


def _runs(form: bytes) -> np.ndarray:
    """A weight matrix that reads each run of ``9``s in ``form`` from digit
    values, one column per run, as a number of at most its first six
    digits (so a fraction gives its microseconds)."""
    spans = [m.span() for m in re.finditer(b"9+", form)]
    weights = np.zeros((len(form), len(spans)), dtype=np.float32)
    for col, (start, stop) in enumerate(spans):
        digits = min(stop - start, 6)
        weights[start:start + digits, col] = 10 ** np.arange(digits - 1, -1,
                                                              -1)
    return weights


# The forms the bulk path reads, as byte classes.  ISO-8601 as
# ``datetime.isoformat`` writes it, with or without the fraction; its runs
# are year, month, day, hour, minute, second and microsecond.
_ISO = b"9999-99-99T99:99:99.999999"
_ISO_RUNS = _runs(_ISO)
# tshark's default frame.time, up to the space before its zone.  The month
# name (``???``) is read apart and the day is zero- or space-padded; the
# runs are day, year, hour, minute, second and microsecond.
_TSHARK = (b"??? 99, 9999 99:99:99.999999999 ",
           b"???  9, 9999 99:99:99.999999999 ")
_TSHARK_RUNS = _runs(_TSHARK[0])
_TSHARK_CHARS = 31  # without a zone

_MONTH_NAMES = np.array(sorted(name.encode() for name in _MONTHS))
_MONTH_OF_NAME = np.array([_MONTHS[name.decode()] for name in _MONTH_NAMES])
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])

#: The bytes of a tshark zone name, the ``tz`` group of
#: ``pipeline._TSHARK_TIME_RE``.
_ZONE_BYTES = np.zeros(256, dtype=bool)
_ZONE_BYTES[list(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                 b"_/+-0123456789")] = True


def _strings(data: bytes, at: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of ``data`` from each offset in ``at``, as an
    array of byte strings."""
    every = np.ndarray((len(data) - width + 1,), f"S{width}", data,
                       strides=(1,))
    return every[at]


def _bytes(data: bytes, at: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of ``data`` from each offset in ``at``, one row
    of a uint8 matrix each."""
    return _strings(data, at, width).view(np.uint8).reshape(len(at), width)


def _digit_runs(values: bytes, at: np.ndarray, weights: np.ndarray):
    """The number in each run of ``weights`` (see ``_runs``) for the digit
    values ``values`` from each offset in ``at``: one int64 row per run."""
    return (weights.T @ _bytes(values, at, len(weights)).T).astype(np.int64)


def _month_numbers(names: np.ndarray) -> np.ndarray:
    """1 to 12 for each English three-letter month name in ``names``, as
    tshark writes them, and 0 for any other name."""
    at = np.searchsorted(_MONTH_NAMES, names).clip(max=11)
    return np.where(_MONTH_NAMES[at] == names, _MONTH_OF_NAME[at], 0)


def _calendar_us(year, month, day, hour, minute, second, micro):
    """Whether each date and time exists, as ``datetime`` checks it, and
    its microseconds since 1970-01-01 (``pipeline.EPOCH``)."""
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
    seconds = days * 86400 + hour * 3600 + minute * 60 + second
    return valid, seconds * 1_000_000 + micro


def timestamps(texts):
    """Read the timestamps among ``texts`` that have a fixed-width form:
    ISO ``YYYY-MM-DDTHH:MM:SS[.ffffff]`` or tshark's
    ``Mmm DD, YYYY HH:MM:SS.fffffffff[ ZONE]``, in ASCII.

    Returns a mask of the texts read and their int64 microseconds since
    ``pipeline.EPOCH`` (0 elsewhere).  Each text read has the value
    ``pipeline._parse_timestamp`` gives it; any other text, valid or not,
    is left to that parser.
    """
    n = len(texts)
    lengths = np.fromiter(map(len, texts), np.intp, n)
    joined = "".join(texts)
    if not joined.isascii() or lengths.max(initial=0) > _BULK_TIME_CHARS:
        texts = [t if t.isascii() and len(t) <= _BULK_TIME_CHARS else ""
                 for t in texts]
        lengths = np.fromiter(map(len, texts), np.intp, n)
        joined = "".join(texts)
    # padded so that a record of any width read fits at every start
    data = (joined + " " * _BULK_TIME_CHARS).encode("ascii")
    classes, values = data.translate(_CLASS), data.translate(_DIGIT_VALUE)
    starts = np.cumsum(lengths) - lengths
    read = np.zeros(n, dtype=bool)
    stamps = np.zeros(n, dtype=np.int64)

    for width in np.flatnonzero(np.bincount(lengths)).tolist():
        rows = np.flatnonzero(lengths == width)
        at = starts[rows]
        if width in (19, 26):
            fits = _strings(classes, at, width) == _ISO[:width]
            rows, at = rows[fits], at[fits]
            year, month, day, hour, minute, second, micro = _digit_runs(
                values, at, _ISO_RUNS[:width])
        elif width == _TSHARK_CHARS or width > _TSHARK_CHARS + 1:
            head = min(width, _TSHARK_CHARS + 1)  # up to a zone, if any
            form = _strings(classes, at + 3, head - 3)
            fits = (form == _TSHARK[0][3:head]) | (form == _TSHARK[1][3:head])
            if width > head:
                # the zone: tshark's zone characters to the end of the text
                zone = _bytes(data, at + head, width - head)
                fits &= _ZONE_BYTES[zone].all(axis=1)
            rows, at = rows[fits], at[fits]
            day, year, hour, minute, second, micro = _digit_runs(
                values, at, _TSHARK_RUNS[:head])
            month = _month_numbers(_strings(data, at, 3))
        else:
            continue
        valid, us = _calendar_us(year, month, day, hour, minute, second,
                                 micro)
        read[rows[valid]] = True
        stamps[rows[valid]] = us[valid]
    return read, stamps
