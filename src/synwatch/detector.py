"""Streaming collective-anomaly decision engine.

Each incoming (actual, predicted) pair yields a relative error, and the
detector keeps the last ``mat`` of them.  A step raises a collective
alarm when both window statistics exceed their thresholds: the danger
coefficient ``dc``, the fraction of window errors above ``ret``, must
exceed ``alpha`` and the window's mean error ``are`` must exceed
``beta``.  All three comparisons are strict.  No alarm is possible
before the window has filled once (warmup).

A step's relative error is ``|actual - predicted|`` over ``|actual|``,
or over the fixed ``EPSILON_FLOOR`` when that is smaller, so zero-traffic
steps stay finite.  The rule has two forms, kept here side by side.
``Detector.step`` is the scalar form, one step at a time.
``replay_trace`` is the column form: it computes the same per-step
statistics for a whole stream with array operations, and
``ReplayTrace.verdict_columns`` applies the alarm rule to them.  The two
are bit for bit equal: window means are summed oldest to newest, in the
order ``Detector.step`` sums them, and anomalous counts are exact
integers.  Both take only 64-bit integer steps (``_is_step``).  So a
configuration the calibration sweep selects on a trace gives the sweep's
metrics again when the stream is re-run through a ``Detector``, exactly.

``synwatch detect`` builds its verdicts from the trace as ``Verdicts``,
one array per field, with no object per step.  ``segment_alarms`` is the
one form of the rule that joins alarmed steps into events, and
``write_verdicts`` formats the columns a block of rows at a time.
"""

from __future__ import annotations

import math
import re as _re
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError

#: The smallest denominator of a relative error: a zero-count step's
#: error is ``|predicted| / EPSILON_FLOOR``.
EPSILON_FLOOR = 1e-6

#: Both forms of the rule take steps in ``[-_STEP_LIMIT, _STEP_LIMIT)``.
_STEP_LIMIT = 2**63


@dataclass
class DetectorConfig:
    """The detector's thresholds, as a ``detector.cfg`` line holds them."""

    ret: float           # per-step relative error threshold
    beta: float          # mean-error threshold
    mat: int = 12        # window capacity (minimum attack steps)
    alpha: float = 0.66  # anomalous-fraction threshold

    def __post_init__(self):
        for name in ("ret", "beta", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.ret <= 0:
            raise ValueError("ret must be positive")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.mat < 1:
            raise ValueError("mat must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")

    def to_text(self) -> str:
        return (f"ret={self.ret:.17g} mat={self.mat} "
                f"alpha={self.alpha:.17g} beta={self.beta:.17g}")

    @classmethod
    def from_text(cls, text: str) -> "DetectorConfig":
        m = _re.fullmatch(
            r"ret=(\S+) mat=(\d+) alpha=(\S+) beta=(\S+)", text.strip())
        if m is None:
            raise DataError(f"not a detector config line: {text.strip()!r}")
        try:
            return cls(ret=float(m.group(1)), mat=int(m.group(2)),
                       alpha=float(m.group(3)), beta=float(m.group(4)))
        except ValueError as exc:
            raise DataError(
                f"bad detector config {text.strip()!r}: {exc}") from None


def relative_error(actual: float, predicted: float) -> float:
    """|actual - predicted| scaled by the actual value's magnitude, with
    ``EPSILON_FLOOR`` as the smallest denominator."""
    return abs(actual - predicted) / max(abs(actual), EPSILON_FLOOR)


@dataclass(slots=True)
class StepVerdict:
    step: int
    actual: float
    predicted: float
    re: float
    point_anomaly: bool
    dc: float
    are: float
    collective_alarm: bool
    warmup: bool


@dataclass
class AlarmEvent:
    start_step: int
    end_step: int
    peak_dc: float
    peak_are: float


def _is_step(step) -> bool:
    """Whether ``step`` is a Python ``int`` (not a ``bool``) or a numpy
    integer in the int64 range, as both forms of the rule take a step."""
    return ((type(step) is int or isinstance(step, np.integer))
            and -_STEP_LIMIT <= step < _STEP_LIMIT)


class Detector:
    """Sequential state machine over one verdict stream.

    State is exactly the last ``mat`` relative errors, oldest first, and
    the last step index; instances are independent and a copied instance
    resumes identically.  ``errors`` seeds the window with prior errors,
    oldest first, of which the last ``mat`` are kept.
    """

    def __init__(self, config: DetectorConfig, errors: Iterable[float] = (),
                 last_step: int | None = None):
        self.config = config
        self.errors: deque[float] = deque(maxlen=config.mat)
        for value in errors:
            if not math.isfinite(value):
                raise ValueError(f"non-finite relative error {value!r}")
            if value < 0:
                raise ValueError("relative errors are non-negative")
            self.errors.append(value)
        self.last_step = last_step

    def copy(self) -> "Detector":
        return Detector(self.config, self.errors, self.last_step)

    def step(self, step: int, actual: float, predicted: float) -> StepVerdict:
        """Verdict for one (actual, predicted) pair; rejects a step that is
        not a 64-bit integer (``_is_step``: a float, even ``2.0``, is not)
        or does not follow the previous one (ValueError), and a non-finite
        value or relative error (DataError), leaving the state as it was."""
        if not _is_step(step):
            raise ValueError(f"step {step!r} is not a 64-bit integer")
        if self.last_step is not None and step <= self.last_step:
            raise ValueError(
                f"step {step} not after previous step {self.last_step}")
        cfg = self.config
        re_value = relative_error(actual, predicted)
        # A non-finite actual or predicted value makes re non-finite too.
        if not math.isfinite(re_value):
            raise DataError("non-finite actual, predicted or relative error "
                            f"at step {step}")
        self.last_step = step
        errors = self.errors
        errors.append(re_value)
        mat = cfg.mat
        warmup = len(errors) < mat
        if warmup:
            dc = 0.0
            are = 0.0
            alarm = False
        else:
            # dc and are in one pass, oldest to newest; the explicit ``+=``
            # fixes the order and precision of the sum (the built-in
            # ``sum`` of floats is compensated from Python 3.12 on)
            ret = cfg.ret
            total = 0.0
            n_anomalous = 0
            for value in errors:
                total += value
                if value > ret:
                    n_anomalous += 1
            dc = n_anomalous / mat
            are = total / mat
            alarm = dc > cfg.alpha and are > cfg.beta
        # positional: with keywords the call takes over twice as long
        return StepVerdict(step, actual, predicted, re_value,
                           re_value > cfg.ret, dc, are, alarm, warmup)


class Verdicts(NamedTuple):
    """A verdict stream as columns: one array per ``StepVerdict`` field,
    row ``i`` of each being the ``i``-th verdict.  ``len(step)`` is the
    number of verdicts."""

    step: np.ndarray              # int64
    actual: np.ndarray            # float64
    predicted: np.ndarray         # float64
    re: np.ndarray                # float64
    point_anomaly: np.ndarray     # bool
    dc: np.ndarray                # float64
    are: np.ndarray               # float64
    collective_alarm: np.ndarray  # bool
    warmup: np.ndarray            # bool

    @classmethod
    def of(cls, verdicts) -> "Verdicts":
        """The columns of ``verdicts``: a ``Verdicts``, returned as it is,
        or an iterable of ``StepVerdict``."""
        if isinstance(verdicts, cls):
            return verdicts
        rows = list(verdicts)
        return cls(*(np.array([getattr(v, name) for v in rows], dtype=dtype)
                     for name, dtype in zip(cls._fields, (
                         np.int64, np.float64, np.float64, np.float64, bool,
                         np.float64, np.float64, bool, bool))))


def _rolling_sum(values: np.ndarray, width: int) -> np.ndarray:
    # Accumulates window elements oldest-to-newest, matching
    # Detector.step's summation order element for element.
    out_len = len(values) - width + 1
    acc = values[:out_len].copy()
    for j in range(1, width):
        acc += values[j:j + out_len]
    return acc


@dataclass
class ReplayTrace:
    """The rule's per-step statistics for one stream, in columns, shared
    by every cell of a calibration grid."""
    steps: np.ndarray    # (n,) int64, strictly increasing
    actual: np.ndarray
    predicted: np.ndarray
    re: np.ndarray
    are: np.ndarray      # window mean; 0 where warmup
    warmup: np.ndarray   # bool
    mat: int

    def anomalous_counts(self, ret: float) -> np.ndarray:
        """Window errors above ret per step, as integers; 0 where warmup."""
        flags = (self.re > ret).astype(np.int64)
        counts = np.zeros(len(self.re), dtype=np.int64)
        if len(flags) >= self.mat:
            counts[self.mat - 1:] = _rolling_sum(flags, self.mat)
        return counts

    def verdict_columns(self, config: DetectorConfig) -> Verdicts:
        """The verdicts a streaming ``Detector`` gives for these rows, as
        columns: the alarm rule applied column-wise."""
        dc = self.anomalous_counts(config.ret) / self.mat
        alarm = ~self.warmup & (dc > config.alpha) & (self.are > config.beta)
        return Verdicts(self.steps, self.actual, self.predicted, self.re,
                        self.re > config.ret, dc, self.are, alarm,
                        self.warmup)


def replay_trace(steps, actual, predicted, mat: int) -> ReplayTrace:
    """Precompute stream statistics for the (step, actual, predicted)
    columns of a stream.  Steps must be strictly increasing 64-bit
    integers, as ``Detector.step`` takes them: an integer array in the
    int64 range, or a sequence of steps that ``_is_step`` takes."""
    if mat < 1:
        raise ValueError("mat must be >= 1")
    if isinstance(steps, np.ndarray):
        taken = steps.dtype.kind in "iu" and not np.any(steps >= _STEP_LIMIT)
    else:
        # each step is read on its own, as Detector.step reads it: numpy
        # reads [False, 1] as int64 and [np.uint64(1), 2] as float64
        steps = list(steps)
        taken = all(map(_is_step, steps))
    if not taken:
        raise ValueError("steps must be 64-bit integers")
    steps = np.asarray(steps, dtype=np.int64)
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if steps.ndim != 1 or not steps.shape == actual.shape == predicted.shape:
        raise ValueError("steps, actual and predicted differ in shape")
    if not len(steps):
        raise ValueError("empty validation stream")
    if np.any(steps[1:] <= steps[:-1]):
        raise ValueError("steps must be strictly increasing")
    # A non-finite actual or predicted value makes re non-finite too, as
    # does an error too large for a float; both are rejected below.
    with np.errstate(invalid="ignore", over="ignore"):
        re = (np.abs(actual - predicted)
              / np.maximum(np.abs(actual), EPSILON_FLOOR))
    finite = np.isfinite(re)
    if not np.all(finite):
        raise DataError("non-finite actual, predicted or relative error at "
                        f"step {steps[np.argmin(finite)]}")
    n = len(re)
    are = np.zeros(n)
    warmup = np.ones(n, dtype=bool)
    if n >= mat:
        are[mat - 1:] = _rolling_sum(re, mat) / mat
        warmup[mat - 1:] = False
    return ReplayTrace(steps=steps, actual=actual, predicted=predicted,
                       re=re, are=are, warmup=warmup, mat=mat)


def segment_alarms(verdicts) -> list[AlarmEvent]:
    """The alarm events of ``verdicts``, a ``Verdicts`` or ``StepVerdict``
    objects in order: each maximal run of alarmed rows at consecutive
    steps is one event, with the largest ``dc`` and ``are`` of its rows.
    Raises ValueError unless the steps ascend."""
    verdicts = Verdicts.of(verdicts)
    step = verdicts.step
    if np.any(step[1:] <= step[:-1]):
        raise ValueError("verdicts must be step-ordered")
    rows = np.flatnonzero(verdicts.collective_alarm)
    if not len(rows):
        return []
    at = step[rows]
    # an alarmed row opens an event unless the row before it alarmed too,
    # one step earlier
    first = np.flatnonzero(np.concatenate((
        [True], (np.diff(rows) != 1) | (np.diff(at) != 1))))
    last = np.append(first[1:], len(rows)) - 1
    return list(map(AlarmEvent, at[first].tolist(), at[last].tolist(),
                    np.maximum.reduceat(verdicts.dc[rows], first).tolist(),
                    np.maximum.reduceat(verdicts.are[rows], first).tolist()))


VERDICT_HEADER = ("step,actual,predicted,re,dc,are,"
                  "point_anomaly,warmup,collective_alarm")

#: Rows that ``write_verdicts`` formats at a time.  No output depends on
#: it.
_CHUNK = 4096

#: The end of a verdict line, from its three flags, by ``4 *
#: point_anomaly + 2 * warmup + collective_alarm``.
_FLAGS = np.array([f",{point},{warmup},{alarm}\n" for point in (0, 1)
                   for warmup in (0, 1) for alarm in (0, 1)], dtype=object)


def _texts(keys: np.ndarray, texts) -> np.ndarray:
    """The text of each of the int64 ``keys``, as an object array:
    ``texts(unique)`` gives the texts of the sorted distinct keys, so each
    is made once."""
    unique, inverse = np.unique(keys, return_inverse=True)
    return np.array(texts(unique), dtype=object)[inverse]


def _float_texts(values: np.ndarray) -> np.ndarray:
    """The ``.17g`` text of each of ``values``, as an object array.  Each
    distinct bit pattern is formatted once, so ``-0.0`` keeps its sign."""
    return _texts(values.view(np.int64), lambda bits: [
        "%.17g" % value for value in bits.view(np.float64).tolist()])


def write_verdicts(path, verdicts) -> None:
    """Write a verdict CSV from ``verdicts``: a ``Verdicts``, or
    ``StepVerdict`` objects in order.

    The rows are formatted ``_CHUNK`` at a time, each block by one ``%``
    format, so that no copy of the whole text is held in memory.  The
    ``actual`` and ``dc`` columns repeat few values, so each of their
    distinct values is formatted once per block; the flags pick one of
    eight line ends.
    """
    v = Verdicts.of(verdicts)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(VERDICT_HEADER + "\n")
        for lo in range(0, len(v.step), _CHUNK):
            rows = slice(lo, lo + _CHUNK)
            table = np.empty((len(v.step[rows]), 7), dtype=object)
            table[:, 0] = v.step[rows]
            table[:, 1] = _float_texts(v.actual[rows])
            table[:, 2] = v.predicted[rows]
            table[:, 3] = v.re[rows]
            table[:, 4] = _float_texts(v.dc[rows])
            table[:, 5] = v.are[rows]
            table[:, 6] = _FLAGS[4 * v.point_anomaly[rows]
                                 + 2 * v.warmup[rows]
                                 + v.collective_alarm[rows]]
            fh.write("%d,%s,%.17g,%.17g,%s,%.17g%s" * len(table)
                     % tuple(table.ravel().tolist()))


def read_verdicts(path) -> list[StepVerdict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != VERDICT_HEADER:
        raise DataError(f"{path}: not a verdict CSV")
    verdicts = []
    for line in lines[1:]:
        if not line.strip():
            continue
        (step, actual, predicted, re_v, dc, are,
         point, warmup, alarm) = line.split(",")
        verdicts.append(StepVerdict(
            step=int(step), actual=float(actual), predicted=float(predicted),
            re=float(re_v), point_anomaly=bool(int(point)), dc=float(dc),
            are=float(are), collective_alarm=bool(int(alarm)),
            warmup=bool(int(warmup))))
    return verdicts


ALARM_HEADER = "start,end,peak_dc,peak_are"


def write_alarms(path, events) -> None:
    lines = [ALARM_HEADER]
    for e in events:
        lines.append(f"{e.start_step},{e.end_step},"
                     f"{e.peak_dc:.17g},{e.peak_are:.17g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_alarms(path) -> list[AlarmEvent]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != ALARM_HEADER:
        raise DataError(f"{path}: not an alarm log")
    events = []
    for line in lines[1:]:
        if not line.strip():
            continue
        start, end, peak_dc, peak_are = line.split(",")
        events.append(AlarmEvent(int(start), int(end),
                                 float(peak_dc), float(peak_are)))
    return events
