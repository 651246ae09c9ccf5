"""Threshold calibration and detection-quality evaluation.

The grid sweep replays the detector's window statistics in vectorized
form.  The replay is constructed to be bit-identical to the streaming
detector: window means accumulate oldest-to-newest exactly like
``Detector.step`` does, and anomalous-point counts are integer-exact, so a selected
configuration re-run through the streaming engine reproduces its sweep
metrics without tolerance.

Each (ret, alpha) cell scores its whole beta column at once with array
operations over the steps whose danger coefficient exceeds alpha: the
begin and end marks of the alarmed runs give every event of every beta,
and one searchsorted pass over the sorted intervals scores them with the
same overlap rule as ``evaluate_events``.  A column's counts depend only
on which steps are candidates, not on the ret and alpha that picked them,
so within one ``calibrate`` call the cells with equal candidate steps
(alphas between the same ``k/mat`` levels, or no candidates at all) share
one scoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detector import DetectorConfig, StepVerdict, segment_alarms
from .errors import DataError
from .lstm import LstmParams, predict_windows
from .pipeline import Scaler, TimeSeries, build_windows

DEFAULT_ALPHAS = (0.25, 0.33, 0.41, 0.47, 0.52, 0.58,
                  0.62, 0.66, 0.72, 0.78, 0.85, 0.92)


@dataclass
class CalibrationGrid:
    ret_candidates: tuple[float, ...]
    alpha_candidates: tuple[float, ...]
    beta_candidates: tuple[float, ...]
    mat: int = 12

    def __post_init__(self):
        self.ret_candidates = tuple(float(v) for v in self.ret_candidates)
        self.alpha_candidates = tuple(float(v) for v in self.alpha_candidates)
        self.beta_candidates = tuple(float(v) for v in self.beta_candidates)
        for name in ("ret_candidates", "alpha_candidates", "beta_candidates"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be non-empty")
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{name} must be finite")
            if any(b < a for a, b in zip(values, values[1:])):
                raise ValueError(f"{name} must be sorted ascending")
        if any(v <= 0 for v in self.ret_candidates):
            raise ValueError("ret candidates must be positive")
        if any(not 0 <= v <= 1 for v in self.alpha_candidates):
            raise ValueError("alpha candidates must lie in [0, 1]")
        if any(v < 0 for v in self.beta_candidates):
            raise ValueError("beta candidates must be non-negative")
        if self.mat < 1:
            raise ValueError("mat must be >= 1")


@dataclass
class EvalReport:
    detection_rate_pct: float
    false_alarms: int
    events_total: int
    intervals_total: int
    detected_intervals: int


@dataclass(slots=True)
class SweepRow:
    ret: float
    alpha: float
    beta: float
    detection_rate_pct: float
    false_alarms: int
    events_total: int
    detected_intervals: int
    intervals_total: int


def _check_intervals(intervals) -> list[tuple[int, int]]:
    ordered = sorted((int(s), int(e)) for s, e in intervals)
    for (s, e) in ordered:
        if s > e:
            raise ValueError(f"interval [{s}, {e}] is inverted")
    for (_, e1), (s2, _) in zip(ordered, ordered[1:]):
        if s2 <= e1:
            raise ValueError("ground-truth intervals overlap")
    return ordered


def _bounds(intervals) -> tuple[np.ndarray, np.ndarray]:
    """Start and end arrays of checked intervals; both ascend."""
    bounds = np.array(intervals, dtype=np.int64).reshape(-1, 2)
    return bounds[:, 0], bounds[:, 1]


def _score_spans(row: np.ndarray, first_step: np.ndarray,
                 last_step: np.ndarray, intervals,
                 n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Detected intervals and false alarms per row of a batch of events.

    Event ``i`` belongs to row ``row[i]`` and spans the steps
    ``[first_step[i], last_step[i]]``; ``intervals`` are checked.
    """
    starts, ends = _bounds(intervals)
    # The intervals are disjoint and sorted, so those an event overlaps
    # are the contiguous index range [first, stop).
    first = np.searchsorted(ends, first_step, side="left")
    stop = np.searchsorted(starts, last_step, side="right")
    hit = first < stop
    width = len(starts) + 1
    cover = (np.bincount(row[hit] * width + first[hit],
                         minlength=n_rows * width)
             - np.bincount(row[hit] * width + stop[hit],
                           minlength=n_rows * width))
    covered = np.cumsum(cover.reshape(n_rows, width), axis=1)[:, :-1]
    return (np.count_nonzero(covered, axis=1),
            np.bincount(row[~hit], minlength=n_rows))


def _detection_rate(detected: int, intervals_total: int) -> float:
    if intervals_total:
        return 100.0 * detected / intervals_total
    return 100.0


def evaluate_events(events, attack_intervals) -> EvalReport:
    """Score alarm events against ground-truth attack intervals.

    An interval counts as detected when at least one event overlaps it; an
    event is false when it overlaps no interval.  With no intervals at all
    the detection rate is vacuously 100.
    """
    intervals = _check_intervals(attack_intervals)
    spans = np.array([(e.start_step, e.end_step) for e in events],
                     dtype=np.int64).reshape(-1, 2)
    inverted = spans[:, 0] > spans[:, 1]
    if np.any(inverted):
        s, e = spans[np.argmax(inverted)]
        raise ValueError(f"alarm event [{s}, {e}] is inverted")
    (detected,), (false_alarms,) = _score_spans(
        np.zeros(len(spans), dtype=np.int64), spans[:, 0], spans[:, 1],
        intervals, 1)
    return EvalReport(
        detection_rate_pct=_detection_rate(int(detected), len(intervals)),
        false_alarms=int(false_alarms), events_total=len(spans),
        intervals_total=len(intervals), detected_intervals=int(detected))


def evaluate(verdicts, attack_intervals) -> EvalReport:
    """Segment per-step verdicts into events, then score them."""
    return evaluate_events(segment_alarms(verdicts), attack_intervals)


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
    """Per-step stream statistics shared by every grid cell."""
    steps: np.ndarray    # (n,) strictly increasing
    actual: np.ndarray
    predicted: np.ndarray
    re: np.ndarray
    are: np.ndarray      # window mean; 0 where warmup
    warmup: np.ndarray   # bool
    mat: int

    def danger(self, ret: float) -> np.ndarray:
        """Anomalous-point fraction per step for one ret; 0 where warmup."""
        flags = (self.re > ret).astype(np.int64)
        dc = np.zeros(len(self.re))
        if len(flags) >= self.mat:
            dc[self.mat - 1:] = _rolling_sum(flags, self.mat) / self.mat
        return dc

    def candidates(self, dc: np.ndarray, alpha: float) -> np.ndarray:
        """Mask of the steps past warmup whose danger coefficient ``dc``
        exceeds alpha: the alarm rule short of its beta test."""
        return ~self.warmup & (dc > alpha)

    def verdicts(self, config: DetectorConfig) -> list[StepVerdict]:
        """The verdicts a streaming ``Detector`` gives for these rows.

        The trace holds the Detector's relative errors and window means bit
        for bit, and its danger coefficients count the same flags, so the
        alarm rule applied column-wise gives the same verdicts.  Every
        field is a plain Python number, as the Detector's are.
        """
        dc = self.danger(config.ret)
        alarm = self.candidates(dc, config.alpha) & (self.are > config.beta)
        return list(map(
            StepVerdict, self.steps.tolist(), self.actual.tolist(),
            self.predicted.tolist(), self.re.tolist(),
            (self.re > config.ret).tolist(), dc.tolist(), self.are.tolist(),
            alarm.tolist(), self.warmup.tolist()))


def replay_trace(pairs, mat: int, epsilon_floor: float = 1e-6) -> ReplayTrace:
    """Precompute stream statistics for (step, actual, predicted) rows.

    ``pairs`` is a sequence of such tuples, or the same rows as an (n, 3)
    array, which is what ``calibrate`` and ``detect`` pass.  The statistics
    are bit-identical to a streaming ``Detector`` fed the same rows.
    """
    if epsilon_floor <= 0:
        raise ValueError("epsilon_floor must be positive")
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    table = np.asarray(pairs, dtype=np.float64)
    if not table.size:
        raise ValueError("empty validation stream")
    if table.ndim != 2 or table.shape[1] != 3:
        raise ValueError("pairs must be (step, actual, predicted) rows")
    steps = table[:, 0].astype(np.int64)
    if np.any(np.diff(steps) <= 0):
        raise ValueError("pairs must be step-ordered")
    actual, predicted = table[:, 1], table[:, 2]
    # A non-finite actual or predicted value makes re non-finite too, as
    # does an error too large for a float; both are rejected below.
    with np.errstate(invalid="ignore", over="ignore"):
        re = (np.abs(actual - predicted)
              / np.maximum(np.abs(actual), epsilon_floor))
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


def _normal_step_count(trace: ReplayTrace, intervals) -> int:
    starts, ends = _bounds(intervals)
    in_attack = (np.searchsorted(trace.steps, ends, side="right")
                 - np.searchsorted(trace.steps, starts, side="left"))
    return len(trace.steps) - int(np.sum(in_attack))


def _column_counts(trace: ReplayTrace, idx: np.ndarray, betas,
                   intervals) -> list[tuple[float, int, int, int, int]]:
    """Scores of one column of candidate steps ``idx``, one per beta in
    beta order: the trailing SweepRow fields (detection rate, false
    alarms, events, detected and total intervals).

    A candidate is alarmed for one beta when its window mean exceeds that
    beta, and consecutive alarmed candidates at adjacent steps form one
    event, exactly as ``segment_alarms`` joins streaming verdicts.  So an
    event begins at an alarmed candidate whose adjacent predecessor's
    mean does not exceed beta (-inf stands for no adjacent predecessor),
    and ends likewise at the successor side.
    """
    steps, are = trace.steps[idx], trace.are[idx]
    adjacent = np.diff(steps) == 1
    before = np.full(len(idx), -np.inf)
    before[1:][adjacent] = are[:-1][adjacent]
    after = np.full(len(idx), -np.inf)
    after[:-1][adjacent] = are[1:][adjacent]
    column = np.asarray(betas, dtype=np.float64)[:, None]
    alarmed = are > column
    # Row-major order pairs the k-th begin of a row with its k-th end.
    row, first = np.nonzero(alarmed & (before <= column))
    last = np.nonzero(alarmed & (after <= column))[1]
    detected, false_alarms = _score_spans(
        row, steps[first], steps[last], intervals, len(betas))
    events = np.bincount(row, minlength=len(betas))
    total = len(intervals)
    return [(_detection_rate(n_detected, total), n_false, n_events,
             n_detected, total)
            for n_detected, n_false, n_events in zip(
                detected.tolist(), false_alarms.tolist(), events.tolist())]


def calibrate(pairs, attack_intervals, grid: CalibrationGrid,
              epsilon_floor: float = 1e-6):
    """Exhaustive sweep over the grid; returns the winning configuration,
    its evaluation, and every sweep row.

    Selection maximizes detection rate, breaking ties by fewer false
    alarms, then the largest beta, alpha and ret (most conservative among
    equals).  Fully deterministic.
    """
    intervals = _check_intervals(attack_intervals)
    if not intervals:
        raise DataError("validation stream has no labeled attack intervals")
    trace = replay_trace(pairs, grid.mat, epsilon_floor)
    if _normal_step_count(trace, intervals) < grid.mat:
        raise DataError(
            f"validation stream needs at least {grid.mat} normal steps")

    betas = grid.beta_candidates
    # Column counts by candidate steps: ret and alpha only label a column.
    scored: dict[bytes, list] = {}
    rows: list[SweepRow] = []
    for ret in grid.ret_candidates:
        dc = trace.danger(ret)
        for alpha in grid.alpha_candidates:
            idx = np.flatnonzero(trace.candidates(dc, alpha))
            key = idx.tobytes()
            counts = scored.get(key)
            if counts is None:
                counts = scored[key] = _column_counts(trace, idx, betas,
                                                      intervals)
            rows += [SweepRow(ret, alpha, beta, *scores)
                     for beta, scores in zip(betas, counts)]

    best = max(rows, key=lambda r: (r.detection_rate_pct, -r.false_alarms,
                                    r.beta, r.alpha, r.ret))
    config = DetectorConfig(ret=best.ret, beta=best.beta, mat=grid.mat,
                            alpha=best.alpha, epsilon_floor=epsilon_floor)
    report = EvalReport(
        detection_rate_pct=best.detection_rate_pct,
        false_alarms=best.false_alarms, events_total=best.events_total,
        intervals_total=best.intervals_total,
        detected_intervals=best.detected_intervals)
    return config, report, rows


def sweep_beta(config_base: DetectorConfig, pairs, attack_intervals,
               beta_list) -> list[SweepRow]:
    """One evaluation row per beta, all other thresholds fixed; rows come
    back in the order the betas were given."""
    betas = [float(b) for b in beta_list]
    if not betas:
        raise ValueError("beta_list must be non-empty")
    intervals = _check_intervals(attack_intervals)
    trace = replay_trace(pairs, config_base.mat, config_base.epsilon_floor)
    ret, alpha = config_base.ret, config_base.alpha
    idx = np.flatnonzero(trace.candidates(trace.danger(ret), alpha))
    counts = _column_counts(trace, idx, betas, intervals)
    return [SweepRow(ret, alpha, beta, *scores)
            for beta, scores in zip(betas, counts)]


def _quantile(ordered: np.ndarray, q: float) -> float:
    """``np.quantile`` with its default linear rule, bit for bit, of the
    values sorted in ``ordered``; ``q`` lies in [0, 1].

    The first ``np.quantile`` call in a process imports ``numpy.ma``,
    which costs more than the whole grid.  Past the last index numpy
    interpolates from the last value to itself with weight ``v + 1``,
    which turns a trailing -0.0 into 0.0; this keeps that too.  With both
    0.0 and -0.0 in the input, the sign of a zero result from numpy
    depends on the input order, so only its value is matched there.
    """
    last = len(ordered) - 1
    v = last * q
    if v >= last:
        a = b = float(ordered[-1])
        t = v + 1
    else:
        lower = math.floor(v)
        a, b = float(ordered[lower]), float(ordered[lower + 1])
        t = v - lower
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def default_grid(pairs, mat: int = 12,
                 epsilon_floor: float = 1e-6) -> CalibrationGrid:
    """Data-driven candidate grid: ret spans the stream's per-step error
    quantiles [0.5, 0.999] (20 log-spaced points), beta spans the observed
    window-mean range (20 points), alpha uses a fixed 12-value ladder."""
    trace = replay_trace(pairs, mat, epsilon_floor)
    if np.all(trace.warmup):
        raise DataError(f"validation stream shorter than mat={mat}")
    ordered = np.sort(trace.re)
    lo = max(_quantile(ordered, 0.5), 1e-9)
    hi = max(_quantile(ordered, 0.999), lo * (1 + 1e-9))
    rets = tuple(np.geomspace(lo, hi, 20))
    ares = trace.are[~trace.warmup]
    betas = tuple(np.linspace(float(np.min(ares)), float(np.max(ares)), 20))
    return CalibrationGrid(ret_candidates=rets,
                           alpha_candidates=DEFAULT_ALPHAS,
                           beta_candidates=betas, mat=mat)


def _prediction_table(params: LstmParams, scaler: Scaler,
                      series: TimeSeries) -> np.ndarray:
    """Predict every step of a raw-count series with a trained model; one
    (step, actual, predicted) row per step, as an (n, 3) array.

    Windows are normalized with the training scaler, predictions are
    mapped back to raw counts, and each row compares the prediction with
    the real next value at its step.
    """
    windows = build_windows(series, params.input_dim)
    preds = scaler.invert(predict_windows(params, scaler.apply(windows.inputs)))
    return np.column_stack((windows.origin_steps + 1, windows.targets, preds))


def prediction_pairs(params: LstmParams, scaler: Scaler,
                     series: TimeSeries) -> list[tuple[int, float, float]]:
    """The rows of ``_prediction_table`` as (step, actual, predicted)
    tuples of Python numbers."""
    return [(int(step), actual, predicted) for step, actual, predicted
            in _prediction_table(params, scaler, series).tolist()]


SWEEP_HEADER = "ret,alpha,beta,detection_rate_pct,false_alarms,events_total"


def write_sweep(path, rows) -> None:
    # ret, alpha, beta and the rate repeat across a grid's rows, so each
    # distinct value is formatted once.  Zeros are not kept: 0.0 and -0.0
    # are one dict key but print differently.
    formatted: dict[float, str] = {}

    def text(value: float) -> str:
        out = formatted.get(value)
        if out is None:
            out = f"{value:.17g}"
            if value:
                formatted[value] = out
        return out

    lines = [SWEEP_HEADER]
    for r in rows:
        lines.append(f"{text(r.ret)},{text(r.alpha)},{text(r.beta)},"
                     f"{text(r.detection_rate_pct)},{r.false_alarms},"
                     f"{r.events_total}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
