"""Threshold calibration and detection-quality evaluation.

The sweep scores cells by counting, not by listing events.  A step
alarms in cell ``(ret, alpha, beta)`` exactly when two integers reach
two levels: ``K``, its count of window errors above ret, reaches
``kappa(alpha)``, the smallest ``k`` with ``k / mat > alpha``; and
``B``, the number of grid betas below its window mean, reaches
``r(beta)``, the number of grid betas up to beta.  ``B`` is found once
per stream and ``K`` once per ret.  Events are alarmed steps less the
alarmed adjacent pairs that join them; false alarms are the runs of
alarmed normal steps less those joined to an alarmed attack step.  Both
are sums of tests ``K >= k and B >= r`` over steps, pairs and runs, so a
few ``bincount`` histograms of ``(K, B)`` keys, summed from the top
along both axes (summed-area tables), give them for every ``(alpha,
beta)`` cell of a ret at once.  An interval is detected when one of its
steps alarms, that is when the largest ``B`` among its steps with
``K >= k`` reaches ``r``; one such maximum per interval and ``k`` gives
that count for every cell too.  Each ret costs time linear in the stream.

The sweep's result is one int64 array of shape ``(3, n_ret, n_alpha,
n_beta)``: events, false alarms and detected intervals per cell, in grid
order.  The selection masks that array key by key, the sweep file is
written from it, and ``calibrate --beta-list`` writes one slice of it, so
no Python object is made per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import DetectorConfig, segment_alarms
# Re-exported only for perfbench/spans.py and the tests, which use them here.
from .detector import ReplayTrace, replay_trace  # noqa: F401
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


@dataclass
class EvalReport:
    """Detection quality of a set of alarm events; the detection rate is
    derived from the two interval counts."""

    false_alarms: int
    events_total: int
    intervals_total: int
    detected_intervals: int

    @property
    def detection_rate_pct(self) -> float:
        return _detection_rate(self.detected_intervals, self.intervals_total)


def _interval_bounds(intervals) -> tuple[np.ndarray, np.ndarray]:
    """The start and end arrays of ground-truth intervals, in order;
    raises ValueError if an interval is inverted or two overlap."""
    ordered = sorted((int(s), int(e)) for s, e in intervals)
    for (s, e) in ordered:
        if s > e:
            raise ValueError(f"interval [{s}, {e}] is inverted")
    for (_, e1), (s2, _) in zip(ordered, ordered[1:]):
        if s2 <= e1:
            raise ValueError("ground-truth intervals overlap")
    bounds = np.array(ordered, dtype=np.int64).reshape(-1, 2)
    return bounds[:, 0], bounds[:, 1]


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
    starts, ends = _interval_bounds(attack_intervals)
    spans = np.array([(e.start_step, e.end_step) for e in events],
                     dtype=np.int64).reshape(-1, 2)
    inverted = spans[:, 0] > spans[:, 1]
    if np.any(inverted):
        s, e = spans[np.argmax(inverted)]
        raise ValueError(f"alarm event [{s}, {e}] is inverted")
    # The intervals are disjoint and sorted, so those an event overlaps
    # are the contiguous index range [first, stop).
    first = np.searchsorted(ends, spans[:, 0], side="left")
    stop = np.searchsorted(starts, spans[:, 1], side="right")
    hit = first < stop
    width = len(starts) + 1
    covered = np.cumsum(np.bincount(first[hit], minlength=width)
                        - np.bincount(stop[hit], minlength=width))[:-1]
    detected = int(np.count_nonzero(covered))
    false_alarms = int(np.count_nonzero(~hit))
    return EvalReport(false_alarms=false_alarms, events_total=len(spans),
                      intervals_total=len(starts), detected_intervals=detected)


def evaluate(verdicts, attack_intervals) -> EvalReport:
    """Segment per-step verdicts into events, then score them."""
    return evaluate_events(segment_alarms(verdicts), attack_intervals)


def _suffix_sums(table: np.ndarray) -> np.ndarray:
    """``out[..., k, r]`` is the sum of ``table[..., k', r']`` over every
    ``k' >= k`` and ``r' >= r``."""
    return table[..., ::-1, ::-1].cumsum(-2).cumsum(-1)[..., ::-1, ::-1]


class _CellCounts:
    """Events, false alarms and detected intervals of every cell of a
    grid with ascending ``betas``, as ``(k, r)`` tables built once per ret.

    A step alarms in a cell when its count ``K`` of window errors above
    ret is at least ``k`` and its count ``B`` of betas below its window
    mean is at least ``r`` (warmup steps have ``K = 0``, and every cell
    needs ``k >= 1``).  Events and false alarms are sums of such quadrant
    tests, so histograms of ``(K, B)`` keys with suffix sums over both
    axes give them for every cell at once.
    """

    def __init__(self, trace: ReplayTrace, starts: np.ndarray,
                 ends: np.ndarray, betas: np.ndarray):
        steps = trace.steps
        self.trace = trace
        self.n_k = trace.mat + 2       # K <= mat; row mat + 1 stays empty
        self.n_r = len(betas) + 1
        size = self.n_k * self.n_r
        b = np.searchsorted(betas, trace.are, side="left")
        # The interval a step lies in is the first one not ending before it.
        first = np.searchsorted(ends, steps, side="left")
        attack = first < np.searchsorted(starts, steps, side="right")
        self.normal_steps = len(steps) - int(np.count_nonzero(attack))
        self.step_code = attack * size + b

        # Pairs of neighbouring rows, by kind: 0 normal-normal, 1
        # normal-attack, 2 attack-normal, 3 attack-attack for rows at
        # adjacent steps, 4 for a step gap.  An adjacent pair alarms when
        # both its steps do, so its key takes the smaller K and B.
        kind = np.where(np.diff(steps) == 1, 2 * attack[:-1] + attack[1:], 4)
        pair_b = np.minimum(b[:-1], b[1:])
        self.pair_code = kind * size + pair_b

        # A bridge is a run of adjacent normal steps with an adjacent
        # attack step at each end: one attack-normal pair, any number of
        # normal-normal pairs, then one normal-attack pair.  Each pair of
        # kind 2 or more opens a segment, so a segment holding an
        # attack-normal and a normal-attack pair is exactly one bridge, and
        # it alarms when all its pairs do.
        segment = np.cumsum(kind >= 2)
        n_seg = int(segment[-1]) + 1 if len(segment) else 0
        bridge = ((np.bincount(segment, kind == 2, minlength=n_seg) > 0)
                  & (np.bincount(segment, kind == 1, minlength=n_seg) > 0))
        self.bridge_pair = bridge[segment]
        self.bridge_of = (np.cumsum(bridge) - 1)[segment[self.bridge_pair]]
        self.n_bridges = int(np.count_nonzero(bridge))
        self.bridge_b = self._bridge_min(pair_b[self.bridge_pair])

        # Attack steps by interval, numbered among the intervals that hold
        # any step (an interval with none is never detected).
        interval = first[attack]
        self.attack = attack
        self.attack_b = b[attack]
        self.attack_row = (np.cumsum(np.diff(interval, prepend=-1) != 0)
                           - 1) * self.n_k
        self.n_hit = (int(self.attack_row[-1]) // self.n_k + 1
                      if len(interval) else 0)

    def _bridge_min(self, values: np.ndarray) -> np.ndarray:
        out = np.full(self.n_bridges, np.iinfo(np.int64).max)
        np.minimum.at(out, self.bridge_of, values)
        return out

    def tables(self, ret: float):
        """``(events, false_alarms, detected)``, each an ``(n_k, n_r)``
        array indexed by the cell's ``(k, r)``."""
        n_k, n_r = self.n_k, self.n_r
        size = n_k * n_r
        k = self.trace.anomalous_counts(ret)
        pair_k = np.minimum(k[:-1], k[1:])
        steps = np.bincount(k * n_r + self.step_code,
                            minlength=2 * size).reshape(2, n_k, n_r)
        pairs = np.bincount(pair_k * n_r + self.pair_code,
                            minlength=5 * size).reshape(5, n_k, n_r)[:4]
        bridges = np.bincount(
            self._bridge_min(pair_k[self.bridge_pair]) * n_r + self.bridge_b,
            minlength=size).reshape(n_k, n_r)
        # Events: alarmed steps less the alarmed pairs that join them.
        # False alarms: runs of alarmed normal steps, less those attached
        # to an alarmed attack step on the left or on the right, counting
        # back the runs attached on both sides once.
        events, false_alarms = _suffix_sums(np.stack((
            steps.sum(axis=0) - pairs.sum(axis=0),
            steps[0] - pairs[0] - pairs[1] - pairs[2] + bridges)))

        # An interval is detected in a cell when one of its steps alarms:
        # the largest B among its steps with K >= k reaches r.
        best = np.full(self.n_hit * n_k, -1)
        np.maximum.at(best, self.attack_row + k[self.attack], self.attack_b)
        best = np.maximum.accumulate(
            best.reshape(self.n_hit, n_k)[:, ::-1], axis=1)[:, ::-1]
        reached = np.bincount(
            (np.arange(n_k) * (n_r + 1) + best + 1).ravel(),
            minlength=n_k * (n_r + 1)).reshape(n_k, n_r + 1)
        detected = reached[:, ::-1].cumsum(axis=1)[:, ::-1][:, 1:]
        return events, false_alarms, detected


def _danger_levels(alphas, mat: int) -> np.ndarray:
    """For each alpha, the smallest anomalous count ``k`` whose danger
    coefficient ``k / mat`` exceeds it (``mat + 1`` if none does), with
    the division ``ReplayTrace.danger`` makes."""
    return np.searchsorted(np.arange(mat + 1) / mat,
                           np.asarray(alphas, dtype=np.float64),
                           side="right")


def _select(counts: np.ndarray, grid: CalibrationGrid, mat: int,
            intervals_total: int) -> tuple[DetectorConfig, EvalReport]:
    """The winning cell of ``counts`` and its evaluation: the highest
    detection rate (the most detected intervals), then the fewest false
    alarms, then the largest beta, alpha and ret, then the first cell in
    grid order.  Values compare as floats, so 0.0 and -0.0 tie."""
    _, false_alarms, detected = counts
    keep = detected == detected.max()
    keep &= false_alarms == false_alarms[keep].min()
    for axis, values in ((2, grid.beta_candidates),
                         (1, grid.alpha_candidates),
                         (0, grid.ret_candidates)):
        values = np.array(values)
        present = keep.any(axis=tuple({0, 1, 2} - {axis}))
        top = values == values[present].max()
        keep &= top.reshape([-1 if a == axis else 1 for a in range(3)])
    i, j, k = np.unravel_index(np.argmax(keep), keep.shape)
    events, false_alarms, detected = counts[:, i, j, k].tolist()
    config = DetectorConfig(ret=grid.ret_candidates[i],
                            beta=grid.beta_candidates[k], mat=mat,
                            alpha=grid.alpha_candidates[j])
    return config, EvalReport(
        false_alarms=false_alarms, events_total=events,
        intervals_total=intervals_total, detected_intervals=detected)


def calibrate(trace: ReplayTrace, attack_intervals, grid: CalibrationGrid):
    """Exhaustive sweep over the grid on ``trace``'s stream; returns the
    winning configuration, its evaluation, and the counts of every cell.

    The counts are one int64 array of shape ``(3, n_ret, n_alpha,
    n_beta)``: events, false alarms and detected intervals, in grid
    order.  Selection maximizes detection rate, breaking ties by fewer
    false alarms, then the largest beta, alpha and ret (most conservative
    among equals), then the first cell in grid order.  Fully
    deterministic.
    """
    starts, ends = _interval_bounds(attack_intervals)
    if not len(starts):
        raise DataError("validation stream has no labeled attack intervals")
    betas = np.array(grid.beta_candidates)
    cells = _CellCounts(trace, starts, ends, betas)
    if cells.normal_steps < trace.mat:
        raise DataError(
            f"validation stream needs at least {trace.mat} normal steps")

    # The table indices of the alphas and the betas.
    kappa = _danger_levels(grid.alpha_candidates, trace.mat)[:, None]
    r = np.searchsorted(betas, betas, side="right")
    counts = np.empty((3, len(grid.ret_candidates), len(kappa), len(r)),
                      dtype=np.int64)
    for i, ret in enumerate(grid.ret_candidates):
        counts[:, i] = np.stack(cells.tables(ret))[:, kappa, r]
    config, report = _select(counts, grid, trace.mat, len(starts))
    return config, report, counts


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


def default_grid(trace: ReplayTrace) -> CalibrationGrid:
    """Data-driven candidate grid for ``trace``: ret spans the stream's
    per-step error quantiles [0.5, 0.999] (20 log-spaced points), beta the
    observed window-mean range (20 points), alpha a fixed 12-value ladder."""
    if np.all(trace.warmup):
        raise DataError(f"validation stream shorter than mat={trace.mat}")
    ordered = np.sort(trace.re)
    lo = max(_quantile(ordered, 0.5), 1e-9)
    hi = max(_quantile(ordered, 0.999), lo * (1 + 1e-9))
    rets = tuple(np.geomspace(lo, hi, 20))
    ares = trace.are[~trace.warmup]
    betas = tuple(np.linspace(float(np.min(ares)), float(np.max(ares)), 20))
    return CalibrationGrid(ret_candidates=rets,
                           alpha_candidates=DEFAULT_ALPHAS,
                           beta_candidates=betas)


def _prediction_table(params: LstmParams, scaler: Scaler,
                      series: TimeSeries) -> tuple[np.ndarray, ...]:
    """Predict every step of a raw-count series with a trained model; the
    (step, actual, predicted) columns, one row per step, with int64 steps.

    Windows are normalized with the training scaler, predictions are
    mapped back to raw counts, and each row compares the prediction with
    the real next value at its step.  A gate saturated by a count far
    outside the training range overflows to the right value, unwarned.
    """
    windows = build_windows(series, params.input_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        preds = scaler.invert(
            predict_windows(params, scaler.apply(windows.inputs)))
    return windows.origin_steps + 1, windows.targets, preds


def prediction_pairs(params: LstmParams, scaler: Scaler,
                     series: TimeSeries) -> list[tuple[int, float, float]]:
    """The rows of ``_prediction_table`` as (step, actual, predicted)
    tuples of Python numbers."""
    return list(zip(*(column.tolist() for column
                      in _prediction_table(params, scaler, series))))


SWEEP_HEADER = "ret,alpha,beta,detection_rate_pct,false_alarms,events_total"


def write_sweep(path, rets, alphas, betas, counts: np.ndarray,
                intervals_total: int) -> None:
    """One line per cell of ``counts`` (as ``calibrate`` returns them),
    ret-major, then alpha, then beta, labeled with the given values.

    Each value and each possible detection rate is formatted once."""
    rates = [f"{_detection_rate(d, intervals_total):.17g}"
             for d in range(intervals_total + 1)]
    alphas = [f"{alpha:.17g}" for alpha in alphas]
    betas = [f"{beta:.17g}" for beta in betas]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for ret, *cells in zip(rets, *counts.tolist()):
            ret = f"{ret:.17g}"
            for alpha, *row in zip(alphas, *cells):
                fh.writelines(f"{ret},{alpha},{beta},{rates[d]},{f},{e}\n"
                              for beta, e, f, d in zip(betas, *row))
