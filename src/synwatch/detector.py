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
steps stay finite.  ``Detector.step`` is the one scalar form of this rule.
``calibration.replay_trace`` computes the same per-step statistics for a
whole stream with array operations, bit for bit equal to it; ``synwatch
detect`` builds its verdicts from that trace.
"""

from __future__ import annotations

import math
import re as _re
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError

#: The smallest denominator of a relative error: a zero-count step's
#: error is ``|predicted| / EPSILON_FLOOR``.
EPSILON_FLOOR = 1e-6


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
        """Verdict for one (actual, predicted) pair; rejects a step that
        does not follow the previous one (ValueError) and a non-finite
        value or relative error (DataError), leaving the state as it was."""
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


def segment_alarms(verdicts) -> list[AlarmEvent]:
    """Collapse maximal runs of consecutively-alarmed steps into events."""
    events: list[AlarmEvent] = []
    current: AlarmEvent | None = None
    previous_step: int | None = None
    for v in verdicts:
        if previous_step is not None and v.step <= previous_step:
            raise ValueError("verdicts must be step-ordered")
        contiguous = previous_step is not None and v.step == previous_step + 1
        previous_step = v.step
        if v.collective_alarm:
            if current is not None and contiguous:
                current.end_step = v.step
                current.peak_dc = max(current.peak_dc, v.dc)
                current.peak_are = max(current.peak_are, v.are)
            else:
                if current is not None:
                    events.append(current)
                current = AlarmEvent(v.step, v.step, v.dc, v.are)
        elif current is not None:
            events.append(current)
            current = None
    if current is not None:
        events.append(current)
    return events


VERDICT_HEADER = ("step,actual,predicted,re,dc,are,"
                  "point_anomaly,warmup,collective_alarm")


def write_verdicts(path, verdicts) -> None:
    # Line by line: joining the lines first holds the whole file in memory
    # three times over (the join, its final newline and its encoding).
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(VERDICT_HEADER + "\n")
        fh.writelines(
            f"{v.step},{v.actual:.17g},{v.predicted:.17g},{v.re:.17g},"
            f"{v.dc:.17g},{v.are:.17g},{int(v.point_anomaly)},"
            f"{int(v.warmup)},{int(v.collective_alarm)}\n" for v in verdicts)


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
