"""Streaming collective-anomaly decision engine.

Each incoming (actual, predicted) pair yields a relative error; a
fixed-capacity circular array keeps the most recent ``mat`` errors.  The
step raises a collective alarm when both window statistics exceed their
thresholds: the fraction of window errors above ``ret`` must exceed
``alpha`` and the window's mean error must exceed ``beta``.  All three
comparisons are strict.  No alarm is possible before the window has
filled once (warmup).
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError


class WarmupError(Exception):
    """Raised when a window statistic is requested before the ring fills."""


@dataclass
class DetectorConfig:
    ret: float                   # per-step relative error threshold
    beta: float                  # mean-error threshold
    mat: int = 12                # window capacity (minimum attack steps)
    alpha: float = 0.66          # anomalous-fraction threshold
    epsilon_floor: float = 1e-6  # division guard for zero-traffic steps

    def __post_init__(self):
        for name in ("ret", "beta", "alpha", "epsilon_floor"):
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
        if self.epsilon_floor <= 0:
            raise ValueError("epsilon_floor must be positive")

    def to_text(self) -> str:
        return (f"ret={self.ret:.17g} mat={self.mat} "
                f"alpha={self.alpha:.17g} beta={self.beta:.17g}")

    @classmethod
    def from_text(cls, text: str, epsilon_floor: float = 1e-6) -> "DetectorConfig":
        m = _re.fullmatch(
            r"ret=(\S+) mat=(\d+) alpha=(\S+) beta=(\S+)", text.strip())
        if m is None:
            raise DataError(f"not a detector config line: {text.strip()!r}")
        try:
            return cls(ret=float(m.group(1)), mat=int(m.group(2)),
                       alpha=float(m.group(3)), beta=float(m.group(4)),
                       epsilon_floor=epsilon_floor)
        except ValueError as exc:
            raise DataError(
                f"bad detector config {text.strip()!r}: {exc}") from None


class ErrorRing:
    """Fixed-capacity circular buffer of the most recent relative errors."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.slots = np.zeros(capacity)
        self.write_index = 0
        self.filled = 0

    def push(self, re_value: float) -> None:
        """Store one error, evicting the oldest once full."""
        if re_value < 0:
            raise ValueError("relative errors are non-negative")
        self.slots[self.write_index] = re_value
        self.write_index = (self.write_index + 1) % self.capacity
        if self.filled < self.capacity:
            self.filled += 1

    @property
    def full(self) -> bool:
        return self.filled == self.capacity

    def values_oldest_to_newest(self) -> np.ndarray:
        if not self.full:
            # before the first wrap, insertion order is slot order
            return self.slots[:self.filled].copy()
        return np.concatenate(
            (self.slots[self.write_index:], self.slots[:self.write_index]))

    def copy(self) -> "ErrorRing":
        dup = ErrorRing(self.capacity)
        dup.slots = self.slots.copy()
        dup.write_index = self.write_index
        dup.filled = self.filled
        return dup


def relative_error(actual: float, predicted: float,
                   epsilon_floor: float = 1e-6) -> float:
    """|actual - predicted| scaled by the actual value's magnitude, with a
    floor on the denominator so zero-traffic steps stay finite."""
    if epsilon_floor <= 0:
        raise ValueError("epsilon_floor must be positive")
    return abs(actual - predicted) / max(abs(actual), epsilon_floor)


def danger_coefficient(ring: ErrorRing, ret: float) -> float:
    """Fraction of ring entries strictly above ret; defined only once the
    ring has filled."""
    if not ring.full:
        raise WarmupError("ring not yet full")
    n_anomalous = int(np.sum(ring.slots > ret))
    return n_anomalous / ring.capacity


def averaged_relative_error(ring: ErrorRing) -> float:
    """Mean of the ring's errors, summed oldest to newest so the result is
    bit-identical to a plain running-suffix recomputation."""
    if not ring.full:
        raise WarmupError("ring not yet full")
    total = 0.0
    for value in ring.values_oldest_to_newest():
        total += value
    return total / ring.capacity


@dataclass
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

    State is exactly (ring, last step index); instances are independent
    and a copied instance resumes identically.
    """

    def __init__(self, config: DetectorConfig, ring: ErrorRing | None = None,
                 last_step: int | None = None):
        self.config = config
        self.ring = ring if ring is not None else ErrorRing(config.mat)
        if self.ring.capacity != config.mat:
            raise ValueError("ring capacity must equal config.mat")
        self.last_step = last_step

    def copy(self) -> "Detector":
        return Detector(self.config, self.ring.copy(), self.last_step)

    def step(self, step: int, actual: float, predicted: float) -> StepVerdict:
        if self.last_step is not None and step <= self.last_step:
            raise ValueError(
                f"step {step} not after previous step {self.last_step}")
        self.last_step = step
        cfg = self.config
        re_value = relative_error(actual, predicted, cfg.epsilon_floor)
        self.ring.push(re_value)
        warmup = not self.ring.full
        if warmup:
            dc = 0.0
            are = 0.0
            alarm = False
        else:
            dc = danger_coefficient(self.ring, cfg.ret)
            are = averaged_relative_error(self.ring)
            alarm = dc > cfg.alpha and are > cfg.beta
        return StepVerdict(
            step=step, actual=actual, predicted=predicted, re=re_value,
            point_anomaly=re_value > cfg.ret, dc=dc, are=are,
            collective_alarm=alarm, warmup=warmup)


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
    lines = [VERDICT_HEADER]
    for v in verdicts:
        lines.append(
            f"{v.step},{v.actual:.17g},{v.predicted:.17g},{v.re:.17g},"
            f"{v.dc:.17g},{v.are:.17g},{int(v.point_anomaly)},"
            f"{int(v.warmup)},{int(v.collective_alarm)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
