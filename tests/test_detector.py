"""Ring semantics, window statistics, alarm rule, segmentation, IO."""

import numpy as np
import pytest

from synwatch.detector import (AlarmEvent, Detector, DetectorConfig, ErrorRing,
                               StepVerdict, WarmupError,
                               averaged_relative_error, danger_coefficient,
                               read_alarms, read_verdicts, relative_error,
                               segment_alarms, write_alarms, write_verdicts)
from synwatch.errors import DataError


class TestRelativeError:
    def test_identity(self):
        assert relative_error(10.0, 10.0) == 0.0

    def test_direct_arithmetic(self):
        assert relative_error(4.0, 5.0) == pytest.approx(0.25)

    def test_zero_actual_hits_floor(self):
        assert relative_error(0.0, 3.0, epsilon_floor=1e-6) == pytest.approx(3e6)

    def test_floor_validated(self):
        with pytest.raises(ValueError):
            relative_error(1.0, 2.0, epsilon_floor=0.0)

    def test_denominator_is_actual_not_predicted(self):
        assert relative_error(2.0, 4.0) == pytest.approx(1.0)
        assert relative_error(4.0, 2.0) == pytest.approx(0.5)


class TestErrorRing:
    def test_overwrite_oldest(self):
        ring = ErrorRing(3)
        for v in (1.0, 2.0, 3.0, 4.0):
            ring.push(v)
        np.testing.assert_array_equal(ring.values_oldest_to_newest(),
                                      [2.0, 3.0, 4.0])

    def test_fill_counter(self):
        ring = ErrorRing(5)
        ring.push(0.5)
        assert ring.filled == 1 and not ring.full
        for _ in range(10):
            ring.push(0.1)
        assert ring.filled == 5 and ring.full

    def test_negative_rejected(self):
        ring = ErrorRing(2)
        with pytest.raises(ValueError):
            ring.push(-0.1)

    def test_contents_match_full_history_suffix(self, rng):
        # oracle: plain list keeping everything, compare the suffix
        for capacity in (1, 3, 7, 12):
            ring = ErrorRing(capacity)
            history = []
            for _ in range(100):
                value = float(rng.uniform(0, 2))
                ring.push(value)
                history.append(value)
                expected = history[-min(len(history), capacity):]
                np.testing.assert_array_equal(
                    ring.values_oldest_to_newest(), expected)


def full_ring(values):
    ring = ErrorRing(len(values))
    for v in values:
        ring.push(v)
    return ring


class TestWindowStatistics:
    def test_danger_coefficient_eight_of_twelve(self):
        ring = full_ring([0.9] * 8 + [0.1] * 4)
        assert danger_coefficient(ring, 0.5) == pytest.approx(8 / 12)

    def test_danger_coefficient_bounds(self):
        ring = full_ring([0.1] * 12)
        assert danger_coefficient(ring, 0.5) == 0.0
        ring = full_ring([0.9] * 12)
        assert danger_coefficient(ring, 0.5) == 1.0

    def test_strict_threshold(self):
        ring = full_ring([0.5] * 4)
        assert danger_coefficient(ring, 0.5) == 0.0

    def test_warmup_signalled(self):
        ring = ErrorRing(4)
        ring.push(1.0)
        with pytest.raises(WarmupError):
            danger_coefficient(ring, 0.5)
        with pytest.raises(WarmupError):
            averaged_relative_error(ring)

    def test_are_constant(self):
        assert averaged_relative_error(full_ring([0.5] * 12)) == \
            pytest.approx(0.5)

    def test_are_zero(self):
        assert averaged_relative_error(full_ring([0.0] * 12)) == 0.0

    def test_are_matches_list_oracle(self, rng):
        values = [float(v) for v in rng.uniform(0, 3, size=30)]
        ring = ErrorRing(12)
        for idx, v in enumerate(values):
            ring.push(v)
            if idx >= 11:
                window = values[idx - 11:idx + 1]
                assert averaged_relative_error(ring) == sum(window) / 12

    def test_ring_oracle_equivalence_bitwise(self, rng):
        # acceptance-grade property: DC and ARE equal a full-history-suffix
        # recomputation exactly, over many random push sequences
        for trial in range(200):
            mat = int(rng.integers(1, 15))
            length = int(rng.integers(mat, 60))
            ret = float(rng.uniform(0.1, 1.5))
            values = rng.uniform(0, 2, size=length)
            ring = ErrorRing(mat)
            history = []
            for v in values:
                ring.push(float(v))
                history.append(float(v))
            window = history[-mat:]
            dc_oracle = sum(1 for v in window if v > ret) / mat
            are_oracle = sum(window) / mat
            assert danger_coefficient(ring, ret) == dc_oracle
            assert averaged_relative_error(ring) == are_oracle


def drive(detector, re_values, start_step=0):
    # actual=1 and predicted=1-re makes each relative error exactly re
    return [detector.step(start_step + i, 1.0, 1.0 - re)
            for i, re in enumerate(re_values)]


class TestDetectorStep:
    def test_alarm_when_both_thresholds_exceeded(self):
        config = DetectorConfig(ret=0.7, beta=0.69, mat=4, alpha=0.66)
        verdicts = drive(Detector(config), [0.5, 0.9, 0.9, 0.9])
        last = verdicts[-1]
        assert last.dc == pytest.approx(0.75)
        assert last.are == pytest.approx(0.8)
        assert last.collective_alarm

    def test_no_alarm_when_dc_too_low(self):
        config = DetectorConfig(ret=0.7, beta=0.69, mat=4, alpha=0.66)
        verdicts = drive(Detector(config), [0.5, 0.5, 0.9, 1.7])
        last = verdicts[-1]
        assert last.dc == pytest.approx(0.5)
        assert last.are == pytest.approx(0.9)
        assert not last.collective_alarm

    def test_boundary_is_strict(self):
        # window mean exactly equal to beta must not alarm
        config = DetectorConfig(ret=0.5, beta=0.69, mat=4, alpha=0.66)
        verdicts = drive(Detector(config), [0.69, 0.69, 0.69, 0.69])
        last = verdicts[-1]
        assert last.dc == 1.0
        assert last.are == pytest.approx(0.69)
        assert not last.collective_alarm

    def test_boundary_strict_with_passing_dc(self):
        # dc clears alpha but are == beta exactly: still no alarm
        config = DetectorConfig(ret=0.7, beta=0.69, mat=4, alpha=0.66)
        verdicts = drive(Detector(config), [0.3, 0.82, 0.82, 0.82])
        last = verdicts[-1]
        assert last.dc == pytest.approx(0.75)
        assert last.are == (0.3 + 0.82 + 0.82 + 0.82) / 4
        assert last.are == pytest.approx(0.69)
        assert not last.collective_alarm

    def test_warmup_never_alarms(self):
        config = DetectorConfig(ret=0.01, beta=0.0, mat=6, alpha=0.1)
        verdicts = drive(Detector(config), [5.0] * 5)
        assert all(v.warmup for v in verdicts)
        assert not any(v.collective_alarm for v in verdicts)
        assert all(v.dc == 0.0 and v.are == 0.0 for v in verdicts)

    def test_point_anomaly_flag(self):
        config = DetectorConfig(ret=0.5, beta=10.0, mat=3, alpha=0.9)
        verdicts = drive(Detector(config), [0.4, 0.6])
        assert not verdicts[0].point_anomaly
        assert verdicts[1].point_anomaly

    def test_out_of_order_step_rejected(self):
        config = DetectorConfig(ret=0.5, beta=0.5)
        detector = Detector(config)
        detector.step(5, 1.0, 1.0)
        with pytest.raises(ValueError):
            detector.step(5, 1.0, 1.0)
        with pytest.raises(ValueError):
            detector.step(4, 1.0, 1.0)
        detector.step(7, 1.0, 1.0)  # gaps are fine, regressions are not

    def test_state_transfer_resumes_identically(self, rng):
        config = DetectorConfig(ret=0.4, beta=0.3, mat=5, alpha=0.5)
        stream = [float(v) for v in rng.uniform(0, 1.2, size=40)]
        straight = drive(Detector(config), stream)
        detector = Detector(config)
        first = drive(detector, stream[:17])
        resumed = detector.copy()
        rest = drive(resumed, stream[17:], start_step=17)
        assert first + rest == straight

    def test_monotonicity_in_beta_and_ret(self, rng):
        stream = [float(v) for v in rng.uniform(0, 1.5, size=80)]
        base = DetectorConfig(ret=0.5, beta=0.6, mat=8, alpha=0.5)
        alarms = {}
        for beta in (0.8, 0.6, 0.4, 0.2):
            config = DetectorConfig(ret=0.5, beta=beta, mat=8, alpha=0.5)
            verdicts = drive(Detector(config), stream)
            alarms[beta] = {v.step for v in verdicts if v.collective_alarm}
        assert alarms[0.8] <= alarms[0.6] <= alarms[0.4] <= alarms[0.2]
        dcs = {}
        for ret in (0.3, 0.5, 0.8):
            config = DetectorConfig(ret=ret, beta=0.6, mat=8, alpha=0.5)
            verdicts = drive(Detector(config), stream)
            dcs[ret] = [v.dc for v in verdicts]
        assert all(a >= b >= c for a, b, c in
                   zip(dcs[0.3], dcs[0.5], dcs[0.8]))


class TestDetectorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(ret=0.0, beta=0.5)
        with pytest.raises(ValueError):
            DetectorConfig(ret=0.5, beta=-0.1)
        with pytest.raises(ValueError):
            DetectorConfig(ret=0.5, beta=0.5, mat=0)
        with pytest.raises(ValueError):
            DetectorConfig(ret=0.5, beta=0.5, alpha=1.5)

    def test_text_round_trip(self):
        config = DetectorConfig(ret=0.123456789012345, beta=0.69,
                                mat=12, alpha=0.66)
        parsed = DetectorConfig.from_text(config.to_text())
        assert parsed == config

    def test_bad_text_rejected(self):
        with pytest.raises(DataError):
            DetectorConfig.from_text("ret=1.0 alpha=0.5")

    @pytest.mark.parametrize("field", ["ret", "beta", "alpha",
                                       "epsilon_floor"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, bad):
        values = dict(ret=0.5, beta=0.5, alpha=0.5, epsilon_floor=1e-6)
        values[field] = bad
        with pytest.raises(ValueError, match="finite"):
            DetectorConfig(**values)

    @pytest.mark.parametrize("text", [
        "ret=nan mat=12 alpha=0.5 beta=nan",
        "ret=0.5 mat=12 alpha=0.5 beta=inf",
        "ret=0.5 mat=0 alpha=0.5 beta=0.5",
        "ret=x mat=12 alpha=0.5 beta=0.5"])
    def test_invalid_text_values_are_data_errors(self, text):
        with pytest.raises(DataError, match="bad detector config"):
            DetectorConfig.from_text(text)


def verdict(step, alarm, dc=0.9, are=0.9):
    return StepVerdict(step=step, actual=1.0, predicted=0.5, re=0.5,
                       point_anomaly=False, dc=dc, are=are,
                       collective_alarm=alarm, warmup=False)


class TestSegmentAlarms:
    def test_empty(self):
        assert segment_alarms([]) == []
        assert segment_alarms([verdict(3, False)]) == []

    def test_two_runs(self):
        verdicts = [verdict(s, 5 <= s <= 9 or 20 <= s <= 21)
                    for s in range(25)]
        events = segment_alarms(verdicts)
        assert [(e.start_step, e.end_step) for e in events] == \
            [(5, 9), (20, 21)]

    def test_alternating_gives_one_event_per_step(self):
        verdicts = [verdict(s, s % 2 == 0) for s in range(6)]
        events = segment_alarms(verdicts)
        assert [(e.start_step, e.end_step) for e in events] == \
            [(0, 0), (2, 2), (4, 4)]

    def test_peaks_recorded(self):
        verdicts = [verdict(0, True, dc=0.7, are=0.8),
                    verdict(1, True, dc=0.9, are=0.75),
                    verdict(2, True, dc=0.8, are=0.95)]
        event, = segment_alarms(verdicts)
        assert event.peak_dc == 0.9
        assert event.peak_are == 0.95

    def test_step_gap_splits_event(self):
        verdicts = [verdict(0, True), verdict(1, True), verdict(5, True)]
        events = segment_alarms(verdicts)
        assert [(e.start_step, e.end_step) for e in events] == [(0, 1), (5, 5)]

    def test_unordered_rejected(self):
        with pytest.raises(ValueError):
            segment_alarms([verdict(3, False), verdict(3, False)])


class TestVerdictAndAlarmFiles:
    def test_verdict_round_trip(self, tmp_path, rng):
        config = DetectorConfig(ret=0.4, beta=0.4, mat=5, alpha=0.5)
        stream = [float(v) for v in rng.uniform(0, 1.2, size=30)]
        verdicts = drive(Detector(config), stream)
        path = tmp_path / "verdicts.csv"
        write_verdicts(path, verdicts)
        assert read_verdicts(path) == verdicts

    def test_replaying_verdicts_reproduces_alarm_log(self, tmp_path, rng):
        config = DetectorConfig(ret=0.3, beta=0.3, mat=4, alpha=0.5)
        stream = [float(v) for v in rng.uniform(0, 1.5, size=60)]
        verdicts = drive(Detector(config), stream)
        vpath = tmp_path / "verdicts.csv"
        apath = tmp_path / "alarms.csv"
        write_verdicts(vpath, verdicts)
        write_alarms(apath, segment_alarms(verdicts))
        replayed = segment_alarms(read_verdicts(vpath))
        assert replayed == read_alarms(apath)

    def test_alarm_round_trip(self, tmp_path):
        events = [AlarmEvent(3, 9, 0.75, 1.5), AlarmEvent(20, 20, 1.0, 2.25)]
        path = tmp_path / "alarms.csv"
        write_alarms(path, events)
        assert read_alarms(path) == events

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(DataError):
            read_verdicts(path)
        with pytest.raises(DataError):
            read_alarms(path)
