"""Error window, window statistics, alarm rule, segmentation, IO."""

import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synwatch import detector
from synwatch.detector import (EPSILON_FLOOR, VERDICT_HEADER, AlarmEvent,
                               Detector, DetectorConfig, StepVerdict, Verdicts,
                               read_alarms, read_verdicts, relative_error,
                               segment_alarms, write_alarms, write_verdicts)
from synwatch.errors import DataError


class TestRelativeError:
    def test_identity(self):
        assert relative_error(10.0, 10.0) == 0.0

    def test_direct_arithmetic(self):
        assert relative_error(4.0, 5.0) == pytest.approx(0.25)

    def test_zero_actual_hits_floor(self):
        assert EPSILON_FLOOR == 1e-6
        assert relative_error(0.0, 3.0) == 3.0 / EPSILON_FLOOR
        # an actual value below the floor divides by the floor too
        assert relative_error(-1e-7, 3.0) == (3.0 + 1e-7) / EPSILON_FLOOR

    def test_denominator_is_actual_not_predicted(self):
        assert relative_error(2.0, 4.0) == pytest.approx(1.0)
        assert relative_error(4.0, 2.0) == pytest.approx(0.5)


def drive(detector, re_values, start_step=0):
    # actual=1 and predicted=1-re makes each relative error re, up to the
    # rounding of 1-re; oracles read the verdicts' own ``re``
    return [detector.step(start_step + i, 1.0, 1.0 - re)
            for i, re in enumerate(re_values)]


def window_config(mat, ret=0.5):
    return DetectorConfig(ret=ret, beta=0.0, mat=mat, alpha=0.5)


class TestErrorWindow:
    def test_overwrite_oldest(self):
        detector = Detector(window_config(3), errors=[1.0, 2.0, 3.0, 4.0])
        assert list(detector.errors) == [2.0, 3.0, 4.0]
        drive(detector, [1.5])
        assert list(detector.errors) == [3.0, 4.0, 1.5]

    def test_fill_counter(self):
        detector = Detector(window_config(5))
        first, = drive(detector, [0.5])
        assert len(detector.errors) == 1 and first.warmup
        verdicts = drive(detector, [0.75] * 10, start_step=1)
        assert len(detector.errors) == 5
        assert [v.warmup for v in verdicts] == [True] * 3 + [False] * 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Detector(window_config(2), errors=[0.5, -0.1])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite relative error"):
            Detector(window_config(2), errors=[0.5, bad])

    def test_contents_match_full_history_suffix(self, rng):
        # oracle: plain list keeping everything, compare the suffix
        for capacity in (1, 3, 7, 12):
            detector = Detector(window_config(capacity))
            history = []
            for step in range(100):
                verdict = detector.step(step, 1.0,
                                        1.0 - float(rng.uniform(0, 2)))
                history.append(verdict.re)
                assert list(detector.errors) == history[-capacity:]


def left_to_right_sum(values):
    # Detector.step's summation order.  The built-in sum() of floats is
    # compensated from Python 3.12 on and rounds differently.
    total = 0.0
    for value in values:
        total += value
    return total


def window_verdict(values, ret=0.5):
    """The verdict of the step that fills a window of ``len(values)``."""
    return drive(Detector(window_config(len(values), ret)), values)[-1]


class TestWindowStatistics:
    def test_dc_eight_of_twelve(self):
        verdict = window_verdict([0.9] * 8 + [0.1] * 4)
        assert verdict.dc == pytest.approx(8 / 12)

    def test_dc_bounds(self):
        assert window_verdict([0.1] * 12).dc == 0.0
        assert window_verdict([0.9] * 12).dc == 1.0

    def test_strict_threshold(self):
        verdicts = drive(Detector(window_config(4)), [0.5] * 4)
        assert all(v.re == 0.5 for v in verdicts)
        assert verdicts[-1].dc == 0.0

    def test_warmup_signalled(self):
        verdict, = drive(Detector(window_config(4, ret=0.01)), [1.0])
        assert verdict.warmup
        assert verdict.dc == 0.0 and verdict.are == 0.0
        assert not verdict.collective_alarm

    def test_are_constant(self):
        assert window_verdict([0.5] * 12).are == pytest.approx(0.5)

    def test_are_zero(self):
        assert window_verdict([0.0] * 12).are == 0.0

    def test_are_matches_list_oracle(self, rng):
        verdicts = drive(Detector(window_config(12)),
                         [float(v) for v in rng.uniform(0, 3, size=30)])
        errors = [v.re for v in verdicts]
        for idx in range(11, 30):
            assert verdicts[idx].are == \
                left_to_right_sum(errors[idx - 11:idx + 1]) / 12

    def test_ring_oracle_equivalence_bitwise(self, rng):
        # acceptance-grade property: every verdict's dc and are equal a
        # recomputation over the full history's last mat errors, exactly,
        # over many random streams
        for trial in range(200):
            mat = int(rng.integers(1, 15))
            length = int(rng.integers(mat, 60))
            ret = float(rng.uniform(0.1, 1.5))
            values = [float(v) for v in rng.uniform(0, 2, size=length)]
            verdicts = drive(Detector(window_config(mat, ret)), values)
            history = [v.re for v in verdicts]
            for idx in range(mat - 1, length):
                window = history[idx + 1 - mat:idx + 1]
                assert verdicts[idx].dc == \
                    sum(1 for v in window if v > ret) / mat
                assert verdicts[idx].are == left_to_right_sum(window) / mat


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

    def test_fractional_steps_rejected_and_state_kept(self):
        # 0.5 and then 1.9 used to be taken, where replay_trace rejects both
        config = DetectorConfig(ret=0.5, beta=0.5, mat=3)
        detector = Detector(config)
        detector.step(0, 10.0, 9.0)
        for step in (0.5, 1.9, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="not an integer below"):
                detector.step(step, 10.0, 9.0)
            assert (list(detector.errors), detector.last_step) == ([0.1], 0)
        # a float equal to an integer is taken, as replay_trace takes it
        assert detector.step(2.0, 10.0, 9.0).step == 2.0

    @pytest.mark.parametrize("sign", (1, -1))
    def test_steps_from_2_to_the_53_rejected_and_state_kept(self, sign):
        # after a step of float(2**53), 2**53 + 1 used to be taken: as a
        # float64 it equals 2**53, so replay_trace cannot order it
        detector = Detector(DetectorConfig(ret=0.5, beta=0.5, mat=3))
        first = -(2**53 - 1) if sign < 0 else 2**53 - 1
        detector.step(first, 10.0, 9.0)
        for step in (2**53, 2**53 + 1, float(2**53), 2**64):
            with pytest.raises(ValueError, match="not an integer below"):
                detector.step(sign * step, 10.0, 9.0)
            assert (list(detector.errors), detector.last_step) \
                == ([0.1], first)

    @pytest.mark.parametrize("actual, predicted", [
        (float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0),
        (1.0, float("-inf")),
        (0.0, 1e308)])  # finite inputs whose error overflows the floor
    def test_non_finite_rejected_and_state_kept(self, actual, predicted):
        # a NaN actual used to make are NaN, and so silence every alarm,
        # for the next mat steps
        config = DetectorConfig(ret=0.5, beta=0.5, mat=4, alpha=0.5)
        detector, reference = Detector(config), Detector(config)
        drive(detector, [0.9, 0.9, 0.9])
        drive(reference, [0.9, 0.9, 0.9])
        with pytest.raises(DataError, match="non-finite .* at step 3"):
            detector.step(3, actual, predicted)
        assert detector.step(3, 1.0, 0.1) == reference.step(3, 1.0, 0.1)
        assert detector.step(4, 1.0, 0.1).collective_alarm

    def test_state_transfer_resumes_identically(self, rng):
        config = DetectorConfig(ret=0.4, beta=0.3, mat=5, alpha=0.5)
        stream = [float(v) for v in rng.uniform(0, 1.2, size=40)]
        straight = drive(Detector(config), stream)
        detector = Detector(config)
        first = drive(detector, stream[:17])
        resumed = detector.copy()
        rest = drive(resumed, stream[17:], start_step=17)
        assert first + rest == straight
        # the copy owns its errors: stepping it left the original as it was
        assert list(detector.errors) == [v.re for v in first[-5:]]
        assert detector.last_step == 16

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


def two_loop_verdict(config, history, step, actual, predicted):
    """Oracle for Detector.step: append the error to the plain list
    ``history``, then the window mean by a left-to-right ``+=`` over its
    last ``mat`` values and the danger coefficient by a separate count of
    those above ``ret``."""
    re_value = relative_error(actual, predicted)
    history.append(re_value)
    full = len(history) >= config.mat
    dc = are = 0.0
    if full:
        window = history[-config.mat:]
        total = 0.0
        for value in window:
            total += value
        are = total / config.mat
        dc = sum(1 for value in window if value > config.ret) / config.mat
    return StepVerdict(
        step=step, actual=actual, predicted=predicted, re=re_value,
        point_anomaly=re_value > config.ret, dc=dc, are=are,
        collective_alarm=full and dc > config.alpha and are > config.beta,
        warmup=not full)


# counts with zero traffic and repeated values, so errors tie often
COUNTS = st.one_of(st.sampled_from((0.0, 1.0, 2.0, 10.0)),
                   st.floats(0.0, 200.0))


@st.composite
def detector_runs(draw):
    mat = draw(st.integers(1, 20))
    pairs = draw(st.lists(st.tuples(COUNTS, COUNTS), min_size=1,
                          max_size=60))
    errors = [relative_error(a, p) for a, p in pairs]
    positive = [e for e in errors if e > 0]
    # ret and beta equal to an error of the stream test the strict '>'
    ret = draw(st.sampled_from(positive) if positive and draw(st.booleans())
               else st.floats(1e-3, 3.0))
    beta = draw(st.sampled_from(errors) if draw(st.booleans())
                else st.floats(0.0, 3.0))
    alpha = draw(st.sampled_from([k / mat for k in range(mat + 1)])
                 | st.floats(0.0, 1.0))
    config = DetectorConfig(ret=ret, beta=beta, mat=mat, alpha=alpha)
    prefill = draw(st.lists(st.sampled_from(errors) | st.floats(0.0, 3.0),
                            max_size=mat - 1))
    split = draw(st.integers(0, len(pairs)))
    return config, pairs, prefill, split


class TestSinglePassStep:
    """Detector.step's one pass over its errors against the two-loop form."""

    @settings(max_examples=300)
    @given(run=detector_runs())
    def test_equals_two_loop_oracle(self, run):
        config, pairs, prefill, split = run
        detector = Detector(config, errors=prefill)
        verdicts = [detector.step(t, a, p)
                    for t, (a, p) in enumerate(pairs[:split])]
        resumed = detector.copy()
        verdicts += [resumed.step(t, a, p)
                     for t, (a, p) in enumerate(pairs[split:], start=split)]
        history = list(prefill)
        expected = [two_loop_verdict(config, history, t, a, p)
                    for t, (a, p) in enumerate(pairs)]
        assert verdicts == expected


def float_bits(value):
    return struct.pack("<d", value)


# every finite float, with -0.0 and subnormals drawn often
FINITE = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                     1.7976931348623157e308)),
    st.floats(allow_nan=False, allow_infinity=False))


class TestRoundTripProperties:
    @settings(max_examples=200)
    @given(ret=st.floats(0.0, exclude_min=True, allow_infinity=False)
           | st.sampled_from((5e-324, 1e-310)),
           beta=st.floats(0.0, allow_infinity=False)
           | st.sampled_from((-0.0, 5e-324)),
           alpha=st.floats(0.0, 1.0) | st.sampled_from((-0.0, 5e-324)),
           mat=st.integers(1, 10**6))
    def test_detector_config_text(self, ret, beta, alpha, mat):
        config = DetectorConfig(ret=ret, beta=beta, mat=mat, alpha=alpha)
        parsed = DetectorConfig.from_text(config.to_text())
        assert parsed.mat == mat
        for name in ("ret", "beta", "alpha"):
            assert float_bits(getattr(parsed, name)) \
                == float_bits(getattr(config, name))

    @settings(max_examples=100)
    @given(rows=st.lists(st.tuples(
        st.integers(0, 10**12), FINITE, FINITE, FINITE, FINITE, FINITE,
        st.booleans(), st.booleans(), st.booleans()), max_size=20))
    def test_verdict_file(self, tmp_path_factory, rows):
        verdicts = [StepVerdict(step=step, actual=a, predicted=p, re=r,
                                point_anomaly=point, dc=dc, are=are,
                                collective_alarm=alarm, warmup=warmup)
                    for step, a, p, r, dc, are, point, warmup, alarm in rows]
        path = tmp_path_factory.mktemp("verdicts") / "v.csv"
        write_verdicts(path, verdicts)
        read = read_verdicts(path)
        assert len(read) == len(verdicts)
        for got, want in zip(read, verdicts):
            assert (got.step, got.point_anomaly, got.warmup,
                    got.collective_alarm) == (want.step, want.point_anomaly,
                                              want.warmup,
                                              want.collective_alarm)
            for name in ("actual", "predicted", "re", "dc", "are"):
                assert float_bits(getattr(got, name)) \
                    == float_bits(getattr(want, name))

    @settings(max_examples=100)
    @given(rows=st.lists(st.tuples(st.integers(0, 10**12),
                                   st.integers(0, 10**12), FINITE, FINITE),
                         max_size=20))
    def test_alarm_file(self, tmp_path_factory, rows):
        events = [AlarmEvent(*row) for row in rows]
        path = tmp_path_factory.mktemp("alarms") / "a.csv"
        write_alarms(path, events)
        read = read_alarms(path)
        assert [(e.start_step, e.end_step) for e in read] \
            == [(e.start_step, e.end_step) for e in events]
        for got, want in zip(read, events):
            assert float_bits(got.peak_dc) == float_bits(want.peak_dc)
            assert float_bits(got.peak_are) == float_bits(want.peak_are)


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

    @pytest.mark.parametrize("field", ["ret", "beta", "alpha"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, bad):
        values = dict(ret=0.5, beta=0.5, alpha=0.5)
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


def per_step_events(verdicts):
    """The alarm events of ``verdicts``, one verdict at a time: the
    reference for ``segment_alarms``."""
    events, current, previous = [], None, None
    for v in verdicts:
        contiguous = previous is not None and v.step == previous + 1
        previous = v.step
        if v.collective_alarm and current is not None and contiguous:
            current.end_step = v.step
            current.peak_dc = max(current.peak_dc, v.dc)
            current.peak_are = max(current.peak_are, v.are)
        elif v.collective_alarm:
            if current is not None:
                events.append(current)
            current = AlarmEvent(v.step, v.step, v.dc, v.are)
        elif current is not None:
            events.append(current)
            current = None
    return events + ([current] if current is not None else [])


@st.composite
def verdict_streams(draw):
    """Step-ordered verdicts with gaps between steps and alarm runs of any
    length, dc and are repeating often, -0.0 among the values."""
    values = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | FINITE
    verdicts, step = [], draw(st.integers(-5, 5))
    for _ in range(draw(st.integers(0, 40))):
        step += draw(st.sampled_from([1, 1, 1, 2, 7]))
        verdicts.append(StepVerdict(
            step=step, actual=draw(values), predicted=draw(values),
            re=draw(values), point_anomaly=draw(st.booleans()),
            dc=draw(values), are=draw(values),
            collective_alarm=draw(st.booleans()), warmup=draw(st.booleans())))
    return verdicts


def per_step_text(verdicts):
    """A verdict CSV one line at a time, as ``write_verdicts`` once wrote
    it: the reference for the block writer."""
    return VERDICT_HEADER + "\n" + "".join(
        f"{v.step},{v.actual:.17g},{v.predicted:.17g},{v.re:.17g},"
        f"{v.dc:.17g},{v.are:.17g},{int(v.point_anomaly)},"
        f"{int(v.warmup)},{int(v.collective_alarm)}\n" for v in verdicts)


class TestVerdictColumns:
    @settings(max_examples=200)
    @given(verdicts=verdict_streams())
    def test_alarm_events_equal_the_per_step_rule(self, verdicts):
        events = segment_alarms(Verdicts.of(verdicts))
        assert events == per_step_events(verdicts)
        assert segment_alarms(verdicts) == events
        for event in events:
            assert all(type(value) is int
                       for value in (event.start_step, event.end_step))
            assert all(type(value) is float
                       for value in (event.peak_dc, event.peak_are))

    def test_columns_of_columns_are_themselves(self):
        columns = Verdicts.of([verdict(3, True)])
        assert Verdicts.of(columns) is columns
        assert len(columns.step) == 1 and len(Verdicts.of([]).step) == 0

    @pytest.mark.parametrize("chunk", [1, 7, detector._CHUNK])
    @settings(max_examples=60)
    @given(verdicts=verdict_streams())
    def test_write_verdicts_bytes_do_not_depend_on_the_block(
            self, tmp_path_factory, chunk, verdicts):
        path = tmp_path_factory.mktemp("verdicts") / "v.csv"
        with mock.patch.object(detector, "_CHUNK", chunk):
            write_verdicts(path, verdicts)
            assert path.read_bytes() == per_step_text(verdicts).encode()
            write_verdicts(path, Verdicts.of(verdicts))
            assert path.read_bytes() == per_step_text(verdicts).encode()

    @pytest.mark.parametrize("chunk", [1, 7, detector._CHUNK])
    def test_alarm_run_across_blocks(self, tmp_path, chunk):
        # an alarm run from step 7 to step 21 crosses blocks of 1 and 7
        # rows
        config = DetectorConfig(ret=0.3, beta=0.3, mat=4, alpha=0.5)
        verdicts = drive(Detector(config), [0.1] * 5 + [0.9] * 16
                         + [0.1] * 9)
        assert [(e.start_step, e.end_step)
                for e in segment_alarms(verdicts)] == [(7, 21)]
        path = tmp_path / "v.csv"
        with mock.patch.object(detector, "_CHUNK", chunk):
            write_verdicts(path, verdicts)
        assert path.read_bytes() == per_step_text(verdicts).encode()
        assert read_verdicts(path) == verdicts


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
