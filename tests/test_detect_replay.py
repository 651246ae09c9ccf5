"""``synwatch detect`` builds its verdicts from batch predictions and the
batch replay trace; they must equal, byte for byte, what a live per-step
run writes: each window predicted alone by ``predict_window``, then fed to
``Detector.step``."""

import tempfile
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from synwatch.calibration import evaluate, replay_trace
from synwatch.cli import main
from synwatch.detector import (Detector, DetectorConfig, read_verdicts,
                               segment_alarms, write_alarms, write_verdicts)
from synwatch.lstm import init_params, predict_window, save_model
from synwatch.pipeline import (LabeledTimeSeries, Scaler, TimeSeries,
                               save_scaler, save_series)

SCALER = Scaler(offset=0.0, scale=250.0)
T0 = datetime(2000, 1, 1)


def streaming_verdicts(params, series: TimeSeries, config: DetectorConfig):
    """The live reference: at each step, the scaled window of the counts
    before it, predicted alone and mapped back to a count, goes to
    ``Detector.step``."""
    counts, lag = series.values, params.input_dim
    detector = Detector(config)
    verdicts = []
    for t in range(lag, len(counts)):
        window = SCALER.apply(counts[t - lag:t])
        predicted = float(SCALER.invert(predict_window(params, window)))
        verdicts.append(detector.step(t, float(counts[t]), predicted))
    return verdicts


def run_both(directory: Path, lag: int, model_seed: int, counts, labels,
             config: DetectorConfig):
    """Run ``synwatch detect`` and the streaming reference on one stream.

    Returns (detect verdict CSV, detect alarm log, detect stdout) and the
    same three for the reference, whose stdout is what ``detect`` prints
    for its verdicts.
    """
    params = init_params(lag, 4, rng_seed=model_seed)
    model = directory / "model.txt"
    save_model(model, params)
    save_scaler(f"{model}.scaler", SCALER)
    (directory / "detector.cfg").write_text(config.to_text() + "\n")
    series = TimeSeries(T0, 1_000_000, np.asarray(counts, dtype=np.float64))
    labeled = LabeledTimeSeries(series, labels)
    save_series(directory / "test.csv", labeled)

    out = directory / "verdicts.csv"
    args = ["detect", str(model), str(directory / "detector.cfg"),
            str(directory / "test.csv"), "-o", str(out)]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    printed = [ln for ln in result.output.splitlines()
               if not ln.startswith("warning:")]

    verdicts = streaming_verdicts(params, series, config)
    events = segment_alarms(verdicts)
    ref = directory / "reference.csv"
    write_verdicts(ref, verdicts)
    write_alarms(f"{ref}.alarms.csv", events)
    report = evaluate(verdicts, labeled.attack_intervals)
    expected = [f"wrote {len(verdicts)} verdicts, {len(events)} alarm events",
                f"metrics: detection_rate_pct={report.detection_rate_pct:.17g} "
                f"false_alarms={report.false_alarms} "
                f"events_total={report.events_total}"]
    return ((out.read_bytes(), Path(f"{out}.alarms.csv").read_bytes(),
             printed),
            (ref.read_bytes(), Path(f"{ref}.alarms.csv").read_bytes(),
             expected))


@st.composite
def detect_cases(draw):
    """A random stream and config: counts may be zero (their error divides
    by the fixed floor), the stream may be shorter than lag + 1 or than
    lag + mat, and thresholds range from alarm-everywhere to never."""
    n = draw(st.integers(1, 70))
    counts = draw(st.lists(st.one_of(st.just(0), st.integers(0, 400)),
                           min_size=n, max_size=n))
    labels = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    config = DetectorConfig(
        ret=draw(st.floats(0.01, 3.0)), mat=draw(st.integers(1, 9)),
        alpha=draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0])),
        beta=draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0))))
    return (draw(st.integers(1, 3)), draw(st.integers(0, 5)), counts, labels,
            config)


class TestDetectMatchesStreamingDetector:
    @settings(max_examples=80)
    @given(case=detect_cases())
    def test_random_streams(self, case):
        with tempfile.TemporaryDirectory() as tmp:
            detect, reference = run_both(Path(tmp), *case)
        assert detect == reference

    def test_zero_counts_use_the_epsilon_floor(self, tmp_path):
        counts = [0, 120, 0, 0, 95, 0, 110, 0, 0, 0, 130, 100, 0, 90, 80]
        config = DetectorConfig(ret=0.5, beta=1.0, mat=3, alpha=0.5)
        detect, reference = run_both(tmp_path, 2, 1, counts,
                                     [False] * len(counts), config)
        assert detect == reference
        verdicts = read_verdicts(tmp_path / "verdicts.csv")
        zero = [v for v in verdicts if v.actual == 0.0]
        assert zero and all(v.re == abs(v.predicted) / 1e-6 for v in zero)
        assert any(v.collective_alarm for v in verdicts)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shorter_than_lag_plus_one(self, tmp_path, n):
        config = DetectorConfig(ret=0.1, beta=0.0, mat=2, alpha=0.0)
        detect, reference = run_both(tmp_path, 3, 0, [100] * n, [False] * n,
                                     config)
        assert detect == reference
        assert detect[0] == b"step,actual,predicted,re,dc,are," \
                            b"point_anomaly,warmup,collective_alarm\n"

    @pytest.mark.parametrize("n", [4, 8, 10])
    def test_shorter_than_lag_plus_mat(self, tmp_path, n):
        config = DetectorConfig(ret=0.01, beta=0.0, mat=8, alpha=0.0)
        detect, reference = run_both(tmp_path, 3, 0, [0, 300] * (n // 2),
                                     [True] * n, config)
        assert detect == reference
        assert all(v.warmup for v in read_verdicts(tmp_path / "verdicts.csv"))

    def test_alarm_run_touches_both_stream_edges(self, tmp_path):
        # every step past warmup alarms: one event from the first full
        # window to the last step
        counts = [0, 300, 0, 300, 0, 300, 0, 300, 0, 300, 0, 300]
        config = DetectorConfig(ret=0.01, beta=0.0, mat=3, alpha=0.0)
        detect, reference = run_both(tmp_path, 2, 3, counts,
                                     [False] * 2 + [True] * 10, config)
        assert detect == reference
        assert detect[1].split(b"\n")[1].split(b",")[:2] == [b"4", b"11"]

    def test_thresholds_met_exactly_do_not_fire(self, tmp_path):
        # All three comparisons are strict.  Set ret to a relative error
        # the stream reaches, and beta to a window mean reached at a step
        # whose danger coefficient exceeds alpha = 0, so a non-strict
        # comparison would change a verdict.
        counts = [100, 0, 130, 90, 0, 250, 80, 95, 0, 160, 100, 70, 0, 110]
        lag, seed = 2, 4
        series = TimeSeries(T0, 1_000_000,
                            np.asarray(counts, dtype=np.float64))
        params = init_params(lag, 4, rng_seed=seed)
        res = [v.re for v in streaming_verdicts(
            params, series, DetectorConfig(ret=1.0, beta=0.0, mat=3))]
        ret = sorted(res)[len(res) // 2]
        probe = streaming_verdicts(params, series, DetectorConfig(
            ret=ret, beta=0.0, mat=3, alpha=0.0))
        beta = next(v.are for v in probe if v.collective_alarm)
        config = DetectorConfig(ret=ret, beta=beta, mat=3, alpha=0.0)
        detect, reference = run_both(tmp_path, lag, seed, counts,
                                     [False] * len(counts), config)
        assert detect == reference
        verdicts = read_verdicts(tmp_path / "verdicts.csv")
        assert any(v.re == ret and not v.point_anomaly for v in verdicts)
        assert any(v.are == beta and v.dc > 0 and not v.collective_alarm
                   for v in verdicts)


#: Steps as a stream may carry them: ints near 0 and near +-2**53, floats
#: equal to an integer or not, and numpy integers.
STEPS = st.one_of(
    st.integers(-3, 12),
    st.integers(-3, 12).map(float),
    st.integers(-3, 12).map(np.int64),
    st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, float(2**53)]),
    st.sampled_from([-(2**53 - 1), -2**53, -2**53 - 1]),
    st.integers(-2**60, 2**60),
    st.floats(-20.0, 20.0).map(lambda v: round(v * 2) / 2),
    st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300)
@given(steps=st.lists(STEPS, min_size=1, max_size=6),
       mat=st.integers(1, 4))
def test_detector_takes_a_step_sequence_exactly_when_replay_does(steps, mat):
    rows = [(step, 10.0, 9.0) for step in steps]
    try:
        replay_trace(rows, mat)
    except ValueError:
        replayed = False
    else:
        replayed = True
    detector = Detector(DetectorConfig(ret=0.5, beta=0.5, mat=mat))
    try:
        for row in rows:
            detector.step(*row)
    except ValueError:
        streamed = False
    else:
        streamed = True
    assert streamed == replayed
