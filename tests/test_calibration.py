"""Evaluation metrics, grid sweep, replay/streaming equivalence."""

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import synwatch
from synwatch.calibration import (DEFAULT_ALPHAS, CalibrationGrid, EvalReport,
                                  _quantile, _select, calibrate, default_grid,
                                  evaluate, evaluate_events, replay_trace,
                                  write_sweep)
from synwatch.detector import AlarmEvent, Detector, DetectorConfig
from synwatch.errors import DataError


def verdicts_with_alarms(alarm_steps, total=120):
    from synwatch.detector import StepVerdict
    alarm_steps = set(alarm_steps)
    return [StepVerdict(step=s, actual=1.0, predicted=1.0, re=0.0,
                        point_anomaly=False, dc=0.9, are=0.9,
                        collective_alarm=s in alarm_steps, warmup=False)
            for s in range(total)]


class TestEvaluate:
    def test_single_overlap_detected(self):
        verdicts = verdicts_with_alarms(range(55, 71))
        report = evaluate(verdicts, [(50, 80)])
        assert report.detection_rate_pct == 100.0
        assert report.false_alarms == 0
        assert report.events_total == 1

    def test_partial_detection_and_stray_alarm(self):
        verdicts = verdicts_with_alarms(list(range(20, 25)) + [100])
        report = evaluate(verdicts, [(18, 30), (60, 70)])
        assert report.detection_rate_pct == 50.0
        assert report.false_alarms == 1
        assert report.events_total == 2

    def test_vacuous_no_attacks_no_alarms(self):
        report = evaluate(verdicts_with_alarms([]), [])
        assert report.detection_rate_pct == 100.0
        assert report.false_alarms == 0

    def test_no_attacks_with_alarms_still_vacuous_rate(self):
        report = evaluate(verdicts_with_alarms([5]), [])
        assert report.detection_rate_pct == 100.0
        assert report.false_alarms == 1

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            evaluate(verdicts_with_alarms([]), [(0, 10), (10, 20)])

    def test_boundary_touch_counts_as_overlap(self):
        events = [AlarmEvent(30, 40, 1.0, 1.0)]
        report = evaluate_events(events, [(40, 50)])
        assert report.detected_intervals == 1
        assert report.false_alarms == 0

    def test_splitting_an_event_at_an_interval_boundary(self):
        # detection accounting is unchanged; only the detached outside
        # fragment starts counting as a false alarm
        intervals = [(50, 80)]
        whole = [AlarmEvent(55, 90, 1.0, 1.0)]
        split = [AlarmEvent(55, 80, 1.0, 1.0), AlarmEvent(81, 90, 1.0, 1.0)]
        report_whole = evaluate_events(whole, intervals)
        report_split = evaluate_events(split, intervals)
        assert report_whole.detection_rate_pct == \
            report_split.detection_rate_pct == 100.0
        assert report_whole.false_alarms == 0
        assert report_split.false_alarms == 1

        inside = [AlarmEvent(55, 70, 1.0, 1.0), AlarmEvent(71, 78, 1.0, 1.0)]
        report_inside = evaluate_events(inside, intervals)
        assert report_inside.detection_rate_pct == 100.0
        assert report_inside.false_alarms == 0

    def test_inverted_event_rejected(self):
        with pytest.raises(ValueError, match="inverted"):
            evaluate_events([AlarmEvent(5, 3, 1.0, 1.0)], [(0, 10)])

    @given(spans=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 8)),
                          max_size=12),
           cuts=st.lists(st.integers(0, 70), max_size=10, unique=True))
    def test_matches_pairwise_overlap_reference(self, spans, cuts):
        events = [AlarmEvent(s, s + w, 1.0, 1.0) for s, w in spans]
        cuts = sorted(cuts)
        intervals = [(s, e - 1) for s, e in zip(cuts[::2], cuts[1::2])]

        def overlaps(ev, iv):
            return ev.start_step <= iv[1] and iv[0] <= ev.end_step

        report = evaluate_events(events, intervals)
        detected = sum(any(overlaps(ev, iv) for ev in events)
                       for iv in intervals)
        assert report.detected_intervals == detected
        assert report.false_alarms == sum(
            not any(overlaps(ev, iv) for iv in intervals) for ev in events)
        assert report.events_total == len(events)
        assert report.intervals_total == len(intervals)


def synthetic_pairs(rng, n=400, attack_intervals=((150, 190), (300, 335)),
                    baseline_re=0.05, attack_re=0.9):
    """Stream whose relative errors sit near baseline_re outside attacks
    and near attack_re inside them."""
    pairs = []
    in_attack = np.zeros(n, dtype=bool)
    for s, e in attack_intervals:
        in_attack[s:e + 1] = True
    for step in range(n):
        re = attack_re if in_attack[step] else baseline_re
        re *= float(rng.uniform(0.8, 1.2))
        pairs.append((step, 1.0, 1.0 - re))
    return pairs, list(attack_intervals)


class TestReplayStreamingEquivalence:
    def test_bitwise_identical_statistics_and_events(self, rng):
        for trial in range(5):
            n = int(rng.integers(30, 200))
            mat = int(rng.integers(2, 14))
            pairs = [(s, float(rng.uniform(0, 50)), float(rng.uniform(0, 50)))
                     for s in range(n)]
            config = DetectorConfig(ret=float(rng.uniform(0.1, 1.0)),
                                    beta=float(rng.uniform(0.1, 1.0)),
                                    mat=mat, alpha=float(rng.uniform(0.2, 0.9)))
            detector = Detector(config)
            verdicts = [detector.step(*p) for p in pairs]

            trace = replay_trace(pairs, mat)
            dc = trace.danger(config.ret)
            for i, v in enumerate(verdicts):
                assert v.re == trace.re[i]
                assert v.warmup == trace.warmup[i]
                if not v.warmup:
                    assert v.dc == dc[i]        # bitwise
                    assert v.are == trace.are[i]  # bitwise

            alarmed = (~trace.warmup) & (dc > config.alpha) \
                & (trace.are > config.beta)
            streaming_alarms = {v.step for v in verdicts if v.collective_alarm}
            assert set(trace.steps[alarmed]) == streaming_alarms

    def test_selected_config_reproduces_metrics_via_detector(self, rng):
        pairs, intervals = synthetic_pairs(rng)
        trace = replay_trace(pairs, 12)
        config, report, _ = calibrate(trace, intervals, default_grid(trace))
        detector = Detector(config)
        verdicts = [detector.step(*p) for p in pairs]
        rerun = evaluate(verdicts, intervals)
        assert rerun == report


class TestCalibrate:
    def test_finds_perfect_config_on_separable_stream(self, rng):
        pairs, intervals = synthetic_pairs(rng)
        trace = replay_trace(pairs, 12)
        config, report, counts = calibrate(trace, intervals,
                                           default_grid(trace))
        assert report.detection_rate_pct == 100.0
        assert report.false_alarms == 0
        assert counts.shape == (3, 20, 12, 20)
        assert counts.dtype == np.int64

    def test_single_candidate_grid_returned_verbatim(self, rng):
        pairs, intervals = synthetic_pairs(rng)
        grid = CalibrationGrid(ret_candidates=(0.4,), alpha_candidates=(0.66,),
                               beta_candidates=(0.3,))
        config, report, counts = calibrate(replay_trace(pairs, 12),
                                           intervals, grid)
        assert (config.ret, config.alpha, config.beta) == (0.4, 0.66, 0.3)
        assert cell_reports(counts, report.intervals_total) == [report]

    def test_deterministic(self, rng):
        pairs, intervals = synthetic_pairs(rng)
        trace = replay_trace(pairs, 12)
        grid = default_grid(trace)
        out1 = calibrate(trace, intervals, grid)
        out2 = calibrate(trace, intervals, grid)
        assert out1[0] == out2[0]
        assert out1[1] == out2[1]
        assert np.array_equal(out1[2], out2[2])

    def test_counts_in_grid_order(self, rng):
        pairs, intervals = synthetic_pairs(rng)
        grid = CalibrationGrid(ret_candidates=(0.2, 0.5),
                               alpha_candidates=(0.4, 0.8),
                               beta_candidates=(0.1, 0.9))
        trace = replay_trace(pairs, 12)
        _, _, counts = calibrate(trace, intervals, grid)
        assert counts.shape == (3, 2, 2, 2)
        for (i, ret), (j, alpha), (k, beta) in itertools.product(
                *map(enumerate, (grid.ret_candidates, grid.alpha_candidates,
                                 grid.beta_candidates))):
            _, _, cell = calibrate(trace, intervals, CalibrationGrid(
                (ret,), (alpha,), (beta,)))
            assert np.array_equal(cell[:, 0, 0, 0], counts[:, i, j, k])

    def test_label_free_validation_rejected(self, rng):
        pairs, _ = synthetic_pairs(rng)
        grid = CalibrationGrid((0.4,), (0.5,), (0.3,))
        with pytest.raises(DataError, match="attack intervals"):
            calibrate(replay_trace(pairs, 12), [], grid)

    def test_requires_enough_normal_steps(self):
        pairs = [(s, 1.0, 0.5) for s in range(20)]
        grid = CalibrationGrid((0.4,), (0.5,), (0.3,))
        with pytest.raises(DataError, match="normal steps"):
            calibrate(replay_trace(pairs, 12), [(0, 14)], grid)

    def test_normal_step_count_includes_interval_ends(self):
        # 19 steps (0..19 without 10); [0, 8] leaves 10 of them normal
        pairs = [(s, 1.0, 0.5) for s in range(20) if s != 10]
        trace = replay_trace(pairs, 11)
        grid = CalibrationGrid((0.4,), (0.5,), (0.3,))
        with pytest.raises(DataError, match="normal steps"):
            calibrate(trace, [(0, 8), (10, 10)], grid)
        _, _, counts = calibrate(trace, [(0, 7), (10, 10)], grid)
        assert counts.shape == (3, 1, 1, 1)

    def test_tie_break_prefers_conservative_thresholds(self, rng):
        # every cell scores identically on an all-quiet stream
        pairs = [(s, 1.0, 1.0) for s in range(60)]
        grid = CalibrationGrid(ret_candidates=(0.1, 0.2),
                               alpha_candidates=(0.5, 0.7),
                               beta_candidates=(0.3, 0.9))
        config, _, _ = calibrate(replay_trace(pairs, 12), [(40, 45)], grid)
        assert (config.ret, config.alpha, config.beta) == (0.2, 0.7, 0.9)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            CalibrationGrid((), (0.5,), (0.3,))

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            CalibrationGrid((0.4, 0.2), (0.5,), (0.3,))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_grid_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CalibrationGrid((bad,), (0.5,), (0.3,))
        with pytest.raises(ValueError, match="finite"):
            CalibrationGrid((0.4,), (bad,), (0.3,))
        with pytest.raises(ValueError, match="finite"):
            CalibrationGrid((0.4,), (0.5,), (0.3, bad))


def cell_reports(counts, intervals_total):
    """One report per cell of a ``calibrate`` count array, in grid
    order."""
    events, false_alarms, detected = counts.reshape(3, -1).tolist()
    return [EvalReport(
        detection_rate_pct=(100.0 * d / intervals_total if intervals_total
                            else 100.0),
        false_alarms=f, events_total=e, intervals_total=intervals_total,
        detected_intervals=d) for e, f, d in zip(events, false_alarms,
                                                 detected)]


def beta_sweep(config, pairs, intervals, betas):
    """What ``calibrate --beta-list`` writes, as reports: ``calibrate`` on
    the config's one ret and alpha over the sorted betas, then one column
    per beta in the given order, repeats included."""
    ordered = sorted(betas)
    _, report, counts = calibrate(
        replay_trace(pairs, config.mat), intervals,
        CalibrationGrid((config.ret,), (config.alpha,), ordered))
    columns = np.searchsorted(ordered, betas, side="right") - 1
    return cell_reports(counts[..., columns], report.intervals_total)


class TestBetaSweep:
    def test_columns_in_given_order_match_direct_evaluate(self, rng):
        pairs, intervals = synthetic_pairs(rng)
        base = DetectorConfig(ret=0.4, beta=0.5, mat=12, alpha=0.66)
        betas = [0.69, 0.66, 0.62, 0.52, 0.66]
        assert beta_sweep(base, pairs, intervals, betas) == [
            streaming_row(pairs, intervals, 0.4, 0.66, beta, 12)
            for beta in betas]

    def test_detection_rate_monotone_as_beta_decreases(self, rng):
        # structural: lowering beta only grows the alarmed-step set
        for trial in range(3):
            pairs = [(s, float(rng.uniform(1, 50)), float(rng.uniform(1, 50)))
                     for s in range(250)]
            base = DetectorConfig(ret=float(rng.uniform(0.2, 0.8)), beta=0.5,
                                  mat=10, alpha=0.4)
            betas = sorted(rng.uniform(0, 1.5, size=6), reverse=True)
            reports = beta_sweep(base, pairs, [(60, 90), (170, 200)], betas)
            rates = [r.detection_rate_pct for r in reports]
            assert all(a <= b for a, b in zip(rates, rates[1:]))


class TestReplayTrace:
    @pytest.mark.parametrize("pair", [(3, float("nan"), 1.0),
                                      (3, 1.0, float("inf")),
                                      (3, float("-inf"), 1.0)])
    def test_non_finite_pair_rejected(self, pair):
        pairs = [(s, 1.0, 0.9) for s in range(3)] + [pair]
        with pytest.raises(DataError, match="step 3"):
            replay_trace(pairs, 2)

    @pytest.mark.parametrize("mat", [0, -1])
    def test_window_of_no_steps_rejected(self, mat):
        with pytest.raises(ValueError, match="mat must be >= 1"):
            replay_trace([(s, 1.0, 0.9) for s in range(3)], mat)


@st.composite
def sweep_cases(draw):
    """A random stream, attack intervals and a small threshold grid.

    Steps may skip (gaps of 1-3), actuals may be zero, ``mat`` may exceed
    the stream, every prediction may be exact (no step can alarm) or off
    (every step past warmup alarms at the smallest thresholds), and the
    intervals may reach past either end of the stream.  A ret may exceed
    every error, and the alphas come from a ladder finer than any
    ``k/mat`` step, so cells often share their candidate steps.
    """
    n = draw(st.integers(1, 40))
    gaps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    steps = np.cumsum(gaps) + draw(st.integers(0, 5))
    actual = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    errors = draw(st.sampled_from(["none", "all", "random"]))
    if errors == "none":
        predicted = list(actual)
    elif errors == "all":
        predicted = [a + 1 for a in actual]
    else:
        predicted = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    pairs = [(int(s), float(a), float(p))
             for s, a, p in zip(steps, actual, predicted)]
    lo, hi = int(steps[0]) - 2, int(steps[-1]) + 2
    points = sorted(draw(st.sets(st.integers(lo, hi), max_size=6)))
    intervals = []
    for start, following in zip(points, points[1:] + [hi + 1]):
        if draw(st.booleans()):
            intervals.append((start, draw(st.integers(start, following - 1))))
    thresholds = st.sampled_from([1e-9, 0.1, 0.3, 0.5, 1.0, 2.0, 1e9])
    rets = sorted(draw(st.lists(thresholds, min_size=1, max_size=3)))
    ladder = st.sampled_from([k / 20 for k in range(21)])
    alphas = sorted(draw(st.lists(ladder, min_size=1, max_size=4)))
    betas = draw(st.lists(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0, 1e9]),
                          min_size=1, max_size=4))
    mat = draw(st.integers(1, 8))
    return pairs, intervals, rets, alphas, betas, mat


def streaming_row(pairs, intervals, ret, alpha, beta, mat):
    """The streaming reference: Detector, then segment_alarms and
    evaluate_events (through ``evaluate``)."""
    detector = Detector(DetectorConfig(ret=ret, beta=beta, mat=mat,
                                       alpha=alpha))
    return evaluate([detector.step(*p) for p in pairs], intervals)


def _errors_at(steps, erroneous):
    """Rows at ``steps`` with relative error 0.5 at the steps in
    ``erroneous`` and 0 elsewhere."""
    return [(s, 4.0, 2.0 if s in erroneous else 4.0) for s in steps]


# Streams on which the sweep's counts have a case of their own to get
# right; each is checked against the streaming reference like any other.
COUNTING_CASES = [
    # Normal steps 8-9 join intervals (5, 7) and (10, 12) into one event.
    (_errors_at(range(18), range(4, 14)), [(5, 7), (10, 12)],
     [0.1], [0.0, 0.5], [0.0, 0.2], 2),
    # An alarm run starts inside (5, 8) and runs past its end.
    (_errors_at(range(18), range(6, 13)), [(5, 8)],
     [0.1], [0.0, 0.5], [0.0], 2),
    # Steps 8-12 are normal between (5, 7) and (13, 15), but step 10 is
    # missing, so the alarmed run there splits into two events.
    (_errors_at([s for s in range(22) if s != 10], range(4, 18)),
     [(5, 7), (13, 15)], [0.1], [0.0, 0.5], [0.0], 2),
    # Interval (11, 13) holds no step of the stream.
    (_errors_at([s for s in range(25) if not 10 <= s <= 14], range(2, 19)),
     [(3, 4), (11, 13)], [0.1], [0.0], [0.0, 0.2], 2),
    # mat exceeds the stream, so every step is warmup.
    (_errors_at(range(5), range(5)), [(1, 2)], [0.1], [0.0], [0.0], 8),
]


def with_counting_cases(test):
    for case in COUNTING_CASES:
        test = example(case=case)(test)
    return test


class TestSweepMatchesStreamingReference:
    @given(case=sweep_cases())
    @with_counting_cases
    def test_beta_sweep_columns(self, case):
        pairs, intervals, rets, alphas, betas, mat = case
        base = DetectorConfig(ret=rets[0], beta=0.0, mat=mat, alpha=alphas[0])
        try:
            reports = beta_sweep(base, pairs, intervals, betas)
        except DataError:
            return    # test_calibrate_counts checks when calibrate refuses
        assert reports == [streaming_row(pairs, intervals, rets[0],
                                         alphas[0], beta, mat)
                           for beta in betas]

    @given(case=sweep_cases())
    @with_counting_cases
    # Cells (0.1, 0.5) and (0.3, 0.0) each have nine candidate steps, but
    # not the same nine, and they score differently.
    @example(case=([(s, 4.0, p) for s, p in enumerate(
        [4.0, 2.0, 2.0, 4.0, 3.0, 2.0, 4.0, 4.0, 4.0, 3.0, 3.0, 2.0, 3.0,
         3.0])], [(7, 8)], [0.1, 0.3], [0.0, 0.5], [0.0], 3))
    def test_calibrate_counts(self, case):
        pairs, intervals, rets, alphas, betas, mat = case
        trace = replay_trace(pairs, mat)
        grid = CalibrationGrid(rets, alphas, sorted(betas))
        normal = sum(not any(a <= s <= b for a, b in intervals)
                     for s, _, _ in pairs)
        if not intervals or normal < mat:
            with pytest.raises(DataError):
                calibrate(trace, intervals, grid)
            return
        config, report, counts = calibrate(trace, intervals, grid)
        assert counts.shape == (3, len(rets), len(alphas), len(betas))
        assert cell_reports(counts, len(intervals)) == [
            streaming_row(pairs, intervals, r, a, b, mat)
            for r, a, b in itertools.product(grid.ret_candidates,
                                             grid.alpha_candidates,
                                             grid.beta_candidates)]
        assert report == streaming_row(pairs, intervals, config.ret,
                                       config.alpha, config.beta, mat)


@st.composite
def selection_cases(draw):
    """A small grid and a random count array for it, with many ties:
    candidate values repeat, 0.0 and -0.0 may both be alphas or betas, in
    either order, and each cell takes one of at most three count
    triples."""
    def candidates(values):
        return sorted(draw(st.lists(st.sampled_from(values), min_size=1,
                                    max_size=3)))
    grid = CalibrationGrid(candidates([0.1, 0.2, 0.5]),
                           candidates([0.0, -0.0, 0.5, 1.0]),
                           candidates([0.0, -0.0, 0.3, 2.0]))
    intervals_total = draw(st.integers(1, 3))
    shape = (len(grid.ret_candidates), len(grid.alpha_candidates),
             len(grid.beta_candidates))
    palette = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2),
                                      st.integers(0, intervals_total)),
                            min_size=1, max_size=3))
    cells = draw(st.lists(st.sampled_from(palette),
                          min_size=math.prod(shape),
                          max_size=math.prod(shape)))
    counts = np.array(cells, dtype=np.int64).T.reshape(3, *shape)
    return grid, counts, intervals_total


def max_rule(grid, counts, intervals_total):
    """The selection as a ``max`` over one row per cell in grid order:
    ``max`` keeps the first of equal rows."""
    rows = zip(itertools.product(grid.ret_candidates, grid.alpha_candidates,
                                 grid.beta_candidates),
               cell_reports(counts, intervals_total))
    (ret, alpha, beta), report = max(rows, key=lambda row: (
        row[1].detection_rate_pct, -row[1].false_alarms, row[0][2],
        row[0][1], row[0][0]))
    return (ret, alpha, beta), report


@given(case=selection_cases())
# Every cell ties, and -0.0 comes before 0.0 among the betas.
@example(case=(CalibrationGrid((0.1, 0.1), (0.5,), (-0.0, 0.0)),
               np.ones((3, 2, 1, 2), dtype=np.int64), 1))
# Of the three cells that tie, the largest beta wins over the largest
# alpha.
@example(case=(CalibrationGrid((0.1,), (0.5, 1.0), (0.3, 2.0)),
               np.array([[[[1, 1], [1, 1]]], [[[0, 0], [0, 0]]],
                         [[[1, 1], [1, 0]]]]), 1))
def test_selection_matches_max_rule(case):
    grid, counts, intervals_total = case
    config, report = _select(counts, grid, 7, intervals_total)
    cell, expected = max_rule(grid, counts, intervals_total)
    assert [v.hex() for v in (config.ret, config.alpha, config.beta)] == \
        [v.hex() for v in cell]
    assert config.mat == 7
    assert report == expected
    assert type(report.detection_rate_pct) is float
    assert all(type(v) is int for v in (
        report.false_alarms, report.events_total, report.intervals_total,
        report.detected_intervals))


class TestDefaultGrid:
    def test_contains_published_operating_points(self, rng):
        pairs, _ = synthetic_pairs(rng)
        grid = default_grid(replay_trace(pairs, 12))
        assert 0.66 in grid.alpha_candidates
        assert grid.alpha_candidates == DEFAULT_ALPHAS
        assert len(grid.ret_candidates) == 20
        assert len(grid.beta_candidates) == 20

    def test_ret_candidates_span_re_quantiles(self, rng):
        pairs, _ = synthetic_pairs(rng)
        trace = replay_trace(pairs, 12)
        grid = default_grid(trace)
        assert grid.ret_candidates[0] == float(np.quantile(trace.re, 0.5))
        assert grid.ret_candidates[-1] == float(np.quantile(trace.re, 0.999))

    def test_stream_shorter_than_mat_rejected(self):
        pairs = [(s, 1.0, 0.9) for s in range(5)]
        with pytest.raises(DataError):
            default_grid(replay_trace(pairs, 12))

    def test_calibrate_does_not_import_numpy_ma(self):
        # np.quantile's first call imports numpy.ma, which costs more than
        # the whole grid; a fresh interpreter shows whether any call does.
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from synwatch.calibration import (calibrate, default_grid,\n"
            "                                  replay_trace)\n"
            "rng = np.random.default_rng(5)\n"
            "re = rng.uniform(0.0, 0.2, 200)\n"
            "re[80:100] += 0.8\n"
            "pairs = np.column_stack((np.arange(200), np.ones(200), 1 - re))\n"
            "trace = replay_trace(pairs, 12)\n"
            "calibrate(trace, [(80, 99)], default_grid(trace))\n"
            "print('numpy.ma' in sys.modules)\n")
        src = str(Path(synwatch.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestQuantile:
    values = st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                                st.floats(allow_nan=False,
                                          allow_infinity=False)),
                      min_size=1, max_size=3000)
    fractions = st.one_of(st.sampled_from([0.0, 0.5, 0.999, 1.0]),
                          st.floats(0.0, 1.0))

    @given(values=values, q=fractions)
    @example(values=[-0.0], q=1.0)
    @example(values=[-1.0, -0.0], q=1.0)   # numpy gives 0.0 here
    @example(values=[-0.0, -0.0, 3.0], q=0.25)
    def test_equals_numpy_quantile_bit_for_bit(self, values, q):
        x = np.array(values)
        expected = float(np.quantile(x, q))
        got = _quantile(np.sort(x), q)
        zeros = np.signbit(x[x == 0])
        if expected == 0 and zeros.any() and not zeros.all():
            # 0.0 and -0.0 tie, so where a sort or numpy's partition puts
            # each depends on the input order, and so may the sign of a
            # zero quantile: np.quantile of a permutation can differ too.
            assert got == 0
        else:
            assert np.float64(got).tobytes() == \
                np.float64(expected).tobytes()


def sweep_line(ret, alpha, beta, report):
    return (f"{ret:.17g},{alpha:.17g},{beta:.17g},"
            f"{report.detection_rate_pct:.17g},{report.false_alarms},"
            f"{report.events_total}")


def test_write_sweep_format(tmp_path, rng):
    pairs, intervals = synthetic_pairs(rng)
    trace = replay_trace(pairs, 12)
    grid = default_grid(trace)
    _, report, counts = calibrate(trace, intervals, grid)
    path = tmp_path / "sweep.csv"
    write_sweep(path, grid.ret_candidates, grid.alpha_candidates,
                grid.beta_candidates, counts, report.intervals_total)
    lines = path.read_text().splitlines()
    assert lines[0] == "ret,alpha,beta,detection_rate_pct,false_alarms,events_total"
    assert lines[1:] == [
        sweep_line(*cell, cell_report) for cell, cell_report in zip(
            itertools.product(grid.ret_candidates, grid.alpha_candidates,
                              grid.beta_candidates),
            cell_reports(counts, report.intervals_total))]
    # A repeated value prints in full each time, and 0.0 and -0.0 keep
    # their signs.
    counts = np.arange(3 * 2 * 2 * 3).reshape(3, 2, 2, 3) % 3
    write_sweep(path, (1.0, 1.0), (-0.0, 0.0), (0.0, -0.0, 0.0), counts, 2)
    lines = path.read_text().splitlines()[1:]
    assert len(lines) == 12
    assert lines[:3] == ["1,-0,0,0,0,0", "1,-0,-0,50,1,1", "1,-0,0,100,2,2"]
    assert lines[3:6] == ["1,0,0,0,0,0", "1,0,-0,50,1,1", "1,0,0,100,2,2"]
    assert lines[6:] == lines[:6]


def pinned_stream():
    """2,000 rows from Python's own generator, so no LSTM, BLAS or numpy
    random stream is involved: noise of up to 6% off the actual count, up
    to 30% inside most attack steps, and a one-step gap now and then.  Two
    of the eight intervals touch."""
    gen = random.Random(20)
    intervals = [(150, 179), (400, 415), (416, 440), (700, 712), (905, 909),
                 (1203, 1260), (1500, 1530), (1777, 1790)]
    pairs, step = [], 0
    while len(pairs) < 2000:
        step += 2 if gen.random() < 0.01 else 1
        actual = float(80 + int(gen.random() * 40))
        attack = any(s <= step <= e for s, e in intervals)
        spread = 0.6 if attack and gen.random() < 0.7 else 0.12
        pairs.append((step, actual,
                      actual * (1 + spread * (gen.random() - 0.5))))
    return pairs, intervals


def test_sweep_files_are_pinned(tmp_path):
    # Both files' sha256 are pinned on every machine: any change to a
    # count, a row's order or a value's digits shows here.
    pairs, intervals = pinned_stream()
    grid = CalibrationGrid((0.01, 0.02, 0.04, 0.08, 0.16, 0.32),
                           DEFAULT_ALPHAS,
                           (0.0, 0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.2))
    trace = replay_trace(pairs, 12)
    config, report, counts = calibrate(trace, intervals, grid)
    assert config.to_text() == ("ret=0.01 mat=12 alpha=0.71999999999999997 "
                                "beta=0.050000000000000003")
    assert (report.detected_intervals, report.false_alarms,
            report.events_total) == (8, 3, 11)
    write_sweep(tmp_path / "grid.csv", grid.ret_candidates,
                grid.alpha_candidates, grid.beta_candidates, counts,
                report.intervals_total)
    # A beta sweep at the selected cell, as calibrate --beta-list writes
    # it; 0.3 lies outside the grid.
    betas = [0.05, 0.0, 0.12, 0.05, 0.3]
    ordered = sorted(betas)
    _, report, counts = calibrate(trace, intervals, CalibrationGrid(
        (config.ret,), (config.alpha,), ordered))
    columns = np.searchsorted(ordered, betas, side="right") - 1
    write_sweep(tmp_path / "betas.csv", (config.ret,), (config.alpha,),
                betas, counts[..., columns], report.intervals_total)
    assert hashlib.sha256((tmp_path / "grid.csv").read_bytes()).hexdigest() \
        == "c01fde70dd79db166e48990b423b0f0689ef3bc2a6f5eb7301fd0de7e53dd4d9"
    assert hashlib.sha256((tmp_path / "betas.csv").read_bytes()).hexdigest() \
        == "3cc09e293594fff734621ce8f975e93fdfe492737c66a302257689dfb46263ac"
