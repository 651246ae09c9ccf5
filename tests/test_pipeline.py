"""Ingestion, aggregation, scaling, windowing, splitting, synthesis, IO."""

import io
from datetime import datetime, timedelta

import numpy as np
import pytest

from synwatch.errors import DataError
from synwatch.pipeline import (LabeledTimeSeries, Scaler, SynthConfig,
                               TimeSeries, aggregate_counts, build_windows,
                               fit_scaler, generate_synthetic,
                               intervals_from_labels, labels_from_intervals,
                               load_scaler, load_series, load_tshark_csv,
                               save_scaler, save_series, scale_windows,
                               split_protocol)

T0 = datetime(1999, 3, 11, 8, 0, 0)

TSHARK_HEADER = "frame.number,frame.len,frame.time,ip.proto"


def tshark_csv(rows):
    return TSHARK_HEADER + "\n" + "\n".join(rows) + "\n"


class TestLoadTsharkCsv:
    def test_three_valid_rows(self):
        text = tshark_csv([
            '1,60,"Mar 11, 1999 08:00:00.000001000",6',
            '2,60,"Mar 11, 1999 08:00:00.500000000",6',
            '3,1500,"Mar 11, 1999 08:00:01.250000000 GMT",6',
        ])
        result = load_tshark_csv(io.StringIO(text))
        assert len(result.records) == 3
        assert not result.rejected
        assert result.records[0].timestamp == T0 + timedelta(microseconds=1)
        assert result.records[2].frame_len == 1500
        assert result.records[2].timestamp == T0 + timedelta(seconds=1.25)

    def test_iso_timestamps_accepted(self):
        text = tshark_csv(["1,60,1999-03-11T08:00:05.125,6",
                           "2,70,1999-03-11 08:00:06,17"])
        result = load_tshark_csv(io.StringIO(text))
        assert len(result.records) == 2
        assert result.records[0].timestamp == T0 + timedelta(seconds=5.125)
        assert result.records[1].ip_proto == 17

    def test_empty_file_is_missing_header(self):
        with pytest.raises(DataError, match="missing header"):
            load_tshark_csv(io.StringIO(""))

    def test_wrong_header_rejected(self):
        with pytest.raises(DataError, match="missing header"):
            load_tshark_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_malformed_timestamp_rejected_with_row_number(self):
        rows = [f'{i},60,"Mar 11, 1999 08:00:{i:02d}.000000000",6'
                for i in range(1, 10)]
        rows.insert(4, '99,60,"not a timestamp",6')
        result = load_tshark_csv(io.StringIO(tshark_csv(rows)))
        assert len(result.records) == 9
        assert len(result.rejected) == 1
        row_no, reason = result.rejected[0]
        assert row_no == 5
        assert "timestamp" in reason

    def test_records_sorted_by_timestamp(self):
        text = tshark_csv(["2,60,1999-03-11T08:00:02,6",
                           "1,60,1999-03-11T08:00:01,6",
                           "3,60,1999-03-11T08:00:03,6"])
        result = load_tshark_csv(io.StringIO(text))
        stamps = [r.timestamp for r in result.records]
        assert stamps == sorted(stamps)

    def test_accepts_bytes_and_path(self, tmp_path):
        text = tshark_csv(["1,60,1999-03-11T08:00:01,6"])
        assert len(load_tshark_csv(text.encode()).records) == 1
        path = tmp_path / "packets.csv"
        path.write_text(text)
        assert len(load_tshark_csv(path).records) == 1

    def test_short_row_rejected(self):
        text = tshark_csv(["1,60,1999-03-11T08:00:01,6", "2,60"])
        result = load_tshark_csv(io.StringIO(text))
        assert len(result.records) == 1
        assert len(result.rejected) == 1


def make_records(offsets_seconds):
    from synwatch.pipeline import PacketRecord
    return [PacketRecord(frame_number=i + 1, frame_len=60,
                         timestamp=T0 + timedelta(seconds=s), ip_proto=6)
            for i, s in enumerate(offsets_seconds)]


class TestAggregateCounts:
    def test_no_records_gives_zeros(self):
        series = aggregate_counts([], 1.0, T0, T0 + timedelta(seconds=10))
        np.testing.assert_array_equal(series.values, np.zeros(10))

    def test_counts_land_in_their_step(self):
        records = make_records([2.1, 2.5, 2.9, 2.0, 2.999])
        series = aggregate_counts(records, 1.0, T0, T0 + timedelta(seconds=4))
        np.testing.assert_array_equal(series.values, [0, 0, 5, 0])

    def test_conservation_on_uniform_fixture(self):
        rng = np.random.default_rng(100)
        offsets = rng.uniform(0, 100, size=1000)
        series = aggregate_counts(make_records(offsets), 1.0,
                                  T0, T0 + timedelta(seconds=100))
        assert len(series) == 100
        assert series.values.sum() == 1000

    def test_out_of_range_records_ignored(self):
        records = make_records([-0.5, 0.5, 9.5, 10.5])
        series = aggregate_counts(records, 1.0, T0, T0 + timedelta(seconds=10))
        assert series.values.sum() == 2

    def test_partial_last_step(self):
        series = aggregate_counts(make_records([2.4]), 1.0,
                                  T0, T0 + timedelta(seconds=2.5))
        assert len(series) == 3
        assert series.values[2] == 1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            aggregate_counts([], 0.0, T0, T0 + timedelta(seconds=1))
        with pytest.raises(ValueError):
            aggregate_counts([], 1.0, T0, T0)


class TestScaler:
    def test_basic_min_max(self):
        scaler = fit_scaler(TimeSeries(T0, 1.0, [0.0, 5.0, 10.0]))
        assert scaler.offset == 0.0 and scaler.scale == 10.0
        np.testing.assert_allclose(scaler.apply([0, 5, 10]), [0, 0.5, 1])

    def test_constant_series_rule(self):
        scaler = fit_scaler(TimeSeries(T0, 1.0, [7.0, 7.0, 7.0]))
        assert scaler.offset == 7.0 and scaler.scale == 1.0
        np.testing.assert_array_equal(scaler.apply([7.0, 7.0]), [0.0, 0.0])

    def test_round_trip_identity(self, rng):
        values = rng.uniform(0, 500, size=200)
        scaler = fit_scaler(TimeSeries(T0, 1.0, values))
        back = scaler.invert(scaler.apply(values))
        np.testing.assert_allclose(back, values, rtol=1e-12)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            Scaler(offset=0.0, scale=0.0)

    def test_file_round_trip(self, tmp_path):
        scaler = Scaler(offset=3.25, scale=197.125)
        path = tmp_path / "model.scaler"
        save_scaler(path, scaler)
        loaded = load_scaler(path)
        assert loaded.offset == scaler.offset
        assert loaded.scale == scaler.scale


class TestBuildWindows:
    def test_lag3_example(self):
        series = TimeSeries(T0, 1.0, [1.0, 2.0, 3.0, 4.0, 5.0])
        ws = build_windows(series, 3)
        np.testing.assert_array_equal(ws.inputs, [[1, 2, 3], [2, 3, 4]])
        np.testing.assert_array_equal(ws.targets, [4, 5])
        np.testing.assert_array_equal(ws.origin_steps, [2, 3])

    def test_window_count_formula(self):
        series = TimeSeries(T0, 1.0, [1.0, 2.0, 3.0, 4.0])
        assert len(build_windows(series, 3)) == 1
        for lag in (1, 2, 3):
            n = len(build_windows(TimeSeries(T0, 1.0, np.arange(9.0)), lag))
            assert n == 9 - lag

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            build_windows(TimeSeries(T0, 1.0, [1.0, 2.0, 3.0]), 3)

    def test_bad_lag_rejected(self):
        series = TimeSeries(T0, 1.0, np.arange(10.0))
        for bad in (0, 4):
            with pytest.raises(ValueError):
                build_windows(series, bad)

    def test_windows_reconstruct_series(self, rng):
        values = rng.uniform(0, 50, size=40)
        for lag in (1, 2, 3):
            ws = build_windows(TimeSeries(T0, 1.0, values), lag)
            rebuilt = np.concatenate([values[:lag], ws.targets])
            np.testing.assert_array_equal(rebuilt, values)
            newest = ws.inputs[:, -1]
            np.testing.assert_array_equal(newest, values[lag - 1:-1])

    def test_scale_windows(self, rng):
        values = rng.uniform(0, 50, size=30)
        series = TimeSeries(T0, 1.0, values)
        scaler = fit_scaler(series)
        ws = scale_windows(build_windows(series, 2), scaler)
        assert ws.inputs.min() >= 0.0 and ws.inputs.max() <= 1.0


def labeled_series(values, intervals):
    values = np.asarray(values, dtype=float)
    labels = labels_from_intervals(len(values), intervals)
    return LabeledTimeSeries(series=TimeSeries(T0, 1.0, values),
                             labels=labels, attack_intervals=intervals)


class TestSplitProtocol:
    def test_chronological_fractions(self):
        data = labeled_series(np.arange(10.0) + 1, [])
        train, val, test = split_protocol(data, 0.4, 0.2)
        np.testing.assert_array_equal(train.values, [1, 2, 3, 4])
        np.testing.assert_array_equal(val.series.values, [5, 6])
        np.testing.assert_array_equal(test.series.values, [7, 8, 9, 10])
        assert val.series.start_time == T0 + timedelta(seconds=4)

    def test_contamination_rejected(self):
        data = labeled_series(np.arange(10.0) + 1, [(1, 2)])
        with pytest.raises(DataError, match="training segment"):
            split_protocol(data, 0.4, 0.2)

    def test_attacks_allowed_outside_training(self):
        # the first attack straddles the validation/test boundary at step 12
        data = labeled_series(np.arange(20.0) + 1, [(10, 12), (16, 18)])
        train, val, test = split_protocol(data, 0.4, 0.2)
        assert val.attack_intervals == [(2, 3)]
        assert test.attack_intervals == [(0, 0), (4, 6)]

    def test_segments_cover_and_are_disjoint(self, rng):
        n = 57
        data = labeled_series(rng.uniform(1, 9, size=n), [(50, 52)])
        train, val, test = split_protocol(data, 0.3, 0.25)
        total = np.concatenate(
            [train.values, val.series.values, test.series.values])
        np.testing.assert_array_equal(total, data.series.values)

    def test_degenerate_fractions_rejected(self):
        data = labeled_series(np.arange(10.0) + 1, [])
        for tf, vf in ((0.0, 0.2), (0.5, 0.5), (0.9, 0.2), (-0.1, 0.3)):
            with pytest.raises(ValueError):
                split_protocol(data, tf, vf)


class TestGenerateSynthetic:
    def test_no_attacks_all_normal(self):
        out = generate_synthetic(SynthConfig(length=100, rng_seed=3))
        assert not out.labels.any()
        assert out.attack_intervals == []
        assert np.all(out.series.values >= 0)

    def test_seeded_instance_attacks_dominate_baseline(self):
        config = SynthConfig(length=1000, attack_count=3, rng_seed=2024)
        out = generate_synthetic(config)
        assert len(out.attack_intervals) == 3
        attack_values = out.series.values[out.labels]
        normal_values = out.series.values[~out.labels]
        assert attack_values.min() > normal_values.max()

    def test_interval_lengths_and_separation(self):
        config = SynthConfig(length=2000, attack_count=4, rng_seed=8)
        out = generate_synthetic(config)
        intervals = out.attack_intervals
        for start, end in intervals:
            assert 20 <= end - start + 1 <= 40
        assert intervals[0][0] >= 12
        for (_, e1), (s2, _) in zip(intervals, intervals[1:]):
            assert s2 - e1 - 1 >= 12

    def test_deterministic_per_seed(self):
        config = SynthConfig(length=500, attack_count=2, rng_seed=11)
        a = generate_synthetic(config)
        b = generate_synthetic(config)
        np.testing.assert_array_equal(a.series.values, b.series.values)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.attack_intervals == b.attack_intervals

    def test_labels_match_intervals(self):
        out = generate_synthetic(SynthConfig(length=800, attack_count=3,
                                             rng_seed=5))
        np.testing.assert_array_equal(
            out.labels, labels_from_intervals(len(out), out.attack_intervals))

    def test_infeasible_placement_reported(self):
        with pytest.raises(DataError, match="cannot place"):
            generate_synthetic(SynthConfig(length=100, attack_count=50,
                                           rng_seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(length=0)
        with pytest.raises(ValueError):
            SynthConfig(length=10, attack_multiplier=1.0)
        with pytest.raises(ValueError):
            SynthConfig(length=10, attack_min_len=5, attack_max_len=4)


class TestSeriesFiles:
    def test_unlabeled_round_trip(self, tmp_path, rng):
        series = TimeSeries(T0, 1.0, np.rint(rng.uniform(0, 300, size=25)))
        path = tmp_path / "series.csv"
        save_series(path, series)
        loaded = load_series(path)
        assert isinstance(loaded, TimeSeries)
        np.testing.assert_array_equal(loaded.values, series.values)
        assert loaded.start_time == series.start_time
        assert loaded.step_duration == series.step_duration

    def test_labeled_round_trip_with_seed_comment(self, tmp_path):
        out = generate_synthetic(SynthConfig(length=300, attack_count=2,
                                             rng_seed=21))
        path = tmp_path / "series.csv"
        save_series(path, out, seed=21)
        first_line = path.read_text().splitlines()[0]
        assert first_line == "# seed=21"
        loaded = load_series(path)
        assert isinstance(loaded, LabeledTimeSeries)
        np.testing.assert_array_equal(loaded.series.values, out.series.values)
        np.testing.assert_array_equal(loaded.labels, out.labels)
        assert loaded.attack_intervals == out.attack_intervals

    def test_fractional_step_round_trip(self, tmp_path):
        series = TimeSeries(T0, 0.5, np.arange(8.0))
        path = tmp_path / "series.csv"
        save_series(path, series)
        assert load_series(path).step_duration == 0.5

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3\n")
        with pytest.raises(DataError):
            load_series(path)

    @pytest.mark.parametrize("count, kind", [
        ("nan", "non-finite"), ("inf", "non-finite"), ("-inf", "non-finite"),
        ("-3", "negative")])
    def test_bad_count_rejected_with_row_number(self, tmp_path, count, kind):
        series = TimeSeries(T0, 1.0, np.arange(5.0))
        path = tmp_path / "series.csv"
        save_series(path, series)
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[2] = count
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"row 3: {kind} count"):
            load_series(path)

    @staticmethod
    def write_rows(path, rows):
        path.write_text("step,timestamp,count\n" + "".join(
            f"{step},{(T0 + timedelta(seconds=sec)).isoformat()},1\n"
            for step, sec in rows))

    @pytest.mark.parametrize("seconds, row", [
        ((0, 1, 5, 2), 3), ((0, 1, 5, 2, 3, 4), 3), ((0, 1, 2, 4, 5), 4),
        ((0, 2, 4, 5), 4), ((0, 1, 2, 2), 4), ((0, 1, 2, 3, 1), 5)])
    def test_off_cadence_timestamp_rejected(self, tmp_path, seconds, row):
        path = tmp_path / "series.csv"
        self.write_rows(path, enumerate(seconds))
        expected = (T0 + timedelta(
            seconds=(row - 1) * (seconds[1] - seconds[0]))).isoformat()
        with pytest.raises(DataError, match=f"row {row}: timestamp .* off "
                                            f"the cadence, expected "
                                            f"{expected}"):
            load_series(path)

    @pytest.mark.parametrize("steps, row", [
        ((1, 2, 3), 1), ((0, 1, 3, 3), 3), ((0, 1, 1), 3), ((0, 2), 2),
        ((5,), 1)])
    def test_step_column_must_count_rows(self, tmp_path, steps, row):
        path = tmp_path / "series.csv"
        self.write_rows(path, ((step, i) for i, step in enumerate(steps)))
        with pytest.raises(DataError, match=f"row {row}: step "
                                            f"{steps[row - 1]}, expected "
                                            f"{row - 1}"):
            load_series(path)

    @pytest.mark.parametrize("token", ["1.0", "x", ""])
    def test_non_integer_step_rejected(self, tmp_path, token):
        path = tmp_path / "series.csv"
        self.write_rows(path, [(0, 0), (token, 1)])
        with pytest.raises(DataError, match="row 2:"):
            load_series(path)

    def test_repeated_first_timestamp_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        self.write_rows(path, [(0, 0), (1, 0), (2, 1)])
        with pytest.raises(DataError, match="non-increasing"):
            load_series(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -3.0])
    def test_time_series_rejects_bad_counts(self, bad):
        with pytest.raises(ValueError):
            TimeSeries(T0, 1.0, np.array([1.0, bad, 2.0]))


class TestLabelHelpers:
    def test_round_trip(self):
        labels = np.array([0, 1, 1, 0, 0, 1, 0, 1, 1, 1], dtype=bool)
        intervals = intervals_from_labels(labels)
        assert intervals == [(1, 2), (5, 5), (7, 9)]
        np.testing.assert_array_equal(
            labels_from_intervals(10, intervals), labels)

    def test_out_of_range_interval_rejected(self):
        with pytest.raises(ValueError):
            labels_from_intervals(5, [(3, 7)])
