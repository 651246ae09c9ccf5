"""Ingestion, aggregation, scaling, windowing, splitting, synthesis, IO."""

import io
import re
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synwatch.errors import DataError
from synwatch.pipeline import (EPOCH, LabeledTimeSeries, Scaler, SynthConfig,
                               TimeSeries, _parse_timestamp,
                               _timestamp_us_parser, aggregate_counts,
                               build_windows,
                               fit_scaler, generate_synthetic,
                               intervals_from_labels, labels_from_intervals,
                               load_scaler, load_series, load_tshark_csv,
                               save_scaler, save_series, scale_windows,
                               split_protocol)

T0 = datetime(1999, 3, 11, 8, 0, 0)

TSHARK_HEADER = "frame.number,frame.len,frame.time,ip.proto"


def tshark_csv(rows):
    return TSHARK_HEADER + "\n" + "\n".join(rows) + "\n"


def us(when: datetime) -> int:
    """Microseconds since the ingest epoch."""
    return (when - EPOCH) // timedelta(microseconds=1)


class TestLoadTsharkCsv:
    def test_three_valid_rows(self):
        text = tshark_csv([
            '1,60,"Mar 11, 1999 08:00:00.000001000",6',
            '2,60,"Mar 11, 1999 08:00:00.500000000",6',
            '3,1500,"Mar 11, 1999 08:00:01.250000000 GMT",6',
        ])
        result = load_tshark_csv(io.StringIO(text))
        assert not result.rejected
        assert result.timestamps_us.dtype == np.int64
        np.testing.assert_array_equal(result.timestamps_us, [
            us(T0) + 1, us(T0) + 500_000, us(T0) + 1_250_000])

    def test_iso_timestamps_accepted(self):
        text = tshark_csv(["1,60,1999-03-11T08:00:05.125,6",
                           "2,70,1999-03-11 08:00:06,17",
                           "3,70,1999-03-11T10:00:07.5+02:00,17",
                           "4,70,1999-03-11T08:00:08.25Z,17"])
        result = load_tshark_csv(io.StringIO(text))
        assert not result.rejected
        np.testing.assert_array_equal(result.timestamps_us, [
            us(T0) + 5_125_000, us(T0) + 6_000_000, us(T0) + 7_500_000,
            us(T0) + 8_250_000])

    def test_fraction_truncated_to_microseconds(self):
        text = tshark_csv(['1,60,"Mar 11, 1999 08:00:00.1234569 UTC",6',
                           '2,60,"Mar 11, 1999 08:00:00.5",6',
                           '3,60,"Mar 11, 1999 08:00:00",6',
                           "4,60,1999-03-11T08:00:01.9999999,6"])
        result = load_tshark_csv(io.StringIO(text))
        np.testing.assert_array_equal(result.timestamps_us - us(T0),
                                      [0, 123_456, 500_000, 1_999_999])

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
        assert len(result.timestamps_us) == 9
        assert result.rejected == [
            (5, "unrecognized timestamp: 'not a timestamp'")]
        assert result.rejected_by_reason["bad_timestamp"] == 1

    def test_records_sorted_by_timestamp(self):
        text = tshark_csv(["2,60,1999-03-11T08:00:02,6",
                           '1,60,"Mar 11, 1999 08:00:01.000000000",6',
                           "3,60,1999-03-11T08:00:03,6",
                           "4,60,1999-03-11T08:00:01,6"])
        result = load_tshark_csv(io.StringIO(text))
        np.testing.assert_array_equal(
            result.timestamps_us - us(T0),
            [1_000_000, 1_000_000, 2_000_000, 3_000_000])

    def test_accepts_bytes_and_path(self, tmp_path):
        text = tshark_csv(["1,60,1999-03-11T08:00:01,6"])
        assert len(load_tshark_csv(text.encode()).timestamps_us) == 1
        path = tmp_path / "packets.csv"
        path.write_text(text)
        assert len(load_tshark_csv(path).timestamps_us) == 1

    def test_short_row_rejected(self):
        text = tshark_csv(["1,60,1999-03-11T08:00:01,6", "2,60"])
        result = load_tshark_csv(io.StringIO(text))
        assert len(result.timestamps_us) == 1
        assert result.rejected == [(2, "expected >= 4 fields, got 2")]
        assert result.rejected_by_reason["short_row"] == 1

    def test_rejections_counted_by_reason(self):
        good = "1999-03-11T08:00:01"
        rows = [f"1,60,{good},6",
                "2,60",                          # short row
                f"x3,60,{good},6",               # bad frame.number
                f"4, 6 0 ,{good},6",             # bad frame.len
                f"5,60,{good},tcp",              # bad ip.proto
                "6,60,1999-02-30T08:00:01,6",    # no such day
                f"7,-60,{good},6",               # negative frame.len
                "8,-60,bad,6",                   # the timestamp fails first
                "x9,60,bad,6",                   # the integer fails first
                f"10,-60,{good},udp",            # ip.proto fails first
                "11,60,0001-01-01T00:00:00+01:00,6",
                "",                              # blank lines are skipped
                f"13,60,{good},6"]
        result = load_tshark_csv(io.StringIO(tshark_csv(rows)))
        assert len(result.timestamps_us) == 2
        assert result.rejected == [
            (2, "expected >= 4 fields, got 2"),
            (3, "invalid literal for int() with base 10: 'x3'"),
            (4, "invalid literal for int() with base 10: '6 0'"),
            (5, "invalid literal for int() with base 10: 'tcp'"),
            (6, "unrecognized timestamp: '1999-02-30T08:00:01'"),
            (7, "negative frame.len"),
            (8, "unrecognized timestamp: 'bad'"),
            (9, "invalid literal for int() with base 10: 'x9'"),
            (10, "invalid literal for int() with base 10: 'udp'"),
            (11, "timestamp out of range in UTC: "
                 "'0001-01-01T00:00:00+01:00'"),
        ]
        assert result.rejected_by_reason == {
            "short_row": 1, "bad_integer": 5, "bad_timestamp": 3,
            "negative_length": 1}

    def test_nothing_accepted_gives_empty_array(self):
        result = load_tshark_csv(io.StringIO(tshark_csv(["1,60"])))
        assert result.timestamps_us.dtype == np.int64
        assert result.timestamps_us.shape == (0,)


MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep",
          "Oct", "Nov", "Dec")


@st.composite
def timestamp_stems(draw):
    """A timestamp text with a slot for its fraction: ISO-8601 or tshark's
    frame.time, now and then with a field out of range or the seconds
    left out, ``.`` or ``,`` before the fraction, and a zone suffix that is
    empty, ``Z``, an offset (with seconds and a fraction, too) or a name."""
    year = draw(st.sampled_from([1, 1969, 1970, 1999, 2000, 2024, 9999]))
    fields = [draw(st.integers(1, 12)), draw(st.integers(1, 31)),
              draw(st.integers(0, 23)), draw(st.integers(0, 59)),
              draw(st.integers(0, 59))]
    broken = draw(st.integers(0, 14))
    if broken < len(fields):
        fields[broken] = draw(st.sampled_from(([0, 13], [0, 32], [24],
                                               [60], [60])[broken]))
    month, day, hour, minute, second = fields
    clock = f"{hour:02d}:{minute:02d}"
    if draw(st.integers(0, 5)):
        clock += f":{second:02d}"
    if draw(st.booleans()):
        sep = draw(st.sampled_from("T "))
        head = f"{year:04d}-{month:02d}-{day:02d}{sep}{clock}"
        zones = ["", "Z", "+02:00", "-05:30", "+23:59", "+24:00",
                 "+02:00:00.5", "-01:00:30", " UTC"]
    else:
        name = MONTHS[month - 1] if 1 <= month <= 12 else "Foo"
        head = f"{name} {day:2d}, {year:04d} {clock}"
        zones = ["", " UTC", " GMT", " CEST", " America/New_York", " +0100",
                 "Z", "+02:00"]
    mark = draw(st.sampled_from("..,"))
    return head, mark, draw(st.sampled_from(zones))


class TestTimestampParser:
    """The memoised path of ``load_tshark_csv`` against the full parse."""

    @staticmethod
    def outcome(parse, text):
        try:
            return parse(text)
        except ValueError as exc:
            return f"error: {exc}"

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(stems=st.lists(timestamp_stems(), min_size=1, max_size=4),
           picks=st.lists(st.tuples(st.integers(0, 3),
                                    st.text("0123456789", max_size=13)),
                          min_size=1, max_size=25))
    def test_equals_full_parse(self, stems, picks):
        # one parser over texts that share stems exercises its memo
        fast = _timestamp_us_parser()
        for index, digits in picks:
            head, mark, zone = stems[index % len(stems)]
            text = head + (mark + digits if digits else "") + zone
            expected = self.outcome(
                lambda t: us(_parse_timestamp(t)), text)
            assert self.outcome(fast, text) == expected, text

    def test_memo_keeps_each_second_and_zone_apart(self):
        fast = _timestamp_us_parser()
        texts = [f"Mar 11, 1999 08:00:{s:02d}.25{zone}"
                 for s in (1, 2, 11, 1) for zone in ("", " UTC", " CET")]
        assert [fast(t) for t in texts] == [
            us(_parse_timestamp(t)) for t in texts]

    def test_bad_text_with_a_known_prefix_is_still_rejected(self):
        fast = _timestamp_us_parser()
        assert fast("Mar 11, 1999 08:00:00.5 UTC") == us(T0) + 500_000
        for text in ("Mar 11, 1999 08:00:00.5x UTC",
                     "Mar 11, 1999 08:00:00. UTC"):
            with pytest.raises(ValueError, match=f"unrecognized timestamp: "
                                                 f"'{text}'"):
                fast(text)


class TestAggregateCounts:
    @staticmethod
    def stamps(offsets_seconds):
        return np.array([us(T0 + timedelta(seconds=s))
                         for s in offsets_seconds], dtype=np.int64)

    def test_no_records_gives_zeros(self):
        series = aggregate_counts(np.zeros(0, dtype=np.int64), 1.0,
                                  T0, T0 + timedelta(seconds=10))
        np.testing.assert_array_equal(series.values, np.zeros(10))

    def test_counts_land_in_their_step(self):
        series = aggregate_counts(self.stamps([2.1, 2.5, 2.9, 2.0, 2.999]),
                                  1.0, T0, T0 + timedelta(seconds=4))
        np.testing.assert_array_equal(series.values, [0, 0, 5, 0])
        assert series.values.dtype == np.float64

    def test_conservation_on_uniform_fixture(self):
        rng = np.random.default_rng(100)
        offsets = rng.uniform(0, 100, size=1000)
        series = aggregate_counts(self.stamps(offsets), 1.0,
                                  T0, T0 + timedelta(seconds=100))
        assert len(series) == 100
        assert series.values.sum() == 1000

    def test_out_of_range_records_ignored(self):
        series = aggregate_counts(self.stamps([-0.5, 0.5, 9.5, 10.5]), 1.0,
                                  T0, T0 + timedelta(seconds=10))
        np.testing.assert_array_equal(series.values,
                                      [1, 0, 0, 0, 0, 0, 0, 0, 0, 1])

    def test_range_edges(self):
        # start is inside the range and end is not, to the microsecond
        start_us, end_us = us(T0), us(T0) + 3_000_000
        stamps = np.array([start_us - 1, start_us, end_us - 1, end_us])
        series = aggregate_counts(stamps, 1.0, T0,
                                  T0 + timedelta(seconds=3))
        np.testing.assert_array_equal(series.values, [1, 0, 1])

    def test_partial_last_step(self):
        series = aggregate_counts(self.stamps([2.4]), 1.0,
                                  T0, T0 + timedelta(seconds=2.5))
        assert len(series) == 3
        assert series.values[2] == 1

    def test_step_longer_than_range(self):
        series = aggregate_counts(self.stamps([0.5, 1.5]), 1e13,
                                  T0, T0 + timedelta(seconds=2))
        np.testing.assert_array_equal(series.values, [2])

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(offsets=st.lists(st.integers(-5_000, 50_000), max_size=60),
           step_us=st.integers(1, 7_000), total_us=st.integers(1, 40_000))
    def test_equals_per_packet_count(self, offsets, step_us, total_us):
        end = T0 + timedelta(microseconds=total_us)
        series = aggregate_counts(np.array(offsets, dtype=np.int64) + us(T0),
                                  step_us / 1e6, T0, end)
        expected = np.zeros(-(-total_us // step_us))
        for offset in offsets:
            if 0 <= offset < total_us:
                expected[offset // step_us] += 1
        np.testing.assert_array_equal(series.values, expected)

    def test_preconditions(self):
        for step in (0.0, -1.0, 1e-7, np.nan, np.inf, 1e303):
            with pytest.raises(ValueError, match="step_duration"):
                aggregate_counts([], step, T0, T0 + timedelta(seconds=1))
        with pytest.raises(ValueError, match="start must precede end"):
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

    @pytest.mark.parametrize("offset, scale", [
        (np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (0.0, np.nan),
        (0.0, np.inf), (0.0, -1.0)])
    def test_offset_and_scale_must_be_finite(self, offset, scale):
        with pytest.raises(ValueError, match="must be finite"):
            Scaler(offset=offset, scale=scale)

    @pytest.mark.parametrize("text", [
        "offset=0 scale=-1", "offset=0 scale=0", "offset=x scale=1",
        "offset=nan scale=1", "offset=0 scale=inf", "offset=1 scale=nan"])
    def test_bad_scaler_file_is_data_error_naming_it(self, tmp_path, text):
        path = tmp_path / "model.txt.scaler"
        path.write_text(text + "\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: ")):
            load_scaler(path)

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

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(values=st.lists(st.floats(min_value=0.0, allow_infinity=False)
                           | st.just(-0.0), min_size=2, max_size=40),
           start=st.datetimes(max_value=datetime(9000, 1, 1)),
           step_us=st.integers(1, 10**9),
           attack=st.none() | st.lists(st.booleans(), min_size=40,
                                       max_size=40),
           seed=st.none() | st.integers(0, 2**63))
    def test_random_series_round_trip_bit_exact(self, values, start, step_us,
                                                attack, seed):
        step = timedelta(microseconds=step_us).total_seconds()
        series = TimeSeries(start, step, values)
        data = series
        if attack is not None:
            labels = np.array(attack[:len(values)])
            data = LabeledTimeSeries(
                series, labels, attack_intervals=intervals_from_labels(labels))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.csv"
            save_series(path, data, seed=seed)
            loaded = load_series(path)
        assert type(loaded) is type(data)
        if attack is not None:
            np.testing.assert_array_equal(loaded.labels, data.labels)
            assert loaded.attack_intervals == data.attack_intervals
            loaded = loaded.series
        np.testing.assert_array_equal(loaded.values.view(np.uint64),
                                      series.values.view(np.uint64))
        assert loaded.start_time == start
        assert loaded.step_duration == step

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
