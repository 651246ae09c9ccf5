"""End-to-end command behavior through click's test runner."""

import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import synwatch
from synwatch.cli import main
from synwatch.detector import DetectorConfig, read_alarms, read_verdicts, \
    segment_alarms
from synwatch.lstm import LstmParams, TrainConfig, load_model, save_model, \
    train
from synwatch.pipeline import (_parse_timestamp, aggregate_counts,
                               build_windows, fit_scaler, scale_windows,
                               load_series, load_tshark_csv)

TSHARK_HEADER = "frame.number,frame.len,frame.time,ip.proto"


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small but complete pipeline run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    runner = CliRunner()
    paths = {
        "train": str(root / "train.csv"),
        "val": str(root / "val.csv"),
        "test": str(root / "test.csv"),
        "model": str(root / "model.txt"),
        "config": str(root / "detector.cfg"),
        "verdicts": str(root / "verdicts.csv"),
    }

    def run(args):
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
        return result

    run(["synth", "--length", "600", "--attacks", "0", "--seed", "101",
         "-o", paths["train"]])
    run(["synth", "--length", "800", "--attacks", "2", "--seed", "202",
         "-o", paths["val"]])
    run(["synth", "--length", "800", "--attacks", "2", "--seed", "303",
         "-o", paths["test"]])
    run(["train", paths["train"], "--epochs", "200", "--hidden", "10",
         "--seed", "0", "-o", paths["model"]])
    run(["calibrate", paths["model"], paths["val"], "-o", paths["config"]])
    detect_result = run(["detect", paths["model"], paths["config"],
                         paths["test"], "-o", paths["verdicts"]])
    paths["detect_output"] = detect_result.output
    return paths


class TestSynth:
    def test_writes_expected_rows(self, runner, tmp_path):
        out = tmp_path / "s.csv"
        result = runner.invoke(main, ["synth", "--length", "2000",
                                      "--attacks", "3", "--seed", "7",
                                      "-o", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# seed=7"
        assert len(lines) == 2002  # comment + header + rows
        assert (tmp_path / "s.csv.manifest.json").exists()

    def test_byte_identical_reruns(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--length", "500", "--attacks", "2", "--seed", "9"]
        assert runner.invoke(main, args + ["-o", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["-o", str(b)]).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_infeasible_config_is_data_error(self, runner, tmp_path):
        result = runner.invoke(main, ["synth", "--length", "100",
                                      "--attacks", "50", "--seed", "0",
                                      "-o", str(tmp_path / "x.csv")])
        assert result.exit_code == 3
        assert "cannot place" in result.output

    @pytest.mark.parametrize("args, message", [
        (["--baseline-mean", "nan"], "baseline_mean must be finite"),
        (["--baseline-std", "inf"], "baseline_std must be finite"),
        (["--attack-multiplier", "nan", "--attacks", "1"],
         "attack_multiplier must be finite"),
        (["--attack-multiplier", "inf", "--attacks", "1"],
         "attack_multiplier must be finite"),
        (["--baseline-mean", "1e308", "--attacks", "1"],
         "baseline_mean * attack_multiplier must be finite")])
    def test_non_finite_values_are_usage_errors(self, runner, tmp_path, args,
                                                message):
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["synth", "--length", "100", *args,
                                      "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not out.exists()

    def test_overflowing_draws_are_data_errors(self, runner, tmp_path):
        # each value is finite, but a normal draw of mean and std 1e308
        # overflows to inf
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["synth", "--length", "100",
                                      "--baseline-mean", "1e308",
                                      "--baseline-std", "1e308",
                                      "-o", str(out)])
        assert result.exit_code == 3, result.output
        assert "baseline mean 1e+308, std 1e+308" in result.output
        assert "non-finite packet counts" in result.output
        assert not out.exists()

    def test_seed_environment_variable_ignored(self, runner, tmp_path):
        # the seed comes from --seed alone, never from the environment
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        runner.invoke(main, ["synth", "--length", "50", "-o", str(a)],
                      env={"CLD_SEED": "31"})
        runner.invoke(main, ["synth", "--length", "50", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert "# seed=0\n" in a.read_text()


MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep",
          "Oct", "Nov", "Dec")


def mixed_capture(rng: random.Random, rows: int) -> str:
    """A tshark export (``-E quote=d``) of ``rows`` packets drawn from
    ``rng``.  Timestamps are ISO, with and without a fraction, or tshark's
    with no zone or ``UTC``, ``CET`` or ``America/New_York``; about 1% of
    the rows step back in time.  About 2% of the rows are odd: short,
    with a bad integer, a bad or out-of-range timestamp, a negative
    length or a timestamp with a newline inside its quotes (all
    rejected), or with a signed or spaced integer or an unpadded day
    (accepted).  Blank lines come between some rows."""
    when = datetime(2021, 3, 28, 0, 59, 58)
    lines = ['"frame.number","frame.len","frame.time","ip.proto"']
    for number in range(1, rows + 1):
        when += timedelta(microseconds=rng.randrange(0, 2_000_000)
                          if rng.random() < 0.99 else -3_000_000)
        if rng.random() < 0.1:
            when = when.replace(microsecond=0)
        if rng.random() < 0.5:
            stamp = when.isoformat()
        else:
            zone = rng.choice(["", " UTC", " CET", " America/New_York"])
            stamp = (f"{MONTHS[when.month - 1]} {when.day:2d}, {when.year} "
                     f"{when:%H:%M:%S}.{when.microsecond:06d}"
                     f"{rng.randrange(1000):03d}{zone}")
        fields = [str(number), str(rng.randrange(54, 1515)), stamp,
                  rng.choice(["6", "17", "1"])]
        odd = rng.randrange(400)
        if odd < 9:
            fields = [
                fields[:2], [fields[0], "x" + fields[1]] + fields[2:],
                fields[:2] + ["not a time", fields[3]],
                fields[:2] + ["9999-12-31T23:59:59-01:00", fields[3]],
                fields[:3] + ["tcp"],
                [fields[0], "-" + fields[1]] + fields[2:],
                fields[:2] + [stamp[:7] + "\n" + stamp[7:], fields[3]],
                ["+" + fields[0], " " + fields[1]] + fields[2:],
                fields[:2] + [f"{MONTHS[when.month - 1]} {when.day}, "
                              f"{when.year} {when:%H:%M:%S}", fields[3]],
            ][odd]
        elif odd == 9:
            lines.append("")
        lines.append(",".join(f'"{field}"' for field in fields))
    return "\n".join(lines) + "\n"


class TestIngest:
    def make_packets(self, tmp_path, n=1000, bad_rows=0):
        rng = np.random.default_rng(5)
        offsets = np.sort(rng.uniform(0, 100, size=n))
        rows = [TSHARK_HEADER]
        rows += [f'{i+1},60,"1999-03-11 08:{int(s//60):02d}:{s%60:09.6f}",6'
                 for i, s in enumerate(offsets)]
        for b in range(bad_rows):
            rows.insert(5 + b, f"{900+b},60,garbage-timestamp,6")
        path = tmp_path / "packets.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_conservation(self, runner, tmp_path):
        packets = self.make_packets(tmp_path, n=1000)
        out = tmp_path / "series.csv"
        result = runner.invoke(main, ["ingest", str(packets),
                                      "--step-seconds", "1", "-o", str(out)])
        assert result.exit_code == 0
        assert "parsed 1000 records, rejected 0 rows" in result.output
        assert "rejected by reason" not in result.output
        series = load_series(out)
        assert series.values.sum() == 1000

    def test_rejection_report(self, runner, tmp_path):
        packets = self.make_packets(tmp_path, n=50, bad_rows=3)
        out = tmp_path / "series.csv"
        result = runner.invoke(main, ["ingest", str(packets), "-o", str(out)])
        assert result.exit_code == 0
        assert "parsed 50 records, rejected 3 rows" in result.output
        assert load_series(out).values.sum() == 50

    def test_empty_range_gives_zero_series(self, runner, tmp_path):
        packets = self.make_packets(tmp_path, n=5)
        out = tmp_path / "series.csv"
        result = runner.invoke(main, [
            "ingest", str(packets), "--start", "2005-01-01T00:00:00",
            "--end", "2005-01-01T00:00:10", "-o", str(out)])
        assert result.exit_code == 0
        series = load_series(out)
        assert len(series) == 10
        assert series.values.sum() == 0

    def test_missing_header_fails_with_columns_named(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        result = runner.invoke(main, ["ingest", str(bad),
                                      "-o", str(tmp_path / "out.csv")])
        assert result.exit_code == 3
        assert "frame.time" in result.output

    def test_field_past_csv_size_limit_is_data_error_naming_row(
            self, runner, tmp_path):
        packets = self.make_packets(tmp_path, n=10)
        lines = packets.read_text().splitlines()
        lines[4] = f'4,60,"{"9" * 200_000}",6'
        packets.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["ingest", str(packets),
                                      "-o", str(tmp_path / "series.csv")])
        assert result.exit_code == 3, result.output
        assert "data error: row 4: field larger than field limit" \
            in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "series.csv").exists()

    def test_rejections_counted_by_reason(self, runner, tmp_path):
        packets = self.make_packets(tmp_path, n=50, bad_rows=25)
        lines = packets.read_text().splitlines()
        lines[40] = "short,row"
        lines[41] = lines[41].replace(",60,", ",-60,")
        packets.write_text("\n".join(lines) + "\n")
        out = tmp_path / "series.csv"
        result = runner.invoke(main, ["ingest", str(packets), "-o", str(out)])
        assert result.exit_code == 0
        assert "parsed 48 records, rejected 27 rows" in result.output
        assert ("rejected by reason: short_row=1 bad_integer=0 "
                "bad_timestamp=25 negative_length=1") in result.output
        assert result.output.count("  rejected row ") == 20

    def test_step_rounded_to_microseconds_everywhere(self, runner, tmp_path):
        # 1.5 µs counts in 2 µs steps, so every record of the step says 2 µs
        packets = self.make_packets(tmp_path, n=50)
        out = tmp_path / "series.csv"
        start, end = "1999-03-11T08:00:00", "1999-03-11T08:00:00.000020"
        result = runner.invoke(main, [
            "ingest", str(packets), "--step-seconds", "0.0000015",
            "--start", start, "--end", end, "-o", str(out)])
        assert result.exit_code == 0, result.output
        manifest = json.loads(
            (tmp_path / "series.csv.manifest.json").read_text())
        assert manifest["config"]["step_seconds"] == 2e-06
        series = load_series(out)
        assert series.step_us == 2
        assert len(series) == 10
        stamps = load_tshark_csv(packets).timestamps_us
        returned = aggregate_counts(stamps, 2, _parse_timestamp(start),
                                    _parse_timestamp(end))
        np.testing.assert_array_equal(returned.values, series.values)

    @pytest.mark.parametrize("flags, message", [
        (["--start", "garbage"],
         "--start: unrecognized timestamp: 'garbage'"),
        (["--end", "1999-13-01T00:00:00"], "--end: unrecognized timestamp"),
        (["--start", "1999-03-11T08:00:01\x00"],
         "--start: unrecognized timestamp"),
        (["--start", "0001-01-01T00:00:00+01:00"], "--start: timestamp out"),
        (["--start", "1999-03-11T08:00:10", "--end", "1999-03-11T08:00:10"],
         "--start must precede --end"),
        (["--start", "1999-03-11T08:00:11", "--end", "1999-03-11T08:00:10"],
         "--start must precede --end"),
        (["--step-seconds", "1e-7"], "below microsecond resolution"),
        (["--step-seconds", "nan"], "finite and positive"),
        (["--step-seconds", "inf"], "finite and positive"),
        (["--step-seconds", "0"], "finite and positive"),
        (["--step-seconds", "-1"], "finite and positive"),
    ])
    def test_bad_flag_is_usage_error(self, runner, tmp_path, flags, message):
        # the capture has no header, so a flag checked only after reading
        # it would exit 3
        packets = tmp_path / "packets.csv"
        packets.write_text("x,y\n1,2\n")
        out = tmp_path / "series.csv"
        result = runner.invoke(main, ["ingest", str(packets), *flags,
                                      "-o", str(out)])
        assert result.exit_code == 2
        assert message in result.output
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--start", "2005-01-01T00:00:00"),
        ("--start", "1999-03-11T08:00:04.000001"),
        ("--end", "1999-03-11T08:00:01"),
        ("--end", "1999-03-11T07:00:00")])
    def test_range_ending_before_it_starts_is_data_error(self, runner,
                                                         tmp_path, flag,
                                                         value):
        # the other end comes from the packets, 08:00:01 to 08:00:04
        packets = tmp_path / "packets.csv"
        packets.write_text(TSHARK_HEADER + "\n" + "".join(
            f"{i},60,1999-03-11T08:00:0{i},6\n" for i in range(1, 5)))
        out = tmp_path / "series.csv"
        result = runner.invoke(main, ["ingest", str(packets), flag, value,
                                      "-o", str(out)])
        assert result.exit_code == 3
        assert "does not precede range end" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("flags, missing", [
        (["--start", "2000-01-01T00:00:00"], "--end"),
        (["--end", "2000-01-01T00:00:00"], "--start"),
        ([], "--start/--end")])
    def test_no_record_and_a_flag_missing_names_that_flag(
            self, runner, tmp_path, flags, missing):
        packets = tmp_path / "packets.csv"
        packets.write_text(TSHARK_HEADER + "\n1,60,garbage-timestamp,6\n")
        out = tmp_path / "series.csv"
        result = runner.invoke(main, ["ingest", str(packets), *flags,
                                      "-o", str(out)])
        assert result.exit_code == 3, result.output
        assert (f"data error: no parseable records and no {missing} given"
                in result.output)
        assert not out.exists()

    def test_last_record_at_datetime_max_is_data_error(self, runner,
                                                       tmp_path):
        # no time follows it, so it cannot end the default range
        packets = tmp_path / "packets.csv"
        packets.write_text(TSHARK_HEADER + "\n1,60,9999-12-31T23:59:58,6\n"
                           '2,60,"Dec 31, 9999 23:59:59.999999999 UTC",6\n')
        out = tmp_path / "series.csv"
        result = runner.invoke(main, ["ingest", str(packets), "-o", str(out)])
        assert result.exit_code == 3, result.output
        assert ("data error: no range end follows the last record, "
                "9999-12-31T23:59:59.999999: give --end") in result.output
        assert not out.exists()
        result = runner.invoke(main, ["ingest", str(packets), "--end",
                                      "9999-12-31T23:59:59.999999",
                                      "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert load_series(out).values.sum() == 1

    def test_range_over_the_step_limit_is_data_error(self, runner, tmp_path):
        # one year digit flipped, 2021 to 3021: the default range would
        # ask for a count for every second of a thousand years
        packets = tmp_path / "packets.csv"
        packets.write_text(TSHARK_HEADER + "\n1,60,2021-03-28T00:59:58,6\n"
                           "2,60,3021-03-28T01:00:03,6\n")
        out = tmp_path / "series.csv"
        result = runner.invoke(main, ["ingest", str(packets), "-o", str(out)])
        assert result.exit_code == 3, result.output
        assert ("data error: range 2021-03-28T00:59:58 to "
                "3021-03-28T01:00:03.000001 holds 31556908806 steps, more "
                "than the limit of 1000000: narrow it with --start/--end or "
                "give a larger --step-seconds") in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("end, step, ok", [
        ("2005-01-01T00:00:10", "1", True),
        ("2005-01-01T00:00:10.000001", "1", False),  # a partial 11th step
        ("2005-01-01T00:00:20", "2", True),
        ("2005-01-01T00:00:20", "1", False)])
    def test_step_limit_counts_every_step_of_the_range(
            self, runner, tmp_path, monkeypatch, end, step, ok):
        monkeypatch.setattr("synwatch.cli.MAX_INGEST_STEPS", 10)
        packets = self.make_packets(tmp_path, n=5)
        out = tmp_path / "series.csv"
        result = runner.invoke(main, ["ingest", str(packets), "--start",
                                      "2005-01-01T00:00:00", "--end", end,
                                      "--step-seconds", step, "-o", str(out)])
        assert result.exit_code == (0 if ok else 3), result.output
        assert out.exists() == ok
        if ok:
            assert len(load_series(out)) == 10

    def test_output_pinned(self, tmp_path):
        # the series and what the command prints, for a capture with both
        # timestamp forms and every reject reason; the digests are those
        # of the row-by-row reader that the bulk path must match
        (tmp_path / "capture.csv").write_text(
            mixed_capture(random.Random(14), 3000), encoding="utf-8")
        src = str(Path(synwatch.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "synwatch.cli", "ingest", "capture.csv",
             "--step-seconds", "0.25", "-o", "series.csv"],
            cwd=tmp_path, env=env, capture_output=True, timeout=120)
        assert result.returncode == 0, result.stderr

        def digest(data):
            return hashlib.sha256(data).hexdigest()
        assert [digest((tmp_path / "series.csv").read_bytes()),
                digest(result.stdout), digest(result.stderr)] == [
            "c829969cf30dec38d15787bd1d7f215373272ac77c4fd0bf6c1976644cfb17ac",
            "167b2e140c0c1ffb08de1b2f8c752333043fcbbc101a6f92ff7b5b17144d5f90",
            "ae6ba091a2bf83af08e7c3acf7089a77a8c34657e28e7baae02473e77ca38858"]


class TestTrain:
    def test_model_round_trips_byte_identical(self, runner, workspace,
                                              tmp_path):
        resaved = tmp_path / "resaved.txt"
        save_model(resaved, load_model(workspace["model"]))
        with open(workspace["model"], "rb") as fh:
            assert fh.read() == resaved.read_bytes()

    def test_outputs_exist(self, workspace, tmp_path):
        from pathlib import Path
        assert Path(workspace["model"] + ".scaler").exists()
        curve = Path(workspace["model"] + ".curve.csv").read_text().splitlines()
        assert curve[0] == "epoch,loss"
        assert len(curve) == 201
        manifest = json.loads(
            Path(workspace["model"] + ".manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["seed"] == 0

    def test_epochs_zero_is_usage_error(self, runner, workspace, tmp_path):
        result = runner.invoke(main, ["train", workspace["train"],
                                      "--epochs", "0",
                                      "-o", str(tmp_path / "m.txt")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("lag,ok", [("1", True), ("2", True),
                                        ("3", True), ("4", False),
                                        ("0", False)])
    def test_lag_flag_validation(self, runner, workspace, tmp_path, lag, ok):
        result = runner.invoke(main, ["train", workspace["train"],
                                      "--lag", lag, "--epochs", "2",
                                      "--hidden", "4",
                                      "-o", str(tmp_path / "m.txt")])
        assert (result.exit_code == 0) == ok

    def test_attack_contaminated_series_rejected(self, runner, workspace,
                                                 tmp_path):
        result = runner.invoke(main, ["train", workspace["val"],
                                      "--epochs", "2",
                                      "-o", str(tmp_path / "m.txt")])
        assert result.exit_code == 3
        assert "normal data" in result.output

    @pytest.mark.parametrize("flag", ["--lr", "--clip"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_rate_or_clip_is_usage_error(self, runner, workspace,
                                             tmp_path, flag, value):
        # training has no gradient clip, so any --clip is unknown
        message = {"--lr": "finite and positive",
                   "--clip": "No such option '--clip'"}[flag]
        model = tmp_path / "m.txt"
        result = runner.invoke(main, ["train", workspace["train"],
                                      "--epochs", "2", "--hidden", "2",
                                      flag, value, "-o", str(model)])
        assert result.exit_code == 2
        assert message in result.output
        assert not model.exists()


@pytest.mark.parametrize("command", ["synth", "train", "compare-lags"])
def test_negative_seed_is_usage_error(runner, workspace, tmp_path, command):
    out = tmp_path / "out.txt"
    result = runner.invoke(main, [*command_args(workspace, tmp_path, command),
                                  "--seed", "-1", "-o", str(out)])
    assert result.exit_code == 2, result.output
    assert "rng_seed must be >= 0" in result.output
    assert not out.exists()


def short_series(runner, tmp_path, length):
    path = tmp_path / f"short{length}.csv"
    result = runner.invoke(main, ["synth", "--length", str(length),
                                  "--seed", "4", "-o", str(path)])
    assert result.exit_code == 0
    return str(path)


class TestTrainShortSeries:
    @pytest.mark.parametrize("lag", (1, 2, 3))
    def test_too_short_for_one_window_is_data_error(self, runner, tmp_path,
                                                    lag):
        model = tmp_path / "m.txt"
        result = runner.invoke(main, ["train", short_series(runner, tmp_path,
                                                            lag),
                                      "--lag", str(lag), "--epochs", "2",
                                      "-o", str(model)])
        assert result.exit_code == 3
        assert f"lag {lag} needs at least {lag + 1}" in result.output
        assert not model.exists()

    @pytest.mark.parametrize("lag", (1, 2, 3))
    def test_one_window_trains(self, runner, tmp_path, lag):
        result = runner.invoke(main, ["train", short_series(runner, tmp_path,
                                                            lag + 1),
                                      "--lag", str(lag), "--epochs", "2",
                                      "-o", str(tmp_path / "m.txt")])
        assert result.exit_code == 0, result.output

    def test_compare_lags_needs_a_window_at_lag_3(self, runner, tmp_path):
        table = tmp_path / "t.csv"
        result = runner.invoke(main, ["compare-lags",
                                      short_series(runner, tmp_path, 3),
                                      "--epochs", "2", "-o", str(table)])
        assert result.exit_code == 3
        assert "lag 3 needs at least 4" in result.output
        assert not table.exists()


class TestCompareLags:
    def test_table_shape_and_determinism(self, runner, workspace, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["compare-lags", workspace["train"], "--epochs", "40",
                "--hidden", "6", "--seed", "3"]
        r1 = runner.invoke(main, args + ["-o", str(a)])
        r2 = runner.invoke(main, args + ["-o", str(b)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        rows_a = a.read_text().splitlines()
        rows_b = b.read_text().splitlines()
        assert rows_a[0] == "lag,final_loss,seconds"
        assert len(rows_a) == 4
        assert [r.split(",")[0] for r in rows_a[1:]] == ["1", "2", "3"]
        # losses deterministic; wall-clock seconds may differ
        assert [r.split(",")[1] for r in rows_a[1:]] == \
            [r.split(",")[1] for r in rows_b[1:]]
        assert all(float(r.split(",")[2]) > 0 for r in rows_a[1:])

    def test_runs_differ_only_in_seconds(self, runner, workspace, tmp_path):
        # the seconds column is the one wall-clock output: every other
        # column, the rest of stdout and the manifest repeat exactly
        table = tmp_path / "lags.csv"
        args = ["compare-lags", workspace["train"], "--epochs", "20",
                "--hidden", "4", "--seed", "5", "-o", str(table)]
        runs = []
        for _ in range(2):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            rows = [line.split(",") for line in table.read_text().splitlines()]
            assert rows[0][-1] == "seconds"
            printed = [re.sub(r" seconds=[0-9.]+$", "", line)
                       for line in result.output.splitlines()]
            assert all(line.startswith("lag=") and "seconds" not in line
                       for line in printed)
            manifest = Path(f"{table}.manifest.json").read_bytes()
            runs.append(([row[:-1] for row in rows], printed, manifest))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_rate_is_usage_error(self, runner, workspace, tmp_path,
                                     value):
        table = tmp_path / "t.csv"
        result = runner.invoke(main, ["compare-lags", workspace["train"],
                                      "--epochs", "2", "--hidden", "2",
                                      "--lr", value, "-o", str(table)])
        assert result.exit_code == 2
        assert "finite and positive" in result.output
        assert not table.exists()


class TestCalibrate:
    def test_selected_config_parses(self, workspace):
        from pathlib import Path
        text = Path(workspace["config"]).read_text()
        config = DetectorConfig.from_text(text)
        assert config.mat == 12

    def test_sweep_table_written(self, workspace):
        from pathlib import Path
        sweep = Path(workspace["config"] + ".sweep.csv").read_text().splitlines()
        assert sweep[0] == \
            "ret,alpha,beta,detection_rate_pct,false_alarms,events_total"
        assert len(sweep) == 1 + 20 * 12 * 20

    def test_beta_list_restricts_sweep(self, runner, workspace, tmp_path):
        out = tmp_path / "cfg.txt"
        result = runner.invoke(main, [
            "calibrate", workspace["model"], workspace["val"],
            "--mat", "12", "--alpha", "0.66",
            "--beta-list", "0.69,0.66,0.62,0.52", "-o", str(out)])
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "cfg.txt.sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 4
        betas = [float(r.split(",")[2]) for r in rows]
        assert betas == [0.69, 0.66, 0.62, 0.52]
        alphas = {float(r.split(",")[1]) for r in rows}
        assert alphas == {0.66}

    def test_unlabeled_validation_rejected(self, runner, workspace, tmp_path):
        result = runner.invoke(main, [
            "calibrate", workspace["model"], workspace["train"],
            "-o", str(tmp_path / "cfg.txt")])
        assert result.exit_code == 3
        assert "label" in result.output

    def test_empty_beta_list_is_usage_error(self, runner, workspace, tmp_path):
        result = runner.invoke(main, [
            "calibrate", workspace["model"], workspace["val"],
            "--beta-list", ",", "-o", str(tmp_path / "cfg.txt")])
        assert result.exit_code == 2

    def test_beta_and_beta_list_conflict(self, runner, workspace, tmp_path):
        result = runner.invoke(main, [
            "calibrate", workspace["model"], workspace["val"],
            "--beta", "0.5", "--beta-list", "0.5,0.6",
            "-o", str(tmp_path / "cfg.txt")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("flag", ["--ret", "--beta"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_threshold_is_usage_error(self, runner, workspace,
                                                 tmp_path, flag, value):
        result = runner.invoke(main, [
            "calibrate", workspace["model"], workspace["val"],
            flag, value, "-o", str(tmp_path / "cfg.txt")])
        assert result.exit_code == 2
        assert "finite" in result.output

    def test_too_short_for_one_window_is_data_error(self, runner, workspace,
                                                    tmp_path):
        out = tmp_path / "cfg.txt"
        result = runner.invoke(main, [
            "calibrate", workspace["model"], short_series(runner, tmp_path, 3),
            "-o", str(out)])
        assert result.exit_code == 3
        assert "validation series has 3 values; lag 3 needs at least 4" \
            in result.output
        assert not out.exists()

    def test_non_finite_count_is_data_error(self, runner, workspace,
                                            tmp_path):
        from pathlib import Path
        lines = Path(workspace["val"]).read_text().splitlines()
        row = next(i for i, ln in enumerate(lines) if ln.startswith("100,"))
        fields = lines[row].split(",")
        fields[2] = "nan"
        lines[row] = ",".join(fields)
        bad = tmp_path / "val-nan.csv"
        bad.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, [
            "calibrate", workspace["model"], str(bad),
            "-o", str(tmp_path / "cfg.txt")])
        assert result.exit_code == 3
        assert "non-finite" in result.output
        assert not (tmp_path / "cfg.txt").exists()


class TestDetect:
    def test_outputs_and_replay_consistency(self, workspace):
        verdicts = read_verdicts(workspace["verdicts"])
        assert len(verdicts) > 0
        replayed = segment_alarms(verdicts)
        logged = read_alarms(workspace["verdicts"] + ".alarms.csv")
        assert replayed == logged

    def test_printed_metrics_match_offline_reevaluation(self, workspace):
        from synwatch.calibration import evaluate
        verdicts = read_verdicts(workspace["verdicts"])
        test_series = load_series(workspace["test"])
        report = evaluate(verdicts, test_series.attack_intervals)
        line = [ln for ln in workspace["detect_output"].splitlines()
                if ln.startswith("metrics:")][0]
        fields = dict(tok.split("=") for tok in line.split()[1:])
        assert float(fields["detection_rate_pct"]) == report.detection_rate_pct
        assert int(fields["false_alarms"]) == report.false_alarms
        assert int(fields["events_total"]) == report.events_total

    def test_short_series_warmup_only(self, runner, workspace, tmp_path):
        short = tmp_path / "short.csv"
        result = runner.invoke(main, ["synth", "--length", "10",
                                      "--seed", "4", "-o", str(short)])
        assert result.exit_code == 0
        out = tmp_path / "v.csv"
        result = runner.invoke(main, ["detect", workspace["model"],
                                      workspace["config"], str(short),
                                      "-o", str(out)])
        assert result.exit_code == 0
        assert "warmup" in result.output
        assert read_alarms(str(out) + ".alarms.csv") == []
        verdicts = read_verdicts(out)
        assert all(v.warmup for v in verdicts)

    def test_series_without_a_single_window(self, runner, workspace,
                                            tmp_path):
        tiny = tmp_path / "tiny.csv"
        result = runner.invoke(main, ["synth", "--length", "2", "--seed", "1",
                                      "-o", str(tiny)])
        assert result.exit_code == 0
        out = tmp_path / "v.csv"
        result = runner.invoke(main, ["detect", workspace["model"],
                                      workspace["config"], str(tiny),
                                      "-o", str(out)])
        assert result.exit_code == 0
        assert read_verdicts(out) == []
        assert read_alarms(str(out) + ".alarms.csv") == []

    def test_missing_scaler_is_data_error(self, runner, workspace, tmp_path):
        orphan_model = tmp_path / "orphan.txt"
        save_model(orphan_model, load_model(workspace["model"]))
        result = runner.invoke(main, ["detect", str(orphan_model),
                                      workspace["config"], workspace["test"],
                                      "-o", str(tmp_path / "v.csv")])
        assert result.exit_code == 3
        assert "scaler" in result.output

    @pytest.mark.parametrize("command", ["calibrate", "detect"])
    @pytest.mark.parametrize("given", [True, False],
                             ids=["scaler-flag", "default-scaler"])
    def test_scaler_that_is_a_directory(self, runner, workspace, tmp_path,
                                        command, given):
        # --scaler must name a file (usage error); a <model>.scaler that
        # is a directory is a data error
        model = tmp_path / "model.txt"
        shutil.copyfile(workspace["model"], model)
        scaler = tmp_path / ("own.scaler" if given else "model.txt.scaler")
        scaler.mkdir()
        inputs = ([workspace["val"]] if command == "calibrate"
                  else [workspace["config"], workspace["test"]])
        out = tmp_path / "out.txt"
        result = runner.invoke(main, [
            command, str(model), *inputs,
            *(["--scaler", str(scaler)] if given else []), "-o", str(out)])
        assert result.exit_code == (2 if given else 3), result.output
        assert (f"'{scaler}' is a directory" if given else
                f"data error: scaler file is a directory: {scaler}"
                ) in result.output
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "offset=0 scale=-1", "offset=x scale=1", "offset=nan scale=1",
        "offset=0 scale=inf"])
    def test_bad_scaler_is_data_error_naming_it(self, runner, workspace,
                                                tmp_path, text):
        scaler = tmp_path / "bad.scaler"
        scaler.write_text(text + "\n")
        out = tmp_path / "v.csv"
        result = runner.invoke(main, ["detect", workspace["model"],
                                      workspace["config"], workspace["test"],
                                      "--scaler", str(scaler),
                                      "-o", str(out)])
        assert result.exit_code == 3
        assert f"data error: {scaler}: " in result.output
        assert not out.exists()

    def test_non_finite_config_is_data_error(self, runner, workspace,
                                             tmp_path):
        config = tmp_path / "nan.cfg"
        config.write_text("ret=nan mat=12 alpha=0.5 beta=nan\n")
        result = runner.invoke(main, ["detect", workspace["model"],
                                      str(config), workspace["test"],
                                      "-o", str(tmp_path / "v.csv")])
        assert result.exit_code == 3
        assert "finite" in result.output

    @pytest.mark.parametrize("count", ["nan", "-3"])
    def test_bad_count_is_data_error(self, runner, workspace, tmp_path,
                                     count):
        from pathlib import Path
        lines = Path(workspace["test"]).read_text().splitlines()
        row = next(i for i, ln in enumerate(lines) if ln.startswith("100,"))
        fields = lines[row].split(",")
        fields[2] = count
        lines[row] = ",".join(fields)
        bad = tmp_path / "test-bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "v.csv"
        result = runner.invoke(main, ["detect", workspace["model"],
                                      workspace["config"], str(bad),
                                      "-o", str(out)])
        assert result.exit_code == 3
        assert "row 101" in result.output
        assert not out.exists()

    def test_model_dimensions_out_of_range_is_data_error(self, runner,
                                                         workspace, tmp_path):
        # every block empty, as the dimensions allow: this used to load,
        # and detect then died with a traceback and exit 1
        model = tmp_path / "zero.txt"
        model.write_text("lstm-model v2\ninput_dim=0 hidden_dim=0\n"
                         "W_i\nb_i\n\nW_o\nb_o\n\nW_g\nb_g\n\nw_y\n\n"
                         "b_y\n0.5\n")
        (tmp_path / "zero.txt.scaler").write_text("offset=0 scale=1\n")
        out = tmp_path / "v.csv"
        result = runner.invoke(main, ["detect", str(model),
                                      workspace["config"], workspace["test"],
                                      "-o", str(out)])
        assert result.exit_code == 3
        assert "model dimensions input_dim=0 hidden_dim=0" in result.output
        assert not out.exists()

    def test_off_cadence_series_is_data_error(self, runner, workspace,
                                              tmp_path):
        from pathlib import Path
        lines = Path(workspace["test"]).read_text().splitlines()
        row = next(i for i, ln in enumerate(lines) if ln.startswith("100,"))
        # swap the timestamps of steps 100 and 101
        a, b = lines[row].split(","), lines[row + 1].split(",")
        a[1], b[1] = b[1], a[1]
        lines[row], lines[row + 1] = ",".join(a), ",".join(b)
        bad = tmp_path / "test-swapped.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "v.csv"
        result = runner.invoke(main, ["detect", workspace["model"],
                                      workspace["config"], str(bad),
                                      "-o", str(out)])
        assert result.exit_code == 3
        assert "row 101: timestamp" in result.output
        assert not out.exists()

    def test_detect_deterministic_outputs(self, runner, workspace, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            result = runner.invoke(main, ["detect", workspace["model"],
                                          workspace["config"],
                                          workspace["test"], "-o", str(out)])
            assert result.exit_code == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.alarms.csv").read_bytes() == \
            (tmp_path / "b.csv.alarms.csv").read_bytes()


class TestSplitCommand:
    def test_split_writes_three_files(self, runner, tmp_path):
        src = tmp_path / "all.csv"
        runner.invoke(main, ["synth", "--length", "1000", "--attacks", "2",
                             "--seed", "77", "-o", str(src)])
        # attacks land after the margin; keep training inside the clean head
        data = load_series(src)
        first_attack = data.attack_intervals[0][0]
        train_fraction = max(0.05, (first_attack - 1) / 1000)
        result = runner.invoke(main, ["split", str(src),
                                      "--train-fraction", str(train_fraction),
                                      "--validation-fraction", "0.3",
                                      "-o", str(tmp_path / "part")])
        assert result.exit_code == 0, result.output
        for suffix in (".train.csv", ".validation.csv", ".test.csv"):
            assert (tmp_path / f"part{suffix}").exists()

    def test_contaminated_training_segment_rejected(self, runner, tmp_path):
        src = tmp_path / "all.csv"
        runner.invoke(main, ["synth", "--length", "300", "--attacks", "3",
                             "--seed", "13", "-o", str(src)])
        data = load_series(src)
        last_attack_end = data.attack_intervals[-1][1]
        result = runner.invoke(main, ["split", str(src),
                                      "--train-fraction",
                                      str((last_attack_end + 2) / 300),
                                      "--validation-fraction", "0.1",
                                      "-o", str(tmp_path / "part")])
        assert result.exit_code == 3

    def test_non_finite_fraction_is_usage_error(self, runner, tmp_path):
        src = tmp_path / "all.csv"
        runner.invoke(main, ["synth", "--length", "100", "--seed", "13",
                             "-o", str(src)])
        result = runner.invoke(main, ["split", str(src),
                                      "--train-fraction", "nan",
                                      "-o", str(tmp_path / "part")])
        assert result.exit_code == 2
        assert "fractions must be finite" in result.output
        assert not (tmp_path / "part.train.csv").exists()


@pytest.mark.parametrize("command", ["calibrate", "detect"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_epsilon_floor_is_usage_error(runner, workspace, tmp_path,
                                                 command, value):
    # the floor is the constant EPSILON_FLOOR, so any --epsilon-floor is
    # unknown
    out = tmp_path / "out.txt"
    inputs = ([workspace["val"]] if command == "calibrate"
              else [workspace["config"], workspace["test"]])
    result = runner.invoke(main, [command, workspace["model"], *inputs,
                                  "--epsilon-floor", value, "-o", str(out)])
    assert result.exit_code == 2
    assert "No such option '--epsilon-floor'" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["calibrate", "detect"])
@pytest.mark.parametrize("own_scaler", [False, True],
                         ids=["default-scaler", "scaler-flag"])
def test_manifest_names_the_scaler(runner, workspace, tmp_path, command,
                                   own_scaler):
    scaler = workspace["model"] + ".scaler"
    flags = []
    if own_scaler:
        scaler = str(tmp_path / "own.scaler")
        shutil.copyfile(workspace["model"] + ".scaler", scaler)
        flags = ["--scaler", scaler]
    inputs = ([workspace["val"]] if command == "calibrate"
              else [workspace["config"], workspace["test"]])
    out = tmp_path / "out.txt"
    result = runner.invoke(main, [command, workspace["model"], *inputs,
                                  *flags, "-o", str(out)])
    assert result.exit_code == 0, result.output
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["inputs"]["scaler"] == scaler


def test_detect_reproduces_calibrate_metrics(runner, workspace, tmp_path):
    # detect with the config calibrate wrote, on calibrate's own labeled
    # stream, reports the selected cell's metrics
    config = tmp_path / "detector.cfg"
    calibrated = runner.invoke(main, ["calibrate", workspace["model"],
                                      workspace["val"], "-o", str(config)])
    assert calibrated.exit_code == 0, calibrated.output
    detected = runner.invoke(main, ["detect", workspace["model"],
                                    str(config), workspace["val"],
                                    "-o", str(tmp_path / "v.csv")])
    assert detected.exit_code == 0, detected.output
    metrics = [[ln for ln in result.output.splitlines()
                if ln.startswith("metrics:")]
               for result in (calibrated, detected)]
    assert len(metrics[0]) == 1
    assert metrics[1] == metrics[0]
    assert "detection_rate_pct=100 " in metrics[0][0]


@pytest.fixture(scope="module")
def pinned_calibrate_inputs(tmp_path_factory):
    """A model that predicts 50 at every step and a 1,500-step labeled
    series from Python's own generator, so the outputs are the same on
    every machine: all weights are zero, so each gate is ``sigmoid(0)`` or
    ``tanh(0)`` and the prediction is the scaler's offset.  Normal counts
    lie in 90-110 (relative errors 0.44-0.55), attack counts mostly in
    120-300."""
    root = tmp_path_factory.mktemp("pinned")
    model = root / "model.txt"
    save_model(model, LstmParams(np.zeros((9, 3)), np.zeros(9), np.zeros(3),
                                 0.0))
    Path(f"{model}.scaler").write_text("offset=50 scale=10\n")
    gen = random.Random(18)
    intervals = [(120, 150), (400, 409), (410, 440), (800, 806),
                 (1100, 1160), (1400, 1420)]
    start = datetime(2024, 1, 1)
    lines = ["step,timestamp,count,label"]
    for i in range(1500):
        attack = any(s <= i <= e for s, e in intervals)
        count = 90 + int(gen.random() * 21)
        if attack and gen.random() < 0.7:
            count = 120 + int(gen.random() * 180)
        lines.append(f"{i},{(start + timedelta(seconds=i)).isoformat()},"
                     f"{count},{'attack' if attack else 'normal'}")
    val = root / "val.csv"
    val.write_text("\n".join(lines) + "\n")
    return str(model), str(val)


@pytest.mark.parametrize("flags, digests", [
    ([], (
        "8860fd9f84859981a104b3e0d1e3a17d9960894bae21edb1c6947df8f55ca09e",
        "a8f66f904b5a054bf70491751e0e3ecc2efbb55c09798f368a9fc2a7a66df08e",
        "5984f9cc2b7aaee1ef52885bd7e4d4f49c58210688cf247991704f64bced8372")),
    (["--ret", "0.6", "--alpha", "0.66", "--beta", "0.52"], (
        "03f95b19dfb74d3e54cd8d5746f96a5e096c78c6077c443602a8fde3634d1356",
        "d11c13cc72ad662a747f030a39535d4f6cf7aaee41df9f31212bbfea99a43713",
        "09a7e9bbae31bad4199eabe345932cc2af6c9498b4743534da8b9f93aeedee34")),
    (["--beta-list", "0.69,0.52,0.66,0.52"], (
        "d825e3f0aeab13d5d2b028f9c7d4c3ebb814fd844a3596a8be6d9694b6fe4412",
        "c2958521d229843111b009e74515f961198c26393473b7c53a47efdc01719780",
        "fd9c514ea0a5c623e737d9dc4dab817a3a51615acaccc8e442ab5e6a34762360")),
    # -0 and 0 tie on every key, and -0 comes first in the sorted grid
    (["--beta-list", "0.6,-0,0.7,0"], (
        "605fe70d9ef78d5a08feda046f8a37b49712998a1f7bee52d130cef41bb6e593",
        "21c1a0a9aa5717dabae87ac7ab27d556549384ee5d79207c2d7b5049acbfc08d",
        "cbe97b690bd74fee7154079753bd054d56e4c0037157b5e1c6c61297ce0fd85c")),
])
def test_calibrate_outputs_pinned(runner, pinned_calibrate_inputs, tmp_path,
                                  flags, digests):
    # detector.cfg, the sweep file and stdout, byte for byte, on the
    # default grid, a pinned cell, an unsorted beta list with a repeat and
    # a beta list holding both zeros
    model, val = pinned_calibrate_inputs
    config = tmp_path / "detector.cfg"
    result = runner.invoke(main, ["calibrate", model, val, *flags,
                                  "-o", str(config)])
    assert result.exit_code == 0, result.output

    def digest(data):
        return hashlib.sha256(data).hexdigest()
    assert (digest(config.read_bytes()),
            digest(Path(f"{config}.sweep.csv").read_bytes()),
            digest(result.stdout_bytes)) == digests


def loaded_around_command(args, before, after):
    """The stdout lines of a fresh interpreter that imports synwatch.cli,
    prints which of the modules ``before`` are loaded, runs the command
    ``args``, then prints which of the modules ``after`` are loaded."""
    code = (
        "import sys\n"
        "import synwatch.cli\n"
        f"print(sorted(set({sorted(before)!r}) & set(sys.modules)))\n"
        "synwatch.cli.main(sys.argv[1:], standalone_mode=False)\n"
        f"print(sorted(set({sorted(after)!r}) & set(sys.modules)))\n")
    src = str(Path(synwatch.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code, *args], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_cli_import_and_calibrate_leave_bulk_and_numpy_ma_unloaded(
        pinned_calibrate_inputs, tmp_path):
    # an eager import would cost every command its load time and memory:
    # synwatch._bulk serves only ingest, series writes and large series
    # reads, and numpy.ma costs more than the whole calibration grid
    guarded = {"synwatch._bulk", "numpy.ma"}
    lines = loaded_around_command(
        ["calibrate", *pinned_calibrate_inputs,
         "-o", str(tmp_path / "detector.cfg")], guarded, guarded)
    assert lines[0] == "[]"
    assert lines[1].startswith("selected ")
    assert lines[-1] == "[]"


@pytest.mark.parametrize("command", ["train", "compare-lags", "calibrate",
                                     "detect", "ingest"])
def test_commands_leave_numpy_random_unloaded(workspace, tmp_path, command):
    # importing numpy.random costs a fresh interpreter 10-16 ms and about
    # 6 MB of peak memory; init_params draws its seeded stream through
    # synwatch._pcg64, which nothing loads before it runs
    lines = loaded_around_command(
        [*command_args(workspace, tmp_path, command),
         "-o", str(tmp_path / "out.txt")],
        {"numpy.random", "numpy.ma", "synwatch._bulk", "synwatch._pcg64"},
        {"numpy.random", "numpy.ma"})
    assert lines[0] == "[]"
    assert lines[-1] == "[]"


def command_args(workspace, tmp_path, command):
    """The arguments of ``command`` but for ``-o``, on the workspace's
    files."""
    packets = tmp_path / "packets.csv"
    packets.write_text(f'{TSHARK_HEADER}\n1,60,"1999-03-11 08:00:01",6\n')
    return {"synth": ["synth", "--length", "50"],
            "ingest": ["ingest", str(packets)],
            "train": ["train", workspace["train"], "--epochs", "1"],
            "compare-lags": ["compare-lags", workspace["train"],
                             "--epochs", "1"],
            "calibrate": ["calibrate", workspace["model"], workspace["val"]],
            "detect": ["detect", workspace["model"], workspace["config"],
                       workspace["test"]],
            "split": ["split", workspace["val"]]}[command]


@pytest.mark.parametrize("command", ["synth", "ingest", "train",
                                     "compare-lags", "calibrate", "detect",
                                     "split"])
def test_output_in_missing_directory_is_usage_error(runner, workspace,
                                                     tmp_path, command):
    missing = tmp_path / "missing"
    result = runner.invoke(main, [*command_args(workspace, tmp_path, command),
                                  "-o", str(missing / "out.txt")])
    assert result.exit_code == 2, result.output
    assert f"directory {str(missing)!r} does not exist" in result.output
    assert not missing.exists()


@pytest.mark.parametrize("reader", ["series", "packets", "model", "scaler",
                                    "config"])
def test_file_that_is_not_utf8_is_data_error(runner, workspace, tmp_path,
                                             reader):
    # one byte 0xff, which no UTF-8 text holds, at offset 10 of a valid file
    sources = {"series": workspace["train"], "model": workspace["model"],
               "scaler": workspace["model"] + ".scaler",
               "config": workspace["config"]}
    bad = tmp_path / f"bad.{reader}"
    if reader == "packets":
        good = command_args(workspace, tmp_path, "ingest")[1]
    else:
        good = sources[reader]
    data = open(good, "rb").read()
    bad.write_bytes(data[:10] + b"\xff" + data[10:])
    args = {"series": ["train", str(bad), "--epochs", "1"],
            "packets": ["ingest", str(bad)],
            "model": ["detect", str(bad), workspace["config"],
                      workspace["test"], "--scaler",
                      workspace["model"] + ".scaler"],
            "scaler": ["detect", workspace["model"], workspace["config"],
                       workspace["test"], "--scaler", str(bad)],
            "config": ["detect", workspace["model"], str(bad),
                       workspace["test"]]}[reader]
    out = tmp_path / "out.txt"
    result = runner.invoke(main, [*args, "-o", str(out)])
    assert result.exit_code == 3, result.output
    assert (f"data error: {bad}: not UTF-8 text: byte 0xff at offset 10"
            in result.output)
    assert not out.exists()


FIXTURE = Path(__file__).parent.parent / "perfbench/fixture"


@pytest.fixture(scope="module")
def detect_inputs(tmp_path_factory):
    """The perfbench model (v1) and its v2 form, scaler and detector
    config as bytes, a 300-step test series, and a directory for the
    mutated files."""
    root = tmp_path_factory.mktemp("mutate")
    test = root / "test.csv"
    result = CliRunner().invoke(main, ["synth", "--length", "300",
                                       "--attacks", "1", "--seed", "5",
                                       "-o", str(test)])
    assert result.exit_code == 0, result.output
    save_model(root / "v2.txt", load_model(FIXTURE / "model.txt"))
    files = {"model-v1": (FIXTURE / "model.txt").read_bytes(),
             "model-v2": (root / "v2.txt").read_bytes(),
             "scaler": (FIXTURE / "model.txt.scaler").read_bytes(),
             "config": (FIXTURE / "detector.cfg").read_bytes()}
    return root, test, files


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """``data`` with one bit flipped, truncated, with a NUL, 0xff or
    newline inserted, or with one byte deleted."""
    kind = draw(st.sampled_from(("flip", "truncate", "insert", "delete")))
    if kind == "insert":
        pos = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from((b"\0", b"\xff", b"\n")))
        return data[:pos] + byte + data[pos:]
    pos = draw(st.integers(0, len(data) - 1))
    if kind == "flip":
        flipped = data[pos] ^ (1 << draw(st.integers(0, 7)))
        return data[:pos] + bytes([flipped]) + data[pos + 1:]
    if kind == "truncate":
        return data[:pos]
    return data[:pos] + data[pos + 1:]


@pytest.mark.parametrize("target", ["model-v1", "model-v2", "scaler",
                                    "config"])
@settings(max_examples=100)
@given(data=st.data())
def test_mutated_detect_input_never_crashes(runner, detect_inputs, target,
                                            data):
    # whatever one byte-level change does to one file detect reads, detect
    # succeeds or fails with a usage or data error, never a traceback
    root, test, files = detect_inputs
    mutated = data.draw(mutations(files[target]))
    model, scaler, config = (root / "model.txt", root / "model.scaler",
                             root / "detector.cfg")
    model.write_bytes(mutated if target.startswith("model")
                      else files["model-v2"])
    scaler.write_bytes(mutated if target == "scaler" else files["scaler"])
    config.write_bytes(mutated if target == "config" else files["config"])
    result = runner.invoke(main, ["detect", str(model), str(config),
                                  str(test), "--scaler", str(scaler),
                                  "-o", str(root / "v.csv")])
    assert result.exit_code in (0, 2, 3), (result.output, result.exception)


@pytest.fixture(scope="module")
def csv_inputs(tmp_path_factory):
    """The CSV files the commands read, as bytes: a tshark capture, a
    normal training series and labeled validation and test series, and a
    directory for the mutated files."""
    root = tmp_path_factory.mktemp("mutate-csv")
    files = {"capture": mixed_capture(random.Random(3), 40).encode()}
    for name, attacks, seed in (("train", 0, 6), ("validation", 1, 7),
                                ("test", 1, 8)):
        path = root / f"{name}.csv"
        result = CliRunner().invoke(main, ["synth", "--length", "120",
                                           "--attacks", str(attacks),
                                           "--seed", str(seed),
                                           "-o", str(path)])
        assert result.exit_code == 0, result.output
        files[name] = path.read_bytes()
    return root, files


@pytest.mark.parametrize("target", ["capture", "train", "validation",
                                    "test"])
@settings(max_examples=100)
@given(data=st.data())
def test_mutated_csv_input_never_crashes(runner, csv_inputs, target, data):
    # whatever one byte-level change does to the capture ingest reads or
    # the series train, calibrate or detect reads, the command succeeds
    # or fails with a usage or data error, never a traceback
    root, files = csv_inputs
    mutated = root / "mutated.csv"
    mutated.write_bytes(data.draw(mutations(files[target])))
    model = str(FIXTURE / "model.txt")
    scaler = model + ".scaler"
    # a record moved years away by a flipped digit makes a range over
    # ingest's step limit, a data error
    args = {"capture": ["ingest", str(mutated)],
            "train": ["train", str(mutated), "--epochs", "2", "--hidden", "2"],
            "validation": ["calibrate", model, str(mutated),
                           "--scaler", scaler],
            "test": ["detect", model, str(FIXTURE / "detector.cfg"),
                     str(mutated), "--scaler", scaler]}[target]
    result = runner.invoke(main, [*args, "-o", str(root / "out.txt")])
    assert result.exit_code in (0, 2, 3), (result.output, result.exception)


@pytest.mark.parametrize("header, rows, row_no, fields", [
    # a decimal comma splits the count: 12,5 is two fields
    ("step,timestamp,count", ["0,2000-01-01T00:00:00,12,5"], 1, 4),
    # a label after the label
    ("step,timestamp,count,label",
     ["0,2000-01-01T00:00:00,12,normal", "1,2000-01-01T00:00:01,13,normal,"
      "attack"], 2, 5)])
def test_row_with_extra_fields_is_a_data_error(runner, workspace, tmp_path,
                                               header, rows, row_no, fields):
    # an extra field is never dropped: the row is rejected by number
    series = tmp_path / "series.csv"
    series.write_text("\n".join([header, *rows]) + "\n")
    result = runner.invoke(main, ["detect", workspace["model"],
                                  workspace["config"], str(series),
                                  "-o", str(tmp_path / "v.csv")])
    assert result.exit_code == 3, result.output
    width = len(header.split(","))
    assert (f"data error: {series}: malformed row {row_no}: {fields} "
            f"fields, the header has {width}") in result.output
    assert not (tmp_path / "v.csv").exists()


@pytest.fixture(scope="module")
def long_streams(tmp_path_factory):
    """Labeled 20,000-step validation and test series, long enough that a
    BLAS build may split its products between threads."""
    root = tmp_path_factory.mktemp("long")
    for name, seed in (("validation", 11), ("test", 12)):
        result = CliRunner().invoke(main, [
            "synth", "--length", "20000", "--attacks", "50", "--seed",
            str(seed), "-o", str(root / f"{name}.csv")])
        assert result.exit_code == 0, result.output
    return root


@pytest.mark.parametrize("command", ["calibrate", "detect"])
def test_outputs_do_not_depend_on_blas_threads(long_streams, tmp_path,
                                               command):
    # every file, stdout and stderr byte for byte, at one and two BLAS
    # threads, each run in a fresh interpreter that reads the setting
    model = str(FIXTURE / "model.txt")
    args = {"calibrate": [model, str(long_streams / "validation.csv")],
            "detect": [model, str(FIXTURE / "detector.cfg"),
                       str(long_streams / "test.csv")]}[command]
    src = str(Path(synwatch.__file__).resolve().parents[1])
    runs = {}
    for threads in ("1", "2"):
        work = tmp_path / threads
        work.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "synwatch.cli", command, *args,
             "-o", "out.csv"], cwd=work, env=env, capture_output=True,
            timeout=120)
        assert result.returncode == 0, result.stderr
        runs[threads] = {path.name: path.read_bytes()
                         for path in sorted(work.iterdir())}
        runs[threads].update(stdout=result.stdout, stderr=result.stderr)
    assert len(runs["1"]) == 5  # out.csv, its manifest and its sidecar
    assert runs["1"] == runs["2"]


def test_usage_error_exit_code_distinct(runner, tmp_path):
    result = runner.invoke(main, ["synth", "--length", "-5",
                                  "-o", str(tmp_path / "x.csv")])
    assert result.exit_code == 2


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "synwatch" in result.output


def test_command_options_pinned():
    # a new flag, or one taken away, must show in this list; no option
    # reads an environment variable
    options = {name: [param.opts[-1] for param in command.params]
               for name, command in main.commands.items()}
    assert options == {
        "synth": ["--length", "--attacks", "--baseline-mean",
                  "--baseline-std", "--attack-min-len", "--attack-max-len",
                  "--attack-multiplier", "--seed", "--output"],
        "ingest": ["packets", "--step-seconds", "--start", "--end",
                   "--output"],
        "train": ["series", "--lag", "--hidden", "--lr", "--epochs",
                  "--seed", "--output"],
        "compare-lags": ["series", "--hidden", "--lr", "--epochs", "--seed",
                         "--output"],
        "calibrate": ["model", "validation", "--mat", "--alpha", "--beta",
                      "--beta-list", "--ret", "--scaler", "--output"],
        "detect": ["model", "config", "test", "--scaler", "--output"],
        "split": ["series", "--train-fraction", "--validation-fraction",
                  "--output"]}
    assert all(param.envvar is None for command in main.commands.values()
               for param in command.params)


def test_public_names_pinned():
    # a change to the package's public surface must show in this list
    import synwatch
    assert sorted(synwatch.__all__) == [
        "AlarmEvent", "CalibrationGrid", "DataError", "Detector",
        "DetectorConfig", "DivergenceError", "EvalReport",
        "LabeledTimeSeries", "LstmParams", "Scaler", "StepVerdict",
        "SynthConfig", "TimeSeries", "TrainConfig", "TrainReport",
        "WindowSet", "aggregate_counts", "bptt_gradients", "build_windows",
        "calibrate", "calibration", "default_grid", "detector", "errors",
        "evaluate", "fit_scaler", "generate_synthetic", "init_params",
        "kernels", "load_model", "load_series", "load_tshark_csv", "lstm",
        "pipeline", "predict_window", "predict_windows", "prediction_pairs",
        "relative_error", "replay_trace", "save_model", "save_series",
        "segment_alarms", "split_protocol", "train"]


#: Pinned command runs: the flags of each, but for ``-o``.  Every command
#: runs at least once on its defaults; ``train`` and ``compare-lags`` train
#: with all of theirs.
PINNED_RUNS = {
    "synth": ["synth", "--length", "300", "--attacks", "2",
              "--baseline-mean", "80", "--baseline-std", "6",
              "--attack-min-len", "5", "--attack-max-len", "9",
              "--attack-multiplier", "3.5", "--seed", "7"],
    "synth-defaults": ["synth", "--length", "120"],
    "ingest": ["ingest", "{work}/capture.csv"],
    "ingest-range": ["ingest", "{work}/capture.csv", "--step-seconds",
                     "0.2500004", "--start", "2021-03-28 00:59:59",
                     "--end", "2021-03-28T01:00:30.5"],
    "train": ["train", "{work}/normal.csv"],
    "compare-lags": ["compare-lags", "{work}/normal.csv"],
    "calibrate": ["calibrate", "{work}/model.txt", "{work}/val.csv"],
    "calibrate-flags": ["calibrate", "{work}/model.txt", "{work}/val.csv",
                        "--mat", "10", "--alpha", "0.5", "--ret", "0.45",
                        "--beta-list", "0.5,0.46,0.5",
                        "--scaler", "{work}/own.scaler"],
    "detect": ["detect", "{work}/model.txt", "{work}/detector.cfg",
               "{work}/val.csv"],
    "detect-scaler": ["detect", "{work}/model.txt", "{work}/detector.cfg",
                      "{work}/normal.csv", "--scaler", "{work}/own.scaler"],
    "split": ["split", "{work}/val.csv", "--train-fraction", "0.05",
              "--validation-fraction", "0.5"],
}

#: Each run's output name; what it writes lands next to it.
PINNED_OUTPUT = {"train": "model.txt", "calibrate": "detector.cfg",
                 "compare-lags": "table.csv", "split": "part"}


#: sha256 of what each pinned run wrote, printed and logged, taken from
#: the commands as they stood before their manifests were built from
#: their parameters (``blas_free`` masks the training runs).
PINNED_DIGESTS = {
    'synth': {
        'out.csv':
            '58f5d9a22bf13e30996cd786c6f3d2459f00b17621fe2631e1cbb3294d1d748c',
        'out.csv.manifest.json':
            '17fcd90d326e39408990b71314c28f00086dfa38dfec80f9faf76966b16a9e83',
        'stdout':
            '97bf4bdf7698a07ef6de59697c5e5e7b6f19a01c78d11bb0d7d4407130d8dc4e',
        'stderr':
            'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
    'synth-defaults': {
        'out.csv':
            '33b7d17da2ea738dea435d6f4278c6de0aab76f584c3b502ed47c54ed257a6f2',
        'out.csv.manifest.json':
            'ddce9f5e2da4fb17923d4750342707a240b45e0ceb7fb1b457dd37592ec43f82',
        'stdout':
            'cbfb7bb7ce61f9236d6e5881c24de3e7178f7d4ce08aeff5dedf09f6f7a49f17',
        'stderr':
            'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
    'ingest': {
        'out.csv':
            '75900cb8d3a9482af4cc40746036e50f9d1cb7c8c0085b150440f8a18acd500d',
        'out.csv.manifest.json':
            'd8854c055d46f09deb6fe649486ef370d6e63fdbf462cec7d50eeda61d1b17c2',
        'stdout':
            'e09272e675baa9d20be6e870294e297a11e9ce56a34c7fcf9dee24ea8a4f07b9',
        'stderr':
            '2978c1b0b8a8b71da9cc789aa620a14ee0a991e44b7469b7a7aec0936b8fc11d',
    },
    'ingest-range': {
        'out.csv':
            '4f08f77cb6427a4bec2baec668e6ea58764a855893c81a74ffdad276ff2d1726',
        'out.csv.manifest.json':
            '0bd448fc24ed6f2130f3cb11e9e442ac2a628647f9f85835b4fbf4cf15e5c6fa',
        'stdout':
            'be66006c535ac1e212a321f89acb829bd76daa00103060ff87cfc965bbbd06e4',
        'stderr':
            '2978c1b0b8a8b71da9cc789aa620a14ee0a991e44b7469b7a7aec0936b8fc11d',
    },
    'train': {
        'model.txt.manifest.json':
            'e04a38366da27f69d13f36171d145c6fd2682e84106f31c60a971b446d369fe8',
        'model.txt.scaler':
            '637ffdbbdec23d40deeb8a251f8422832830129f215a06be9ae12e5e9bd40c53',
        'stdout':
            '578fbed896f6746d7709afc5594e6c244bb285d92d727289a917b1b6bf727c50',
        'stderr':
            'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
    'compare-lags': {
        'table.csv':
            '5447652febf4d10bbfda4192036a4a3f9a8ddc5a90b7c1e62b2fc4e2be510924',
        'table.csv.manifest.json':
            'abc7df475ab2369eb96ea8bac226cd64f93019b9da10940f0d6c26999e03e0b5',
        'stdout':
            '6ac535f0df2570fd3cf2850f1d0a635149ad89e181bfd44540b9630f1fe8c96a',
        'stderr':
            'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
    'calibrate': {
        'detector.cfg':
            '8860fd9f84859981a104b3e0d1e3a17d9960894bae21edb1c6947df8f55ca09e',
        'detector.cfg.manifest.json':
            '2edf39adcd7c03346b8ea8f7a05950b69151f28fc82157e4ef50f45cdcdf51f3',
        'detector.cfg.sweep.csv':
            'a8f66f904b5a054bf70491751e0e3ecc2efbb55c09798f368a9fc2a7a66df08e',
        'stdout':
            '5984f9cc2b7aaee1ef52885bd7e4d4f49c58210688cf247991704f64bced8372',
        'stderr':
            'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
    'calibrate-flags': {
        'detector.cfg':
            'bb3133145bf098195a4021572377aabfebd702f7fac7ff06d4f3af932e27fad8',
        'detector.cfg.manifest.json':
            '97a55ba78d0f666ef15c66a48598e2aa6a0adf4b84d1c13270d45b4f152ec4ec',
        'detector.cfg.sweep.csv':
            '9644ab6ae246df37c6433faee37182e9495da06bca26b5ede24f8f724e49a6a0',
        'stdout':
            '41318c97d3e76bdd6f5d30815df45fa5559dccd2717c23f7dd3195f6289ec306',
        'stderr':
            'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
    'detect': {
        'out.csv':
            '3845e2c4bd08ccea058d44da0a955810f4a0a5017033322f14630717fe62e103',
        'out.csv.alarms.csv':
            '221df602b9797a1f4c91ae4f496b24a0881cde4d576f233cf8bfc0d01bc32ec8',
        'out.csv.manifest.json':
            '0d18610b3640e1c6678c21f031d4d3e7f07c0b7c77c4c73acf88a7e36655e803',
        'stdout':
            '05c14c6dd8c42723d1a5567d266daf11a87bd7ccbb794fe2ffafa1f7508fc152',
        'stderr':
            'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
    'detect-scaler': {
        'out.csv':
            '3e5b0543548733542977b44eb93ad21a067c6c4896985b6b211a0dc90de35de6',
        'out.csv.alarms.csv':
            'fa42555a22685cdc00c7978a83e2d92ee6376acbd23dd83026ba37dd0cd15c78',
        'out.csv.manifest.json':
            '5e0d549e23ccd240fe5b07b9c35e6e02fe30e4540bb6b842d1caafa2b8ec55a3',
        'stdout':
            '8a67fc9492fcfb6a8197308be5214f70a8ef9d6f0c561510e925d45b35446126',
        'stderr':
            'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
    'split': {
        'part.manifest.json':
            '7c9944fa24fb1e249974085426e435a827d087580deee3104770f1b875e9487d',
        'part.test.csv':
            'b03b64da6fb0a140498f220b0bb2f552711fbfde4dc7cd647980f1cb84b3953a',
        'part.train.csv':
            'c872c887efebc497de2ae9c5a2eccc4f258d40f469befc8dd1945bc4f80a587c',
        'part.validation.csv':
            '46e79ba24e7d1c2d5f58b113897fcb7d2e34481703e0ff1835dc9acc6826fba1',
        'stdout':
            '46adcc5f637e3cf885f2f3d2f12c197bcc5f3e3af09584110d3967bcebfe32d0',
        'stderr':
            'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
    },
}

#: sha256 of ``--help``, by command ("" is the group's own), at a
#: terminal width of 80.  Taken with the pinned runs; since then only
#: ``--scaler PATH`` has changed, to ``--scaler FILE``.
HELP_DIGESTS = {
    '':
        '7d2ca8a597837618821be37f0e7f64e9cec83aa2173279d705dcd2764f51278e',
    'calibrate':
        '57a14dffc9ac19e9ef0c4e505e6330b4a83e46fc05865428208cdfe29dcfcb87',
    'compare-lags':
        '1456daff0249f5fadc3f74b1bff66c856d58ce27599b68efa02ca74071be4807',
    'detect':
        'b3645ec704cd1186ad60c65228ceb014c7e9c9930801d98f1739d89a5878cf3e',
    'ingest':
        'ed69cd74d14bc18b4973e9d3d6091f8322d1dc26a2af606b932e895835e5bdcb',
    'split':
        '9ef94aa8da08d12d63fcb1805233aaccbec9e4ce8a934e5e3ff2276ac8fc6a86',
    'synth':
        '5c196022ec8098dda975c1b2dbc1e558e41ea9860ae9ac359c1d217089ad8452',
    'train':
        '2ace6d40dea48be9008a2c3ac13d9d25f58a151ca2eb3f3f9f2052802cc291af',
}

@pytest.fixture(scope="module")
def pinned_runs(pinned_calibrate_inputs, tmp_path_factory):
    """Every pinned run in its own directory of one work tree: its stdout,
    its stderr and the bytes of every file it wrote, with the work tree's
    path masked as ``{work}``."""
    work = tmp_path_factory.mktemp("runs")
    model, val = pinned_calibrate_inputs
    shutil.copyfile(model, work / "model.txt")
    shutil.copyfile(f"{model}.scaler", work / "model.txt.scaler")
    shutil.copyfile(val, work / "val.csv")
    (work / "own.scaler").write_text("offset=60 scale=12\n")
    (work / "detector.cfg").write_text("ret=0.45 mat=12 alpha=0.5 beta=0.47\n")
    (work / "capture.csv").write_text(mixed_capture(random.Random(19), 400),
                                      encoding="utf-8")
    runner = CliRunner()
    made = runner.invoke(main, ["synth", "--length", "160", "--seed", "3",
                                "-o", str(work / "normal.csv")])
    assert made.exit_code == 0, made.output
    runs = {}
    for name, args in PINNED_RUNS.items():
        (work / name).mkdir()
        output = work / name / PINNED_OUTPUT.get(args[0], "out.csv")
        result = runner.invoke(main, [*(arg.format(work=work) for arg in args),
                                      "-o", str(output)])
        assert result.exit_code == 0, result.output
        runs[name] = {
            path.name: path.read_bytes().replace(str(work).encode(), b"{work}")
            for path in sorted((work / name).iterdir())}
        runs[name]["stdout"] = result.stdout_bytes.replace(
            str(work).encode(), b"{work}")
        runs[name]["stderr"] = result.stderr_bytes
    return work, runs


def library_training(series_path, lag):
    """Model file bytes, curve bytes and final loss of a training run on
    the README's defaults, made through the library: the parts of the
    ``train`` and ``compare-lags`` outputs that depend on the BLAS build."""
    series = load_series(series_path).series
    params, report = train(
        TrainConfig(learning_rate=0.01, epochs=1500, hidden_dim=23, lag=lag,
                    rng_seed=0),
        scale_windows(build_windows(series, lag), fit_scaler(series)))
    model = Path(f"{series_path}.lag{lag}.model")
    save_model(model, params)
    curve = "epoch,loss\n" + "".join(
        f"{i + 1},{loss:.17g}\n" for i, loss in enumerate(report.epoch_losses))
    return (model.read_bytes(), curve.encode(),
            f"{report.epoch_losses[-1]:.17g}".encode())


def blas_free(name, work, files):
    """``files`` of the pinned run ``name`` with the outputs that depend on
    the BLAS build checked against ``library_training`` and taken out, and
    its losses and wall-clock seconds masked as ``{loss}`` and ``{s}``."""
    files = dict(files)
    if name == "train":
        model, curve, loss = library_training(work / "normal.csv", 3)
        assert files.pop("model.txt") == model
        assert files.pop("model.txt.curve.csv") == curve
        files["stdout"] = files["stdout"].replace(loss, b"{loss}")
    elif name == "compare-lags":
        for lag in (1, 2, 3):
            loss = library_training(work / "normal.csv", lag)[2]
            for key in ("table.csv", "stdout"):
                assert files[key].count(loss) == 1
                files[key] = files[key].replace(loss, b"{loss}")
        files["table.csv"] = re.sub(rb"\},[0-9.]+\n", b"},{s}\n",
                                    files["table.csv"])
    files["stdout"] = re.sub(rb"seconds=[0-9.]+", b"seconds={s}",
                             files["stdout"])
    return files


@pytest.mark.parametrize("name", PINNED_RUNS)
def test_command_outputs_pinned(pinned_runs, name):
    # every file a command writes, its manifest, stdout and stderr, byte
    # for byte
    work, runs = pinned_runs
    digests = {key: hashlib.sha256(data).hexdigest()
               for key, data in blas_free(name, work, runs[name]).items()}
    assert digests == PINNED_DIGESTS[name]


@pytest.mark.parametrize("command", sorted(main.commands))
def test_manifest_covers_every_parameter(pinned_runs, command):
    # a manifest names each file parameter under inputs and every other
    # parameter under config, by its name; -o names the outputs
    params = main.commands[command].params
    files = {param.name for param in params
             if isinstance(param.type, click.Path)} - {"output"}
    names = {param.name for param in params} - {"output"}
    work, runs = pinned_runs
    manifests = [json.loads(files_[key]) for name, files_ in runs.items()
                 if PINNED_RUNS[name][0] == command
                 for key in files_ if key.endswith(".manifest.json")]
    assert manifests
    for manifest in manifests:
        assert manifest["command"] == command
        assert set(manifest["inputs"]) == files
        assert names - files <= set(manifest["config"])


@pytest.mark.parametrize("command", ["", *sorted(main.commands)])
def test_help_pinned(runner, command):
    result = runner.invoke(main, [command, "--help"] if command else
                           ["--help"], terminal_width=80)
    assert result.exit_code == 0, result.output
    assert (hashlib.sha256(result.stdout_bytes).hexdigest()
            == HELP_DIGESTS[command])
