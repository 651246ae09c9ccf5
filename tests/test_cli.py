"""End-to-end command behavior through click's test runner."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from synwatch.cli import main
from synwatch.detector import DetectorConfig, read_alarms, read_verdicts, \
    segment_alarms
from synwatch.lstm import load_model, save_model
from synwatch.pipeline import load_series

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

    def test_seed_env_fallback(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        runner.invoke(main, ["synth", "--length", "50", "-o", str(a)],
                      env={"CLD_SEED": "31"})
        runner.invoke(main, ["synth", "--length", "50", "--seed", "31",
                             "-o", str(b)])
        assert a.read_text().replace("a.csv", "b.csv") == b.read_text()


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

    @pytest.mark.parametrize("flags, message", [
        (["--start", "garbage"],
         "--start: unrecognized timestamp: 'garbage'"),
        (["--end", "1999-13-01T00:00:00"], "--end: unrecognized timestamp"),
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
        model = tmp_path / "m.txt"
        result = runner.invoke(main, ["train", workspace["train"],
                                      "--epochs", "2", "--hidden", "2",
                                      flag, value, "-o", str(model)])
        assert result.exit_code == 2
        assert "finite and positive" in result.output
        assert not model.exists()


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


def test_usage_error_exit_code_distinct(runner, tmp_path):
    result = runner.invoke(main, ["synth", "--length", "-5",
                                  "-o", str(tmp_path / "x.csv")])
    assert result.exit_code == 2


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "synwatch" in result.output
