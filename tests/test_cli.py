import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from venncal.cli import main
from venncal.data import generate_synthetic, write_score_file
from venncal.ivap import IvapCalibrator
from venncal.merging import merge_log


def run_cli(*args):
    return main([str(a) for a in args])


def write_dataset_csv(path, ds):
    with open(path, "w", newline="") as fh:
        fh.write("x,label\n")
        for x, y in zip(ds.X[:, 0], ds.y):
            fh.write(f"{float(x)!r},{int(y)}\n")


class TestSynth:
    def test_row_count_and_rerun_identical(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run_cli("synth", "--n", 1000, "--seed", 1, "--out", out) == 0
        first = out.read_bytes()
        assert first.decode().count("\n") == 1001
        assert run_cli("synth", "--n", 1000, "--seed", 1, "--out", out) == 0
        assert out.read_bytes() == first

    def test_zero_rows_is_usage_error(self, tmp_path):
        assert run_cli("synth", "--n", 0, "--out", tmp_path / "d.csv") == 2

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "d.csv"
        run_cli("synth", "--n", 5, "--seed", 3, "--out", out)
        manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["settings"]["seed"] == 3


class TestCalibrate:
    def test_interval_output_has_three_columns(self, tmp_path):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        write_dataset_csv(train, generate_synthetic(300, seed=1))
        write_dataset_csv(test, generate_synthetic(50, seed=2))
        out = tmp_path / "p.csv"
        code = run_cli("calibrate", "--method", "ivap", "--train", train, "--test", test,
                       "--ratio", "2:1", "--seed", 4, "--out", out, "--intervals")
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "p0,p1,p"
        assert len(lines) == 51
        p0, p1, p = map(float, lines[1].split(","))
        assert 0 <= p0 < p1 <= 1 and 0 < p < 1

    def test_ivap_score_files_match_library(self, tmp_path):
        rng = np.random.default_rng(8)
        cal_s = rng.normal(size=60)
        cal_y = rng.integers(0, 2, size=60)
        test_s = rng.normal(size=25)
        cal_file = tmp_path / "cal.csv"
        test_file = tmp_path / "test.csv"
        write_score_file(cal_file, cal_s, cal_y)
        write_score_file(test_file, test_s)
        out = tmp_path / "p.csv"
        code = run_cli("calibrate", "--method", "ivap", "--calib-scores", cal_file,
                       "--scores-in", test_file, "--out", out)
        assert code == 0
        got = np.array([float(line) for line in out.read_text().splitlines()[1:]])
        rule = IvapCalibrator.fit(cal_s, cal_y)
        lo, hi = rule.predict_intervals(test_s)
        assert np.array_equal(got, merge_log(lo[None, :], hi[None, :]))

    def test_cvap_score_files_match_library(self, tmp_path):
        rng = np.random.default_rng(9)
        lows, highs = [], []
        cal_files, test_files = [], []
        test_scores = []
        for k in range(3):
            cal_s = rng.normal(size=40)
            cal_y = rng.integers(0, 2, size=40)
            t_s = rng.normal(size=20)
            cal_path = tmp_path / f"cal{k}.csv"
            test_path = tmp_path / f"test{k}.csv"
            write_score_file(cal_path, cal_s, cal_y)
            write_score_file(test_path, t_s)
            cal_files.append(cal_path)
            test_files.append(test_path)
            rule = IvapCalibrator.fit(cal_s, cal_y)
            lo, hi = rule.predict_intervals(t_s)
            lows.append(lo)
            highs.append(hi)
        out = tmp_path / "p.csv"
        code = run_cli("calibrate", "--method", "cvap", "--folds", 3,
                       "--calib-scores", *cal_files, "--scores-in", *test_files,
                       "--out", out)
        assert code == 0
        got = np.array([float(line) for line in out.read_text().splitlines()[1:]])
        expected = merge_log(np.stack(lows), np.stack(highs))
        assert np.array_equal(got, expected)

    def test_isotonic_can_report_infinite_loss(self, tmp_path, capsys):
        # calibration scores all above the lowest test score; first block is 0
        write_score_file(tmp_path / "cal.csv", [1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])
        write_score_file(tmp_path / "test.csv", [0.0, 2.5])
        out = tmp_path / "p.csv"
        assert run_cli("calibrate", "--method", "isotonic",
                       "--calib-scores", tmp_path / "cal.csv",
                       "--scores-in", tmp_path / "test.csv", "--out", out) == 0
        truth = tmp_path / "truth.csv"
        truth.write_text("x,label\n0.0,1\n2.5,0\n")
        assert run_cli("evaluate", "--pred", out, "--truth", truth) == 0
        printed = capsys.readouterr().out
        assert "MLL        inf" in printed

    def test_feature_route_matches_library_pipeline(self, tmp_path):
        from venncal.cli import _sub_seed
        from venncal.data import SplitSpec, load_csv, split_proper_calibration
        from venncal.scorers import ScorerSpec, train_scorer

        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        write_dataset_csv(train, generate_synthetic(240, seed=6))
        write_dataset_csv(test, generate_synthetic(60, seed=7))
        out = tmp_path / "p.csv"
        assert run_cli("calibrate", "--method", "ivap", "--train", train, "--test", test,
                       "--ratio", "2:1", "--seed", 13, "--randomize-split",
                       "--out", out) == 0
        got = np.array([float(line) for line in out.read_text().splitlines()[1:]])

        train_ds = load_csv(train, "label")
        test_ds = load_csv(test, "label", like=train_ds)
        split = SplitSpec(ratio=(2, 1), permute=True, seed=_sub_seed(13, 0))
        proper, calib = split_proper_calibration(train_ds, split)
        scorer = train_scorer(ScorerSpec("logistic"), proper.X, proper.y)
        rule = IvapCalibrator.fit(scorer.score_many(calib.X), calib.y)
        lo, hi = rule.predict_intervals(scorer.score_many(test_ds.X))
        assert np.array_equal(got, merge_log(lo[None, :], hi[None, :]))

    def test_missing_inputs_is_usage_error(self, tmp_path):
        assert run_cli("calibrate", "--method", "ivap", "--out", tmp_path / "p.csv") == 2

    def test_oversized_field_is_data_error(self, tmp_path, capsys):
        write_score_file(tmp_path / "cal.csv", [1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])
        test = tmp_path / "test.csv"
        test.write_text("score\n" + "1" * 200_000 + "\n")
        assert run_cli("calibrate", "--method", "ivap", "--calib-scores", tmp_path / "cal.csv",
                       "--scores-in", test, "--out", tmp_path / "p.csv") == 3
        limit = csv.field_size_limit()
        assert capsys.readouterr().err == (
            f"data error: {test}: line 2: field larger than field limit ({limit})\n")

    @pytest.mark.parametrize("method, cal, test, message", [
        ("platt", [0.1, float("nan"), 0.9, 0.2], [0.5], "calibration scores must be finite"),
        ("platt", [0.1, float("inf"), 0.9, 0.2], [0.5], "calibration scores must be finite"),
        ("platt", [0.1, 0.5, 0.9, 0.2], [0.5, float("nan")], "test scores must not be NaN"),
        ("isotonic", [0.1, 0.5, 0.9, 0.2], [0.5, float("nan")], "test scores must not be NaN"),
        ("underlying", None, [0.5, float("nan")],
         "underlying scores must already be probabilities in [0, 1]"),
    ])
    def test_non_finite_score_is_data_error(self, tmp_path, capsys, method, cal, test, message):
        args = ["calibrate", "--method", method, "--scores-in", tmp_path / "test.csv",
                "--out", tmp_path / "p.csv"]
        write_score_file(tmp_path / "test.csv", test)
        if cal is not None:
            write_score_file(tmp_path / "cal.csv", cal, [0, 1, 1, 0])
            args += ["--calib-scores", tmp_path / "cal.csv"]
        assert run_cli(*args) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not (tmp_path / "p.csv").exists()

    def test_intervals_flag_restricted(self, tmp_path):
        assert run_cli("calibrate", "--method", "platt", "--intervals",
                       "--out", tmp_path / "p.csv") == 2


class TestEvaluate:
    def test_constant_half_gives_unit_losses(self, tmp_path, capsys):
        pred = tmp_path / "p.csv"
        pred.write_text("p\n" + "0.5\n" * 6)
        truth = tmp_path / "t.csv"
        truth.write_text("x,label\n" + "".join(f"{i},{i % 2}\n" for i in range(6)))
        assert run_cli("evaluate", "--pred", pred, "--truth", truth) == 0
        out = capsys.readouterr().out
        assert "MLL        1.0" in out
        assert "MBL        1.0" in out

    def test_row_mismatch_is_data_error(self, tmp_path):
        pred = tmp_path / "p.csv"
        pred.write_text("p\n0.5\n")
        truth = tmp_path / "t.csv"
        truth.write_text("x,label\n1,0\n2,1\n")
        assert run_cli("evaluate", "--pred", pred, "--truth", truth) == 3

    def test_nan_prediction_is_data_error(self, tmp_path, capsys):
        pred = tmp_path / "p.csv"
        pred.write_text("p\nnan\n0.5\n")
        truth = tmp_path / "t.csv"
        truth.write_text("x,label\n1,0\n2,1\n")
        assert run_cli("evaluate", "--pred", pred, "--truth", truth) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "data error: probabilities out of range\n"

    def test_json_report(self, tmp_path):
        pred = tmp_path / "p.csv"
        pred.write_text("p\n1.0\n0.5\n")
        truth = tmp_path / "t.csv"
        truth.write_text("x,label\n1,1\n2,0\n")
        report = tmp_path / "rep.json"
        assert run_cli("evaluate", "--pred", pred, "--truth", truth, "--out", report) == 0
        data = json.loads(report.read_text())
        assert data["mll"] == 0.5 and data["n"] == 2


class TestCompare:
    def make_files(self, tmp_path, n_train=400, n_test=200):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        write_dataset_csv(train, generate_synthetic(n_train, seed=11))
        write_dataset_csv(test, generate_synthetic(n_test, seed=12))
        return train, test

    def test_five_rows_fixed_order_all_mbl_finite(self, tmp_path):
        train, test = self.make_files(tmp_path)
        out = tmp_path / "table.csv"
        code = run_cli("compare", "--train", train, "--test", test, "--ratio", "2:1",
                       "--seed", 5, "--out", out)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,mll,mbl,n,n_infinite"
        methods = [line.split(",")[0] for line in lines[1:]]
        assert methods == ["underlying", "platt", "isotonic", "ivap", "cvap"]
        for line in lines[1:]:
            mbl = float(line.split(",")[2])
            assert np.isfinite(mbl)

    def test_compare_runs_are_byte_identical(self, tmp_path):
        train, test = self.make_files(tmp_path, 300, 100)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        flags = ["--train", train, "--test", test, "--ratio", "2:1", "--seed", 3]
        assert run_cli("compare", *flags, "--out", out1) == 0
        assert run_cli("compare", *flags, "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.csv.txt").read_bytes() == (tmp_path / "b.csv.txt").read_bytes()
        m1 = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        m2 = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert m1 == m2

    def test_split_methods_share_one_scorer_fit(self, tmp_path, monkeypatch):
        import venncal.cli
        import venncal.cvap

        fits = []

        def counting(module):
            train = module.train_scorer

            def wrapped(*args, **kwargs):
                fits.append(module.__name__)
                return train(*args, **kwargs)
            monkeypatch.setattr(module, "train_scorer", wrapped)

        counting(venncal.cli)
        counting(venncal.cvap)
        train, test = self.make_files(tmp_path, 300, 100)
        assert run_cli("compare", "--train", train, "--test", test, "--ratio", "2:1",
                       "--out", tmp_path / "t.csv") == 0
        # one proper-set fit for underlying/platt/isotonic/ivap, then one per cvap fold
        assert fits == ["venncal.cli"] + ["venncal.cvap"] * 3

    @pytest.mark.parametrize("flags", [
        ["--ratio", "2:1", "--seed", "4"],
        ["--ratio", "2:1", "--seed", "4", "--sigmoid-scores"],
        ["--all-mode", "--folds", "3", "--seed", "4"],
    ])
    def test_each_row_matches_calibrate_then_evaluate(self, tmp_path, flags):
        train, test = self.make_files(tmp_path, 300, 120)
        data = ["--train", train, "--test", test, *flags]
        table = tmp_path / "table.csv"
        assert run_cli("compare", *data, "--out", table) == 0
        rows = [line.split(",") for line in table.read_text().splitlines()[1:]]
        for method, mll, mbl, n, n_inf in rows:
            pred = tmp_path / f"{method}.csv"
            report = tmp_path / f"{method}.json"
            assert run_cli("calibrate", "--method", method, *data, "--out", pred) == 0
            assert run_cli("evaluate", "--pred", pred, "--truth", test, "--out", report) == 0
            got = json.loads(report.read_text())
            assert (float(mll), float(mbl), int(n), int(n_inf)) == (
                got["mll"], got["mbl"], got["n"], got["n_infinite"]), method

    def test_degenerate_model_exit_code(self, tmp_path):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        train.write_text("x,label\n" + "".join(f"{i}.0,{int(i >= 3)}\n" for i in range(6)))
        test.write_text("x,label\n1.0,0\n")
        # 5:1 split leaves a single-class calibration part upstream of platt;
        # the single-class proper part is hit first by the logistic scorer
        code = run_cli("compare", "--train", train, "--test", test, "--ratio", "1:5",
                       "--out", tmp_path / "t.csv")
        assert code == 4


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "venncal", "synth", "--n", "2",
                           "--seed", "0", "--out", "/tmp/venncal_entry_test.csv"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
