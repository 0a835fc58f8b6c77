import argparse
import csv
import json
import subprocess
import sys

import numpy as np
import pytest

import oracles
import venncal.cvap
from venncal.cli import TUNE_RIDGE_GRID, _tuned_ridge, build_parser, main
from venncal.cvap import assign_folds
from venncal.data import generate_synthetic
from venncal.ivap import IvapCalibrator
from venncal.merging import merge, merged_interval
from venncal.scorers import ScorerSpec, train_scorer


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

    def test_manifest_records_every_flag_but_out(self, tmp_path):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        write_dataset_csv(train, generate_synthetic(200, seed=1))
        write_dataset_csv(test, generate_synthetic(40, seed=2))
        flags = ["--train", train, "--test", test, "--ratio", "2:1"]
        runs = [("calibrate", "--method", "ivap", "--positive-label", "0"),
                ("calibrate", "--method", "ivap", "--positive-label", "1"),
                ("compare", "--positive-label", "0")]
        subs = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
        labels = []
        for i, (command, *extra) in enumerate(runs):
            out = tmp_path / f"out{i}.csv"
            assert run_cli(command, *extra, *flags, "--out", out) == 0
            manifest = json.loads((tmp_path / f"out{i}.csv.manifest.json").read_text())
            destinations = {a.dest for a in subs[command]._actions} - {"help", "out"}
            assert manifest["command"] == command
            assert set(manifest["settings"]) == destinations
            assert manifest["settings"]["no_header"] is False
            labels.append(manifest["settings"]["positive_label"])
        assert labels == ["0", "1", "0"]


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
        oracles.write_score_file(cal_file, cal_s, cal_y)
        oracles.write_score_file(test_file, test_s)
        out = tmp_path / "p.csv"
        code = run_cli("calibrate", "--method", "ivap", "--calib-scores", cal_file,
                       "--scores-in", test_file, "--out", out)
        assert code == 0
        got = np.array([float(line) for line in out.read_text().splitlines()[1:]])
        rule = IvapCalibrator.fit(cal_s, cal_y)
        lo, hi = rule.predict_intervals(test_s)
        assert np.array_equal(got, merge(lo[None, :], hi[None, :], "log"))

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
            oracles.write_score_file(cal_path, cal_s, cal_y)
            oracles.write_score_file(test_path, t_s)
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
        expected = merge(np.stack(lows), np.stack(highs), "log")
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("route", ["features", "score_files"])
    def test_cvap_interval_columns_match_library(self, tmp_path, route):
        from venncal.cli import _sub_seed
        from venncal.cvap import CvapCalibrator
        from venncal.data import load_csv
        from venncal.scorers import ScorerSpec

        out = tmp_path / "p.csv"
        if route == "features":
            train, test = tmp_path / "train.csv", tmp_path / "test.csv"
            write_dataset_csv(train, generate_synthetic(300, seed=3))
            write_dataset_csv(test, generate_synthetic(80, seed=4))
            assert run_cli("calibrate", "--method", "cvap", "--train", train, "--test", test,
                           "--folds", 4, "--seed", 2, "--intervals", "--out", out) == 0
            train_ds = load_csv(train, "label")
            model = CvapCalibrator.fit(train_ds, 4, ScorerSpec("logistic"))  # contiguous folds
            lo, hi = model.predict_intervals_many(load_csv(test, "label", like=train_ds).X)
        else:
            rng = np.random.default_rng(10)
            cal, tests, lows, highs = [], [], [], []
            for k in range(3):
                cal_s, cal_y = rng.normal(size=50), rng.integers(0, 2, size=50)
                t_s = rng.normal(size=30)
                cal.append(tmp_path / f"cal{k}.csv")
                tests.append(tmp_path / f"test{k}.csv")
                oracles.write_score_file(cal[-1], cal_s, cal_y)
                oracles.write_score_file(tests[-1], t_s)
                fold_lo, fold_hi = IvapCalibrator.fit(cal_s, cal_y).predict_intervals(t_s)
                lows.append(fold_lo)
                highs.append(fold_hi)
            assert run_cli("calibrate", "--method", "cvap", "--calib-scores", *cal,
                           "--scores-in", *tests, "--intervals", "--out", out) == 0
            lo, hi = np.stack(lows), np.stack(highs)
        lines = out.read_text().splitlines()
        assert lines[0] == "p0,p1,p"
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        want_lo, want_hi = merged_interval(lo, hi)
        assert got[:, 0].tobytes() == want_lo.tobytes()
        assert got[:, 1].tobytes() == want_hi.tobytes()
        assert got[:, 2].tobytes() == merge(lo, hi, "log").tobytes()

    @pytest.mark.parametrize("features", [["--train", "TRAIN", "--test", "TRAIN"],
                                          ["--train", "TRAIN"], ["--test", "TRAIN"]],
                             ids=["train_test", "train", "test"])
    @pytest.mark.parametrize("scores", [["--calib-scores", "CAL", "--scores-in", "TEST"],
                                        ["--scores-in", "TEST"], ["--calib-scores", "CAL"],
                                        ["--scores-in"]],
                             ids=["calib_scores_in", "scores_in", "calib", "no_file"])
    def test_feature_and_score_files_together_is_usage_error(self, tmp_path, capsys,
                                                             features, scores):
        paths = {"TRAIN": tmp_path / "train.csv", "CAL": tmp_path / "cal.csv",
                 "TEST": tmp_path / "test.csv"}
        write_dataset_csv(paths["TRAIN"], generate_synthetic(60, seed=1))
        oracles.write_score_file(paths["CAL"], [1.0, 2.0, 3.0, 4.0], [0, 1, 0, 1])
        oracles.write_score_file(paths["TEST"], [0.5, 1.5])
        argv = [paths.get(a, a) for a in [*features, *scores]]
        out = tmp_path / "p.csv"
        assert run_cli("calibrate", "--method", "ivap", "--ratio", "2:1", *argv,
                       "--out", out) == 2
        assert capsys.readouterr().err == (
            "usage error: calibrate takes --train/--test or score files, not both\n")
        assert list(tmp_path.glob("p.csv*")) == []

    def test_isotonic_can_report_infinite_loss(self, tmp_path, capsys):
        # calibration scores all above the lowest test score; first block is 0
        oracles.write_score_file(tmp_path / "cal.csv", [1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])
        oracles.write_score_file(tmp_path / "test.csv", [0.0, 2.5])
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
        from venncal.data import load_csv, split_proper_calibration
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
        proper, calib = split_proper_calibration(train_ds, (2, 1), shuffle_seed=_sub_seed(13, 0))
        scorer = train_scorer(ScorerSpec("logistic"), proper.X, proper.y)
        rule = IvapCalibrator.fit(scorer.score_many(calib.X), calib.y)
        lo, hi = rule.predict_intervals(scorer.score_many(test_ds.X))
        assert np.array_equal(got, merge(lo[None, :], hi[None, :], "log"))

    def test_test_file_never_moves_fill_values(self, tmp_path):
        # the two test files agree on the rows with a missing cell and differ
        # elsewhere; fill values from the test rows would move those rows
        rng = np.random.default_rng(3)
        train_rows = []
        for i, y in enumerate(rng.integers(0, 2, size=60)):
            a = "?" if i % 7 == 3 else repr(float(y + rng.normal()))
            c = "?" if i % 5 == 1 else ("u" if rng.random() < 0.2 + 0.6 * y else "v")
            train_rows.append(f"{a},{c},{y}")
        train = tmp_path / "train.csv"
        train.write_text("a,c,label\n" + "\n".join(train_rows) + "\n")
        probabilities = []
        for name, other in (("low", "-2.0,u"), ("high", "900.0,v")):
            test = tmp_path / f"{name}.csv"
            test.write_text("a,c,label\n?,u,0\n0.5,?,1\n" + f"{other},0\n" * 8)
            out = tmp_path / f"{name}.p.csv"
            assert run_cli("calibrate", "--method", "underlying", "--train", train,
                           "--test", test, "--ratio", "1:1", "--out", out) == 0
            probabilities.append(out.read_text().splitlines()[1:])
        low, high = probabilities
        assert low[:2] == high[:2]
        assert low[2] != high[2]

    def test_missing_inputs_is_usage_error(self, tmp_path):
        assert run_cli("calibrate", "--method", "ivap", "--out", tmp_path / "p.csv") == 2

    def test_oversized_field_is_data_error(self, tmp_path, capsys):
        oracles.write_score_file(tmp_path / "cal.csv", [1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])
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
        ("isotonic", [0.1, float("inf"), 0.9, 0.2], [0.5], "calibration scores must be finite"),
        ("isotonic", [0.1, float("-inf"), 0.9, 0.2], [0.5], "calibration scores must be finite"),
    ])
    def test_non_finite_score_is_data_error(self, tmp_path, capsys, method, cal, test, message):
        args = ["calibrate", "--method", method, "--scores-in", tmp_path / "test.csv",
                "--out", tmp_path / "p.csv"]
        oracles.write_score_file(tmp_path / "test.csv", test)
        if cal is not None:
            oracles.write_score_file(tmp_path / "cal.csv", cal, [0, 1, 1, 0])
            args += ["--calib-scores", tmp_path / "cal.csv"]
        assert run_cli(*args) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not (tmp_path / "p.csv").exists()

    def test_non_finite_feature_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        rows = [f"{float(x)!r},{i % 2}" for i, x in enumerate(np.linspace(-1.0, 1.0, 60))]
        rows[2] = "inf,0"
        data.write_text("x,label\n" + "\n".join(rows) + "\n")
        assert run_cli("calibrate", "--method", "platt", "--train", data, "--test", data,
                       "--ratio", "1:1", "--out", tmp_path / "p.csv") == 3
        assert capsys.readouterr().err == "data error: training features must be finite\n"
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("cell", ["nan", " NaN ", "-nan"])
    def test_nan_feature_cell_is_data_error(self, tmp_path, capsys, cell):
        # a cell parsing to NaN is neither a number nor a missing marker
        data = tmp_path / "data.csv"
        rows = [f"{float(x)!r},{i % 2}" for i, x in enumerate(np.linspace(-1.0, 1.0, 60))]
        rows[2] = f"{cell},0"
        rows[5] = "?,1"
        data.write_text("x,label\n" + "\n".join(rows) + "\n")
        assert run_cli("calibrate", "--method", "platt", "--train", data, "--test", data,
                       "--ratio", "1:1", "--out", tmp_path / "p.csv") == 3
        assert capsys.readouterr().err == (
            f"data error: {data}: line 4: column 'x': expected a number, got {cell.strip()!r}\n")
        assert not (tmp_path / "p.csv").exists()

    def test_intervals_flag_restricted(self, tmp_path):
        assert run_cli("calibrate", "--method", "platt", "--intervals",
                       "--out", tmp_path / "p.csv") == 2

    @pytest.mark.parametrize("method, n_cal, tests, extra, code, err", [
        ("cvap", 1, [[0.5, 1.5]], [],
         2, "usage error: cvap on score files needs one --calib-scores file per fold"),
        ("cvap", 2, [[0.5, 1.5]], [],
         2, "usage error: cvap needs one --scores-in file per fold, aligned by row"),
        ("cvap", 2, [[0.5, 1.5]] * 2, ["--folds", "3"],
         2, "usage error: --folds disagrees with the number of score files"),
        ("cvap", 2, [[0.5, 1.5], [0.5, 1.5, 2.5]], [],
         3, "data error: per-fold test score files have different lengths"),
        # fold 0 is queried before fold 1's test file is read
        ("cvap", 2, [[0.5, float("inf")], [0.5, 1.5, 2.5]], [],
         3, "data error: test scores must be finite"),
        ("ivap", 1, [[0.5, 1.5]] * 2, [], 2, "usage error: expected exactly one --scores-in file"),
        ("platt", 2, [[0.5, 1.5]], [],
         2, "usage error: method 'platt' expects exactly one --calib-scores file"),
    ], ids=["cvap_calib_files", "cvap_test_files", "cvap_folds", "cvap_lengths",
            "cvap_first_bad_fold", "one_test_file", "one_calib_file"])
    def test_score_file_routes_reject_bad_file_sets(self, tmp_path, capsys, method, n_cal,
                                                    tests, extra, code, err):
        cal = [tmp_path / f"cal{k}.csv" for k in range(n_cal)]
        test = [tmp_path / f"test{k}.csv" for k in range(len(tests))]
        for path in cal:
            oracles.write_score_file(path, [1.0, 2.0, 3.0, 4.0], [0, 1, 0, 1])
        for path, scores in zip(test, tests):
            oracles.write_score_file(path, scores)
        assert run_cli("calibrate", "--method", method, "--calib-scores", *cal,
                       "--scores-in", *test, *extra, "--out", tmp_path / "p.csv") == code
        assert capsys.readouterr().err == err + "\n"
        assert not (tmp_path / "p.csv").exists()

    def test_split_method_without_ratio_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_dataset_csv(data, generate_synthetic(60, seed=1))
        assert run_cli("calibrate", "--method", "ivap", "--train", data, "--test", data,
                       "--out", tmp_path / "p.csv") == 2
        assert capsys.readouterr().err == (
            "usage error: method 'ivap' needs --ratio (or --all-mode)\n")
        assert not (tmp_path / "p.csv").exists()

    def test_zero_folds_is_data_error(self, tmp_path, capsys):
        # --folds 0 is a fold count, not "unset": it fails as --folds 1 does
        data = tmp_path / "data.csv"
        write_dataset_csv(data, generate_synthetic(60, seed=1))
        assert run_cli("calibrate", "--method", "cvap", "--train", data, "--test", data,
                       "--folds", 0, "--out", tmp_path / "p.csv") == 3
        assert capsys.readouterr().err == "data error: need at least 2 folds, got 0\n"
        assert not (tmp_path / "p.csv").exists()


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

    @pytest.mark.parametrize("flag", ["--calib-scores", "--scores-in"])
    def test_score_file_flags_rejected(self, tmp_path, capsys, flag):
        train, test = self.make_files(tmp_path, 60, 20)
        oracles.write_score_file(tmp_path / "s.csv", [0.5, 1.5])
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("compare", "--train", train, "--test", test, "--ratio", "2:1",
                    flag, tmp_path / "s.csv", "--out", out)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.glob("t.csv*")) == []

    def test_all_mode_with_zero_folds_is_data_error(self, tmp_path, capsys):
        train, test = self.make_files(tmp_path, 100, 20)
        out = tmp_path / "t.csv"
        assert run_cli("compare", "--train", train, "--test", test, "--all-mode",
                       "--folds", 0, "--out", out) == 3
        assert capsys.readouterr().err == "data error: need at least 2 folds, got 0\n"
        assert list(tmp_path.glob("t.csv*")) == []

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


class TestTune:
    @staticmethod
    def brier_totals(ds, n_folds):
        """Each grid ridge's cumulative Brier loss over contiguous folds, as a plain loop."""
        fold_of = assign_folds(len(ds), n_folds)
        totals = []
        for ridge in TUNE_RIDGE_GRID:
            total = 0.0
            for k in range(n_folds):
                rest, fold = np.flatnonzero(fold_of != k), np.flatnonzero(fold_of == k)
                scorer = train_scorer(ScorerSpec(ridge=ridge), ds.X[rest], ds.y[rest])
                p = scorer.probability_many(ds.X[fold])
                total += float(np.sum(4.0 * (ds.y[fold] - p) ** 2))
            totals.append(total)
        return totals

    @pytest.mark.parametrize("n, seed, n_folds, ridge", [
        (200, 5, 4, 1e-6), (12, 0, 3, 1e-4), (60, 1, 3, 1e-2), (12, 3, 3, 1.0)])
    def test_picks_the_least_cumulative_brier_loss(self, n, seed, n_folds, ridge):
        ds = generate_synthetic(n, seed)
        totals = self.brier_totals(ds, n_folds)
        assert TUNE_RIDGE_GRID[totals.index(min(totals))] == ridge
        assert _tuned_ridge(ds, n_folds, ScorerSpec()) == ridge

    def test_tie_keeps_the_first_grid_value(self):
        # the constant scorer ignores the ridge, so every grid value scores alike
        ds = generate_synthetic(40, 2)
        assert _tuned_ridge(ds, 4, ScorerSpec("constant")) == TUNE_RIDGE_GRID[0]

    def test_fits_contiguous_folds_through_cvap(self, tmp_path, monkeypatch):
        seen = []

        def spy(spec, X, y):
            seen.append((spec.ridge, X.copy()))
            return train_scorer(spec, X, y)
        monkeypatch.setattr(venncal.cvap, "train_scorer", spy)
        ds = generate_synthetic(90, 6)
        write_dataset_csv(tmp_path / "train.csv", ds)
        assert run_cli("calibrate", "--method", "ivap", "--ratio", "2:1", "--tune",
                       "--randomize-folds", "--train", tmp_path / "train.csv",
                       "--test", tmp_path / "train.csv", "--out", tmp_path / "p.csv") == 0
        fold_of = assign_folds(90, 3)
        assert [ridge for ridge, _ in seen] == [r for r in TUNE_RIDGE_GRID for _ in range(3)]
        for i, (_, X) in enumerate(seen):
            assert np.array_equal(X, ds.X[fold_of != i % 3])


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "venncal", "synth", "--n", "2",
                           "--seed", "0", "--out", "/tmp/venncal_entry_test.csv"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
