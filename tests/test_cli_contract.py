"""The CLI's promises, run through `main(argv)`: every modelling flag reruns
byte-identically, and every misuse exits 2, 3 or 4 with one prefixed line."""

import json
from pathlib import Path

import pytest

import cli_grid
from venncal.cli import _READS, build_parser, main

ERROR_PREFIXES = ("usage error: ", "data error: ", "file error: ", "degenerate model: ")


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """Synthetic train/test files, with header and without."""
    root = tmp_path_factory.mktemp("data")
    files = {}
    for name, n, seed in (("train", 240, 1), ("test", 60, 2)):
        path = root / f"{name}.csv"
        assert run("synth", "--n", n, "--seed", seed, "--out", path) == 0
        files[name] = path
        bare = root / f"{name}_bare.csv"
        bare.write_text(path.read_text().split("\n", 1)[1])
        files[f"{name}_bare"] = bare
    return files


# every modelling flag at least once; --pred-column is run by the evaluate test
GRID = [
    ["calibrate", "--method", "ivap", "--ratio", "2:1", "--tune"],
    ["calibrate", "--method", "cvap", "--folds", 3, "--randomize-folds", "--merge", "brier",
     "--intervals"],
    ["calibrate", "--method", "isotonic", "--ratio", "1:1", "--dummy-endpoints"],
    ["calibrate", "--method", "platt", "--ratio", "2:1", "--no-header", "--label-column", "col1"],
    ["calibrate", "--method", "ivap", "--ratio", "2:1", "--scorer", "stump"],
    ["calibrate", "--method", "cvap", "--folds", 3, "--scorer", "constant"],
    ["calibrate", "--method", "underlying", "--ratio", "2:1", "--ridge", 0.01],
    ["compare", "--all-mode", "--folds", 3, "--merge", "brier", "--tune"],
    # without --folds, compare's cvap takes calibrate's default of 5 folds
    ["compare", "--all-mode", "--scorer", "stump"],
]


@pytest.mark.parametrize("argv", GRID, ids=lambda v: " ".join(map(str, v[2:])))
def test_flag_reruns_are_byte_identical(tmp_path, data, argv):
    bare = "--no-header" in argv
    files = ["--train", data["train_bare" if bare else "train"],
             "--test", data["test_bare" if bare else "test"]]
    outputs = []
    for run_no in (1, 2):
        out = tmp_path / f"run{run_no}.csv"
        assert run(*argv, *files, "--out", out) == 0
        outputs.append([p.read_bytes() for p in sorted(tmp_path.glob(f"run{run_no}.csv*"))])
    assert len(outputs[0]) == (3 if argv[0] == "compare" else 2)
    assert outputs[0] == outputs[1]


def test_pred_column_reruns_are_byte_identical(tmp_path, data, capsys):
    pred = tmp_path / "p.csv"
    assert run("calibrate", "--method", "ivap", "--ratio", "2:1", "--intervals",
               "--train", data["train"], "--test", data["test"], "--out", pred) == 0
    reports = []
    for column in ("p1", "p1", "p"):
        out = tmp_path / "report.json"
        assert run("evaluate", "--pred", pred, "--truth", data["test"],
                   "--pred-column", column, "--out", out) == 0
        reports.append((capsys.readouterr().out, out.read_bytes()))
    assert reports[0] == reports[1] != reports[2]


@pytest.fixture
def misuse_files(tmp_path, data):
    ones = tmp_path / "ones.csv"
    ones.write_text("x,label\n1.0,1\n2.0,1\n")
    yes = tmp_path / "yes.csv"
    yes.write_text("x,label\n1.0,yes\n2.0,yes\n")
    pred = tmp_path / "pred.csv"
    pred.write_text("p\n0.5\n0.5\n")
    sorted_labels = tmp_path / "sorted.csv"
    sorted_labels.write_text("x,label\n" + "".join(f"{i}.5,{i // 4}\n" for i in range(8)))
    return {**data, "ones": ones, "yes": yes, "pred": pred, "sorted": sorted_labels,
            "missing": tmp_path / "no.csv"}


FEATURES = ["--train", "{train}", "--test", "{test}"]
MISUSE = [
    pytest.param(["calibrate", "--method", "ivap", *FEATURES, "--ratio", "2"], 2,
                 "usage error: --ratio must look like M:K, got '2'", id="ratio-one-part"),
    pytest.param(["calibrate", "--method", "ivap", *FEATURES, "--ratio", "a:b"], 2,
                 "usage error: --ratio must hold integers, got 'a:b'", id="ratio-not-integers"),
    pytest.param(["calibrate", "--method", "ivap", *FEATURES, "--ratio", "0:1"], 2,
                 "usage error: --ratio parts must be positive, got '0:1'", id="ratio-zero-part"),
    pytest.param(["compare", *FEATURES], 2,
                 "usage error: method 'underlying' needs --ratio (or --all-mode)\n",
                 id="compare-without-ratio"),
    pytest.param(["calibrate", "--method", "ivap", "--train", "{missing}", "--test", "{test}",
                  "--ratio", "2:1"], 3, "file error: ", id="missing-input-file"),
    pytest.param(["calibrate", "--method", "cvap", *FEATURES, "--folds", 0], 3,
                 "data error: need at least 2 folds, got 0", id="calibrate-zero-folds"),
    pytest.param(["compare", *FEATURES, "--all-mode", "--folds", 0], 3,
                 "data error: need at least 2 folds, got 0", id="compare-zero-folds"),
    pytest.param(["evaluate", "--pred", "{pred}", "--truth", "{ones}", "--positive-label", "0"],
                 3, "data error: ", id="one-class-file-other-positive-label"),
    pytest.param(["evaluate", "--pred", "{pred}", "--truth", "{yes}"], 3,
                 "data error: {yes}: single label value 'yes'; cannot infer its class\n",
                 id="one-class-file-not-0-or-1"),
    pytest.param(["calibrate", "--method", "ivap", "--train", "{ones}", "--test", "{ones}",
                  "--ratio", "1:1"], 4, "degenerate model: ", id="one-class-training-file"),
    # two contiguous folds of sorted labels: fold 0's complement holds only 1s
    pytest.param(["calibrate", "--method", "ivap", "--train", "{sorted}", "--test", "{test}",
                  "--ratio", "1:1", "--tune"], 4,
                 "degenerate model: degenerate fold 0: proper training part has a single class\n",
                 id="tune-single-class-fold-complement"),
    # raised before the (missing) training file is opened
    pytest.param(["calibrate", "--method", "ivap", "--train", "{missing}", "--test", "{test}",
                  "--ratio", "2:1", "--scorer", "stump", "--tune"], 2,
                 "usage error: calibrate would ignore --tune\n", id="tune-with-stump-scorer"),
    pytest.param(["compare", "--train", "{missing}", "--test", "{test}", "--all-mode",
                  "--folds", 3, "--scorer", "constant", "--tune"], 2,
                 "usage error: compare would ignore --tune\n", id="tune-with-constant-scorer"),
    pytest.param(["calibrate", "--method", "platt", "--train", "{missing}", "--test", "{test}",
                  "--ratio", "2:1", "--scorer", "stump", "--sigmoid-scores"], 2,
                 "usage error: calibrate would ignore --sigmoid-scores\n",
                 id="sigmoid-with-stump-scorer"),
    pytest.param(["compare", "--train", "{missing}", "--test", "{test}", "--ratio", "2:1",
                  "--scorer", "constant", "--sigmoid-scores"], 2,
                 "usage error: compare would ignore --sigmoid-scores\n",
                 id="sigmoid-with-constant-scorer"),
    # the score files are never opened either
    pytest.param(["calibrate", "--method", "ivap", "--calib-scores", "{missing}",
                  "--scores-in", "{missing}", "--tune"], 2,
                 "usage error: calibrate on score files would ignore --tune\n",
                 id="tune-with-score-files"),
    pytest.param(["calibrate", "--method", "ivap", "--calib-scores", "{missing}",
                  "--scores-in", "{missing}", "--sigmoid-scores"], 2,
                 "usage error: calibrate on score files would ignore --sigmoid-scores\n",
                 id="sigmoid-with-score-files"),
    # a negative seed, even one no shuffle would use, fails before any file is read
    pytest.param(["synth", "--n", 5, "--seed", -1], 2,
                 "usage error: --seed must be non-negative, got -1\n", id="synth-negative-seed"),
    pytest.param(["calibrate", "--method", "ivap", "--train", "{missing}", "--test", "{test}",
                  "--ratio", "2:1", "--seed", -1], 2,
                 "usage error: --seed must be non-negative, got -1\n",
                 id="unused-negative-seed"),
    pytest.param(["compare", "--train", "{missing}", "--test", "{test}", "--ratio", "2:1",
                  "--folds", 3, "--randomize-split", "--randomize-folds", "--seed", -7], 2,
                 "usage error: --seed must be non-negative, got -7\n",
                 id="compare-negative-seed"),
    # a missing input is named before any file is read or any scorer trained
    pytest.param(["compare", "--ratio", "2:1", "--test", "{missing}"], 2,
                 "usage error: compare needs --train and --test\n", id="compare-without-train"),
    pytest.param(["calibrate", "--method", "platt", "--scores-in", "{missing}"], 2,
                 "usage error: method 'platt' expects exactly one --calib-scores file\n",
                 id="score-file-without-calib-scores"),
    pytest.param(["calibrate", "--method", "platt", "--tune", "--train", "{missing}",
                  "--test", "{missing}"], 2,
                 "usage error: method 'platt' needs --ratio (or --all-mode)\n",
                 id="tune-without-ratio"),
]


# Flags the run would ignore, one case per kind of run and flag that exited 0 before
# the table of the flags each run reads.  The training file or the score files are
# missing: each run fails before any file is read.
F = "--train {missing} --test {test}"
S = "--calib-scores {missing} --scores-in {missing}"
IGNORED = [
    ("underlying-sigmoid", f"calibrate --method underlying {F} --ratio 2:1 --sigmoid-scores",
     "calibrate would ignore --sigmoid-scores"),
    ("cvap-sigmoid", f"calibrate --method cvap {F} --folds 3 --sigmoid-scores",
     "calibrate would ignore --sigmoid-scores"),
    ("platt-merge", f"calibrate --method platt {F} --ratio 2:1 --merge brier",
     "calibrate would ignore --merge"),
    ("platt-dummy", f"calibrate --method platt {F} --ratio 2:1 --dummy-endpoints",
     "calibrate would ignore --dummy-endpoints"),
    ("platt-folds", f"calibrate --method platt {F} --ratio 2:1 --folds 3",
     "calibrate would ignore --folds"),
    ("platt-randomize-folds", f"calibrate --method platt {F} --ratio 2:1 --randomize-folds",
     "calibrate would ignore --randomize-folds"),
    ("tune-randomize-folds", f"calibrate --method ivap {F} --ratio 2:1 --tune --randomize-folds",
     "calibrate would ignore --randomize-folds"),
    ("cvap-all-mode", f"calibrate --method cvap {F} --folds 3 --all-mode",
     "calibrate would ignore --all-mode"),
    ("cvap-randomize-split", f"calibrate --method cvap {F} --folds 3 --randomize-split",
     "calibrate would ignore --randomize-split"),
    ("cvap-folds-ratio", f"calibrate --method cvap {F} --folds 3 --ratio 2:1",
     "calibrate would ignore --ratio"),
    ("all-mode-ratio", f"calibrate --method ivap {F} --all-mode --ratio 2:1",
     "calibrate would ignore --ratio"),
    ("all-mode-randomize-split", f"calibrate --method ivap {F} --all-mode --randomize-split",
     "calibrate would ignore --randomize-split"),
    ("stump-ridge", f"calibrate --method ivap {F} --ratio 2:1 --scorer stump --ridge 0.01",
     "calibrate would ignore --ridge"),
    ("tune-ridge", f"calibrate --method ivap {F} --ratio 2:1 --tune --ridge 0.01",
     "calibrate would ignore --ridge"),
    ("score-files-underlying-calib", "calibrate --method underlying --scores-in {missing} "
     "--calib-scores {missing}", "calibrate on score files would ignore --calib-scores"),
    ("score-files-split-flags",
     f"calibrate --method platt {S} --folds 3 --ratio 2:1 --label-column zzz",
     "calibrate on score files would ignore --label-column, --ratio, --folds"),
    ("score-files-scorer", f"calibrate --method ivap {S} --scorer stump",
     "calibrate on score files would ignore --scorer"),
    ("score-files-ridge", f"calibrate --method ivap {S} --ridge 0.01",
     "calibrate on score files would ignore --ridge"),
    ("score-files-csv-flags", f"calibrate --method ivap {S} --no-header --positive-label yes",
     "calibrate on score files would ignore --no-header, --positive-label"),
    ("score-files-split", f"calibrate --method ivap {S} --all-mode --randomize-split",
     "calibrate on score files would ignore --all-mode, --randomize-split"),
    ("score-files-randomize-folds", "calibrate --method cvap --calib-scores {missing} {missing} "
     "--scores-in {missing} {missing} --randomize-folds",
     "calibrate on score files would ignore --randomize-folds"),
    ("score-files-ivap-dummy", f"calibrate --method ivap {S} --dummy-endpoints",
     "calibrate on score files would ignore --dummy-endpoints"),
    ("score-files-isotonic-merge", f"calibrate --method isotonic {S} --merge brier",
     "calibrate on score files would ignore --merge"),
    ("compare-all-mode-ratio", f"compare {F} --all-mode --folds 3 --ratio 5:1",
     "compare would ignore --ratio"),
    ("compare-all-mode-randomize-split", f"compare {F} --all-mode --folds 3 --randomize-split",
     "compare would ignore --randomize-split"),
    ("compare-stump-ridge", f"compare {F} --ratio 2:1 --scorer stump --ridge 0.01",
     "compare would ignore --ridge"),
    ("compare-tune-ridge", f"compare {F} --ratio 2:1 --tune --ridge 0.01",
     "compare would ignore --ridge"),
]
MISUSE += [pytest.param(argv.split(), 2, f"usage error: {message}\n", id=name)
           for name, argv, message in IGNORED]
# a ridge that is not positive and finite, used or not, fails before any file is read
MISUSE += [pytest.param(f"calibrate --method ivap {F} --ratio 2:1 --ridge {ridge}".split(), 2,
                        f"usage error: --ridge must be positive and finite, got {float(ridge)}\n",
                        id=f"ridge-{ridge}") for ridge in ("nan", "inf", "0", "-1")]
MISUSE.append(pytest.param(f"compare {F} --ratio 2:1 --scorer stump --ridge nan".split(), 2,
                           "usage error: --ridge must be positive and finite, got nan\n",
                           id="compare-ridge-nan"))


@pytest.mark.parametrize("argv, code, start", MISUSE)
def test_misuse_exits_with_one_prefixed_line(tmp_path, misuse_files, capsys, argv, code, start):
    argv = [str(a).format(**misuse_files) for a in argv]
    start = start.format(**misuse_files)
    assert run(*argv, "--out", tmp_path / "out.csv") == code
    captured = capsys.readouterr()
    assert captured.err.startswith(start) and captured.err.startswith(ERROR_PREFIXES)
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert not (tmp_path / "out.csv").exists()


METHODS = ("underlying", "platt", "isotonic", "ivap", "cvap")
SPLIT = METHODS[:4]
# README's table, at the other flags' defaults (the logistic scorer; no --all-mode,
# --tune or --folds).  flag: (a value off its default, the methods that read it on
# --train/--test, the methods that read it on score files)
TABLE = {
    "--train": (["{missing}"], METHODS, ()),
    "--test": (["{missing}"], METHODS, ()),
    "--label-column": (["zzz"], METHODS, ()),
    "--no-header": ([], METHODS, ()),
    "--positive-label": (["1"], METHODS, ()),
    "--scorer": (["stump"], METHODS, ()),
    "--ridge": (["0.5"], METHODS, ()),
    "--tune": ([], METHODS, ()),
    "--ratio": (["2:1"], METHODS, ()),
    "--all-mode": ([], SPLIT, ()),
    "--randomize-split": ([], SPLIT, ()),
    "--folds": (["2"], ("cvap",), ("cvap",)),
    "--randomize-folds": ([], ("cvap",), ()),
    "--sigmoid-scores": ([], ("platt", "isotonic", "ivap"), ()),
    "--dummy-endpoints": ([], ("isotonic",), ("isotonic",)),
    "--merge": (["brier"], ("ivap", "cvap"), ("ivap", "cvap")),
    "--intervals": ([], ("ivap", "cvap"), ("ivap", "cvap")),
    "--calib-scores": (["{missing}"], (), METHODS[1:]),
}


def test_each_run_rejects_exactly_the_flags_it_does_not_read(tmp_path, capsys):
    # every input path is missing: an unread flag must fail before any file is read, and
    # a read flag gets as far as reading one, or, for a split method with neither
    # --ratio nor --all-mode, as far as that usage error
    features = ["--train", "{missing}", "--test", "{missing}"]
    runs = [("compare", [*features, "--ratio", "2:1"], METHODS, False)]
    for method in METHODS:
        files = 2 if method == "cvap" else 1
        scores = ["--scores-in", *["{missing}"] * files]
        if method != "underlying":
            scores += ["--calib-scores", *["{missing}"] * files]
        runs += [("calibrate", ["--method", method, *features], [method], False),
                 ("calibrate", ["--method", method, *scores], [method], True)]
    wrong = []
    for command, base, methods, on_files in runs:
        for flag, (value, on_features, on_score_files) in TABLE.items():
            # --calib-scores picks the score-file route, and compare has no --intervals
            if flag in base or flag == "--calib-scores" and not on_files or (
                    command == "compare" and flag == "--intervals"):
                continue
            argv = [command, *base, flag, *value, "--out", "{out}"]
            code = run(*[a.format(missing=tmp_path / "missing.csv", out=tmp_path / "out.csv")
                         for a in argv])
            err = capsys.readouterr().err
            readers = on_score_files if on_files else on_features
            if not any(method in readers for method in methods):
                route = " on score files" if on_files else ""
                want = (2, f"usage error: {command}{route} would ignore {flag}\n")
            elif not (on_files or methods == ["cvap"]
                      or {"--ratio", "--all-mode"} & {*base, flag}):
                want = (2, f"usage error: method {methods[0]!r} needs --ratio (or --all-mode)\n")
            else:
                want = (3, "file error: ")
            if code != want[0] or not err.startswith(want[1]):
                wrong.append(f"{' '.join(argv)}: exit {code}, {err!r}")
    assert wrong == []
    assert list(tmp_path.iterdir()) == []


def test_each_calibrate_and_compare_flag_has_one_row_of_the_reads_table():
    # a flag that no row names would skip the unread-flag check; --seed, --out and
    # --scores-in are read by every run that is given them
    named = [flag for flags in _READS for flag in flags.split()]
    unlisted = {"command", "func", "method", "out", "seed", "scores_in"}
    parser = build_parser()
    calibrate = set(vars(parser.parse_args(["calibrate", "--method", "ivap", "--out", ""])))
    compare = set(vars(parser.parse_args(["compare", "--out", ""])))
    for dests in (calibrate - unlisted, compare - unlisted):
        assert {dest: named.count(dest) for dest in dests} == dict.fromkeys(dests, 1)
    assert set(named) == calibrate - unlisted


def test_one_class_positive_label_file_evaluates(misuse_files, capsys):
    # the positive label settles the polarity: every row is labelled 1, in a 0/1 file or not
    for truth, positive in (("ones", "1"), ("yes", "yes")):
        assert run("evaluate", "--pred", misuse_files["pred"], "--truth", misuse_files[truth],
                   "--positive-label", positive) == 0
        assert capsys.readouterr().out == (
            "n          2\nMLL        1.0\nMBL        1.0\ninfinite   0\n")


def test_underlying_score_file_is_written_unchanged(tmp_path):
    scores = ["0.0", "1.0", "0.25", "5e-324", "0.30000000000000004", "0.9999999999999999"]
    (tmp_path / "s.csv").write_text("score\n" + "\n".join(scores) + "\n")
    argv = ["calibrate", "--method", "underlying", "--scores-in", tmp_path / "s.csv"]
    outputs = []
    for run_no in (1, 2):
        out = tmp_path / f"run{run_no}.csv"
        assert run(*argv, "--out", out) == 0
        manifest = tmp_path / f"run{run_no}.csv.manifest.json"
        outputs.append((out.read_bytes(), manifest.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].decode() == "p\n" + "".join(f"{float(s)!r}\n" for s in scores)
    manifest = json.loads(outputs[0][1])
    assert manifest["command"] == "calibrate"
    assert manifest["settings"]["method"] == "underlying"
    assert manifest["settings"]["scores_in"] == [str(tmp_path / "s.csv")]
    assert manifest["settings"]["calib_scores"] is None


def test_sigmoid_scores_feeds_the_split_methods_only(tmp_path, data, capsys):
    files = ["--train", data["train"], "--test", data["test"]]
    assert run("calibrate", "--method", "cvap", "--folds", 3, "--sigmoid-scores", *files,
               "--out", tmp_path / "cvap.csv") == 2
    assert capsys.readouterr().err == "usage error: calibrate would ignore --sigmoid-scores\n"
    assert list(tmp_path.iterdir()) == []
    predictions = []
    for sigmoid in ([], ["--sigmoid-scores"]):
        out = tmp_path / f"platt{len(sigmoid)}.csv"
        assert run("calibrate", "--method", "platt", "--ratio", "2:1", *sigmoid, *files,
                   "--out", out) == 0
        predictions.append(out.read_bytes())
    assert predictions[0] != predictions[1]


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """(directory, results) of one run of tests/cli_grid.py's GRID."""
    root = tmp_path_factory.mktemp("grid")
    return root, cli_grid.run_grid(root / "grid")


def test_cli_grid_exits_as_declared(grid):
    root, results = grid
    assert [(argv, code) for argv, code, _ in results] == cli_grid.GRID
    assert not any(str(root) in line for *_, line in results)  # relative paths only
    # a failing command writes no file: its line is the code, the argv and two digests
    assert all(len(line.split()) == len(argv.split()) + 3 for argv, code, line in results if code)


def test_each_usage_refusal_of_the_grid_reads_no_file(grid, tmp_path, monkeypatch):
    # rerun where no input file exists, every exit-2 command of the grid prints its
    # same line: each usage error is raised before any file is opened
    monkeypatch.chdir(tmp_path)
    refusals = [(argv, line) for argv, code, line in grid[1] if code == 2]
    assert len(refusals) == 49
    assert [cli_grid.run_command(argv)[1] for argv, _ in refusals] == [
        line for _, line in refusals]
    assert list(tmp_path.iterdir()) == []


def test_cli_grid_matches_expected_lines(grid):
    # every CLI byte, message and exit code of the grid, as pinned for the
    # committed code on the platform its header names
    text = Path(cli_grid.__file__).with_name("cli_grid.expected").read_text(encoding="utf-8")
    header = dict(line[2:].split(": ", 1) for line in text.splitlines() if line.startswith("# "))
    differ = [f"{field} is {value!r} here, {header.get(field)!r} in the file"
              for field, value in cli_grid.platform_fields().items() if header.get(field) != value]
    if differ:
        pytest.skip("cli_grid.expected was made on another platform: " + "; ".join(differ))
    expected = [line for line in text.splitlines() if not line.startswith("# ")]
    assert [line for *_, line in grid[1]] == expected
