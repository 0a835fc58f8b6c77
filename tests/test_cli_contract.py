"""The CLI's promises, run through `main(argv)`: every modelling flag reruns
byte-identically, and every misuse exits 2, 3 or 4 with one prefixed line."""

import json
from pathlib import Path

import pytest

import cli_grid
from venncal.cli import main

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
                 "usage error: compare needs --ratio (or --all-mode with --folds)",
                 id="compare-without-ratio"),
    pytest.param(["compare", *FEATURES, "--all-mode"], 2,
                 "usage error: compare with --all-mode needs --folds for the cross method",
                 id="all-mode-without-folds"),
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
                 "usage error: --tune searches the logistic scorer's ridge; "
                 "--scorer stump has none\n", id="tune-with-stump-scorer"),
    pytest.param(["compare", "--train", "{missing}", "--test", "{test}", "--all-mode",
                  "--folds", 3, "--scorer", "constant", "--tune"], 2,
                 "usage error: --tune searches the logistic scorer's ridge; "
                 "--scorer constant has none\n", id="tune-with-constant-scorer"),
    pytest.param(["calibrate", "--method", "platt", "--train", "{missing}", "--test", "{test}",
                  "--ratio", "2:1", "--scorer", "stump", "--sigmoid-scores"], 2,
                 "usage error: --sigmoid-scores squashes the logistic scorer's scores; "
                 "--scorer stump scores in [0, 1] already\n", id="sigmoid-with-stump-scorer"),
    pytest.param(["compare", "--train", "{missing}", "--test", "{test}", "--ratio", "2:1",
                  "--scorer", "constant", "--sigmoid-scores"], 2,
                 "usage error: --sigmoid-scores squashes the logistic scorer's scores; "
                 "--scorer constant scores in [0, 1] already\n", id="sigmoid-with-constant-scorer"),
    # the score files are never opened either
    pytest.param(["calibrate", "--method", "ivap", "--calib-scores", "{missing}",
                  "--scores-in", "{missing}", "--tune"], 2,
                 "usage error: --tune trains a scorer; score files bring their own scores\n",
                 id="tune-with-score-files"),
    pytest.param(["calibrate", "--method", "ivap", "--calib-scores", "{missing}",
                  "--scores-in", "{missing}", "--sigmoid-scores"], 2,
                 "usage error: --sigmoid-scores squashes a scorer's output; "
                 "score files have none\n",
                 id="sigmoid-with-score-files"),
]


@pytest.mark.parametrize("argv, code, start", MISUSE)
def test_misuse_exits_with_one_prefixed_line(tmp_path, misuse_files, capsys, argv, code, start):
    argv = [str(a).format(**misuse_files) for a in argv]
    start = start.format(**misuse_files)
    assert run(*argv, "--out", tmp_path / "out.csv") == code
    captured = capsys.readouterr()
    assert captured.err.startswith(start) and captured.err.startswith(ERROR_PREFIXES)
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert not (tmp_path / "out.csv").exists()


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


def test_sigmoid_scores_feeds_the_split_methods_only(tmp_path, data):
    predictions = {}
    for method, flags in (("cvap", ["--folds", 3]), ("platt", ["--ratio", "2:1"])):
        for sigmoid in ([], ["--sigmoid-scores"]):
            out = tmp_path / f"{method}{len(sigmoid)}.csv"
            assert run("calibrate", "--method", method, *flags, *sigmoid, "--train", data["train"],
                       "--test", data["test"], "--out", out) == 0
            predictions[method, bool(sigmoid)] = out.read_bytes()
    assert predictions["cvap", True] == predictions["cvap", False]
    assert predictions["platt", True] != predictions["platt", False]


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """(directory, results) of one run of tests/cli_grid.py's GRID."""
    root = tmp_path_factory.mktemp("grid")
    return root, cli_grid.run_grid(root / "grid")


def test_cli_grid_exits_as_declared(grid):
    root, results = grid
    assert [(argv, code) for argv, code, _ in results] == cli_grid.GRID
    assert not any(str(root) in line for *_, line in results)  # relative paths only


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
