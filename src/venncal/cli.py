"""Command-line front end for reproducible calibration experiments.

Subcommands: `synth` writes a synthetic dataset, `calibrate` trains one
calibration method and writes per-row probabilities, `evaluate` scores a
prediction file against labels, and `compare` runs every method on the same
split and emits a methods-by-losses table.  A run that writes predictions also
writes a `<out>.manifest.json` of its flags and versions, and identical flags
give byte-identical files.  Every usage error is raised before any file is
read.  cvap and `--tune` take `_n_folds` folds, trained by `fold_scorers`.

Exit codes: 0 success, 2 usage error, 3 data error, 4 degenerate model.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

import venncal
from venncal.baselines import DirectIsotonic, PlattCalibrator
from venncal.cvap import CvapCalibrator, assign_folds, fold_intervals, fold_scorers
from venncal.data import (
    Dataset,
    apply_imputation,
    compute_imputation,
    generate_synthetic,
    load_csv,
    read_calibration_scores,
    read_prediction_column,
    read_test_scores,
    split_proper_calibration,
    write_csv,
)
from venncal.exceptions import DataError, DegenerateModelError
from venncal.ivap import IvapCalibrator
from venncal.merging import LOSSES, merge, merged_interval
from venncal.metrics import evaluate
from venncal.scorers import KINDS, ScorerSpec, train_scorer

METHODS = ("underlying", "platt", "isotonic", "ivap", "cvap")
TUNE_RIDGE_GRID = (1e-6, 1e-4, 1e-2, 1.0)
# The runs that read each flag but --seed, --out and --scores-in (README has the table)
_READS = {
    "train test label_column no_header positive_label scorer": lambda m, files, a: not files,
    "ridge": lambda m, files, a: not files and a.scorer == "logistic" and not a.tune,
    "tune": lambda m, files, a: not files and a.scorer == "logistic",
    "ratio": lambda m, files, a: not files and (m != "cvap" and not a.all_mode
                                              or (m == "cvap" or a.tune) and a.folds is None),
    "all_mode": lambda m, files, a: not files and m != "cvap",
    "randomize_split": lambda m, files, a: not files and m != "cvap" and not a.all_mode,
    "folds": lambda m, files, a: m == "cvap" or a.tune,
    "randomize_folds": lambda m, files, a: not files and m == "cvap",
    "sigmoid_scores": lambda m, files, a: (not files and a.scorer == "logistic"
                                          and m in ("platt", "isotonic", "ivap")),
    "dummy_endpoints": lambda m, files, a: m == "isotonic",
    "merge intervals": lambda m, files, a: m in ("ivap", "cvap"),
    "calib_scores": lambda m, files, a: m != "underlying",
}


class UsageError(Exception):
    """Configuration problem detectable before any work starts."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _sub_seed(seed: int, stream: int) -> int:
    """Named sub-stream of the run seed: 0 = split, 1 = folds."""
    child = np.random.SeedSequence(seed).spawn(2)[stream]
    return int(child.generate_state(1)[0])


def _parse_ratio(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"--ratio must look like M:K, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"--ratio must hold integers, got {text!r}") from None
    if a < 1 or b < 1:
        raise UsageError(f"--ratio parts must be positive, got {text!r}")
    return a, b


def _write_manifest(args) -> None:
    """Write `<out>.manifest.json`: the subcommand, every parsed flag but --out, versions."""
    settings = {key: value for key, value in vars(args).items()
                if key not in ("command", "func", "out")}
    manifest = {
        "command": args.command,
        "package": "venncal",
        "package_version": venncal.__version__,
        "numpy_version": np.__version__,
        "settings": settings,
    }
    with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_predictions(path: str, p: np.ndarray,
                       intervals: tuple[np.ndarray, np.ndarray] | None) -> None:
    if intervals is None:
        write_csv(path, "p", [p])
    else:
        write_csv(path, "p0,p1,p", [*intervals, p])


# ---- synth ----------------------------------------------------------------


def cmd_synth(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    ds = generate_synthetic(args.n, args.seed)
    write_csv(args.out, "x,label", [ds.X[:, 0]], ds.y)
    _write_manifest(args)
    return 0


# ---- calibrate ------------------------------------------------------------


def _n_folds(args) -> int:
    """Fold count for cvap and --tune: --folds, else the --ratio parts summed, else 5."""
    if args.folds is not None:
        return args.folds
    return sum(_parse_ratio(args.ratio)) if args.ratio else 5


def _tuned_ridge(ds: Dataset, n_folds: int, spec: ScorerSpec) -> float:
    """The first grid ridge of least cumulative Brier loss over contiguous folds."""
    fold_of = assign_folds(len(ds), n_folds)

    def cumulative_brier(ridge: float) -> float:
        return sum(float(np.sum(4.0 * (ds.y[fold] - s.probability_many(ds.X[fold])) ** 2))
                   for fold, s in fold_scorers(ds, fold_of, replace(spec, ridge=ridge)))
    return min(TUNE_RIDGE_GRID, key=cumulative_brier)


def _preflight(args, methods, files: bool) -> None:
    """Refuse the run before any file is read: for a flag off its default that no run reads
    (calibrate's flags hold compare's), a malformed --ratio or a missing input."""
    defaults = vars(build_parser().parse_args(["calibrate", "--method", "ivap", "--out", ""]))
    unread = [f"--{flag}".replace("_", "-") for flags, reads in _READS.items()
              for flag in flags.split() if getattr(args, flag, defaults[flag]) != defaults[flag]
              and not any(reads(m, files, args) for m in methods)]
    if unread:
        raise UsageError(f"{args.command}{' on score files' * files} would ignore {', '.join(unread)}")
    if args.ratio:
        _parse_ratio(args.ratio)
    if files and methods == ["cvap"]:
        if (n_calib := len(args.calib_scores or ())) < 2:
            raise UsageError("cvap on score files needs one --calib-scores file per fold")
        if len(args.scores_in or ()) != n_calib:
            raise UsageError("cvap needs one --scores-in file per fold, aligned by row")
        if args.folds not in (None, n_calib):
            raise UsageError("--folds disagrees with the number of score files")
    elif files and len(args.scores_in or ()) != 1:
        raise UsageError("expected exactly one --scores-in file")
    elif files and methods != ["underlying"] and len(args.calib_scores or ()) != 1:
        raise UsageError(f"method {methods[0]!r} expects exactly one --calib-scores file")
    elif not files and not (args.train and args.test):
        raise UsageError(f"{args.command} needs --train and --test"
                         + " (or score files)" * (args.command == "calibrate"))
    elif not files and methods != ["cvap"] and not (args.ratio or args.all_mode):
        raise UsageError(f"method {methods[0]!r} needs --ratio (or --all-mode)")


def _tuned_spec(args, train_ds: Dataset) -> ScorerSpec:
    """The scorer spec from the flags, with the ridge grid-searched under --tune."""
    spec = ScorerSpec(kind=args.scorer, ridge=args.ridge)
    if args.tune:
        spec = replace(spec, ridge=_tuned_ridge(train_ds, _n_folds(args), spec))
    return spec


def _load_feature_data(args) -> tuple[Dataset, Dataset]:
    train_ds = load_csv(args.train, args.label_column, header=not args.no_header,
                        positive_label=args.positive_label)
    test_ds = load_csv(args.test, args.label_column, header=not args.no_header,
                       like=train_ds)
    values = compute_imputation(train_ds)
    return apply_imputation(train_ds, values), apply_imputation(test_ds, values)


def _calibrate(method: str, args, inputs, intervals: bool = False):
    """(p, intervals-or-None) of `method` from the inputs either route made.

    The inputs are the test probabilities for underlying, the stacked (K, n)
    fold intervals for cvap, and (calibration scores, labels, test scores)
    for every other method.  ivap and cvap return intervals if `intervals`.
    """
    if method == "underlying":
        return inputs, None
    if method == "cvap":
        lo, hi = inputs
        return merge(lo, hi, args.merge), merged_interval(lo, hi) if intervals else None
    scores, labels, test_scores = inputs
    if method == "platt":
        return PlattCalibrator.fit(scores, labels).predict_many(test_scores), None
    if method == "isotonic":
        model = DirectIsotonic.fit(scores, labels, dummy_endpoints=args.dummy_endpoints)
        return model.predict_many(test_scores), None
    lo, hi = IvapCalibrator.fit(scores, labels).predict_intervals(test_scores)
    return merge(lo[None, :], hi[None, :], args.merge), (lo, hi) if intervals else None


def _feature_inputs(methods, args, train_ds: Dataset, test_ds: Dataset, spec: ScorerSpec):
    """Yield (method, inputs for `_calibrate`) for each method, in order.

    The split methods share one split, one proper-set scorer fit and one
    scoring pass, made when the first of them is reached; cvap trains its
    own K fold scorers.
    """
    scored = None
    for method in methods:
        if method == "cvap":
            seed = _sub_seed(args.seed, 1) if args.randomize_folds else None
            model = CvapCalibrator.fit(train_ds, _n_folds(args), spec, shuffle_seed=seed,
                                       merge_loss=args.merge)
            yield method, model.predict_intervals_many(test_ds.X)
            continue
        if scored is None:
            if args.all_mode:
                proper, calibration = train_ds, train_ds
            else:
                seed = _sub_seed(args.seed, 0) if args.randomize_split else None
                proper, calibration = split_proper_calibration(
                    train_ds, _parse_ratio(args.ratio), shuffle_seed=seed)
            scorer = train_scorer(spec, proper.X, proper.y)
            score = scorer.probability_many if args.sigmoid_scores else scorer.score_many
            scored = score(calibration.X), calibration.y, score(test_ds.X)
        yield method, scorer.probability_many(test_ds.X) if method == "underlying" else scored


def _score_file_folds(calib_paths, test_paths):
    """Yield (rule, test scores) per fold, reading and fitting one fold at a time."""
    n_rows = None
    for calib_path, test_path in zip(calib_paths, test_paths):
        rule = IvapCalibrator.fit(*read_calibration_scores(calib_path))
        test_scores = read_test_scores(test_path)
        if n_rows is None:
            n_rows = len(test_scores)
        elif len(test_scores) != n_rows:
            raise DataError("per-fold test score files have different lengths")
        yield rule, test_scores


def _score_file_inputs(method: str, args):
    """The inputs for `_calibrate` read from --calib-scores and --scores-in."""
    if method == "cvap":
        return fold_intervals(_score_file_folds(args.calib_scores, args.scores_in))
    test_scores = read_test_scores(args.scores_in[0])
    if method == "underlying":
        if not ((test_scores >= 0.0) & (test_scores <= 1.0)).all():
            raise DataError("underlying scores must already be probabilities in [0, 1]")
        return test_scores
    return *read_calibration_scores(args.calib_scores[0]), test_scores


def cmd_calibrate(args) -> int:
    files = args.calib_scores is not None or args.scores_in is not None
    _preflight(args, [args.method], files)
    if files:
        inputs = _score_file_inputs(args.method, args)
    else:
        train_ds, test_ds = _load_feature_data(args)
        _, inputs = next(_feature_inputs([args.method], args, train_ds, test_ds,
                                         _tuned_spec(args, train_ds)))
    p, intervals = _calibrate(args.method, args, inputs, args.intervals)
    _write_predictions(args.out, np.asarray(p), intervals)
    _write_manifest(args)
    return 0


# ---- evaluate -------------------------------------------------------------


def cmd_evaluate(args) -> int:
    p = read_prediction_column(args.pred, args.pred_column)
    truth = load_csv(args.truth, args.label_column, header=not args.no_header,
                     positive_label=args.positive_label)
    if len(p) != len(truth):
        raise DataError(f"row count mismatch: {len(p)} predictions vs {len(truth)} labels")
    report = evaluate(p, truth.y)
    print(f"n          {report.n}")
    print(f"MLL        {_fmt(report.mean_log_loss)}")
    print(f"MBL        {_fmt(report.mean_brier_loss)}")
    print(f"infinite   {report.n_infinite}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, sort_keys=True)
            fh.write("\n")
    return 0


# ---- compare --------------------------------------------------------------


def cmd_compare(args) -> int:
    _preflight(args, METHODS, False)
    train_ds, test_ds = _load_feature_data(args)
    spec = _tuned_spec(args, train_ds)
    rows = [(method, evaluate(_calibrate(method, args, inputs)[0], test_ds.y))
            for method, inputs in _feature_inputs(METHODS, args, train_ds, test_ds, spec)]

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("method,mll,mbl,n,n_infinite\n")
        for method, rep in rows:
            fh.write(f"{method},{_fmt(rep.mean_log_loss)},{_fmt(rep.mean_brier_loss)},"
                     f"{rep.n},{rep.n_infinite}\n")
    text_path = args.out + ".txt"
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(f"{'method':<12}{'MLL':>12}{'MBL':>12}{'inf':>6}\n")
        for method, rep in rows:
            mll = "inf" if rep.mean_log_loss == float("inf") else f"{rep.mean_log_loss:.4f}"
            fh.write(f"{method:<12}{mll:>12}{rep.mean_brier_loss:>12.4f}{rep.n_infinite:>6}\n")
    _write_manifest(args)
    return 0


# ---- parser ---------------------------------------------------------------


def _add_common_model_flags(sub) -> None:
    sub.add_argument("--train", help="training CSV (features + label column)")
    sub.add_argument("--test", help="test CSV with the same columns")
    sub.add_argument("--label-column", default="label")
    sub.add_argument("--no-header", action="store_true")
    sub.add_argument("--positive-label", default=None,
                     help="raw label value to map to 1 (default: lexicographically larger)")
    sub.add_argument("--ratio", default=None, help="proper:calibration split, e.g. 2:1")
    sub.add_argument("--folds", type=int, default=None, help="fold count for the cross method")
    sub.add_argument("--merge", choices=LOSSES, default="log")
    sub.add_argument("--scorer", choices=KINDS, default=ScorerSpec.kind)
    sub.add_argument("--ridge", type=float, default=ScorerSpec.ridge)
    sub.add_argument("--all-mode", action="store_true",
                     help="use the full training set as both proper and calibration parts")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--randomize-split", action="store_true")
    sub.add_argument("--randomize-folds", action="store_true")
    sub.add_argument("--sigmoid-scores", action="store_true",
                     help="platt, isotonic and ivap calibrate the logistic scorer's sigmoid "
                          "outputs instead of its raw linear scores")
    sub.add_argument("--dummy-endpoints", action="store_true",
                     help="regularize direct isotonic with two synthetic extreme points")
    sub.add_argument("--tune", action="store_true",
                     help="grid search the ridge coefficient by cumulative Brier loss over folds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="venncal",
                                     description="Probability calibration toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="write a synthetic dataset CSV")
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=cmd_synth)

    cal = subs.add_parser("calibrate", help="run one calibration method")
    cal.add_argument("--method", choices=METHODS, required=True)
    _add_common_model_flags(cal)
    cal.add_argument("--calib-scores", nargs="*", default=None,
                     help="precomputed calibration score,label file(s); instead of --train")
    cal.add_argument("--scores-in", nargs="*", default=None,
                     help="precomputed test score file(s); instead of --test")
    cal.add_argument("--intervals", action="store_true",
                     help="write p0,p1,p instead of a single probability column; cvap's "
                          "p0,p1 are not a bracket and may cross when folds disagree")
    cal.add_argument("--out", required=True)
    cal.set_defaults(func=cmd_calibrate)

    ev = subs.add_parser("evaluate", help="score a prediction file against labels")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--label-column", default="label")
    ev.add_argument("--no-header", action="store_true")
    ev.add_argument("--positive-label", default=None)
    ev.add_argument("--pred-column", default="p")
    ev.add_argument("--out", default=None, help="also write the report as JSON")
    ev.set_defaults(func=cmd_evaluate)

    comp = subs.add_parser("compare", help="run all methods on one split")
    _add_common_model_flags(comp)
    comp.add_argument("--out", required=True)
    comp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # evaluate has no --seed
            raise UsageError(f"--seed must be non-negative, got {args.seed}")
        if not 0 < getattr(args, "ridge", 1.0) < float("inf"):  # synth and evaluate have none
            raise UsageError(f"--ridge must be positive and finite, got {args.ridge}")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3
    except DegenerateModelError as exc:
        print(f"degenerate model: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        # DataError, and bad values that surfaced past ingestion
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
