import importlib
import subprocess
import sys

import venncal

# names the benchmark under perfbench/ imports from the package, or wraps
# where the package looks them up
BENCHMARK_NAMES = (
    ("venncal", "CvapCalibrator"),
    ("venncal", "Dataset"),
    ("venncal", "IvapCalibrator"),
    ("venncal", "ProbInterval"),
    ("venncal", "ScorerSpec"),
    ("venncal", "WeightedPoints"),
    ("venncal", "dedup_weighted"),
    ("venncal", "fit_isotonic"),
    ("venncal.data", "Column"),
    ("venncal.ivap", "dedup_weighted"),
    ("venncal.ivap", "lower_prob_scan"),
    ("venncal.ivap", "upper_prob_scan"),
    ("venncal.ivap", "merge"),
    ("venncal.cvap", "merge"),
    ("venncal.cli", "merge"),
    # the lookup sites of the benchmark's data spans: inlining one of them
    # would silently zero that span's metrics
    ("venncal.cli", "load_csv"),
    ("venncal.cli", "read_calibration_scores"),
    ("venncal.cli", "read_test_scores"),
    ("venncal.cli", "compute_imputation"),
    ("venncal.cli", "apply_imputation"),
    ("venncal.cli", "split_proper_calibration"),
    ("venncal.cli", "assign_folds"),
    ("venncal.cli", "train_scorer"),
    ("venncal.cli", "evaluate"),
)

# methods the benchmark wraps in the class that defines them (it reads
# `vars(cls)`): moved to a base class, renamed or deleted, a span reads 0
BENCHMARK_METHODS = (
    ("venncal.scorers", "LogisticScorer", ("score_many", "probability_many")),
    ("venncal.baselines", "PlattCalibrator", ("fit", "predict_many")),
    ("venncal.baselines", "DirectIsotonic", ("fit", "predict_many")),
    ("venncal.ivap", "IvapCalibrator", ("fit", "predict_intervals", "predict_interval",
                                        "predict")),
    ("venncal.cvap", "CvapCalibrator", ("fit", "predict", "predict_many",
                                        "predict_intervals_many")),
)


def test_every_exported_name_resolves():
    assert len(set(venncal.__all__)) == len(venncal.__all__)
    for name in venncal.__all__:
        assert hasattr(venncal, name), name


def test_benchmark_names_exist():
    for module, name in BENCHMARK_NAMES:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    for module, cls, methods in BENCHMARK_METHODS:
        owner = vars(importlib.import_module(module))[cls]
        for method in methods:
            assert method in vars(owner), f"{module}.{cls}.{method}"
    scan = venncal.ivap.upper_prob_scan(venncal.dedup_weighted([1.0, 2.0], [0, 1]))
    assert isinstance(scan.corner_pushes, int) and isinstance(scan.sweep_pushes, int)


def test_module_exports_resolve():
    for module in ("baselines", "cli", "cvap", "data", "isotonic", "ivap", "merging",
                   "metrics", "scorers"):
        mod = importlib.import_module(f"venncal.{module}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"venncal.{module}.{name}"


def test_runtime_imports_only_numpy():
    # scipy, hypothesis and pytest are test-side only; a fresh interpreter
    # (with the package on its path, as conftest.py sets) shows what the
    # package itself imports
    test_side = ("scipy", "hypothesis", "pytest")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, venncal, venncal.cli; "
         f"print(sorted(set({test_side!r}) & set(sys.modules)))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
