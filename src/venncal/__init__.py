"""Probability calibration toolkit.

Turns raw classifier scores into calibrated probabilities: an interval
calibrator built on weighted isotonic regression answers lower/upper
probability queries in logarithmic time, a cross-calibrated variant merges
fold-wise intervals minimax-optimally, and classic baselines (regularized
sigmoid fitting, direct isotonic lookup) plus proper-loss metrics and a CLI
support end-to-end comparisons.
"""

from venncal.baselines import DirectIsotonic, PlattCalibrator
from venncal.cvap import CvapCalibrator, assign_folds
from venncal.data import (
    Dataset,
    generate_synthetic,
    load_csv,
    split_proper_calibration,
)
from venncal.exceptions import DataError, DegenerateModelError
from venncal.isotonic import WeightedPoints, dedup_weighted, fit_isotonic
from venncal.ivap import IvapCalibrator, ProbInterval
from venncal.merging import merge
from venncal.metrics import EvalReport, evaluate
from venncal.scorers import ScorerSpec, train_scorer

__version__ = "0.1.0"

__all__ = [
    "CvapCalibrator",
    "DataError",
    "Dataset",
    "DegenerateModelError",
    "DirectIsotonic",
    "EvalReport",
    "IvapCalibrator",
    "PlattCalibrator",
    "ProbInterval",
    "ScorerSpec",
    "WeightedPoints",
    "assign_folds",
    "dedup_weighted",
    "evaluate",
    "fit_isotonic",
    "generate_synthetic",
    "load_csv",
    "merge",
    "split_proper_calibration",
    "train_scorer",
    "__version__",
]
