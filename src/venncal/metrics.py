"""Proper scoring rules and aggregate evaluation.

Log loss uses the binary logarithm and Brier loss the coefficient 4, so the
no-information predictor p = 1/2 suffers loss 1 under both.  Predictions of
exactly 0 or 1 on the wrong label yield an infinite log loss; no clipping is
applied anywhere, and infinite losses are reported as such with a count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["evaluate", "EvalReport"]


@dataclass(frozen=True)
class EvalReport:
    """Aggregate losses over a test set; mean log loss may be +inf."""

    mean_log_loss: float
    mean_brier_loss: float
    n: int
    n_infinite: int

    def as_dict(self) -> dict:
        return {
            "mll": self.mean_log_loss,
            "mbl": self.mean_brier_loss,
            "n": self.n,
            "n_infinite": self.n_infinite,
        }


def evaluate(predictions, labels) -> EvalReport:
    """Mean log and Brier losses of a prediction vector."""
    p = np.asarray(predictions, dtype=float)
    y = np.asarray(labels, dtype=float)
    if p.shape != y.shape or p.ndim != 1:
        raise ValueError(f"shape mismatch: {p.shape} predictions vs {y.shape} labels")
    if p.size == 0:
        raise ValueError("empty evaluation set")
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValueError("probabilities out of range")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("labels must be 0 or 1")
    # the probability given to the observed label; 0 exactly when the loss is infinite
    q = np.where(y == 1.0, p, 1.0 - p)
    n_inf = int(np.sum(q == 0.0))
    mll = math.inf if n_inf else float(np.mean(-np.log2(q)))
    mbl = float(np.mean(4.0 * (y - p) ** 2))
    return EvalReport(mll, mbl, len(p), n_inf)
