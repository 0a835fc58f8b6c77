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

__all__ = ["log_loss", "brier_loss", "evaluate", "EvalReport"]


def _check(p: float, y) -> tuple[float, int]:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p!r}")
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y!r}")
    return float(p), int(y)


def log_loss(p: float, y) -> float:
    """Binary-log loss; +inf when the prediction is categorically wrong."""
    p, y = _check(p, y)
    if y == 1:
        return math.inf if p == 0.0 else -math.log2(p)
    return math.inf if p == 1.0 else -math.log2(1.0 - p)


def brier_loss(p: float, y) -> float:
    """Brier loss 4 (y - p)^2, in [0, 4]."""
    p, y = _check(p, y)
    return 4.0 * (y - p) ** 2


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
    wrong1 = (y == 1.0) & (p == 0.0)
    wrong0 = (y == 0.0) & (p == 1.0)
    n_inf = int(np.sum(wrong1 | wrong0))
    if n_inf:
        mll = math.inf
    else:
        with np.errstate(divide="ignore"):
            losses = np.where(y == 1.0, -np.log2(p), -np.log2(1.0 - p))
        mll = float(np.mean(losses))
    mbl = float(np.mean(4.0 * (y - p) ** 2))
    return EvalReport(mll, mbl, len(p), n_inf)
