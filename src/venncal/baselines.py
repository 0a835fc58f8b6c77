"""Comparison calibrators: a regularized sigmoid and direct isotonic lookup.

The sigmoid calibrator fits g(s) = 1 / (1 + exp(a*s + b)) by minimizing the
cross-entropy against regularized targets (k+ + 1)/(k+ + 2) for label-1 and
1/(k- + 2) for label-0 calibration points, where k+ and k- count the labels.
Those targets confine every fitted prediction to the open interval
(1/(k- + 2), (k+ + 1)/(k+ + 2)).  The direct isotonic calibrator fits the
plain isotonic regression and answers queries with a left-step lookup (the
fitted value at the largest calibration score not exceeding the query, the
first fitted value below all scores).  It has no regularization, so a test
score below every calibration score can be assigned probability exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from venncal.exceptions import DegenerateModelError
from venncal.isotonic import dedup_weighted, fit_isotonic
from venncal.scorers import _sigmoid

__all__ = ["PlattCalibrator", "DirectIsotonic"]

# Platt's Newton iteration stops at this gradient norm or iteration count
_GRAD_TOL = 1e-8
_MAX_ITER = 10_000


@dataclass
class PlattCalibrator:
    """Sigmoid calibrator 1 / (1 + exp(a*s + b)); a < 0 for increasing scores."""

    a: float
    b: float
    k_pos: int
    k_neg: int

    @classmethod
    def fit(cls, scores, labels) -> "PlattCalibrator":
        """Fit (a, b) by damped Newton with backtracking line search.

        Scores must be finite; labels must be 0 or 1.  Convergence when the
        gradient norm drops below 1e-8 or after 10,000 iterations.  Starts
        from a = 0 and the prior-matching intercept b = log((k- + 1) / (k+ + 1)).
        """
        s = np.asarray(scores, dtype=float)
        y = np.asarray(labels, dtype=float)
        if len(s) != len(y) or len(s) == 0:
            raise ValueError("scores and labels must be nonempty and equal length")
        if not np.isfinite(s).all():
            raise ValueError("calibration scores must be finite")
        k_pos = int(np.sum(y == 1.0))
        k_neg = int(np.sum(y == 0.0))
        if k_pos + k_neg != len(y):
            raise ValueError("labels must be 0 or 1")
        if k_pos == 0 or k_neg == 0:
            raise DegenerateModelError("sigmoid calibrator needs both classes present")
        t_pos = (k_pos + 1.0) / (k_pos + 2.0)
        t_neg = 1.0 / (k_neg + 2.0)
        t = np.where(y == 1.0, t_pos, t_neg)

        def objective(a, b):
            # cross entropy of p = sigmoid(-(a s + b)) against targets t,
            # written via softplus for stability
            z = a * s + b
            return float(np.sum(np.logaddexp(0.0, -z) + t * z))

        a = 0.0
        b = float(np.log((k_neg + 1.0) / (k_pos + 1.0)))
        value = objective(a, b)
        for _ in range(_MAX_ITER):
            z = a * s + b
            p = _sigmoid(-z)
            resid = t - p
            g_a = float(np.dot(resid, s))
            g_b = float(np.sum(resid))
            if g_a * g_a + g_b * g_b < _GRAD_TOL * _GRAD_TOL:
                break
            w = p * (1.0 - p)
            h_aa = float(np.dot(w, s * s)) + 1e-12
            h_ab = float(np.dot(w, s))
            h_bb = float(np.sum(w)) + 1e-12
            det = h_aa * h_bb - h_ab * h_ab
            if det <= 0:
                d_a, d_b = -g_a, -g_b  # fall back to plain gradient descent
            else:
                d_a = -(g_a * h_bb - g_b * h_ab) / det
                d_b = -(g_b * h_aa - g_a * h_ab) / det
            step = 1.0
            accepted = False
            while step >= 1e-16:
                cand = objective(a + step * d_a, b + step * d_b)
                if cand < value:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
            a += step * d_a
            b += step * d_b
            value = cand
        return cls(a, b, k_pos, k_neg)

    def predict_many(self, scores) -> np.ndarray:
        s = np.asarray(scores, dtype=float)
        if np.isnan(s).any():
            raise ValueError("test scores must not be NaN")
        return _sigmoid(-(self.a * s + self.b))

    def predict(self, score: float) -> float:
        return float(self.predict_many(np.asarray([score]))[0])


@dataclass
class DirectIsotonic:
    """Step-function calibrator from an isotonic fit over distinct scores."""

    scores: np.ndarray
    fitted: np.ndarray

    @classmethod
    def fit(cls, scores, labels, *, dummy_endpoints: bool = False) -> "DirectIsotonic":
        """Isotonic regression on the deduplicated calibration data.

        With `dummy_endpoints`, two synthetic observations are appended
        first: score -inf labelled 1 and score +inf labelled 0.  That keeps
        every prediction strictly inside (0, 1) at the price of biasing the
        extreme steps; off by default.
        """
        s = np.asarray(scores, dtype=float)
        y = np.asarray(labels, dtype=float)
        if dummy_endpoints:
            s = np.concatenate([[-np.inf], s, [np.inf]])
            y = np.concatenate([[1.0], y, [0.0]])
        points = dedup_weighted(s, y)
        return cls(points.scores, fit_isotonic(points))

    def predict_many(self, scores) -> np.ndarray:
        s = np.asarray(scores, dtype=float)
        if np.isnan(s).any():
            raise ValueError("test scores must not be NaN")
        idx = np.searchsorted(self.scores, s, side="right") - 1
        return self.fitted[np.maximum(idx, 0)]

    def predict(self, score: float) -> float:
        return float(self.predict_many(np.asarray([score]))[0])
