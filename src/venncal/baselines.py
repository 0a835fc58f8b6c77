"""Comparison calibrators: a regularized sigmoid and direct isotonic lookup.

The sigmoid calibrator fits g(s) = 1 / (1 + exp(a*s + b)) by minimizing the
cross-entropy against regularized targets (k+ + 1)/(k+ + 2) for label-1 and
1/(k- + 2) for label-0 calibration points, where k+ and k- count the labels.
At the optimum the predictions match the targets' sum and their score-weighted
sum; single predictions can fall outside (1/(k- + 2), (k+ + 1)/(k+ + 2)), as
criterion 11b in README shows.  The fit is the logistic scorer's damped-Newton
solver (`scorers._newton`) on z = -(a*s + b) with ridge 0, each line search
starting at the full Newton step, as in Lin, Lin & Weng (2007).  The direct
isotonic calibrator fits the plain isotonic regression and answers queries
with a left-step lookup (the fitted value at the largest calibration score
not exceeding the query, the first fitted value below all scores): IVAP's
`isotonic._step_lookup` on the table [fitted[0]] + fitted.  It has
no regularization, so a test score below every calibration score can be
assigned probability exactly 0.  Both fits reject non-finite calibration
scores, isotonic before it adds its dummy endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from venncal.exceptions import DegenerateModelError
from venncal.isotonic import _step_lookup, calibration_set, dedup_weighted, fit_isotonic
from venncal.scorers import _newton, _sigmoid

__all__ = ["PlattCalibrator", "DirectIsotonic"]

# Platt's fit stops at this summed-gradient norm or iteration count
_GRAD_TOL = 1e-8
_MAX_ITER = 10_000


@dataclass
class PlattCalibrator:
    """Sigmoid calibrator 1 / (1 + exp(a*s + b)); a < 0 for increasing scores."""

    a: float
    b: float
    k_pos: int
    k_neg: int
    converged: bool = True  # False if the fit stopped at _MAX_ITER or without a descent step

    @classmethod
    def fit(cls, scores, labels) -> "PlattCalibrator":
        """Fit (a, b) with the damped-Newton solver the logistic scorer uses.

        Scores must be finite; labels must be 0 or 1.  Starts from a = 0 and
        the prior-matching intercept b = log((k- + 1) / (k+ + 1)), and starts
        each line search at the full Newton step; stops once the norm of the
        gradient of the summed cross-entropy is below 1e-8.  `converged` is
        False if it stopped instead after `_MAX_ITER` (10,000) iterations or
        when no step decreased the objective.
        """
        s, y = calibration_set(scores, labels)
        if len(s) != len(y) or len(s) == 0:
            raise ValueError("scores and labels must be nonempty and equal length")
        k_pos = int(np.sum(y == 1.0))
        k_neg = len(y) - k_pos
        if k_pos == 0 or k_neg == 0:
            raise DegenerateModelError("sigmoid calibrator needs both classes present")
        t = np.where(y == 1.0, (k_pos + 1.0) / (k_pos + 2.0), 1.0 / (k_neg + 2.0))

        # with z = -(a s + b) the objective is n times the logistic loss against targets t
        c0 = float(np.log((k_pos + 1.0) / (k_neg + 1.0)))
        w, c, _, converged = _newton(s[:, None], t, 0.0, c0, _MAX_ITER, _GRAD_TOL / len(s))
        return cls(0.0 - float(w[0]), 0.0 - c, k_pos, k_neg, converged)  # 0.0 - x: never -0.0

    def predict_many(self, scores) -> np.ndarray:
        s = np.asarray(scores, dtype=float)
        if np.isnan(s).any():
            raise ValueError("test scores must not be NaN")
        with np.errstate(over="ignore"):  # a finite a*s past the float range is an exact +-inf
            z = self.a * s + self.b if self.a else np.full_like(s, self.b)  # 0*inf is NaN
        return _sigmoid(-z)


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
        extreme steps; off by default.  Scores must be finite, labels 0 or 1.
        """
        s, y = calibration_set(scores, labels)
        if dummy_endpoints:
            s = np.concatenate([[-np.inf], s, [np.inf]])
            y = np.concatenate([[1.0], y, [0.0]])
        points = dedup_weighted(s, y)
        return cls(points.scores, fit_isotonic(points))

    def predict_many(self, scores) -> np.ndarray:
        s = np.asarray(scores, dtype=float)
        if np.isnan(s).any():
            raise ValueError("test scores must not be NaN")
        table = np.concatenate((self.fitted[:1], self.fitted))
        return _step_lookup(self.scores, s.ravel(), table)[0].reshape(s.shape)[()]
