"""Interval calibrator: turn raw scores into lower/upper probability pairs.

Construction sorts and deduplicates the calibration scores, then tabulates
the lower and upper probability curves in linear time.  A query for a test
score s answers from the tables: an exact hit on the i-th distinct score
returns (lower[i], upper[i]); a score strictly between two distinct scores
returns the lower value of its left neighbour and the upper value of its
right neighbour; outside the score range the missing side falls back to the
boundary conventions 0 and 1.  This reproduces, for every s, the isotonic
fit at s of the calibration set with (s, 0) respectively (s, 1) appended.
The tables are stored padded, lower = [0] + p0 and upper = p1 + [1]; a batch
is sorted once, searched once on the keys, and read from the padded tables;
a single score takes one `searchsorted` on the keys and reads the same tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from venncal.isotonic import (
    WeightedPoints,
    dedup_weighted,
    lower_prob_scan,
    upper_prob_scan,
)
from venncal.merging import merge

__all__ = ["ProbInterval", "IvapCalibrator"]


@dataclass(frozen=True, slots=True)
class ProbInterval:
    """Lower/upper probability pair; always p0 < p1."""

    p0: float
    p1: float


class IvapCalibrator:
    """Calibration rule mapping any test score to a probability interval.

    Immutable after construction; concurrent queries need no locking.
    """

    FORMAT = "venncal.ivap"
    VERSION = 1

    def __init__(self, points: WeightedPoints, p0: np.ndarray, p1: np.ndarray,
                 push_counts: tuple[int, int, int, int]):
        self.points = points
        # padded tables; p0 and p1 are views into them, not copies
        self._lower = np.concatenate(([0.0], p0))
        self._upper = np.concatenate((p1, [1.0]))
        self.p0 = self._lower[1:]
        self.p1 = self._upper[:-1]
        # (lower corner, lower sweep, upper corner, upper sweep) stack pushes
        self.push_counts = push_counts

    @classmethod
    def fit(cls, scores, labels) -> "IvapCalibrator":
        """Build the rule from calibration scores and binary labels.

        Scores must be finite; labels must be 0 or 1.  Construction is
        O(k log k) for the sort and O(k) afterwards.
        """
        s = np.asarray(scores, dtype=float)
        y = np.asarray(labels, dtype=float)
        if s.size and not np.isfinite(s).all():
            raise ValueError("calibration scores must be finite")
        if y.size and not np.isin(y, (0.0, 1.0)).all():
            raise ValueError("labels must be 0 or 1")
        return cls._sweep(dedup_weighted(s, y))

    @classmethod
    def _sweep(cls, points: WeightedPoints) -> "IvapCalibrator":
        """The rule whose curves are the two scans of `points`."""
        lo = lower_prob_scan(points)
        up = upper_prob_scan(points)
        counts = (lo.corner_pushes, lo.sweep_pushes, up.corner_pushes, up.sweep_pushes)
        return cls(points, lo.values, up.values, counts)

    def __len__(self) -> int:
        return len(self.points)

    def predict_intervals(self, scores) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized query; (lower, upper) arrays of the input's shape.  A score
        above i keys reads upper[i] and lower[i], or lower[i + 1] on a hit of key i."""
        s = np.asarray(scores, dtype=float)
        flat = s.ravel()
        order = np.argsort(flat)
        ss = flat[order]
        # -inf sorts first, +inf and NaN last
        if not (np.isfinite(ss[:1]).all() and np.isfinite(ss[-1:]).all()):
            raise ValueError("test scores must be finite")
        keys = self.points.scores
        i = keys.searchsorted(ss, side="left")
        hit = keys[np.minimum(i, len(keys) - 1)] == ss
        del ss  # fewer live batch-sized buffers: lower peak memory
        lo, hi = np.empty_like(flat), np.empty_like(flat)
        hi[order] = self._upper[i]
        i += hit
        lo[order] = self._lower[i]
        return lo.reshape(s.shape), hi.reshape(s.shape)

    def predict_interval(self, score: float) -> ProbInterval:
        """Interval of one score: one binary search, the same bits as the batch path."""
        s = float(score)
        if not math.isfinite(s):
            raise ValueError("test scores must be finite")
        keys = self.points.scores
        i = keys.searchsorted(s)
        hit = i < len(keys) and keys[i] == s
        return ProbInterval(float(self._lower[i + hit]), float(self._upper[i]))

    def predict(self, score: float, loss: str = "log") -> float:
        """Single precise probability for one test score."""
        interval = self.predict_interval(score)
        return merge(interval.p0, interval.p1, loss)

    def predict_many(self, scores, loss: str = "log") -> np.ndarray:
        lo, hi = self.predict_intervals(scores)
        return merge(lo[None, :], hi[None, :], loss)

    # ---- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": self.FORMAT,
            "version": self.VERSION,
            "scores": self.points.scores.tolist(),
            "weights": self.points.weights.tolist(),
            "label_sums": self.points.label_sums.tolist(),
            "p0": self.p0.tolist(),
            "p1": self.p1.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "IvapCalibrator":
        """The rule of a `to_dict` record, its curves rebuilt by the sweep of `fit`.

        Raises ValueError unless the rebuilt curves equal the stored p0 and p1.
        """
        if d.get("format") != cls.FORMAT:
            raise ValueError(f"not an interval-calibrator record: {d.get('format')!r}")
        if d.get("version") != cls.VERSION:
            raise ValueError(f"unsupported version {d.get('version')!r}")
        scores, weights, label_sums, p0, p1 = (
            np.asarray(d[key], dtype=float)
            for key in ("scores", "weights", "label_sums", "p0", "p1"))
        _check_tables(scores, weights, label_sums, p0, p1)
        rule = cls._sweep(WeightedPoints(scores, weights.astype(np.int64), label_sums))
        if not (np.array_equal(rule.p0, p0) and np.array_equal(rule.p1, p1)):
            raise ValueError("p0 and p1 are not the curves of the stored points")
        return rule


def _check_tables(scores, weights, label_sums, p0, p1) -> None:
    """Raise ValueError unless the arrays can be the tables of a fitted rule."""
    n = len(scores)
    if n == 0 or any(a.ndim != 1 or len(a) != n for a in (scores, weights, label_sums, p0, p1)):
        raise ValueError("scores, weights, label_sums, p0 and p1 need one equal, non-zero length")
    if not (np.isfinite(scores).all() and (scores[1:] > scores[:-1]).all()):
        raise ValueError("scores must be finite and strictly increasing")
    if not (np.isfinite(weights).all() and (weights >= 1).all()
            and (weights == np.floor(weights)).all()):
        raise ValueError("weights must be positive integers")
    if not ((label_sums >= 0) & (label_sums <= weights)).all():
        raise ValueError("label sums must lie between 0 and the weight")
    if not ((p0 >= 0) & (p0 < p1) & (p1 <= 1)).all():
        raise ValueError("the curves need 0 <= p0 < p1 <= 1 at every score")
    if not ((np.diff(p0) >= 0).all() and (np.diff(p1) >= 0).all()):
        raise ValueError("p0 and p1 must be non-decreasing in the score")
