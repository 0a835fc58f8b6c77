"""Interval calibrator: turn raw scores into lower/upper probability pairs.

`fit` checks and deduplicates the calibration scores, and the constructor
tabulates the two curves of those points in linear time.  A query for a test
score s answers from the tables: an exact hit on the i-th distinct score
returns (lower[i], upper[i]); a score strictly between two distinct scores
returns the lower value of its left neighbour and the upper value of its
right neighbour; outside the score range the missing side falls back to the
boundary conventions 0 and 1.  This reproduces, for every s, the isotonic
fit at s of the calibration set with (s, 0) respectively (s, 1) appended.
The tables are stored padded, lower = [0] + p0 and upper = p1 + [1]; a batch
is sorted once, searched once on the keys, and read from the padded tables.
A single score takes one `bisect` on the keys (closed by +inf) and reads the
same tables held as Python lists, with the bits of the batch query and no
numpy call; `predict` merges that pair with `merging._single`, not `merge`.
The three lists are built and range-checked on the first single-score
query, never by `fit`, `from_dict`, `to_dict`, a batch query or a cross
calibrator, which builds its own row tables from each fold rule's.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from venncal.isotonic import (
    WeightedPoints,
    calibration_set,
    dedup_weighted,
    lower_prob_scan,
    upper_prob_scan,
)
from venncal.merging import LOSSES, _single, merge, row_tables

__all__ = ["ProbInterval", "IvapCalibrator"]


@dataclass(frozen=True, slots=True)
class ProbInterval:
    """Lower/upper probability pair; always p0 < p1."""

    p0: float
    p1: float


class IvapCalibrator:
    """Calibration rule mapping any test score to a probability interval.

    Immutable after construction; concurrent queries need no locking (two
    threads racing to the first single-score query at worst build equal
    lists twice).
    """

    FORMAT = "venncal.ivap"
    VERSION = 1

    def __init__(self, points: WeightedPoints):
        self.points = points
        lo = lower_prob_scan(points)
        up = upper_prob_scan(points)
        # padded tables; p0 and p1 are views into them, not copies
        self._lower = np.concatenate(([0.0], lo.values))
        self._upper = np.concatenate((up.values, [1.0]))
        self.p0 = self._lower[1:]
        self.p1 = self._upper[:-1]
        # (lower corner, lower sweep, upper corner, upper sweep) stack pushes
        self.push_counts = (lo.corner_pushes, lo.sweep_pushes, up.corner_pushes, up.sweep_pushes)

    @classmethod
    def fit(cls, scores, labels) -> "IvapCalibrator":
        """Build the rule from calibration scores and binary labels.

        Scores must be finite; labels must be 0 or 1.  Construction is
        O(k log k) for the sort and O(k) afterwards.
        """
        # s and y outlive the scans: freed first, they left ivap_bulk's peak RSS 8 MB higher
        s, y = calibration_set(scores, labels)
        return cls(dedup_weighted(s, y))

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

    @cached_property
    def _lists(self) -> tuple[list, list, list]:
        """The keys, closed by +inf, and the padded tables as Python lists."""
        return row_tables(self.points.scores, self._lower, self._upper)

    def _pair(self, score) -> tuple[float, float]:
        """(p0, p1) of one score: one bisection of the keys."""
        s = float(score)
        if not math.isfinite(s):
            raise ValueError("test scores must be finite")
        keys, lower, upper = self._lists
        i = bisect_left(keys, s)  # a finite score lands on a key or on the sentinel
        return lower[i + (keys[i] == s)], upper[i]

    def predict_interval(self, score: float) -> ProbInterval:
        """Interval of one score: one binary search, the same bits as the batch path."""
        return ProbInterval(*self._pair(score))

    def predict(self, score: float, loss: str = "log") -> float:
        """Single precise probability for one test score: the bits of `predict_many`."""
        p0, p1 = self._pair(score)  # range-checked where the lists are built
        if loss not in LOSSES:
            raise ValueError(f"unknown loss {loss!r}")
        return _single(p0, p1, loss)

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
        rule = cls(WeightedPoints(scores, weights.astype(np.int64), label_sums))
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
    # bounded before `from_dict` casts them to int64, which warns above 2^63
    if not (((weights >= 1) & (weights <= 2.0 ** 53)).all()
            and (weights == np.floor(weights)).all()):
        raise ValueError("weights must be positive integers of at most 2^53")
    if not ((label_sums >= 0) & (label_sums <= weights)).all():
        raise ValueError("label sums must lie between 0 and the weight")
    if not ((p0 >= 0) & (p0 < p1) & (p1 <= 1)).all():
        raise ValueError("the curves need 0 <= p0 < p1 <= 1 at every score")
    if not ((np.diff(p0) >= 0).all() and (np.diff(p1) >= 0).all()):
        raise ValueError("p0 and p1 must be non-decreasing in the score")
