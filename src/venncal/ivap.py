"""Interval calibrator: turn raw scores into lower/upper probability pairs.

`fit` checks and deduplicates the calibration scores, and the constructor
tabulates the two curves of those points in linear time.  A query for a test
score s answers from the tables: an exact hit on the i-th distinct score
returns (lower[i], upper[i]); a score strictly between two distinct scores
returns the lower value of its left neighbour and the upper value of its
right neighbour; outside the score range the missing side falls back to the
boundary conventions 0 and 1.  This reproduces, for every s, the isotonic
fit at s of the calibration set with (s, 0) respectively (s, 1) appended.
The tables are stored padded, lower = [0] + p0 and upper = p1 + [1], and a batch
reads them through `isotonic._step_lookup`: over four times longer than the keys,
it repeats each entry by the count of sorted queries that read it; otherwise each
query is searched in the keys.
A single score takes one `bisect` on the keys (closed by +inf) and reads the
same tables held as Python lists, with the bits of the batch query and no
numpy call; `predict` merges that pair with `merging._single`, not `merge`.
The three lists are built and range-checked on the first single-score
query, never by `fit`, a batch query or a cross calibrator, which builds
its own row tables from each fold rule's.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from venncal.isotonic import (
    WeightedPoints,
    _step_lookup,
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

    def __init__(self, points: WeightedPoints):
        self.points = points
        lo = lower_prob_scan(points)
        # padded tables; p0 and p1 are views into them, not copies
        self._lower = np.concatenate(([0.0], lo.values))
        # (lower corner, lower sweep, upper corner, upper sweep) stack pushes
        self.push_counts = (lo.corner_pushes, lo.sweep_pushes)
        del lo  # its batch-sized slope components are not held through the upper scan
        up = upper_prob_scan(points)
        self._upper = np.concatenate((up.values, [1.0]))
        self.push_counts += (up.corner_pushes, up.sweep_pushes)
        self.p0 = self._lower[1:]
        self.p1 = self._upper[:-1]

    @classmethod
    def fit(cls, scores, labels) -> "IvapCalibrator":
        """Build the rule from calibration scores and binary labels.

        Scores must be finite; labels must be 0 or 1.  Construction is
        O(k log k) for the sort and O(k) afterwards.
        """
        return cls(dedup_weighted(*calibration_set(scores, labels)))

    def __len__(self) -> int:
        return len(self.points)

    def predict_intervals(self, scores) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized query; (lower, upper) arrays of the input's shape.  A score
        above i keys reads upper[i] and lower[i], or lower[i + 1] on a hit of key i."""
        s = np.asarray(scores, dtype=float)
        flat = s.ravel()
        if not np.isfinite(flat).all():
            raise ValueError("test scores must be finite")
        lo, hi = _step_lookup(self.points.scores, flat, self._lower, self._upper)
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
        return merge(lo[None], hi[None], loss)
