"""Cross calibration: K fold-wise interval calibrators merged minimax-optimally.

A fitted model is its K (scorer, rule) pairs.  `assign_folds` splits the
rows into K near-equal folds (contiguous, or shuffled by a given seed), used
only while fitting.  For each fold, `fold_scorers` (which the CLI's ridge
search shares) trains a scorer on the complement, and an interval calibrator
is fitted on the fold's scores under it, so no observation ever calibrates a
scorer that saw it.
A prediction computes K intervals and merges them with the minimax rule for
the configured loss.  A single row of an all-logistic model under log loss
is one loop over per-fold row tables built on the first row: a fold scores
it in float arithmetic, bisects the keys and reads two log-merge terms,
summed in fold order, with the bits of any batch.  Any other model answers
a row as its batch of one.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from math import isfinite

import numpy as np

from venncal.data import Dataset
from venncal.exceptions import DegenerateModelError
from venncal.ivap import IvapCalibrator
from venncal.merging import LOSSES, merge, row_tables
from venncal.scorers import LogisticScorer, ScorerSpec, train_scorer

__all__ = ["assign_folds", "fold_scorers", "fold_intervals", "CvapCalibrator"]


def assign_folds(n: int, n_folds: int, shuffle_seed: int | None = None) -> np.ndarray:
    """The fold (0..K-1) of each of n observations; 2 <= K <= n required.

    The first (n mod K) folds get ceil(n/K) observations and the rest
    floor(n/K), so every fold size is within 1 of n/K.  Contiguous unless
    `shuffle_seed` is given: then `np.random.default_rng(shuffle_seed).shuffle`
    reorders that int64 array in place, keeping the size multiset.
    """
    if n_folds < 2:
        raise ValueError(f"need at least 2 folds, got {n_folds}")
    if n_folds > n:
        raise ValueError(f"cannot split {n} observations into {n_folds} folds")
    base, extra = divmod(n, n_folds)
    sizes = np.full(n_folds, base, dtype=np.int64)
    sizes[:extra] += 1
    fold_of = np.repeat(np.arange(n_folds, dtype=np.int64), sizes)
    if shuffle_seed is not None:
        np.random.default_rng(shuffle_seed).shuffle(fold_of)
    return fold_of


def fold_scorers(dataset: Dataset, fold_of: np.ndarray, spec: ScorerSpec):
    """Yield (fold k's rows, a scorer trained on the rest) for k = 0..max(fold_of), in turn."""
    for k in range(int(fold_of.max()) + 1):
        rest = np.flatnonzero(fold_of != k)
        y_rest = dataset.y[rest]
        if y_rest.min() == y_rest.max():
            raise DegenerateModelError(
                f"degenerate fold {k}: proper training part has a single class")
        yield np.flatnonzero(fold_of == k), train_scorer(spec, dataset.X[rest], y_rest)


def fold_intervals(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Intervals of each (rule, test scores) pair, stacked: two (K, n) arrays.

    Pairs are taken one at a time, so a lazy iterable yields, and fails on,
    one fold before the next is made.
    """
    lows, highs = [], []
    for rule, scores in pairs:
        lo, hi = rule.predict_intervals(scores)
        lows.append(lo)
        highs.append(hi)
    return np.stack(lows), np.stack(highs)


class CvapCalibrator:
    """K fold-wise scorers and interval calibrators plus the merge rule.

    Immutable after construction; fold models are independent, so queries
    are safe to run concurrently and the merge is a pure function of the K
    intervals (racing first rows at worst build equal row tables twice).
    """

    def __init__(self, scorers: list, rules: list[IvapCalibrator], merge_loss: str = "log"):
        if len(scorers) != len(rules) or len(rules) < 2:
            raise ValueError(f"{len(scorers)} scorers and {len(rules)} rules: "
                             f"need one of each per fold, and 2 folds or more")
        widths = [s.n_features for s in scorers]
        if len(set(widths)) != 1:
            raise ValueError(f"fold scorers expect {widths} features")
        self.scorers = scorers
        self.rules = rules
        self.merge_loss = merge_loss

    @classmethod
    def fit(cls, dataset: Dataset, n_folds: int = 5, spec: ScorerSpec | None = None,
            *, shuffle_seed: int | None = None, merge_loss: str = "log") -> "CvapCalibrator":
        """Train K scorers on fold complements and calibrate each on its fold.

        Raises DegenerateModelError when any fold or fold complement contains
        a single class; a silent fallback would corrupt comparisons.
        """
        if merge_loss not in LOSSES:
            raise ValueError(f"unknown merge loss {merge_loss!r}")
        fold_of = assign_folds(len(dataset), n_folds, shuffle_seed)
        scorers, rules = [], []
        for k, (rows, scorer) in enumerate(fold_scorers(dataset, fold_of, spec or ScorerSpec())):
            y_fold = dataset.y[rows]
            if y_fold.min() == y_fold.max():
                raise DegenerateModelError(
                    f"degenerate fold {k}: calibration part has a single class")
            scorers.append(scorer)
            rules.append(IvapCalibrator.fit(scorer.score_many(dataset.X[rows]), y_fold))
        return cls(scorers, rules, merge_loss)

    def predict_intervals_many(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Per-fold intervals for a feature matrix: two (K, n) arrays."""
        return fold_intervals((rule, scorer.score_many(X))
                              for scorer, rule in zip(self.scorers, self.rules))

    def predict_many(self, X) -> np.ndarray:
        lo, hi = self.predict_intervals_many(X)
        return merge(lo, hi, self.merge_loss)

    @cached_property
    def _row_tables(self) -> list[tuple] | None:
        """Per fold (weights, intercept, keys, log lower, log upper) as lists from `row_tables`,
        for single rows of an all-logistic model under log loss; None for any other model."""
        if self.merge_loss != "log" or not all(isinstance(scorer, LogisticScorer)
                                               for scorer in self.scorers):
            return None
        return [(scorer.weights.tolist(), float(scorer.intercept),
                 *row_tables(rule.points.scores, rule._lower, rule._upper, log=True))
                for scorer, rule in zip(self.scorers, self.rules)]

    def predict(self, x) -> float:
        """Merged probability of one feature row: the bits of a batch holding it."""
        if (row := np.asarray(x, dtype=float)).ndim != 1:
            raise ValueError(f"predict takes one feature row of shape (d,), got shape {row.shape}")
        self.scorers[0]._check_width(len(row))  # every fold's width: see __init__
        if (tables := self._row_tables) is None:
            return float(self.predict_many(row[None, :])[0])
        x = row.tolist()
        sum_lo = sum_hi = -0.0  # -0.0 + t is t: the sums start at fold 0's terms
        for weights, intercept, keys, lower, upper in tables:  # k = 0..K-1, as a batch
            s = 0.0  # 0.0 + x[0] * w[0] + ... + b rounded term by term, as `_linear` does
            for xj, wj in zip(x, weights):  # (an explicit loop: Python 3.12's `sum` compensates)
                s += xj * wj
            s += intercept
            if not isfinite(s):
                raise ValueError("test scores must be finite")
            i = bisect_left(keys, s)  # a finite score lands on a key or on the sentinel
            sum_lo += lower[i + (keys[i] == s)]
            sum_hi += upper[i]
        gm_q0, gm_p1 = np.exp((sum_lo / len(tables), sum_hi / len(tables))).tolist()
        return gm_p1 / (gm_q0 + gm_p1)
