"""Minimax merging of probability intervals into one precise probability.

Given K interval predictions (p0_k, p1_k), the log-loss merge equalizes the
extra cumulative log loss suffered against the correct endpoints under either
outcome, which yields GM(p1) / (GM(1 - p0) + GM(p1)) with GM the geometric
mean.  The Brier-loss merge solves the analogous linear equation, giving the
mean over k of p1_k + p0_k^2/2 - p1_k^2/2; it reduces to the arithmetic mean
when every interval is degenerate (p0 = p1).

`merge(p0, p1, loss)` is the one function that turns intervals into
probabilities, for a single interval and for batches alike; every input
(two floats and lists too) is merged as arrays, two floats as 0-d ones.
Means over the K intervals are one running sum, in order k = 0, 1, ...,
K - 1, so a column's result does not depend on how many columns are merged
with it.  `merged_interval` returns the endpoints of the merged interval
instead.

Single answers skip `merge`: one score's interval, already range-checked,
goes through `_single` in float arithmetic, whose + - * / round as numpy's
do.  The log merge reads an interval only through log(1 - p0) and log(p1),
unclipped (log(0) = -inf), and `row_tables` takes them once over an interval
calibrator's padded tables, so a cross calibrator's log-loss row is merged
from K table entries and one `np.exp` call, with the bits of its batch
column (numpy's log and exp may round unlike the math module's).
"""

from __future__ import annotations

import numpy as np

__all__ = ["LOSSES", "merge", "merged_interval"]

LOSSES = ("log", "brier")

_RANGE = "interval endpoints must lie in [0, 1] with p0 <= p1"


def merge(p0, p1, loss: str = "log"):
    """Minimax merge of K stacked intervals under `loss` ('log' or 'brier').

    `p0` and `p1` hold the lower and upper endpoints, 0 <= p0 <= p1 <= 1
    (ValueError otherwise; p0 == p1 is allowed).  Two floats or a 0-d pair
    are one interval, and (K,) inputs or two lists of K floats are K
    intervals; all give a float.
    With 2-D inputs the K axis is axis 0 and one merged probability is
    returned per column.  Under log loss a single interval reduces to
    p1 / ((1 - p0) + p1), computed directly to avoid needless exp/log
    round-off; it lies strictly inside (0, 1) unless p0 = p1 = 0 or 1.
    An interval with p0 = 1 beside one with p1 = 0 is 0/0 (ValueError).
    """
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}")
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    if p0.shape != p1.shape:
        raise ValueError(f"shape mismatch: {p0.shape} vs {p1.shape}")
    if p0.size == 0:
        raise ValueError("empty interval batch")
    if not ((0.0 <= p0) & (p0 <= p1) & (p1 <= 1.0)).all():
        raise ValueError(_RANGE)
    if loss == "brier" or p0.ndim == 0 or len(p0) == 1:
        out = _single(p0, p1, loss)
        if out.ndim:
            out = out[0] if len(out) == 1 else _mean_over_k(out)  # one row: no copy
    else:
        gm_q0, gm_p1 = _geometric_means(p0, p1)
        if not (total := gm_q0 + gm_p1).all():  # no factor underflows to a false 0
            raise ValueError("no log merge: one interval has p0 = 1 and another p1 = 0")
        out = gm_p1 / total
    return float(out) if np.ndim(out) == 0 else out


def _single(p0, p1, loss: str):
    """Merge of each single interval: floats or arrays, elementwise."""
    if loss == "brier":
        return p1 + 0.5 * p0 * p0 - 0.5 * p1 * p1
    return p1 / ((1.0 - p0) + p1)


def _mean_over_k(x):
    """Mean over axis 0, its K rows added in order k = 0, 1, ... (x may be overwritten).

    One running sum for a (K,), (K, 1) or (K, n) array, into x[0] in place;
    numpy's sum adds a (K,) pairwise once K >= 8.
    """
    total = x[0]
    for row in x[1:]:
        total += row
    return total / len(x)


def _log(x: np.ndarray) -> np.ndarray:
    """log(x), in place (x is overwritten); log(0) is -inf, without a warning."""
    with np.errstate(divide="ignore"):
        return np.log(x, out=x)


def _geometric_means(p0, p1) -> tuple[np.ndarray, np.ndarray]:
    """GM(1 - p0) and GM(p1) over the K axis 0."""
    return (np.exp(_mean_over_k(_log(1.0 - p0))),
            np.exp(_mean_over_k(_log(np.array(p1, dtype=float)))))


def row_tables(keys, lower: np.ndarray, upper: np.ndarray, log: bool = False) -> tuple:
    """Lists: keys closed by +inf (no finite score passes it) and the padded tables, or
    (`log`) log(1 - lower) and log(upper), -inf for 0; ValueError unless each
    (lower[i + hit], upper[i]) is an interval."""
    # pairs (lower[i], upper[i]) and, on a hit, (lower[i + 1], upper[i]); NaN compares false
    if not ((lower <= upper).all() and (lower[1:] <= upper[:-1]).all()
            and (0.0 <= lower).all() and (upper <= 1.0).all()):
        raise ValueError(_RANGE)
    if log:
        lower, upper = _log(1.0 - lower), _log(np.array(upper))
    return keys.tolist() + [np.inf], lower.tolist(), upper.tolist()


def merged_interval(p0: np.ndarray, p1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(1 - GM(1 - p0), GM(p1)) of K stacked intervals: the one interval whose
    single-interval log merge is their log merge.  Not a bracket: the ends cross
    (p0 > p1, which `merge` rejects) when the folds disagree."""
    gm_q0, gm_p1 = _geometric_means(p0, p1)
    return 1.0 - gm_q0, gm_p1
