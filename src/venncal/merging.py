"""Minimax merging of probability intervals into one precise probability.

Given K interval predictions (p0_k, p1_k), the log-loss merge equalizes the
extra cumulative log loss suffered against the correct endpoints under either
outcome, which yields GM(p1) / (GM(1 - p0) + GM(p1)) with GM the geometric
mean.  The Brier-loss merge solves the analogous linear equation, giving the
mean over k of p1_k + p0_k^2/2 - p1_k^2/2; it reduces to the arithmetic mean
when every interval is degenerate (p0 = p1).

`merge(p0, p1, loss)` is the one function that turns intervals into
probabilities, for a single interval and for batches alike.  A pair of
Python floats is merged in float arithmetic, whose + - * / round as numpy's
do.  Means over the K intervals add them in order k = 0, 1, ..., K - 1 for
every input shape, so a column's result does not depend on how many columns
are merged with it.  `merged_interval` returns the endpoints of the merged
interval instead.

One row of K >= 2 intervals given as two lists of floats (a cross
calibrator's answer for one object) takes a row path with the bits of its
(K, 1) column: the range check and the means are float arithmetic, but the
2K logs are one `np.log` call and the two geometric means one `np.exp`
call.  numpy's float64 log and exp may take SIMD paths that round
differently from the math module's, so the row path keeps them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LOSSES", "merge", "merged_interval"]

LOSSES = ("log", "brier")

# floor for quantities entering the log-space geometric mean; interval
# calibrator outputs can never reach it, but user-supplied batches might
_EPS = 1e-300

_RANGE = "interval endpoints must lie in [0, 1] with p0 <= p1"


def merge(p0, p1, loss: str = "log"):
    """Minimax merge of K stacked intervals under `loss` ('log' or 'brier').

    `p0` and `p1` hold the lower and upper endpoints, 0 <= p0 <= p1 <= 1
    (ValueError otherwise; p0 == p1 is allowed).  A pair of floats or a 0-d
    pair is one interval, and (K,) inputs or two lists of K floats are K
    intervals; all give a float.
    With 2-D inputs the K axis is axis 0 and one merged probability is
    returned per column.  Under log loss a single interval reduces to
    p1 / ((1 - p0) + p1), computed directly to avoid needless exp/log
    round-off; it lies strictly inside (0, 1) unless p0 = p1 = 0 or 1.
    """
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}")
    if isinstance(p0, float) and isinstance(p1, float):
        # a comparison with NaN is false, so NaN endpoints fail here too
        if not 0.0 <= p0 <= p1 <= 1.0:
            raise ValueError(_RANGE)
        return float(_single(p0, p1, loss))
    if _is_float_row(p0, p1):
        return _merge_row(p0, p1, loss)
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    if p0.shape != p1.shape:
        raise ValueError(f"shape mismatch: {p0.shape} vs {p1.shape}")
    if p0.size == 0:
        raise ValueError("empty interval batch")
    if not ((0.0 <= p0) & (p0 <= p1) & (p1 <= 1.0)).all():
        raise ValueError(_RANGE)
    if loss == "brier":
        out = _single(p0, p1, loss)
        if out.ndim:
            out = _mean_over_k(out)
    elif p0.ndim == 0 or len(p0) == 1:
        out = _single(p0, p1, loss)
        if out.ndim:
            out = out[0]
    else:
        gm_q0, gm_p1 = _geometric_means(p0, p1)
        out = gm_p1 / (gm_q0 + gm_p1)
    return float(out) if np.ndim(out) == 0 else out


def _single(p0, p1, loss: str):
    """Merge of each single interval: floats or arrays, elementwise."""
    if loss == "brier":
        return p1 + 0.5 * p0 * p0 - 0.5 * p1 * p1
    return p1 / ((1.0 - p0) + p1)


def _is_float_row(p0, p1) -> bool:
    """True for two lists of K >= 2 floats each: one row of K intervals."""
    return (isinstance(p0, list) and isinstance(p1, list) and len(p0) == len(p1) >= 2
            and all(isinstance(v, float) for v in p0 + p1))


def _merge_row(p0: list, p1: list, loss: str) -> float:
    """Merge of one row of K >= 2 float intervals: the bits of its (K, 1) column."""
    if not all(0.0 <= a <= b <= 1.0 for a, b in zip(p0, p1)):
        raise ValueError(_RANGE)
    k = len(p0)
    if loss == "brier":
        return float(_mean_over_k([_single(a, b, loss) for a, b in zip(p0, p1)]))
    logs = np.log(np.maximum([1.0 - a for a in p0] + p1, _EPS)).tolist()
    gm_q0, gm_p1 = np.exp([_mean_over_k(logs[:k]), _mean_over_k(logs[k:])]).tolist()
    return gm_p1 / (gm_q0 + gm_p1)


def _mean_over_k(x):
    """Mean over axis 0, its K rows added in order k = 0, 1, ... (x may be overwritten).

    numpy's sum over axis 0 adds a (K, n > 1) array's rows in this order,
    but sums a (K,) or (K, 1) array pairwise once K >= 8; a running sum
    keeps the order there.  Many columns are summed into x[0] in place,
    and a list of K floats is summed as floats.
    """
    if isinstance(x, np.ndarray) and (x.ndim == 1 or x.shape[1] == 1):
        return np.add.accumulate(x, axis=0)[-1] / len(x)
    total = x[0]
    for row in x[1:]:
        total += row
    return total / len(x)


def _log_mean(x: np.ndarray):
    """Mean over axis 0 of log(x), x floored at _EPS (x is overwritten)."""
    np.maximum(x, _EPS, out=x)
    return _mean_over_k(np.log(x, out=x))


def _geometric_means(p0, p1) -> tuple[np.ndarray, np.ndarray]:
    """GM(1 - p0) and GM(p1) over the K axis 0."""
    return np.exp(_log_mean(1.0 - p0)), np.exp(_log_mean(np.array(p1, dtype=float)))


def merged_interval(p0: np.ndarray, p1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(1 - GM(1 - p0), GM(p1)) of K stacked intervals: the one interval whose
    single-interval log merge is their log merge.  Not a bracket: the ends cross
    (p0 > p1, which `merge` rejects) when the folds disagree."""
    gm_q0, gm_p1 = _geometric_means(p0, p1)
    return 1.0 - gm_q0, gm_p1
