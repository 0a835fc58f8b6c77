"""Minimax merging of probability intervals into one precise probability.

Given K interval predictions (p0_k, p1_k), the log-loss merge equalizes the
extra cumulative log loss suffered against the correct endpoints under either
outcome, which yields GM(p1) / (GM(1 - p0) + GM(p1)) with GM the geometric
mean.  The Brier-loss merge solves the analogous linear equation, giving the
mean over k of p1_k + p0_k^2/2 - p1_k^2/2; it reduces to the arithmetic mean
when every interval is degenerate (p0 = p1).

`merge(p0, p1, loss)` is the one function that turns intervals into
probabilities, for a single interval and for batches alike.
`merged_interval` returns the endpoints of the merged interval instead.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LOSSES", "merge", "merged_interval"]

LOSSES = ("log", "brier")

# floor for quantities entering the log-space geometric mean; interval
# calibrator outputs can never reach it, but user-supplied batches might
_EPS = 1e-300


def merge(p0, p1, loss: str = "log"):
    """Minimax merge of K stacked intervals under `loss` ('log' or 'brier').

    `p0` and `p1` hold the lower and upper endpoints, 0 <= p0 <= p1 <= 1
    (ValueError otherwise; p0 == p1 is allowed).  A 0-d pair is one
    interval and (K,) inputs are K intervals; both give a float.  With 2-D
    inputs the K axis is axis 0 and one merged probability is returned per
    column.  Under log loss a single interval reduces to
    p1 / ((1 - p0) + p1), computed directly to avoid needless exp/log
    round-off; it lies strictly inside (0, 1) unless p0 = p1 = 0 or 1.
    """
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}")
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    if p0.shape != p1.shape:
        raise ValueError(f"shape mismatch: {p0.shape} vs {p1.shape}")
    if p0.size == 0:
        raise ValueError("empty interval batch")
    # a comparison with NaN is false, so NaN endpoints fail here too
    if not ((0.0 <= p0) & (p0 <= p1) & (p1 <= 1.0)).all():
        raise ValueError("interval endpoints must lie in [0, 1] with p0 <= p1")
    if loss == "brier":
        out = p1 + 0.5 * p0 * p0 - 0.5 * p1 * p1
        if out.ndim:
            out = np.mean(out, axis=0)
    elif p0.ndim == 0 or len(p0) == 1:
        out = p1 / ((1.0 - p0) + p1)
        if out.ndim:
            out = out[0]
    else:
        gm_q0, gm_p1 = _geometric_means(p0, p1)
        out = gm_p1 / (gm_q0 + gm_p1)
    return float(out) if np.ndim(out) == 0 else out


def _geometric_means(p0, p1) -> tuple[np.ndarray, np.ndarray]:
    """GM(1 - p0) and GM(p1) over the K axis 0."""
    return (np.exp(np.mean(np.log(np.maximum(1.0 - p0, _EPS)), axis=0)),
            np.exp(np.mean(np.log(np.maximum(p1, _EPS)), axis=0)))


def merged_interval(p0: np.ndarray, p1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(1 - GM(1 - p0), GM(p1)) of K stacked intervals: the one interval whose
    single-interval log merge is their log merge.  Not a bracket: the ends cross
    (p0 > p1, which `merge` rejects) when the folds disagree."""
    gm_q0, gm_p1 = _geometric_means(p0, p1)
    return 1.0 - gm_q0, gm_p1
