"""Minimax merging of probability intervals into one precise probability.

Given K interval predictions (p0_k, p1_k), the log-loss merge equalizes the
extra cumulative log loss suffered against the correct endpoints under either
outcome, which yields GM(p1) / (GM(1 - p0) + GM(p1)) with GM the geometric
mean.  The Brier-loss merge solves the analogous linear equation and reduces
to the arithmetic mean when every interval is degenerate (p0 = p1).

`merge(p0, p1, loss)` is the one entry point that picks the rule by loss
name; `merge_interval` is its unchecked single-interval form for scalar
queries.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LOSSES", "merge", "merge_log", "merge_brier", "merge_interval", "merged_interval"]

# floor for quantities entering the log-space geometric mean; interval
# calibrator outputs can never reach it, but user-supplied batches might
_EPS = 1e-300


def _validate(p0, p1) -> tuple[np.ndarray, np.ndarray]:
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    if p0.shape != p1.shape:
        raise ValueError(f"shape mismatch: {p0.shape} vs {p1.shape}")
    if p0.size == 0:
        raise ValueError("empty interval batch")
    if np.nanmin(p0) < 0.0 or np.nanmax(p1) > 1.0 or np.isnan(p0).any() or np.isnan(p1).any():
        raise ValueError("interval endpoints must lie in [0, 1]")
    return p0, p1


def _log_one(p0, p1):
    """Log-loss merge of a single interval: p1 / ((1 - p0) + p1)."""
    return p1 / ((1.0 - p0) + p1)


def _brier_one(p0, p1):
    """Brier-loss merge of a single interval: p1 + p0^2/2 - p1^2/2."""
    return p1 + 0.5 * p0 * p0 - 0.5 * p1 * p1


def _scalar(out):
    return float(out) if np.ndim(out) == 0 else out


def merge_log(p0, p1):
    """Log-loss minimax merge of intervals; strictly inside (0, 1).

    `p0` and `p1` hold the lower and upper endpoints of K intervals.  With
    2-D inputs the K axis is axis 0 and one merged probability is returned
    per column.  A single interval reduces to p1 / ((1 - p0) + p1), computed
    directly to avoid needless exp/log round-off.
    """
    p0, p1 = _validate(p0, p1)
    if p0.ndim == 0:
        return _scalar(_log_one(p0, p1))
    if p0.shape[0] == 1:
        return _scalar(_log_one(p0[0], p1[0]))
    gm_q0, gm_p1 = _geometric_means(p0, p1)
    return _scalar(gm_p1 / (gm_q0 + gm_p1))


def merge_brier(p0, p1):
    """Brier-loss minimax merge: mean over k of p1_k + p0_k^2/2 - p1_k^2/2."""
    p0, p1 = _validate(p0, p1)
    out = _brier_one(p0, p1)
    return _scalar(out if out.ndim == 0 else np.mean(out, axis=0))


# loss name -> (merge of K stacked intervals, unchecked single-interval form)
_RULES = {"log": (merge_log, _log_one), "brier": (merge_brier, _brier_one)}
LOSSES = tuple(_RULES)


def _rule(loss: str):
    try:
        return _RULES[loss]
    except KeyError:
        raise ValueError(f"unknown loss {loss!r}") from None


def merge(p0, p1, loss: str = "log"):
    """Minimax merge of K stacked intervals under `loss` ('log' or 'brier')."""
    return _rule(loss)[0](p0, p1)


def merge_interval(p0: float, p1: float, loss: str = "log") -> float:
    """Collapse one interval to a point probability under the given loss.

    No validation: this is the per-call path of scalar queries, whose
    endpoints come from a fitted calibrator.
    """
    return float(_rule(loss)[1](p0, p1))


def _geometric_means(p0, p1) -> tuple[np.ndarray, np.ndarray]:
    """GM(1 - p0) and GM(p1) over the K axis 0."""
    return (np.exp(np.mean(np.log(np.maximum(1.0 - p0, _EPS)), axis=0)),
            np.exp(np.mean(np.log(np.maximum(p1, _EPS)), axis=0)))


def merged_interval(p0: np.ndarray, p1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merged-interval endpoints (1 - GM(1 - p0), GM(p1)) of K stacked intervals."""
    gm_q0, gm_p1 = _geometric_means(p0, p1)
    return 1.0 - gm_q0, gm_p1
