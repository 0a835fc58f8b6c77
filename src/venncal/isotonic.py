"""Weighted isotonic regression on the real line via convex-minorant geometry.

The cumulative sum diagram (CSD) of a sorted, weighted score sequence is the
polyline whose i-th vertex is (cumulative weight, cumulative label sum).  The
isotonic fit at the i-th distinct score equals the slope of the greatest
convex minorant (GCM) of the CSD over the i-th weight interval; because
weights are positive integers, every slope has run >= 1 and no division by
zero can occur.  Turn tests use cross products compared exactly against zero,
never angles or divisions, and collinear corners are popped.

Beyond the plain fit, this module tabulates two per-score probability curves:
for each distinct score, the fitted value after inserting one unit-weight
test observation labelled 1 immediately to its left (`upper_prob_scan`) or
labelled 0 immediately to its right (`lower_prob_scan`).  A naive version
would refit once per score; here a single sweep moves the test interval
through the diagram, reflecting one CSD vertex per step and repairing the
corner stack, so each curve costs O(k') after sorting.  There is one sweep:
the lower curve is the upper sweep run on the mirrored points (scores
negated, labels flipped), read backwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightedPoints",
    "CurveScan",
    "dedup_weighted",
    "build_csd",
    "gcm_corners",
    "fit_isotonic",
    "lower_prob_scan",
    "upper_prob_scan",
]


@dataclass(frozen=True)
class WeightedPoints:
    """Distinct sorted scores with multiplicities and per-score label sums.

    `scores` is strictly increasing, `weights` holds positive integer
    multiplicities, and `label_sums[i]` is the sum of the labels observed at
    `scores[i]` (an integer count when labels are binary).
    """

    scores: np.ndarray
    weights: np.ndarray
    label_sums: np.ndarray

    def __len__(self) -> int:
        return len(self.scores)

    @property
    def mean_labels(self) -> np.ndarray:
        return self.label_sums / self.weights


@dataclass(frozen=True)
class CurveScan:
    """One probability curve plus the exact slope components behind it.

    `values[i]` equals `num[i] / den[i]`.  Both components are integral
    whenever the labels are integers (cumulative sums, reflections and hull
    corners all preserve integrality), which lets tests verify identities as
    exact rationals.  `corner_pushes` and `sweep_pushes` count stack pushes
    in the corner-initialization and sweep phases; each is at most 2k' + 2.
    """

    values: np.ndarray
    num: np.ndarray
    den: np.ndarray
    corner_pushes: int
    sweep_pushes: int


def dedup_weighted(scores, labels) -> WeightedPoints:
    """Sort scores, merge duplicates, and record multiplicities and label sums.

    The mean label at each distinct score is `label_sums / weights`.  Raises
    ValueError on empty input, length mismatch, or NaN scores.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=float)
    if s.ndim != 1 or y.ndim != 1:
        raise ValueError("scores and labels must be one-dimensional")
    if len(s) != len(y):
        raise ValueError(f"length mismatch: {len(s)} scores vs {len(y)} labels")
    if len(s) == 0:
        raise ValueError("empty calibration set")
    if np.isnan(s).any():
        raise ValueError("scores must not contain NaN")
    order = np.argsort(s, kind="stable")
    s = s[order]
    y = y[order]
    distinct, start = np.unique(s, return_index=True)
    weights = np.diff(np.append(start, len(s))).astype(np.int64)
    sums = np.add.reduceat(y, start)
    return WeightedPoints(distinct, weights, sums)


def build_csd(points: WeightedPoints) -> np.ndarray:
    """Cumulative sum diagram: k'+1 rows (cumulative weight, cumulative label sum).

    Row 0 is the origin (0, 0); x-coordinates are strictly increasing.
    """
    k = len(points)
    csd = np.zeros((k + 1, 2))
    csd[1:, 0] = np.cumsum(points.weights)
    csd[1:, 1] = np.cumsum(points.label_sums)
    return csd


def _graham_scan(xs: list, ys: list) -> tuple[list, list, int]:
    """Lower-hull corners of a polyline given as coordinate lists, left to right.

    A vertex is popped when the turn through it is nonleft (cross product
    <= 0), so collinear interior points are dropped.  Returns the corner
    coordinates (both endpoints always included) and the number of pushes.
    """
    n = len(xs)
    sx = [0.0] * n
    sy = [0.0] * n
    sx[0], sy[0] = xs[0], ys[0]
    top = 0
    pushes = 1
    for i in range(1, n):
        px, py = xs[i], ys[i]
        while top > 0:
            bx, by = sx[top], sy[top]
            ax, ay = sx[top - 1], sy[top - 1]
            if (bx - ax) * (py - by) - (px - bx) * (by - ay) <= 0.0:
                top -= 1
            else:
                break
        top += 1
        sx[top], sy[top] = px, py
        pushes += 1
    del sx[top + 1:], sy[top + 1:]
    return sx, sy, pushes


def gcm_corners(csd: np.ndarray) -> tuple[np.ndarray, int]:
    """Corners of the greatest convex minorant of a CSD polyline.

    Graham-scan over the vertices left to right; collinear interior points
    are dropped, so slopes between consecutive corners strictly increase.
    Returns the corners (both CSD endpoints always included) and the number
    of stack pushes.
    """
    sx, sy, pushes = _graham_scan(csd[:, 0].tolist(), csd[:, 1].tolist())
    corners = np.empty((len(sx), 2))
    corners[:, 0] = sx
    corners[:, 1] = sy
    return corners, pushes


def fit_isotonic(points: WeightedPoints) -> np.ndarray:
    """Weighted least-squares isotonic fit, one value per distinct score.

    The value at score i is the GCM slope over the i-th weight interval of
    the CSD; the result is nondecreasing and minimizes
    sum_j w_j (g_j - y'_j)^2 over nondecreasing g.  Within every pooled block
    the fitted value equals the weighted mean of the block's mean labels.
    """
    csd = build_csd(points)
    corners, _ = gcm_corners(csd)
    cx = corners[:, 0]
    slopes = np.diff(corners[:, 1]) / np.diff(cx)
    # the interval (X_{i-1}, X_i] lies inside exactly one corner segment
    seg = np.searchsorted(cx, csd[1:, 0], side="left") - 1
    return slopes[seg]


def upper_prob_scan(points: WeightedPoints) -> CurveScan:
    """Fit at each distinct score with a unit label-1 test point just left of it.

    The CSD is extended one unit down-left (the test observation placed
    before all scores), corners of that initial GCM are found by a Graham
    scan, and the test interval is then swapped rightward through the
    diagram: each step reports the GCM slope over the test interval, then
    reflects the vertex between the test interval and the next score
    interval through the midpoint of its neighbours.  A reflected vertex at
    or above the current GCM leaves the corner stack untouched; one strictly
    below becomes the new active corner and the stack is repaired by popping
    nonleft turns.
    """
    k = len(points)
    # extended CSD: ex[j] holds vertex j-1, so ex[0] is the test extension
    ex = [-1.0, 0.0]
    ey = [-1.0, 0.0]
    ex += np.cumsum(points.weights).astype(float).tolist()
    ey += np.cumsum(points.label_sums).tolist()

    # sweep stack holds the GCM corners reversed: leftmost (active) corner on
    # top; a push always follows a pop, so the stack never outgrows them
    tx, ty, corner_pushes = _graham_scan(ex, ey)
    tx.reverse()
    ty.reverse()
    t = len(tx) - 1
    sweep_pushes = len(tx)

    values = np.empty(k)
    num = np.empty(k)
    den = np.empty(k)
    for i in range(1, k + 1):
        lx, ly = tx[t], ty[t]          # active corner, left end of the segment
        rx, ry = tx[t - 1], ty[t - 1]  # first corner to its right
        dy = ry - ly
        dx = rx - lx
        values[i - 1] = dy / dx
        num[i - 1] = dy
        den[i - 1] = dx
        # swap the test interval with the i-th score interval
        qx = ex[i - 1] + ex[i + 1] - ex[i]
        qy = ey[i - 1] + ey[i + 1] - ey[i]
        ex[i] = qx
        ey[i] = qy
        if (rx - lx) * (qy - ly) - (qx - lx) * (ry - ly) >= 0.0:
            continue  # reflected vertex at or above the GCM: nothing changes
        t -= 1
        while t > 0:
            bx, by = tx[t], ty[t]
            cx, cy = tx[t - 1], ty[t - 1]
            if (bx - qx) * (cy - by) - (cx - bx) * (by - qy) <= 0.0:
                t -= 1
            else:
                break
        t += 1
        tx[t], ty[t] = qx, qy
        sweep_pushes += 1
    return CurveScan(values, num, den, corner_pushes, sweep_pushes)


def lower_prob_scan(points: WeightedPoints) -> CurveScan:
    """Fit at each distinct score with a unit label-0 test point just right of it.

    Mirror image of `upper_prob_scan`: negating the scores and flipping the
    labels turns the label-0 point just right of score i into a label-1
    point just left of its mirror, so the lower curve is one minus the upper
    curve of the mirrored points, read backwards.  The slope components stay
    exact: num = den' - num' and den = den', reversed.
    """
    w = points.weights
    up = upper_prob_scan(WeightedPoints(-points.scores[::-1], w[::-1],
                                        (w - points.label_sums)[::-1]))
    num = (up.den - up.num)[::-1]
    den = up.den[::-1]
    return CurveScan(num / den, num, den, up.corner_pushes, up.sweep_pushes)
