"""Weighted isotonic regression on the real line via convex-minorant geometry.

`calibration_set` is every calibrator's one check of its inputs (non-empty
1-D arrays of equal length, finite scores, 0/1 labels).  `dedup_weighted`
sorts with `_sorted_batch` (the packed order, repaired where near ties of a
very wide batch left it inexact), then a `!=` pass finds block starts and
`np.add.reduceat` sums labels; a 0.0/-0.0 tie keeps its first zero.
`_step_lookup` is both calibrators' batch step lookup.

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
corner stack, so each curve costs O(k') after sorting; numpy skips the
steps between stack pushes.  There is one CSD construction, `_csd`, one hull,
`_lower_hull`, and one sweep, `_sweep`, which reads only weights and label sums:
the lower curve is the sweep of the mirrored points (order reversed, labels
flipped), read backwards.  No batch-sized buffer is held past its last read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightedPoints",
    "CurveScan",
    "calibration_set",
    "dedup_weighted",
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


@dataclass(frozen=True)
class CurveScan:
    """One probability curve plus the exact slope components behind it.

    `values[i]` equals `num[i] / den[i]`.  Both components are integral
    whenever the labels are integers (cumulative sums, reflections and hull
    corners all preserve integrality), which lets tests verify identities as
    exact rationals.  `corner_pushes` (k' + 2, one per extended-CSD vertex)
    and `sweep_pushes` count stack pushes in the corner-initialization and
    sweep phases; each is at most 2k' + 2.
    """

    values: np.ndarray
    num: np.ndarray
    den: np.ndarray
    corner_pushes: int
    sweep_pushes: int


def _paired_arrays(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Float arrays of scores and labels; ValueError unless non-empty, 1-D and of equal length."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=float)
    if s.ndim != 1 or y.ndim != 1:
        raise ValueError("scores and labels must be one-dimensional")
    if len(s) != len(y):
        raise ValueError(f"length mismatch: {len(s)} scores vs {len(y)} labels")
    if len(s) == 0:
        raise ValueError("empty calibration set")
    return s, y


def calibration_set(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Float arrays of the calibration set; ValueError unless the scores and labels are
    non-empty, 1-D and of equal length, the scores finite and the labels 0 or 1."""
    s, y = _paired_arrays(scores, labels)
    if not np.isfinite(s).all():
        raise ValueError("calibration scores must be finite")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("labels must be 0 or 1")
    return s, y


def dedup_weighted(scores, labels) -> WeightedPoints:
    """Sort scores, merge duplicates, and record multiplicities and label sums.

    One `_sorted_batch`; a `!=` pass over the sorted scores gives the
    block starts, hence the distinct scores, `np.diff` weights and
    `np.add.reduceat` label sums.  Label sums are exact for integer labels;
    fractional labels in a tie are summed in `_sorted_batch` order.  A
    0.0/-0.0 tie keeps the zero that comes first in the input.  Raises
    ValueError on empty input, length mismatch, or NaN scores.
    """
    s, y = _paired_arrays(scores, labels)
    if np.isnan(s).any():
        raise ValueError("scores must not contain NaN")
    # each batch-sized buffer is dropped after its last read: lower peak memory
    order, ss = _sorted_batch(s)
    start = np.flatnonzero(np.append(True, ss[1:] != ss[:-1]))
    distinct = ss[start]
    del ss
    if 0.0 in distinct:
        distinct[distinct == 0.0] = s[np.argmax(s == 0.0)]
    label_sums = np.add.reduceat(y[order], start)
    del order
    return WeightedPoints(distinct, np.diff(start, append=len(s)), label_sums)


def _packed_order(flat: np.ndarray) -> np.ndarray:
    """Permutation sorting a NaN-free float64 batch: one `np.sort` of words holding the
    float's order key, less the batch minimum and shifted right to fit, above the index.
    Exact while the batch spans under 2^(64 - (n - 1).bit_length()) float steps; beyond
    that, values within 2^shift steps of each other stay in index order."""
    n = len(flat)
    b = max(n - 1, 0).bit_length()
    key = flat.view(np.int64) >> 63  # -1 for a negative value, else 0
    key |= np.int64(-2 ** 63)
    key ^= flat.view(np.int64)
    key = key.view(np.uint64)
    key -= key.min(initial=np.uint64(2 ** 64 - 1))
    key >>= np.uint64(max(0, int(key.max(initial=0)).bit_length() + b - 64))
    key <<= np.uint64(b)
    key |= np.arange(n, dtype=np.uint64)
    key.sort()
    key &= np.uint64((1 << b) - 1)
    return key.view(np.intp)


def _sorted_batch(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`(order, flat[order])` with `flat[order]` exactly nondecreasing: `_packed_order`,
    then, only if near ties of a wide batch left a descent, a stable argsort of the
    nearly sorted values.  Values with equal bits stay in index order."""
    order = _packed_order(flat)
    ss = flat[order]
    if (ss[1:] < ss[:-1]).any():
        fix = np.argsort(ss, kind="stable")
        order, ss = order[fix], ss[fix]
    return order, ss


def _step_lookup(keys, flat, lower, upper=None):
    """`lower[#keys <= x]` and `upper[#keys < x]` (or None) for each x of a NaN-free batch,
    in input order; `keys` strictly increasing, each table one entry longer.  Against a
    batch over four times the keys' length, the keys are searched in the exactly sorted
    batch and each entry repeated by its count; else each query is searched in the keys."""
    n = len(flat)

    def in_input_order(values):
        out = np.empty_like(flat)
        out[order] = values
        return out

    if 4 * len(keys) < n:
        order, ss = _sorted_batch(flat)
        counts = [np.diff(ss.searchsorted(keys, side), prepend=0, append=n)
                  for side in ("left", "right")[:1 + (upper is not None)]]
        del ss  # fewer live batch-sized buffers: lower peak memory
        lo = in_input_order(np.repeat(lower, counts[0]))
        return lo, None if upper is None else in_input_order(np.repeat(upper, counts[1]))
    order = _packed_order(flat)
    ss = flat[order]
    i = keys.searchsorted(ss, side="left")
    hit = keys[np.minimum(i, len(keys) - 1)] == ss
    del ss
    hi = None if upper is None else in_input_order(upper[i])
    i += hit
    return in_input_order(lower[i]), hi


def _csd(weights, label_sums) -> tuple[np.ndarray, np.ndarray]:
    """Extended CSD, one buffer per coordinate: (-1, -1), then the k'+1 vertices (cumulative
    weight, cumulative label sum) from the origin; the weights are summed exactly, in int64."""
    x = np.empty(len(weights) + 2)
    x[:2], x[2:] = (-1.0, 0.0), np.cumsum(weights)
    y = np.concatenate(([-1.0, 1.0], label_sums))  # after the int64 sums are freed
    return x, np.cumsum(y, out=y)  # in place: -1, 0, then the label sums' running total


def _graham_scan(xs: list, ys: list) -> tuple[list, list]:
    """Lower-hull corners of a polyline given as coordinate lists, left to right.

    A vertex is popped when the turn through it is nonleft (cross product
    <= 0), so collinear interior points are dropped.  Returns the corner
    coordinates; both endpoints are always included.
    """
    sx, sy = xs[:1], ys[:1]
    for px, py in zip(xs[1:], ys[1:]):
        while len(sx) > 1 and ((sx[-1] - sx[-2]) * (py - sy[-1])
                               - (px - sx[-1]) * (sy[-1] - sy[-2])) <= 0.0:
            sx.pop()
            sy.pop()
        sx.append(px)
        sy.append(py)
    return sx, sy


_BLOCK = 1 << 14  # vertices per turn test in a numpy round of `_lower_hull`
_STREAK = 32  # sweep steps taken one at a time before searching ahead with numpy


def _lower_hull(x: np.ndarray, y: np.ndarray) -> tuple[list, list]:
    """`_graham_scan` of the polyline (x, y), x strictly increasing.

    Each numpy round drops every interior vertex whose turn between its
    surviving neighbours is not strictly left; such a vertex is never a
    corner.  A round tests `_BLOCK` vertices at a time, so its temporaries
    stay small.  Once a round keeps more than half of the vertices, the Graham
    scan finishes on the survivors: at worst one scan plus O(n) numpy work.
    """
    while len(x) > 2:
        keep = np.ones(len(x), dtype=bool)
        inner = keep[1:-1]
        for a in range(0, len(inner), _BLOCK):
            dx, dy = np.diff(x[a:a + _BLOCK + 2]), np.diff(y[a:a + _BLOCK + 2])
            inner[a:a + _BLOCK] = dx[:-1] * dy[1:] - dx[1:] * dy[:-1] > 0.0
        x, y = x[keep], y[keep]
        if 2 * len(x) > len(keep):
            break
    return _graham_scan(x.tolist(), y.tolist())


def fit_isotonic(points: WeightedPoints) -> np.ndarray:
    """Weighted least-squares isotonic fit, one value per distinct score.

    The value at score i is the GCM slope over the i-th weight interval of
    the CSD; the result is nondecreasing and minimizes
    sum_j w_j (g_j - y'_j)^2 over nondecreasing g.  Within every pooled block
    the fitted value equals the weighted mean of the block's mean labels.
    Raises ValueError unless the cumulative weights are strictly increasing
    and below 2^53, where positive integer weights sum exactly.
    """
    x, y = (c[1:] for c in _csd(points.weights, points.label_sums))
    if not (x[-1] < 2 ** 53 and (x[1:] > x[:-1]).all()):
        raise ValueError("the fit needs strictly increasing cumulative weights "
                         "(every weight positive) with total weight W < 2^53")
    cx, cy = (np.array(c) for c in _lower_hull(x, y))
    del y  # before the batch-sized readout: lower peak memory
    # corner segment j covers the weight intervals between corners j and j + 1
    return np.repeat(np.diff(cy) / np.diff(cx), np.diff(x.searchsorted(cx)))


def upper_prob_scan(points: WeightedPoints) -> CurveScan:
    """Fit at each distinct score with a unit label-1 test point just left of it.

    The CSD is extended one unit down-left (the test observation placed
    before all scores), and the test interval is swapped rightward through
    the diagram from the corners of that initial GCM: each step reports the
    GCM slope over the test interval, then reflects the vertex between the
    test interval and the next score interval through the midpoint of its
    neighbours.  A reflected vertex strictly below the active segment becomes
    the new active corner, and the stack is repaired by popping nonleft turns.

    The vertex reflected at step i is CSD vertex i shifted by (-1, -1), so
    the next push is found by testing those vertices: one step at a time for
    `_STREAK` steps, then with numpy over windows growing fourfold.  Python
    work grows with the pushes, not with k'.  Raises ValueError unless the
    weights and label sums are integers and (W + 1)^2 <= 2^53 for the total
    weight W; in that range every coordinate and cross product is exact.
    """
    return _sweep(points.weights, points.label_sums)


def _sweep(w: np.ndarray, sums: np.ndarray) -> CurveScan:
    """`upper_prob_scan` of the points with these weights and label sums, in score order."""
    k = len(w)
    if not (np.array_equal(w, np.floor(w)) and np.array_equal(sums, np.floor(sums))
            and (np.sum(w, dtype=float) + 1) ** 2 <= 2 ** 53):
        raise ValueError("the sweep needs integer weights and label sums, "
                         "with (W + 1)^2 <= 2^53 for the total weight W")
    # extended CSD: vertex j-1 at index j, the test extension at index 0
    qx, qy = _csd(w, sums)

    # sweep stack holds the GCM corners reversed: leftmost (active) corner on
    # top; a push always follows a pop, so the stack never outgrows them
    tx, ty = _lower_hull(qx, qy)
    tx.reverse()
    ty.reverse()
    t = len(tx) - 1
    sweep_pushes = len(tx)

    # in place, the vertex reflected at step i at index i: CSD vertex i less (1, 1); index
    # k + 1 holds a sentinel strictly below every segment, so every search ends by k + 1
    np.subtract(qx[1:], 1.0, out=qx[:-1])  # each element read before its write: no copy
    np.subtract(qy[1:], 1.0, out=qy[:-1])
    qx[-1], qy[-1] = 0.0, -np.inf
    lqx, lqy = memoryview(qx), memoryview(qy)  # scalar reads without float lists
    dys, dxs, ends = [], [], []
    j = 0
    while j < k:
        i = j + 1
        lx, ly = tx[t], ty[t]          # active corner, left end of the segment
        dx, dy = tx[t - 1] - lx, ty[t - 1] - ly
        # j: first step from i on whose reflected vertex lies strictly below
        # the active segment; steps i..j all report dy / dx
        j, stop = i, i + _STREAK
        while j < stop and dx * (lqy[j] - ly) - (lqx[j] - lx) * dy >= 0.0:
            j += 1
        size = 4 * _STREAK
        while j == stop:
            stop = j + size
            below = dx * (qy[j:stop] - ly) - (qx[j:stop] - lx) * dy < 0.0
            j += int(below.argmax()) if below.any() else size
            size *= 4
        dys.append(dy)
        dxs.append(dx)
        ends.append(j)
        if j > k:
            break
        qxj, qyj = lqx[j], lqy[j]
        t -= 1
        while t > 0:
            bx, by = tx[t], ty[t]
            cx, cy = tx[t - 1], ty[t - 1]
            if (bx - qxj) * (cy - by) - (cx - bx) * (by - qyj) <= 0.0:
                t -= 1
            else:
                break
        t += 1
        tx[t], ty[t] = qxj, qyj
        sweep_pushes += 1
    del qx, qy, lqx, lqy  # before the batch-sized outputs: lower peak memory
    runs = np.diff(np.minimum([0, *ends], k))
    num = np.repeat(dys, runs)
    den = np.repeat(dxs, runs)
    return CurveScan(num / den, num, den, k + 2, sweep_pushes)


def lower_prob_scan(points: WeightedPoints) -> CurveScan:
    """Fit at each distinct score with a unit label-0 test point just right of it.

    Mirror image of `upper_prob_scan`: negating the scores and flipping the
    labels turns the label-0 point just right of score i into a label-1
    point just left of its mirror, so the lower curve is one minus the upper
    curve of the mirrored points, read backwards.  The slope components stay
    exact: num = den' - num' and den = den', reversed.
    """
    w = points.weights
    up = _sweep(w[::-1], (w - points.label_sums)[::-1])
    num = (up.den - up.num)[::-1]
    den = up.den[::-1]
    return CurveScan(num / den, num, den, up.corner_pushes, up.sweep_pushes)
