"""Independent reference implementations used to check the fast paths.

Everything here is deliberately naive: exhaustive enumeration, insert-and-
refit, a stable-sort dedup, a lower hull by its definition, the hull's numpy
rounds over a whole polyline at once, an isotonic readout by a gather, the
probability sweep one step at a time, grid search, a stump search over every cut, a
masked two-branch sigmoid, a two-branch log loss, an explicit search tree
over an interval calibrator's tables, a batch query that answers in input
order with `np.where`, direct isotonic's lookup in input order, the packed
sort order in Python integers, and CSV readers and writers that go one cell
and one row at a time through `csv.reader` and f-strings.  None of it shares
code with the algorithms under test beyond `dedup_weighted` for input
normalization and the `CurveScan`/`Dataset`/`Column` records the oracles
return.
"""

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from venncal.data import Column, Dataset
from venncal.exceptions import DataError
from venncal.isotonic import CurveScan, WeightedPoints, dedup_weighted


def stable_dedup(scores, labels) -> WeightedPoints:
    """Distinct scores, multiplicities and label sums by a stable argsort and
    `np.unique`: each tie is summed in input order and represented by its
    first occurrence (which matters only for a tie of 0.0 and -0.0)."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=float)
    order = np.argsort(s, kind="stable")
    s = s[order]
    y = y[order]
    distinct, start = np.unique(s, return_index=True)
    weights = np.diff(np.append(start, len(s))).astype(np.int64)
    return WeightedPoints(distinct, weights, np.add.reduceat(y, start))


def mean_labels(points: WeightedPoints) -> np.ndarray:
    """Mean label at each distinct score."""
    return points.label_sums / points.weights


def n_positive(rule) -> int:
    """Number of label-1 calibration points behind an interval calibrator."""
    return int(round(float(np.sum(rule.points.label_sums))))


def n_negative(rule) -> int:
    """Number of label-0 calibration points behind an interval calibrator."""
    return int(np.sum(rule.points.weights)) - n_positive(rule)


def brute_force_isotonic(points: WeightedPoints) -> np.ndarray:
    """Exhaustive isotonic fit: try every partition into contiguous blocks,
    solve each by weighted block means, keep the feasible minimizer."""
    k = len(points)
    y = mean_labels(points)
    w = points.weights.astype(float)
    best = None
    best_sse = np.inf
    for cuts in itertools.product((0, 1), repeat=k - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [k]
        fit = np.empty(k)
        prev = -np.inf
        feasible = True
        for a, b in zip(bounds[:-1], bounds[1:]):
            v = float(np.sum(y[a:b] * w[a:b]) / np.sum(w[a:b]))
            if v < prev - 1e-14:
                feasible = False
                break
            fit[a:b] = v
            prev = v
        if not feasible:
            continue
        sse = float(np.sum(w * (fit - y) ** 2))
        if sse < best_sse:
            best_sse = sse
            best = fit
    return best


def brute_force_lower_hull(xs, ys) -> tuple[list, list]:
    """Corners of the lower hull of a polyline with integer-valued coordinates
    and x strictly increasing, by definition: an interior vertex is a corner
    unless it lies on or above the chord between some vertex to its left and
    some vertex to its right.  Compared exactly, in Python integers."""
    n = len(xs)
    x, y = [int(v) for v in xs], [int(v) for v in ys]
    corners = [j for j in range(n) if j in (0, n - 1) or not any(
        y[j] * (x[b] - x[a]) >= y[a] * (x[b] - x[j]) + y[b] * (x[j] - x[a])
        for a in range(j) for b in range(j + 1, n))]
    return [xs[j] for j in corners], [ys[j] for j in corners]


def unblocked_hull_rounds(x, y) -> tuple[list, list]:
    """The vertices `isotonic._lower_hull` hands to its Graham scan, with each numpy round
    taken over the whole polyline at once: a round drops every interior vertex whose turn
    between its neighbours is not strictly left, until one keeps more than half."""
    while len(x) > 2:
        dx, dy = np.diff(x), np.diff(y)
        keep = np.ones(len(x), dtype=bool)
        keep[1:-1] = dx[:-1] * dy[1:] - dx[1:] * dy[:-1] > 0.0
        n = len(x)
        x, y = x[keep], y[keep]
        if 2 * len(x) > n:
            break
    return x.tolist(), y.tolist()


def gathered_isotonic_fit(points: WeightedPoints) -> np.ndarray:
    """Isotonic fit of points with integer label sums, read out by a gather: the CSD
    from `np.concatenate` and `np.cumsum`, its corners by `brute_force_lower_hull`, and
    each weight interval's corner segment found by `np.searchsorted`."""
    x = np.concatenate([[0.0], np.cumsum(points.weights)])
    y = np.concatenate([[0.0], np.cumsum(points.label_sums)])
    cx, cy = (np.array(c) for c in brute_force_lower_hull(x.tolist(), y.tolist()))
    slopes = np.diff(cy) / np.diff(cx)
    return slopes[np.searchsorted(cx, x[1:], side="left") - 1]


def pooled_fit_at(scores, labels, s: float) -> float:
    """Isotonic fit of (scores, labels) evaluated at s, which must occur in scores."""
    from venncal.isotonic import fit_isotonic

    points = dedup_weighted(scores, labels)
    fitted = fit_isotonic(points)
    idx = np.searchsorted(points.scores, s)
    assert points.scores[idx] == s
    return float(fitted[idx])


def refit_interval(calib_scores, calib_labels, s: float) -> tuple[float, float]:
    """Interval by definition: refit with (s, 0) and with (s, 1) appended."""
    scores = np.append(np.asarray(calib_scores, dtype=float), s)
    labels = np.asarray(calib_labels, dtype=float)
    p0 = pooled_fit_at(scores, np.append(labels, 0.0), s)
    p1 = pooled_fit_at(scores, np.append(labels, 1.0), s)
    return p0, p1


def stepwise_upper_prob_scan(points: WeightedPoints) -> CurveScan:
    """`venncal.isotonic.upper_prob_scan` one sweep step at a time.

    The CSD is extended one unit down-left, a Graham scan over every vertex
    finds the initial corners, and the test interval is swapped rightward one
    score at a time: each step records the slope over the test interval, then
    reflects the vertex between the test interval and the next score interval
    through the midpoint of its neighbours and repairs the corner stack when
    the reflected vertex falls strictly below the active segment.
    """
    k = len(points)
    ex = [-1.0, 0.0] + np.cumsum(points.weights).astype(float).tolist()
    ey = [-1.0, 0.0] + np.cumsum(points.label_sums).tolist()

    # Graham scan, popping nonleft turns; every vertex is pushed once
    sx, sy = [ex[0]], [ey[0]]
    for px, py in zip(ex[1:], ey[1:]):
        while len(sx) > 1 and ((sx[-1] - sx[-2]) * (py - sy[-1])
                               - (px - sx[-1]) * (sy[-1] - sy[-2])) <= 0.0:
            sx.pop()
            sy.pop()
        sx.append(px)
        sy.append(py)
    corner_pushes = len(ex)

    # the stack holds the corners reversed: the active corner on top
    tx, ty = sx[::-1], sy[::-1]
    t = len(tx) - 1
    sweep_pushes = len(tx)
    values, num, den = np.empty(k), np.empty(k), np.empty(k)
    for i in range(1, k + 1):
        lx, ly = tx[t], ty[t]
        rx, ry = tx[t - 1], ty[t - 1]
        dy = ry - ly
        dx = rx - lx
        values[i - 1] = dy / dx
        num[i - 1] = dy
        den[i - 1] = dx
        qx = ex[i - 1] + ex[i + 1] - ex[i]
        qy = ey[i - 1] + ey[i + 1] - ey[i]
        ex[i] = qx
        ey[i] = qy
        if (rx - lx) * (qy - ly) - (qx - lx) * (ry - ly) >= 0.0:
            continue
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


def platt_objective(a, b, scores, labels, k_pos, k_neg):
    t_pos = (k_pos + 1.0) / (k_pos + 2.0)
    t_neg = 1.0 / (k_neg + 2.0)
    t = np.where(np.asarray(labels, dtype=float) == 1.0, t_pos, t_neg)
    z = a * np.asarray(scores, dtype=float) + b
    return float(np.sum(np.logaddexp(0.0, -z) + t * z))


def grid_platt(scores, labels) -> tuple[float, float, float]:
    """Grid search over a in [-50, 0), b in [-50, 50], refined to 1e-3 cells.

    The objective is convex, so each refinement pass keeps the true minimum
    within one coarse cell of the best grid point; the final local grid has
    1e-3 resolution.  Returns (a, b, objective).
    """
    y = np.asarray(labels, dtype=float)
    k_pos = int(np.sum(y == 1.0))
    k_neg = len(y) - k_pos
    lo_a, hi_a = -50.0, -1e-3
    lo_b, hi_b = -50.0, 50.0
    best = None
    for step in (1.0, 0.1, 0.01, 1e-3):
        a_grid = np.arange(lo_a, hi_a + step / 2, step)
        b_grid = np.arange(lo_b, hi_b + step / 2, step)
        for a in a_grid:
            for b in b_grid:
                val = platt_objective(a, b, scores, y, k_pos, k_neg)
                if best is None or val < best[2]:
                    best = (float(a), float(b), val)
        lo_a, hi_a = best[0] - 2 * step, min(best[0] + 2 * step, -1e-3)
        lo_b, hi_b = best[1] - 2 * step, best[1] + 2 * step
    return best


def brute_force_stump(X, y) -> tuple[int, float, bool]:
    """(feature, threshold, high_is_one) of the first least-error stump, every cut tried.

    A cut falls between two adjacent distinct values a < b of one feature,
    at 0.5 * (a + b), or at 0.5 * a + 0.5 * b where that sum overflows.
    Its errors count the rows on each side of the cut, not of the rounded
    threshold.  Candidates (errors, feature, threshold, rank), rank 0 meaning
    the high side is 1, are taken in order of feature, cut and rank, and
    one replaces the best only if it is strictly smaller.
    """
    labels = [int(v) for v in y]
    n_ones = sum(labels)
    n_zeros = len(labels) - n_ones
    best = None
    for j in range(len(X[0])):
        rows = sorted(zip((float(row[j]) for row in X), labels), key=lambda r: r[0])
        for t in range(1, len(rows)):
            a, b = rows[t - 1][0], rows[t][0]
            if a == b:
                continue
            threshold = 0.5 * (a + b)
            if math.isinf(threshold):
                threshold = 0.5 * a + 0.5 * b
            ones_left = sum(label for _, label in rows[:t])
            zeros_left = t - ones_left
            for rank, errors in enumerate((ones_left + n_zeros - zeros_left,
                                           zeros_left + n_ones - ones_left)):
                candidate = (errors, j, threshold, rank)
                if best is None or candidate < best:
                    best = candidate
    _, feature, threshold, rank = best
    return feature, threshold, rank == 0


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function by two masked branches, exp only of non-positive arguments."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def two_branch_losses(p, y) -> tuple[float, float, int]:
    """(mean log loss, mean Brier loss, infinite count): both log branches are
    taken for every row, and the infinite ones are counted by label."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    n_inf = int(np.sum(((y == 1.0) & (p == 0.0)) | ((y == 0.0) & (p == 1.0))))
    if n_inf:
        mll = math.inf
    else:
        with np.errstate(divide="ignore"):
            losses = np.where(y == 1.0, -np.log2(p), -np.log2(1.0 - p))
        mll = float(np.mean(losses))
    return mll, float(np.mean(4.0 * (y - p) ** 2)), n_inf


# ---- explicit search tree over an interval calibrator's tables ----------


@dataclass
class TreeNode:
    """Node of the lookup tree; leaves carry interval payloads and no key."""

    p0: float
    p1: float
    key: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.key is None


def tree_size(node: TreeNode | None) -> int:
    if node is None:
        return 0
    return 1 + tree_size(node.left) + tree_size(node.right)


def tree_depth(node: TreeNode | None) -> int:
    """Maximum number of nodes on a root-to-leaf path."""
    if node is None:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def search_tree(rule) -> TreeNode:
    """Midpoint-balanced lookup tree over a rule's distinct scores.

    The tree has one internal node per distinct score and k'+1 leaves,
    2k'+1 nodes in total; walking it must answer like `predict_intervals`.
    """
    return _build_tree(rule, 1, len(rule.points))


def _payload(rule, lower_idx: int, upper_idx: int) -> tuple[float, float]:
    # 1-based indices with the boundary conventions lower[0]=0, upper[k'+1]=1
    k = len(rule.points)
    lo = 0.0 if lower_idx == 0 else float(rule.p0[lower_idx - 1])
    hi = 1.0 if upper_idx == k + 1 else float(rule.p1[upper_idx - 1])
    return lo, hi


def _build_tree(rule, a: int, b: int) -> TreeNode:
    keys = rule.points.scores
    if b == a:
        lo, hi = _payload(rule, a, a)
        return TreeNode(lo, hi, key=float(keys[a - 1]),
                        left=TreeNode(*_payload(rule, a - 1, a)),
                        right=TreeNode(*_payload(rule, a, a + 1)))
    if b == a + 1:
        lo, hi = _payload(rule, a, a)
        return TreeNode(lo, hi, key=float(keys[a - 1]),
                        left=TreeNode(*_payload(rule, a - 1, a)),
                        right=_build_tree(rule, b, b))
    c = (a + b) // 2
    lo, hi = _payload(rule, c, c)
    return TreeNode(lo, hi, key=float(keys[c - 1]),
                    left=_build_tree(rule, a, c - 1),
                    right=_build_tree(rule, c + 1, b))


def query_tree(tree: TreeNode, score: float) -> tuple[float, float]:
    """Answer one query by walking the explicit tree; returns (p0, p1)."""
    node = tree
    while not node.is_leaf:
        if score < node.key:
            node = node.left
        elif score > node.key:
            node = node.right
        else:
            break
    return node.p0, node.p1


def where_query(rule, scores) -> tuple[np.ndarray, np.ndarray]:
    """Answer a batch in input order with unpadded tables and four `np.where` passes."""
    s = np.asarray(scores, dtype=float)
    if not np.isfinite(s).all():
        raise ValueError("test scores must be finite")
    keys = rule.points.scores
    k = len(keys)
    idx = np.searchsorted(keys, s, side="left")
    clipped = np.minimum(idx, k - 1)
    exact = (idx < k) & (keys[clipped] == s)
    lo = np.where(idx >= 1, rule.p0[np.maximum(idx - 1, 0)], 0.0)
    hi = np.where(idx < k, rule.p1[clipped], 1.0)
    lo = np.where(exact, rule.p0[clipped], lo)
    hi = np.where(exact, rule.p1[clipped], hi)
    return lo, hi


def input_order_isotonic(model, scores) -> np.ndarray:
    """`DirectIsotonic.predict_many` as one `searchsorted` over the batch in input order."""
    s = np.asarray(scores, dtype=float)
    if np.isnan(s).any():
        raise ValueError("test scores must not be NaN")
    idx = np.searchsorted(model.scores, s, side="right") - 1
    return model.fitted[np.maximum(idx, 0)]


def packed_order_by_ints(values) -> tuple[list[int], int]:
    """The order `isotonic._packed_order` promises, in Python integers, and its
    shift: indices sorted by (the float's order key less the least one,
    shifted right so that it fits beside a (n - 1).bit_length()-bit index;
    the index)."""
    n = len(values)
    bits = [int(b) for b in np.asarray(values, dtype=float).view(np.uint64)]
    keys = [b ^ (2 ** 64 - 1) if b >> 63 else b ^ 2 ** 63 for b in bits]
    low = min(keys, default=0)
    shift = max(0, (max(keys, default=0) - low).bit_length() + max(n - 1, 0).bit_length() - 64)
    return sorted(range(n), key=lambda i: ((keys[i] - low) >> shift, i)), shift


# ---- per-cell CSV readers and per-row writers ----------------------------

MISSING_TOKENS = ("", "?")


def _is_missing(cell: str) -> bool:
    return cell.strip() in MISSING_TOKENS


def _parse_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def load_csv(path, label_column, *, header: bool = True,
             positive_label: str | None = None, like: Dataset | None = None) -> Dataset:
    """`venncal.data.load_csv` parsing every cell in its own Python call."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path}: empty file")
    if header:
        names = [c.strip() for c in rows[0]]
        data_rows = rows[1:]
        first_line = 2
    else:
        names = [f"col{i}" for i in range(len(rows[0]))]
        data_rows = rows
        first_line = 1
    if not data_rows:
        raise DataError(f"{path}: no data rows")

    if isinstance(label_column, int):
        label_idx = label_column
        if not 0 <= label_idx < len(names):
            raise DataError(f"{path}: label column index {label_column} out of range")
    else:
        if label_column not in names:
            raise DataError(f"{path}: label column {label_column!r} not found")
        label_idx = names.index(label_column)

    width = len(names)
    cells: list[list[str]] = []
    for offset, row in enumerate(data_rows):
        if len(row) != width:
            raise DataError(
                f"{path}: line {first_line + offset}: expected {width} fields, got {len(row)}")
        cells.append([c.strip() for c in row])

    raw_labels = [row[label_idx] for row in cells]
    if any(_is_missing(v) for v in raw_labels):
        raise DataError(f"{path}: missing label values are not allowed")
    feature_idx = [j for j in range(width) if j != label_idx]

    if like is not None:
        columns = like.columns
        if len(columns) != len(feature_idx):
            raise DataError(f"{path}: expected {len(columns)} feature columns, got {len(feature_idx)}")
        label_values = like.label_values
    else:
        columns = []
        for j in feature_idx:
            col_cells = [row[j] for row in cells]
            observed = [c for c in col_cells if not _is_missing(c)]
            if all(_parse_float(c) is not None for c in observed):
                columns.append(Column(names[j], "numeric"))
            else:
                cats = tuple(sorted(set(observed)))
                columns.append(Column(names[j], "nominal", cats))
        columns = tuple(columns)
        distinct = sorted(set(raw_labels))
        if len(distinct) > 2:
            raise DataError(
                f"{path}: labels must take at most two values, got {distinct[:5]!r}")
        if len(distinct) == 1:
            if distinct[0] not in ("0", "1", positive_label):
                raise DataError(
                    f"{path}: single label value {distinct[0]!r}; cannot infer its class")
            label_values = ("0", "1") if distinct[0] in ("0", "1") else ("", positive_label)
        else:
            label_values = (distinct[0], distinct[1])
        if positive_label is not None:
            if positive_label not in distinct:
                raise DataError(f"{path}: positive label {positive_label!r} not among {distinct!r}")
            negative = label_values[0] if label_values[1] == positive_label else label_values[1]
            label_values = (negative, positive_label)

    label_map = {label_values[0]: 0, label_values[1]: 1}
    y = np.empty(len(cells), dtype=np.int64)
    for i, v in enumerate(raw_labels):
        if v not in label_map:
            raise DataError(f"{path}: line {first_line + i}: unknown label {v!r}")
        y[i] = label_map[v]

    total_width = sum(col.width for col in columns)
    X = np.zeros((len(cells), total_width))
    offset = 0
    for col, j in zip(columns, feature_idx):
        if col.kind == "numeric":
            for i, row in enumerate(cells):
                cell = row[j]
                if _is_missing(cell):
                    X[i, offset] = math.nan
                else:
                    value = _parse_float(cell)
                    if value is None or math.isnan(value):
                        raise DataError(
                            f"{path}: line {first_line + i}: column {col.name!r}: "
                            f"expected a number, got {cell!r}")
                    X[i, offset] = value
            offset += 1
        else:
            cat_pos = {c: p for p, c in enumerate(col.categories)}
            for i, row in enumerate(cells):
                cell = row[j]
                if _is_missing(cell):
                    X[i, offset:offset + col.width] = math.nan
                elif cell in cat_pos:
                    X[i, offset + cat_pos[cell]] = 1.0
                else:
                    raise DataError(
                        f"{path}: line {first_line + i}: column {col.name!r}: "
                        f"unknown category {cell!r}")
            offset += col.width
    return Dataset(X, y, columns, label_values)


def _read_score_rows(path, expected_header: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != expected_header.split(","):
        raise DataError(f"{path}: expected header {expected_header!r}")
    if len(rows) < 2:
        raise DataError(f"{path}: no data rows")
    return rows[1:]


def read_calibration_scores(path) -> tuple[np.ndarray, np.ndarray]:
    """`venncal.data.read_calibration_scores` one row at a time."""
    rows = _read_score_rows(path, "score,label")
    scores = np.empty(len(rows))
    labels = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        if len(row) != 2:
            raise DataError(f"{path}: line {i + 2}: expected two fields")
        value = _parse_float(row[0])
        if value is None:
            raise DataError(f"{path}: line {i + 2}: bad score {row[0]!r}")
        if row[1].strip() not in ("0", "1"):
            raise DataError(f"{path}: line {i + 2}: bad label {row[1]!r}")
        scores[i] = value
        labels[i] = int(row[1])
    return scores, labels


def read_test_scores(path) -> np.ndarray:
    """`venncal.data.read_test_scores` one row at a time."""
    rows = _read_score_rows(path, "score")
    scores = np.empty(len(rows))
    for i, row in enumerate(rows):
        value = _parse_float(row[0]) if len(row) == 1 else None
        if value is None:
            raise DataError(f"{path}: line {i + 2}: bad score row {row!r}")
        scores[i] = value
    return scores


def read_prediction_column(path, column: str) -> np.ndarray:
    """`venncal.data.read_prediction_column` one row at a time."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if column not in header:
        raise DataError(f"{path}: no column {column!r} in header {header!r}")
    j = header.index(column)
    out = np.empty(len(rows) - 1)
    for i, row in enumerate(rows[1:]):
        try:
            out[i] = float(row[j])
        except (ValueError, IndexError):
            raise DataError(f"{path}: line {i + 2}: bad value in column {column!r}") from None
    return out


def write_score_file(path, scores, labels=None) -> None:
    """A score file (header "score", or "score,label" with labels), one row at a time."""
    scores = np.asarray(scores, dtype=float)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if labels is None:
            fh.write("score\n")
            for s in scores:
                fh.write(f"{float(s)!r}\n")
        else:
            labels = np.asarray(labels)
            if len(labels) != len(scores):
                raise DataError("scores and labels must have the same length")
            fh.write("score,label\n")
            for s, y in zip(scores, labels):
                fh.write(f"{float(s)!r},{int(y)}\n")


def write_predictions(path, p, intervals) -> None:
    """The prediction file of `venncal calibrate`, one row at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if intervals is None:
            fh.write("p\n")
            for v in p:
                fh.write(f"{float(v)!r}\n")
        else:
            lo, hi = intervals
            fh.write("p0,p1,p\n")
            for l, h, v in zip(lo, hi, p):
                fh.write(f"{float(l)!r},{float(h)!r},{float(v)!r}\n")


def write_synth(path, dataset: Dataset) -> None:
    """The dataset file of `venncal synth`, one row at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,label\n")
        for x, y in zip(dataset.X[:, 0], dataset.y):
            fh.write(f"{float(x)!r},{int(y)}\n")
