"""Independent reference implementations used to check the fast paths.

Everything here is deliberately naive: exhaustive enumeration, insert-and-
refit, grid search, a masked two-branch sigmoid, and an explicit search tree
over an interval calibrator's tables.  None of it shares code with the
algorithms under test beyond `dedup_weighted` for input normalization.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from venncal.isotonic import WeightedPoints, dedup_weighted


def brute_force_isotonic(points: WeightedPoints) -> np.ndarray:
    """Exhaustive isotonic fit: try every partition into contiguous blocks,
    solve each by weighted block means, keep the feasible minimizer."""
    k = len(points)
    y = points.mean_labels
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


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function by two masked branches, exp only of non-positive arguments."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
