"""Built-in scoring algorithms so the calibration pipeline runs end to end.

A scorer maps feature vectors to real scores, higher meaning more likely to
be labelled 1.  Three kinds are provided: a ridge-regularized logistic model
trained by damped Newton steps (its score is the raw linear predictor, not the
squashed probability; calibration is invariant to monotone transforms and
raw scores avoid saturation), a one-feature decision stump, and a constant
scorer emitting the empirical positive rate.  All training is deterministic
given the spec and the data; the ridge is the only setting.  Each Newton
line search starts at the full step, and the logistic fit stops at a
gradient norm of 1e-8 or after `_MAX_ITER` iterations.  The sigmoid baseline
in `baselines` fits its two parameters with the same Newton solver.  A cross
calibrator's row repeats `_linear`'s order of roundings in float arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from venncal.exceptions import DegenerateModelError

__all__ = [
    "ScorerSpec",
    "LogisticScorer",
    "StumpScorer",
    "ConstantScorer",
    "train_scorer",
    "scorer_from_dict",
]

KINDS = ("logistic", "stump", "constant")
_MAX_ITER = 1000  # the logistic scorer's cap on Newton iterations


@dataclass(frozen=True)
class ScorerSpec:
    """Scorer kind plus the logistic scorer's ridge coefficient (the others ignore it)."""

    kind: str = "logistic"
    ridge: float = 1e-4

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scorer kind {self.kind!r}")
        if self.ridge <= 0:
            raise ValueError("ridge must be positive")


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return X


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp sees only -|z|; minimum(z, -z) rather than -abs(z) keeps a NaN's sign bit
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class _Scorer:
    n_features: int

    def _check_width(self, width: int) -> None:
        if width != self.n_features:
            raise ValueError(
                f"feature dimension mismatch: scorer expects {self.n_features}, got {width}")


@dataclass
class LogisticScorer(_Scorer):
    weights: np.ndarray
    intercept: float
    loss_history: list[float]
    converged: bool = True  # False if stopped at the iteration cap or with no descent step left

    @property
    def n_features(self) -> int:
        return len(self.weights)

    def score_many(self, X) -> np.ndarray:
        X = _as_matrix(X)
        self._check_width(X.shape[1])
        return _linear(X.T, self.weights, self.intercept, len(X))

    def probability_many(self, X) -> np.ndarray:
        return _sigmoid(self.score_many(X))

    def to_dict(self) -> dict:
        return {"kind": "logistic", "weights": self.weights.tolist(),
                "intercept": self.intercept}


@dataclass
class StumpScorer(_Scorer):
    feature: int
    threshold: float
    high_is_one: bool
    n_features: int

    def score_many(self, X) -> np.ndarray:
        X = _as_matrix(X)
        self._check_width(X.shape[1])
        above = X[:, self.feature] > self.threshold
        return (above == self.high_is_one).astype(float)

    probability_many = score_many

    def to_dict(self) -> dict:
        return {"kind": "stump", "feature": self.feature, "threshold": self.threshold,
                "high_is_one": self.high_is_one, "n_features": self.n_features}


@dataclass
class ConstantScorer(_Scorer):
    value: float
    n_features: int

    def score_many(self, X) -> np.ndarray:
        X = _as_matrix(X)
        self._check_width(X.shape[1])
        return np.full(len(X), self.value)

    probability_many = score_many

    def to_dict(self) -> dict:
        return {"kind": "constant", "value": self.value, "n_features": self.n_features}


def _linear(columns, coefs, intercept, n: int) -> np.ndarray:
    """0.0 + columns[0] * coefs[0] + columns[1] * coefs[1] + ... + intercept.

    Each product and sum is rounded in that order, so an entry does not
    depend on how many others are computed with it; BLAS's `X @ w` blocks
    and fuses differently for different batch sizes once there are two
    features or more.  A sum that overflows is left inf or NaN, without a
    warning, as in float arithmetic; queries reject it as a non-finite score.
    """
    total = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for column, coef in zip(columns, coefs):
            total += column * coef
        total += intercept
    return total


def _newton(X: np.ndarray, t: np.ndarray, ridge: float, b0: float, max_iter: int, tol: float):
    """Minimize mean(softplus(z) - t z) + ridge |w|^2 / 2, z = X w + b, from w = 0, b = b0.

    Each line search starts at the full Newton step.  Stops once the gradient
    norm is below `tol`.  Returns (w, b, loss history, converged).
    """
    n, d = X.shape
    w, b = np.zeros(d), b0

    def loss(w, b):
        z = X @ w + b
        return float(np.mean(np.logaddexp(0.0, z) - t * z) + 0.5 * ridge * np.dot(w, w))

    history = [loss(w, b)]
    converged = False
    for _ in range(max_iter):
        p = _sigmoid(X @ w + b)
        g = np.append(X.T @ (p - t) / n + ridge * w, np.mean(p - t))
        converged = bool(np.dot(g, g) < tol * tol)
        if converged:
            break
        v = p * (1.0 - p) / n  # Hessian: ridge on the weights, none on the intercept
        H = np.block([[X.T @ (v[:, None] * X) + ridge * np.eye(d), (X.T @ v)[:, None]],
                      [X.T @ v, v.sum()]])
        try:
            direction = -np.linalg.solve(H, g)
        except np.linalg.LinAlgError:  # singular, e.g. constant features at ridge 0
            direction = -g
        slope = np.dot(g, direction)
        flat = -slope < 1e-15 * abs(history[-1])  # below the loss's rounding: take it
        step = 1.0
        while step >= 1e-20:  # backtracking Armijo line search
            val = loss(w + step * direction[:d], b + step * direction[d])
            if flat or val <= history[-1] + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break  # no descent step left at working precision
        w, b = w + step * direction[:d], b + step * float(direction[d])
        history.append(val)
    return w, b, history, converged


def _train_logistic(spec: ScorerSpec, X: np.ndarray, y: np.ndarray) -> LogisticScorer:
    if len(np.unique(y)) < 2:
        raise DegenerateModelError("logistic scorer needs both classes present")
    return LogisticScorer(*_newton(X, y, spec.ridge, 0.0, _MAX_ITER, 1e-8))


def _train_stump(X: np.ndarray, y: np.ndarray) -> StumpScorer:
    n, d = X.shape
    n_zeros = n - int(np.sum(y))
    candidates = []  # each feature's best (errors, feature, threshold, rank); rank 0: high is 1
    for j in range(d):
        xj = X[:, j]
        order = np.argsort(xj, kind="stable")
        xs = xj[order]
        ys = y[order]
        cut = np.nonzero(xs[1:] != xs[:-1])[0] + 1  # split before position t
        if len(cut) == 0:
            continue
        ones_left = np.cumsum(ys)[cut - 1]
        zeros_left = cut - ones_left
        left, right = xs[cut - 1], xs[cut]
        with np.errstate(over="ignore"):
            thresholds = 0.5 * (left + right)
        # the features are finite, so an inf is an overflowed sum: halve first there
        over = np.isinf(thresholds)
        thresholds[over] = 0.5 * left[over] + 0.5 * right[over]
        wrong = ones_left + (n_zeros - zeros_left)  # errors if the high side is 1; n - wrong if 0
        errors = np.concatenate((wrong, n - wrong))
        # stable: equal (errors, threshold) go to rank 0, then to the earliest cut
        i = np.lexsort((np.tile(thresholds, 2), errors))[0]
        candidates.append((int(errors[i]), j, float(thresholds[i % len(cut)]), int(i >= len(cut))))
    if not candidates:
        raise DegenerateModelError("stump scorer found no usable split (all features constant)")
    _, feature, threshold, rank = min(candidates)
    return StumpScorer(feature, threshold, rank == 0, d)


def train_scorer(spec: ScorerSpec, X, y):
    """Train the scorer described by `spec` on features X and binary labels y."""
    X = _as_matrix(X)
    y = np.asarray(y, dtype=float)
    if len(X) == 0:
        raise ValueError("empty training set")
    if len(X) != len(y):
        raise ValueError("X and y must have the same number of rows")
    if not np.isfinite(X).all():
        raise ValueError("training features must be finite")
    if spec.kind == "logistic":
        return _train_logistic(spec, X, y)
    if spec.kind == "stump":
        return _train_stump(X, y)
    return ConstantScorer(float(np.mean(y)), X.shape[1])


def scorer_from_dict(d: dict):
    """Rebuild a trained scorer from its serialized form."""
    kind = d.get("kind")
    if kind == "logistic":
        weights, intercept = np.asarray(d["weights"], dtype=float), float(d["intercept"])
        if not (np.isfinite(weights).all() and np.isfinite(intercept)):
            raise ValueError("logistic weights and intercept must be finite")
        return LogisticScorer(weights, intercept, [])
    if kind == "stump":
        feature, n_features = int(d["feature"]), int(d["n_features"])
        if not 0 <= feature < n_features:
            raise ValueError(f"stump feature {feature} is not one of {n_features} features")
        threshold = float(d["threshold"])
        if not np.isfinite(threshold):
            raise ValueError(f"stump threshold {threshold!r} is not finite")
        return StumpScorer(feature, threshold, bool(d["high_is_one"]), n_features)
    if kind == "constant":
        value = float(d["value"])
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"constant scorer value {value!r} is not in [0, 1]")
        return ConstantScorer(value, int(d["n_features"]))
    raise ValueError(f"unknown scorer kind {kind!r}")
