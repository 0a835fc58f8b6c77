import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import oracles
import venncal.cvap
from venncal import scorers
from venncal.cli import TUNE_RIDGE_GRID, build_parser
from venncal.cvap import CvapCalibrator
from venncal.data import generate_synthetic
from venncal.exceptions import DegenerateModelError
from venncal.ivap import IvapCalibrator
from venncal.scorers import (
    KINDS,
    ConstantScorer,
    LogisticScorer,
    ScorerSpec,
    StumpScorer,
    train_scorer,
)


# stump features: few values (ties everywhere), signed zeros and the least
# subnormals, values whose midpoints overflow, and all of them together
STUMP_VALUES = [
    [-1.0, 0.0, 1.0, 2.0],
    [0.0, -0.0, 5e-324, -5e-324],
    [1e308, -1e308, 1.5e308, -1.5e308, 1.7976931348623157e308, -1.7976931348623157e308, 0.0],
]
STUMP_VALUES.append(sorted({v for values in STUMP_VALUES for v in values}))


class TestSpec:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            ScorerSpec(kind="forest")
        with pytest.raises(ValueError):
            ScorerSpec(ridge=0)

    def test_defaults_are_stated_once(self):
        assert ScorerSpec() == ScorerSpec("logistic", 1e-4)
        parser = build_parser()
        for argv in (["calibrate", "--method", "ivap", "--out", "o"], ["compare", "--out", "o"]):
            args = parser.parse_args(argv)
            assert (args.scorer, args.ridge) == ("logistic", 1e-4)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("X, y, message", [
    (np.zeros((0, 2)), [], "^empty training set$"),
    (np.zeros((3, 2)), [0, 1], "^X and y must have the same number of rows$"),
])
def test_empty_or_mismatched_rows_rejected(kind, X, y, message):
    with pytest.raises(ValueError, match=message):
        train_scorer(ScorerSpec(kind), X, y)


@pytest.mark.parametrize("kind", KINDS)
def test_one_dimensional_features_are_one_column(kind):
    ds = generate_synthetic(200, seed=6)
    x = ds.X[:, 0]
    flat = train_scorer(ScorerSpec(kind), x, ds.y)
    column = train_scorer(ScorerSpec(kind), x[:, None], ds.y)
    if kind == "logistic":
        assert (flat.weights.tolist(), flat.intercept) == (column.weights.tolist(),
                                                           column.intercept)
    else:
        assert flat == column
    for scorer in (flat, column):
        for X in (x, x[:, None]):
            assert scorer.score_many(X).tobytes() == column.score_many(x[:, None]).tobytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected(kind, bad):
    X = np.arange(12.0).reshape(6, 2)
    X[3, 1] = bad
    with pytest.raises(ValueError, match="^training features must be finite$"):
        train_scorer(ScorerSpec(kind), X, [0, 1, 0, 1, 0, 1])


class TestConstant:
    def test_empirical_rate(self):
        scorer = train_scorer(ScorerSpec("constant"), np.zeros((4, 1)), [0, 1, 1, 1])
        assert scorer.value == 0.75
        assert scorer.score_many(np.zeros((3, 1))).tolist() == [0.75] * 3

    def test_row_order_invariant(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 2))
        y = rng.integers(0, 2, size=30)
        perm = rng.permutation(30)
        a = train_scorer(ScorerSpec("constant"), X, y)
        b = train_scorer(ScorerSpec("constant"), X[perm], y[perm])
        assert a.value == b.value


class TestStump:
    def test_separable_threshold(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        scorer = train_scorer(ScorerSpec("stump"), X, [0, 0, 1, 1])
        assert 2 < scorer.threshold < 3
        assert scorer.high_is_one
        assert scorer.score_many(X).tolist() == [0, 0, 1, 1]

    def test_indicator_output(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        scorer = train_scorer(ScorerSpec("stump"), X, [0, 0, 1, 1])
        assert scorer.score_many(np.array([[3.0]]))[0] == 1.0
        assert scorer.score_many(np.array([[2.0]]))[0] == 0.0

    def test_tie_break_prefers_lowest_feature(self):
        # both features separate perfectly; feature 0 must win
        X = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]])
        scorer = train_scorer(ScorerSpec("stump"), X, [0, 0, 1, 1])
        assert scorer.feature == 0

    def test_row_order_invariant(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        a = train_scorer(ScorerSpec("stump"), X, y)
        perm = rng.permutation(40)
        b = train_scorer(ScorerSpec("stump"), X[perm], y[perm])
        assert (a.feature, a.threshold, a.high_is_one) == (b.feature, b.threshold, b.high_is_one)

    def test_threshold_between_huge_features_does_not_overflow(self):
        # 1e308 + 1.5e308 overflows; the threshold halves each side instead
        X = np.array([[1e308], [1.5e308], [-1e308], [0.0]])
        scorer = train_scorer(ScorerSpec("stump"), X, [0, 1, 0, 0])
        assert scorer.threshold == 1.25e308
        assert scorer.score_many(X).tolist() == [0, 1, 0, 0]

    def test_constant_features_rejected(self):
        with pytest.raises(DegenerateModelError):
            train_scorer(ScorerSpec("stump"), np.ones((5, 2)), [0, 1, 0, 1, 0])

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(STUMP_VALUES).flatmap(lambda values: st.tuples(
        st.lists(st.lists(st.sampled_from(values), min_size=3, max_size=3),
                 min_size=2, max_size=12),
        st.integers(1, 3))), st.data())
    def test_matches_exhaustive_first_minimum(self, table, data):
        rows, d = table
        X = np.array(rows)[:, :d]
        y = data.draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X)))
        assume((X != X[0]).any())
        scorer = train_scorer(ScorerSpec("stump"), X, y)
        feature, threshold, high_is_one = oracles.brute_force_stump(X, y)
        assert (scorer.feature, scorer.high_is_one) == (feature, high_is_one)
        assert scorer.threshold.hex() == threshold.hex()

    @pytest.mark.parametrize("y, high_is_one", [([0, 0, 1, 1], True), ([1, 0, 1, 0], False),
                                                ([0, 1, 0, 1], True)])
    def test_equal_candidates_keep_the_first(self, y, high_is_one):
        # the cuts -5e-324 | 0.0 and 0.0 | 5e-324 have thresholds -0.0 and 0.0,
        # which compare equal, and each orientation errs as often at both
        X = np.array([[-5e-324], [0.0], [0.0], [5e-324]])
        scorer = train_scorer(ScorerSpec("stump"), X, y)
        assert (scorer.threshold.hex(), scorer.high_is_one) == ((-0.0).hex(), high_is_one)


def row_scores(scorers, x) -> list[float]:
    """The score of feature row x under each scorer, as a cross calibrator with those
    fold scorers checks it, up to the first non-finite one (where the row fails)."""
    rule = IvapCalibrator.fit([0.0, 1.0], [0, 1])
    model = CvapCalibrator(scorers, [rule] * len(scorers))
    seen = []

    def spy(score):
        seen.append(score)
        return math.isfinite(score)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(venncal.cvap, "isfinite", spy)
        try:
            model.predict(x)
        except ValueError as error:
            if str(error) != "test scores must be finite":
                raise
    return seen


class TestLogistic:
    def test_recovers_generating_direction(self):
        ds = generate_synthetic(10_000, seed=123)
        scorer = train_scorer(ScorerSpec("logistic"), ds.X, ds.y)
        w = float(scorer.weights[0])
        assert w > 0
        # generating model has slope 1 and intercept -w/2
        assert scorer.intercept == pytest.approx(-w / 2, abs=0.1)

    def test_monotone_descent(self):
        # on the second, nearly separable set some full Newton steps raise the
        # loss, and the line search must shorten them
        ds = generate_synthetic(500, seed=3)
        rng = np.random.default_rng(75)
        x = rng.normal(size=(30, 1)) * 100
        labels = (x[:, 0] + 10 * rng.normal(size=30) > 0).astype(float)
        for X, y, ridge in ((ds.X, ds.y, 1e-4), (x, labels, 1e-6)):
            scorer = train_scorer(ScorerSpec("logistic", ridge=ridge), X, y)
            hist = np.asarray(scorer.loss_history)
            assert scorer.converged and len(hist) > 1
            assert np.all(np.diff(hist) < 0)

    def test_deterministic(self):
        ds = generate_synthetic(300, seed=9)
        a = train_scorer(ScorerSpec("logistic"), ds.X, ds.y)
        b = train_scorer(ScorerSpec("logistic"), ds.X, ds.y)
        assert np.array_equal(a.weights, b.weights)
        assert a.intercept == b.intercept

    def test_row_order_invariant_after_convergence(self):
        ds = generate_synthetic(400, seed=10)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(ds))
        a = train_scorer(ScorerSpec("logistic"), ds.X, ds.y)
        b = train_scorer(ScorerSpec("logistic"), ds.X[perm], ds.y[perm])
        assert np.allclose(a.weights, b.weights, atol=1e-9)
        assert abs(a.intercept - b.intercept) <= 1e-9

    def test_converged_flag(self, monkeypatch):
        ds = generate_synthetic(500, seed=3)
        assert train_scorer(ScorerSpec("logistic"), ds.X, ds.y).converged
        monkeypatch.setattr(scorers, "_MAX_ITER", 1)
        stopped = train_scorer(ScorerSpec("logistic"), ds.X, ds.y)
        assert not stopped.converged
        assert len(stopped.loss_history) == 2

    def test_no_descent_step_left_is_not_converged(self):
        # at a feature of 1e20 no step from the zero start lowers the rounded
        # loss, so training stops there, long before the iteration cap
        scorer = train_scorer(ScorerSpec("logistic"), np.full((4, 1), 1e20), [0, 0, 0, 1])
        assert not scorer.converged
        assert scorer.loss_history == [np.log(2.0)]
        assert scorer.weights.tolist() == [0.0] and scorer.intercept == 0.0

    def test_overflowing_features_stop_at_the_cap(self):
        # a weight step overflows the loss at this scale, so only the intercept
        # moves, the gradient never falls below the tolerance, and training runs
        # to its 1000-iteration cap
        ds = generate_synthetic(300, seed=4)
        with np.errstate(all="ignore"):
            scorer = train_scorer(ScorerSpec("logistic"), ds.X * 1e200, ds.y)
        assert not scorer.converged
        assert len(scorer.loss_history) == 1001 and scorer.weights.tolist() == [0.0]

    def test_converges_far_from_the_origin(self):
        # near the optimum the rounded loss cannot see some of these steps (it
        # stays equal), and the line search must still take them
        X = np.array([[-18, -18], [-21, -22], [-19, -18], [-20, -18], [-18, -20],
                      [-20, -19], [-21, -18], [-21, -21], [-20, -20]]) * 1e5
        scorer = train_scorer(ScorerSpec("logistic", ridge=1e-6), X, [1, 1, 0, 1, 1, 1, 0, 1, 1])
        assert scorer.converged

    def test_near_separable_converges(self):
        # nearly separable labels: the optimum lies at large weights, on a nearly flat loss
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20_000, 5))
        y = (X @ np.arange(1.0, 6.0) > 0).astype(float)
        scorer = train_scorer(ScorerSpec("logistic", ridge=1e-6), X, y)
        assert scorer.converged
        assert scorer.loss_history[-1] < 0.02

    @pytest.mark.parametrize("d", [1, 5])
    @pytest.mark.parametrize("ridge", TUNE_RIDGE_GRID)
    def test_optimal_against_lbfgs(self, d, ridge):
        rng = np.random.default_rng(40 + d)
        X = rng.standard_normal((2_000, d)) + 0.5
        z_true = X @ np.linspace(1.5, -1.0, d) - 0.3
        y = (rng.random(len(X)) < 1.0 / (1.0 + np.exp(-z_true))).astype(float)

        def loss_and_grad(theta):
            w, b = theta[:d], theta[d]
            z = X @ w + b
            resid = 1.0 / (1.0 + np.exp(-z)) - y
            loss = np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * ridge * (w @ w)
            return loss, np.append(X.T @ resid / len(X) + ridge * w, resid.mean())

        ref = minimize(loss_and_grad, np.zeros(d + 1), jac=True, method="L-BFGS-B",
                       options={"ftol": 0.0, "gtol": 1e-12, "maxiter": 10_000})
        scorer = train_scorer(ScorerSpec("logistic", ridge=ridge), X, y)
        loss, grad = loss_and_grad(np.append(scorer.weights, scorer.intercept))
        assert scorer.converged
        assert loss <= ref.fun + 1e-12
        assert np.linalg.norm(grad) < 1e-8
        assert scorer.loss_history[-1] == pytest.approx(loss, rel=1e-12)

    def test_raw_linear_score(self):
        from venncal.scorers import LogisticScorer

        scorer = LogisticScorer(np.array([1.0]), 0.0, [])
        assert scorer.score_many(np.array([[2.0]]))[0] == 2.0
        assert scorer.probability_many(np.array([[0.0]]))[0] == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateModelError):
            train_scorer(ScorerSpec("logistic"), np.arange(4.0)[:, None], [1, 1, 1, 1])

    def test_row_score_bits_do_not_depend_on_the_batch(self):
        # BLAS's X @ w rounds a row differently in different batch sizes at d > 1
        rng = np.random.default_rng(8)
        scorer = LogisticScorer(rng.normal(size=3), float(rng.normal()), [])
        X = rng.normal(size=(500, 3))
        batch = scorer.score_many(X)
        rows = np.array([scorer.score_many(x[None])[0] for x in X])
        assert rows.tobytes() == batch.tobytes()
        want = 0.0 + X[:, 0] * scorer.weights[0]
        for j in (1, 2):
            want = want + X[:, j] * scorer.weights[j]
        assert batch.tobytes() == (want + scorer.intercept).tobytes()

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_stacked_row_scores_match_each_scorer(self, d):
        rng = np.random.default_rng(d)
        scorers = [LogisticScorer(rng.normal(size=d), float(rng.normal()), []) for _ in range(5)]
        for x in rng.normal(size=(300, d)):
            got = row_scores(scorers, x)
            assert np.array(got).tobytes() == np.array([s.score_many(x[None])[0]
                                                        for s in scorers]).tobytes()
        with pytest.raises(ValueError, match="dimension"):
            row_scores(scorers, np.zeros(d + 1))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_float_row_scores_have_the_batch_bits(self, data):
        d = data.draw(st.integers(1, 17))
        k = data.draw(st.integers(2, 10))
        special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                   1e154, -1e154])
        value = st.one_of(special, st.floats(-1e3, 1e3),
                          st.floats(allow_nan=False, allow_infinity=False))
        vector = st.lists(value, min_size=d, max_size=d)
        scorers = [LogisticScorer(np.array(data.draw(vector)), data.draw(value), [])
                   for _ in range(k)]
        X = np.array(data.draw(st.lists(vector, min_size=1, max_size=4)))
        with np.errstate(over="ignore", invalid="ignore"):  # products may overflow
            batch = np.array([s.score_many(X) for s in scorers])
        for r in range(len(X)):
            got = row_scores(scorers, X[r])
            assert np.array(got).tobytes() == batch[:len(got), r].tobytes()
            assert len(got) == k or not math.isfinite(got[-1])  # the row fails at a non-finite

    def test_negative_zero_intercept_keeps_matmul_bits(self):
        # the sum starts at +0.0, as X @ w does: -0.0 * 1 + -0.0 is +0.0, not -0.0
        scorer = LogisticScorer(np.array([1.0]), -0.0, [])
        X = np.array([[-0.0], [0.0], [2.5], [-1e-320]])
        assert scorer.score_many(X).tobytes() == (X @ scorer.weights + -0.0).tobytes()
        assert np.signbit(scorer.score_many(X[:1])[0]) == np.False_
        assert math.copysign(1.0, row_scores([scorer, scorer], X[0])[0]) == 1.0

    def test_sigmoid_bit_identical_to_masked_reference(self):
        from oracles import masked_sigmoid
        from venncal.scorers import _sigmoid

        nan = np.float64(np.nan)
        special = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, nan, -nan])
        z = np.concatenate([special, np.random.default_rng(21).normal(size=100_000) * 30])
        with np.errstate(under="ignore"):
            got, want = _sigmoid(z), masked_sigmoid(z)
        assert got.tobytes() == want.tobytes()

    def test_dimension_mismatch_rejected(self):
        ds = generate_synthetic(50, seed=1)
        scorer = train_scorer(ScorerSpec("logistic"), ds.X, ds.y)
        with pytest.raises(ValueError, match="dimension"):
            scorer.score_many(np.zeros((2, 3)))


@pytest.mark.parametrize("label", [0, 1])
def test_constant_at_either_end(label):
    scorer = train_scorer(ScorerSpec("constant"), np.zeros((3, 1)), [label] * 3)
    assert scorer == ConstantScorer(float(label), 1)


def test_width_is_a_constructor_field():
    # a stump on feature 0 of 3 and a constant of width 3 reject 2-column input
    X = np.zeros((4, 3))
    for scorer in (StumpScorer(0, 0.5, True, 3), ConstantScorer(0.25, 3)):
        assert scorer.score_many(X).shape == (4,)
        with pytest.raises(ValueError, match="dimension"):
            scorer.score_many(np.zeros((4, 2)))
