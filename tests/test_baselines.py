import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import input_order_isotonic
from strategies import FINITE, packed_batches
from venncal import baselines
from venncal.baselines import DirectIsotonic, PlattCalibrator
from venncal.exceptions import DegenerateModelError
from venncal.metrics import evaluate
from venncal.scorers import ScorerSpec, _newton, _sigmoid, train_scorer


class TestPlatt:
    def test_regularized_targets(self):
        # k+ = 3 gives t+ = 4/5; k- = 1 gives t- = 1/3
        m = PlattCalibrator.fit([0.1, 0.5, 0.9, 0.2], [1, 1, 1, 0])
        assert (m.k_pos, m.k_neg) == (3, 1)
        assert (m.k_pos + 1) / (m.k_pos + 2) == pytest.approx(4 / 5)
        assert 1 / (m.k_neg + 2) == pytest.approx(1 / 3)

    def test_separable_predictions_respect_target_range(self):
        m = PlattCalibrator.fit([0, 0, 1, 1], [0, 0, 1, 1])
        p = m.predict_many([0.0, 0.5, 1.0])
        assert np.all(p >= 0.25 - 1e-9) and np.all(p <= 0.75 + 1e-9)

    def test_matches_grid_oracle_on_tiny_instance(self):
        from oracles import grid_platt, platt_objective

        scores = [-1.0, 1.0]
        labels = [0, 1]
        m = PlattCalibrator.fit(scores, labels)
        fitted = platt_objective(m.a, m.b, scores, labels, m.k_pos, m.k_neg)
        _, _, oracle = grid_platt(scores, labels)
        assert fitted <= oracle + 1e-6

    def test_objective_beats_grid_on_seeded_instances(self):
        from oracles import grid_platt, platt_objective

        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 10))
            scores = rng.normal(size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            m = PlattCalibrator.fit(scores, labels)
            fitted = platt_objective(m.a, m.b, scores, labels, m.k_pos, m.k_neg)
            _, _, oracle = grid_platt(scores, labels)
            assert fitted <= oracle + 1e-6

    def test_monotone_when_slope_negative(self):
        m = PlattCalibrator.fit([-2, -1, 0, 1, 2], [0, 0, 1, 1, 1])
        assert m.a < 0
        p = m.predict_many(np.linspace(-5, 5, 50))
        assert np.all(np.diff(p) > 0)

    def test_sigmoid_values(self):
        m = PlattCalibrator(a=-1.0, b=0.0, k_pos=1, k_neg=1)
        assert m.predict_many([0.0])[0] == pytest.approx(0.5)
        assert m.predict_many([50.0])[0] == pytest.approx(1.0, abs=1e-9)
        m = PlattCalibrator(a=-2.0, b=1.0, k_pos=1, k_neg=1)
        assert m.predict_many([0.5])[0] == pytest.approx(0.5)

    def test_predictions_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            scores = rng.normal(size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            m = PlattCalibrator.fit(scores, labels)
            p = m.predict_many(scores)
            assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_constant_scores_hit_mean_target(self):
        # scores carry no information: optimum is the average of the targets
        m = PlattCalibrator.fit([1.0] * 4, [0, 1, 0, 1])
        assert m.predict_many([1.0])[0] == pytest.approx(0.5, abs=1e-9)
        assert not np.signbit(m.a)
        # away from the start the Hessian is singular at ridge 0; targets 4/5, 1/4 average 0.58
        for c in (1.0, -3.0, 100.0):
            m = PlattCalibrator.fit([c] * 5, [0, 1, 1, 1, 0])
            assert m.converged
            assert m.predict_many([c])[0] == pytest.approx(0.58, abs=1e-8)

    @staticmethod
    def _compare_sized_calibration_set(seed):
        # scored as `venncal compare` scores its calibration part: 50,000 rows split 2:1
        rng = np.random.default_rng(seed)
        n = 50_000
        y = rng.integers(0, 2, n)
        x = y + rng.standard_normal(n)
        scorer = train_scorer(ScorerSpec(), x[:33334, None], y[:33334])
        return scorer.score_many(x[33334:, None]), y[33334:]

    @pytest.mark.parametrize("seed", range(5))
    def test_converges_on_compare_sized_sets(self, seed):
        s, y = self._compare_sized_calibration_set(seed)
        m = PlattCalibrator.fit(s, y)
        assert m.converged
        t = np.where(y == 1, (m.k_pos + 1) / (m.k_pos + 2), 1 / (m.k_neg + 2))
        resid = t - _sigmoid(-(m.a * s + m.b))
        assert np.hypot(np.dot(resid, s), resid.sum()) < 1e-8  # summed gradient norm

    def test_no_crawl_when_the_loss_cannot_see_the_decrease(self):
        # on this set a plain Armijo test crawled for 56 iterations near the optimum
        s, y = self._compare_sized_calibration_set(4)
        k_pos, k_neg = int(y.sum()), int(len(y) - y.sum())
        t = np.where(y == 1, (k_pos + 1) / (k_pos + 2), 1 / (k_neg + 2))
        _, _, history, converged = _newton(s[:, None], t, 0.0, np.log((k_pos + 1) / (k_neg + 1)),
                                           10_000, 1e-8 / len(s))
        assert converged
        assert len(history) - 1 <= 8

    def test_fit_that_cannot_move_keeps_the_prior_start(self):
        # at five equal scores of 1e30 no step from the start lowers the rounded
        # objective: the fit stops there and predicts (k+ + 1) / (k+ + k- + 2)
        m = PlattCalibrator.fit([1e30] * 5, [1, 0, 0, 0, 0])
        assert not m.converged and m.a == 0.0
        assert m.predict_many([0.0, 1e30]) == pytest.approx([2 / 7] * 2, rel=1e-15)

    def test_overflowing_scores_stop_at_the_cap(self, monkeypatch):
        # a slope step overflows the objective at these scores, so the gradient
        # never falls below the tolerance and the fit runs to its cap
        iterations = []

        def counting_newton(*args):
            result = _newton(*args)
            iterations.append(len(result[2]) - 1)
            return result

        monkeypatch.setattr(baselines, "_newton", counting_newton)
        with np.errstate(all="ignore"):
            m = PlattCalibrator.fit([1e308, -1e308, 0.5, 1e308, -0.25, -1e308], [1, 0, 1, 0, 0, 1])
        assert not m.converged and iterations == [10_000]

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateModelError):
            PlattCalibrator.fit([1, 2, 3], [1, 1, 1])

    @pytest.mark.parametrize("scores, labels", [([], []), ([0.1, 0.9], [0]), ([0.5], [0, 1])])
    def test_empty_or_mismatched_input_rejected(self, scores, labels):
        with pytest.raises(ValueError,
                           match="^scores and labels must be nonempty and equal length$"):
            PlattCalibrator.fit(scores, labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_calibration_score_rejected(self, bad):
        # a non-finite score makes the objective NaN, which would stop the fit
        # at the prior-only model (a = 0)
        with pytest.raises(ValueError, match="calibration scores must be finite"):
            PlattCalibrator.fit([0.1, bad, 0.9, 0.2], [1, 1, 0, 0])

    def test_nan_test_score_rejected_infinite_ones_valid(self):
        m = PlattCalibrator.fit([0.1, 0.5, 0.9, 0.2], [0, 1, 1, 0])
        with pytest.raises(ValueError, match="test scores must not be NaN"):
            m.predict_many([0.5, np.nan])
        with pytest.raises(ValueError, match="test scores must not be NaN"):
            m.predict_many([np.nan])
        assert m.predict_many([-np.inf, np.inf]).tolist() == [0.0, 1.0]

    def test_zero_slope_answers_its_constant_for_every_score(self):
        # scores that carry no information fit a = 0; 0 * inf would be NaN
        m = PlattCalibrator.fit([0.0] * 4, [0, 0, 0, 1])
        assert m.a == 0.0 and not np.signbit(m.a)
        constant = _sigmoid(np.array([-m.b]))
        assert constant[0] == pytest.approx((3 * (1 / 5) + 2 / 3) / 4)  # the mean target
        scores = [0.0, 5.0, np.inf, -np.inf, 1e308, -1e308, -0.0, 5e-324]
        for a in (0.0, -0.0):
            m.a = a
            assert m.predict_many(scores).tobytes() == np.repeat(constant, 8).tobytes()

    @pytest.mark.parametrize("a, b", [(-2.0, 0.5), (3.0, -1.0), (-1e300, 0.0)])
    def test_overflowing_product_answers_its_limit_silently(self, a, b):
        # a * s past the float range is +-inf, whose sigmoid is exact; a
        # RuntimeWarning fails this test (the pytest filterwarnings setting)
        m = PlattCalibrator(a=a, b=b, k_pos=1, k_neg=1)
        high = 1.0 if a < 0 else 0.0
        assert m.predict_many([1e308, -1e308]).tolist() == [high, 1.0 - high]
        assert m.predict_many([np.inf, -np.inf]).tolist() == [high, 1.0 - high]

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
           st.lists(st.floats(-1e3, 1e3), max_size=8))
    def test_non_zero_slope_keeps_the_sigmoid_bits(self, a, b, scores):
        # every answer that was finite before the zero-slope case: _sigmoid(-(a s + b))
        m = PlattCalibrator(a=a, b=b, k_pos=1, k_neg=1)
        s = np.array(scores, dtype=float)
        if a:
            assert m.predict_many(s).tobytes() == _sigmoid(-(a * s + b)).tobytes()
        got = m.predict_many(np.float64(0.25))
        assert got.shape == () and got.tobytes() == _sigmoid(-(a * 0.25 + b)).tobytes()


class TestDirectIsotonic:
    def test_step_lookup_between_scores(self):
        m = DirectIsotonic.fit([1, 2, 3], [0, 1, 1])
        assert m.predict_many([2.5])[0] == 1.0  # value at the largest score <= query

    def test_pooled_block(self):
        m = DirectIsotonic.fit([1, 2], [1, 0])
        assert m.predict_many([1.5])[0] == 0.5

    def test_below_all_scores_can_give_zero_and_infinite_loss(self):
        m = DirectIsotonic.fit([1, 2, 3, 4], [0, 0, 1, 1])
        p = m.predict_many([0.0])[0]
        assert p == 0.0
        assert evaluate([p], [1]).mean_log_loss == float("inf")

    def test_at_and_above_scores(self):
        m = DirectIsotonic.fit([1, 2, 3], [0, 1, 1])
        assert m.predict_many([1.0])[0] == 0.0
        assert m.predict_many([99.0])[0] == 1.0

    def test_monotone_in_unit_range(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(1, 25))
            scores = rng.integers(0, 10, size=n).astype(float)
            labels = rng.integers(0, 2, size=n)
            m = DirectIsotonic.fit(scores, labels)
            qs = np.sort(rng.normal(scale=5, size=30))
            p = m.predict_many(qs)
            assert np.all(np.diff(p) >= -1e-15)
            assert np.all((p >= 0.0) & (p <= 1.0))

    def test_nan_test_score_rejected_infinite_ones_valid(self):
        m = DirectIsotonic.fit([1, 2, 3], [0, 1, 1])
        with pytest.raises(ValueError, match="test scores must not be NaN"):
            m.predict_many([2.0, np.nan])
        with pytest.raises(ValueError, match="test scores must not be NaN"):
            m.predict_many([np.nan])
        assert m.predict_many([-np.inf, np.inf]).tolist() == [0.0, 1.0]

    def test_dummy_endpoints_keep_predictions_interior(self):
        m = DirectIsotonic.fit([1, 2, 3, 4], [0, 0, 1, 1], dummy_endpoints=True)
        p = m.predict_many([-100.0, 0.0, 100.0])
        assert np.all(p > 0.0) and np.all(p < 1.0)

    @pytest.mark.parametrize("labels", [[0, 0.5, 1], [0, 2, 1], [-1, 0, 1], [0, np.nan, 1]])
    @pytest.mark.parametrize("dummy", [False, True])
    def test_labels_other_than_zero_or_one_rejected(self, labels, dummy):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            DirectIsotonic.fit([1.0, 2.0, 3.0], labels, dummy_endpoints=dummy)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dummy", [False, True])
    def test_non_finite_calibration_score_rejected(self, bad, dummy):
        with pytest.raises(ValueError, match="^calibration scores must be finite$"):
            DirectIsotonic.fit([1.0, bad, 3.0], [0, 1, 1], dummy_endpoints=dummy)

    def test_boolean_labels_accepted(self):
        m = DirectIsotonic.fit([1, 2, 3], np.array([False, True, True]))
        assert m.fitted.tolist() == [0.0, 1.0, 1.0]


class TestDirectIsotonicLookupOrder:
    """The lookup over the sorted batch answers as one search in input order."""

    MODELS = {dummy: DirectIsotonic.fit([1, 2, 2, 3, 5, 5], [0, 1, 0, 1, 1, 0],
                                        dummy_endpoints=dummy) for dummy in (False, True)}

    @pytest.mark.parametrize("dummy", [False, True])
    @pytest.mark.parametrize("batch", [
        2.0,
        np.float64(4.0),
        [[9.0, 2.0, 0.5], [3.0, 1.0, 2.5]],
        np.array([[5.0, 0.0, 3.0, 4.0], [2.0, 6.0, 1.0, -np.inf]]).T,
        [3.0, np.inf, 2.0, 2.0, -0.0],
        [],
        np.empty((0, 3)),
    ], ids=["0d_float", "0d_numpy", "2d_list", "2d_transposed", "list", "empty", "empty_2d"])
    def test_shape_type_and_bits_match_oracle(self, batch, dummy):
        model = self.MODELS[dummy]
        got, want = model.predict_many(batch), input_order_isotonic(model, batch)
        assert type(got) is type(want) and got.dtype == np.float64
        assert np.shape(got) == np.shape(want) == np.shape(batch)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=400, deadline=None)
@given(packed_batches(), st.booleans(), st.data())
def test_direct_isotonic_packed_batch_matches_input_order_oracle(batch, dummy, data):
    finite = [x for x in batch if math.isfinite(x)]
    score = st.one_of(st.sampled_from(finite), st.integers(-5, 5).map(float))
    scores = data.draw(st.lists(score, min_size=1, max_size=12))
    labels = data.draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)))
    model = DirectIsotonic.fit(scores, labels, dummy_endpoints=dummy)
    if any(math.isnan(x) for x in batch):
        for predict in (model.predict_many, lambda b: input_order_isotonic(model, b)):
            with pytest.raises(ValueError, match="^test scores must not be NaN$"):
                predict(batch)
        return
    assert model.predict_many(batch).tobytes() == input_order_isotonic(model, batch).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(FINITE, st.integers(0, 1)), min_size=1, max_size=30),
       st.lists(FINITE, min_size=1, max_size=8), st.booleans(), st.data())
def test_direct_isotonic_answers_any_finite_input_in_range(pairs, queries, dummy, data):
    # a RuntimeWarning fails this test (the pytest filterwarnings setting)
    scores, labels = (list(column) for column in zip(*pairs))
    if data.draw(st.booleans()):  # one label that may be neither 0 nor 1
        labels[data.draw(st.integers(0, len(labels) - 1))] = data.draw(FINITE)
    try:
        model = DirectIsotonic.fit(scores, labels, dummy_endpoints=dummy)
    except ValueError as error:
        assert str(error) == "labels must be 0 or 1"
        assert not all(t in (0, 1) for t in labels)
        return
    p = model.predict_many(queries)
    assert p.shape == (len(queries),)
    if dummy:  # the dummy points keep every step strictly inside (0, 1)
        assert ((0.0 < p) & (p < 1.0)).all()
    else:
        assert ((0.0 <= p) & (p <= 1.0)).all()
