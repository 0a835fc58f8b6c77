import numpy as np
import pytest

from venncal.baselines import DirectIsotonic, PlattCalibrator
from venncal.exceptions import DegenerateModelError
from venncal.metrics import log_loss


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
        assert m.predict(0.0) == pytest.approx(0.5)
        assert m.predict(50.0) == pytest.approx(1.0, abs=1e-9)
        m = PlattCalibrator(a=-2.0, b=1.0, k_pos=1, k_neg=1)
        assert m.predict(0.5) == pytest.approx(0.5)

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
        assert m.predict(1.0) == pytest.approx(0.5, abs=1e-9)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateModelError):
            PlattCalibrator.fit([1, 2, 3], [1, 1, 1])

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
            m.predict(np.nan)
        assert m.predict_many([-np.inf, np.inf]).tolist() == [0.0, 1.0]


class TestDirectIsotonic:
    def test_step_lookup_between_scores(self):
        m = DirectIsotonic.fit([1, 2, 3], [0, 1, 1])
        assert m.predict(2.5) == 1.0  # value at the largest score <= query

    def test_pooled_block(self):
        m = DirectIsotonic.fit([1, 2], [1, 0])
        assert m.predict(1.5) == 0.5

    def test_below_all_scores_can_give_zero_and_infinite_loss(self):
        m = DirectIsotonic.fit([1, 2, 3, 4], [0, 0, 1, 1])
        p = m.predict(0.0)
        assert p == 0.0
        assert log_loss(p, 1) == float("inf")

    def test_at_and_above_scores(self):
        m = DirectIsotonic.fit([1, 2, 3], [0, 1, 1])
        assert m.predict(1.0) == 0.0
        assert m.predict(99.0) == 1.0

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
            m.predict(np.nan)
        assert m.predict_many([-np.inf, np.inf]).tolist() == [0.0, 1.0]

    def test_dummy_endpoints_keep_predictions_interior(self):
        m = DirectIsotonic.fit([1, 2, 3, 4], [0, 0, 1, 1], dummy_endpoints=True)
        p = m.predict_many([-100.0, 0.0, 100.0])
        assert np.all(p > 0.0) and np.all(p < 1.0)
