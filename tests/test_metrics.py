import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import two_branch_losses
from strategies import FINITE
from venncal.metrics import evaluate


def log_loss(p, y):
    """Mean log loss of one prediction, through `evaluate`."""
    return evaluate([p], [y]).mean_log_loss


def brier_loss(p, y):
    """Mean Brier loss of one prediction, through `evaluate`."""
    return evaluate([p], [y]).mean_brier_loss


class TestLogLoss:
    def test_no_information_point(self):
        assert log_loss(0.5, 0) == 1.0
        assert log_loss(0.5, 1) == 1.0

    def test_perfect_prediction(self):
        assert log_loss(1.0, 1) == 0.0
        assert log_loss(0.0, 0) == 0.0

    def test_categorical_mistake_is_infinite(self):
        assert log_loss(0.0, 1) == math.inf
        assert log_loss(1.0, 0) == math.inf
        assert evaluate([0.0], [1]).n_infinite == 1

    def test_binary_logarithm(self):
        assert log_loss(0.25, 1) == pytest.approx(2.0)

    def test_range_validation(self):
        with pytest.raises(ValueError, match="probabilities out of range"):
            log_loss(1.5, 1)
        with pytest.raises(ValueError, match="probabilities out of range"):
            log_loss(-0.1, 0)
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            log_loss(0.5, 2)


class TestBrierLoss:
    def test_no_information_point(self):
        assert brier_loss(0.5, 0) == 1.0
        assert brier_loss(0.5, 1) == 1.0

    def test_perfect_prediction(self):
        assert brier_loss(1.0, 1) == 0.0
        assert brier_loss(0.0, 0) == 0.0

    def test_maximal_mistake(self):
        assert brier_loss(0.0, 1) == 4.0
        assert brier_loss(1.0, 0) == 4.0


class TestEvaluate:
    def test_simple_means(self):
        rep = evaluate([1.0, 0.5], [1, 0])
        assert rep.mean_log_loss == 0.5
        assert rep.mean_brier_loss == 0.5
        assert rep.n == 2 and rep.n_infinite == 0

    def test_no_information_vector(self):
        rep = evaluate([0.5] * 10, [0, 1] * 5)
        assert rep.mean_log_loss == 1.0
        assert rep.mean_brier_loss == 1.0

    def test_infinite_propagates(self):
        rep = evaluate([0.0, 0.9], [1, 1])
        assert rep.mean_log_loss == math.inf
        assert rep.n_infinite == 1
        assert math.isfinite(rep.mean_brier_loss)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(size=50)
        y = rng.integers(0, 2, size=50)
        perm = rng.permutation(50)
        a = evaluate(p, y)
        b = evaluate(p[perm], y[perm])
        assert a.mean_log_loss == pytest.approx(b.mean_log_loss, abs=1e-12)
        assert a.mean_brier_loss == pytest.approx(b.mean_brier_loss, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate([0.5], [0, 1])

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="^empty evaluation set$"):
            evaluate([], [])

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5])
    def test_probability_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match="probabilities out of range"):
            evaluate([bad, 0.5], [0, 1])


EDGE_PROBABILITIES = (0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.sampled_from(EDGE_PROBABILITIES),
                                    st.floats(0.0, 1.0)),
                          st.integers(0, 1)), min_size=1, max_size=40))
def test_evaluate_matches_two_branch_oracle(rows):
    # one log per row, and no log2(0): the RuntimeWarning filter would raise
    p, y = (list(column) for column in zip(*rows))
    rep = evaluate(p, y)
    mll, mbl, n_inf = two_branch_losses(p, y)
    # repr tells apart every non-NaN float, -0.0 from 0.0 included
    assert repr(rep.mean_log_loss) == repr(mll)
    assert repr(rep.mean_brier_loss) == repr(mbl)
    assert rep.n_infinite == n_inf


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.sampled_from(EDGE_PROBABILITIES), st.floats(0.0, 1.0)),
                          st.integers(0, 1)), min_size=1, max_size=40), st.data())
def test_any_finite_input_is_evaluated_in_range_or_rejected(rows, data):
    # a RuntimeWarning fails this test (the pytest filterwarnings setting)
    p, y = (list(column) for column in zip(*rows))
    for column in (p, y):  # one entry that may lie anywhere in the finite range
        if data.draw(st.booleans()):
            column[data.draw(st.integers(0, len(column) - 1))] = data.draw(FINITE)
    valid = all(0.0 <= q <= 1.0 for q in p) and all(t in (0, 1) for t in y)
    try:
        rep = evaluate(p, y)
    except ValueError:
        assert not valid
        return
    assert valid
    n_inf = sum(q == (1.0 - t) for q, t in zip(p, y))  # all the mass on the wrong label
    assert (rep.n, rep.n_infinite) == (len(p), n_inf)
    assert 0.0 <= rep.mean_brier_loss <= 4.0
    assert 0.0 <= rep.mean_log_loss < math.inf or (n_inf and rep.mean_log_loss == math.inf)


def test_both_losses_are_proper():
    # expected loss under true probability q is minimized at p = q
    p_grid = np.linspace(0.0, 1.0, 101)
    for q in np.arange(0.1, 0.95, 0.1):
        exp_log = q * np.array([log_loss(p, 1) for p in p_grid]) + (1 - q) * np.array(
            [log_loss(p, 0) for p in p_grid])
        exp_brier = q * np.array([brier_loss(p, 1) for p in p_grid]) + (1 - q) * np.array(
            [brier_loss(p, 0) for p in p_grid])
        assert abs(p_grid[np.argmin(exp_log)] - q) <= 0.005
        assert abs(p_grid[np.argmin(exp_brier)] - q) <= 0.005
