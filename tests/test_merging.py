import numpy as np
import pytest

from venncal.merging import merge, merge_brier, merge_interval, merge_log, merged_interval


class TestMergeLog:
    def test_single_pair(self):
        assert merge_log([0.2], [0.4]) == pytest.approx(1 / 3, abs=1e-15)

    def test_degenerate_pairs_reduce_to_value(self):
        for q in (0.1, 0.5, 0.73):
            assert merge_log([q] * 3, [q] * 3) == pytest.approx(q, abs=1e-12)

    def test_two_pair_hand_value(self):
        # GM(p1)=sqrt(0.18), GM(1-p0)=sqrt(0.72): ratio gives exactly 1/3
        p = merge_log([0.1, 0.2], [0.3, 0.6])
        assert p == pytest.approx(np.sqrt(0.18) / (np.sqrt(0.72) + np.sqrt(0.18)), abs=1e-15)
        assert p == pytest.approx(1 / 3, abs=1e-12)

    def test_identical_pairs_match_single_pair(self):
        for k in (2, 3, 7):
            assert merge_log([0.2] * k, [0.4] * k) == pytest.approx(
                merge_log([0.2], [0.4]), abs=1e-12)
            assert merge_brier([0.2] * k, [0.4] * k) == pytest.approx(
                merge_brier([0.2], [0.4]), abs=1e-12)

    def test_equalizes_extra_losses(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            k = int(rng.integers(1, 11))
            p0 = rng.uniform(0.0, 0.98, size=k)
            p1 = p0 + rng.uniform(0.005, 1.0 - p0)
            p = merge_log(p0, p1)
            assert 0.0 < p < 1.0
            lhs = np.sum(np.log(p1 / p))
            rhs = np.sum(np.log((1.0 - p0) / (1.0 - p)))
            assert abs(lhs - rhs) <= 1e-9

    def test_permutation_invariant(self):
        p0 = np.array([0.1, 0.5, 0.2])
        p1 = np.array([0.4, 0.9, 0.3])
        order = [2, 0, 1]
        assert merge_log(p0, p1) == pytest.approx(merge_log(p0[order], p1[order]), abs=1e-12)

    def test_vectorized_columns(self):
        p0 = np.array([[0.1, 0.2], [0.2, 0.3]])
        p1 = np.array([[0.3, 0.5], [0.6, 0.7]])
        out = merge_log(p0, p1)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(merge_log(p0[:, 0], p1[:, 0]))

    def test_extreme_endpoints_clamped(self):
        # p1 = 0 and p0 = 1 cannot come from the calibrators but must not crash
        assert 0.0 <= merge_log([0.0, 0.0], [0.0, 1.0]) <= 1.0
        assert 0.0 <= merge_log([1.0, 0.0], [1.0, 1.0]) <= 1.0

    def test_bad_batch_rejected(self):
        with pytest.raises(ValueError):
            merge_log([], [])
        with pytest.raises(ValueError):
            merge_log([0.1, 0.2], [0.4])
        with pytest.raises(ValueError):
            merge_log([-0.1], [0.5])


class TestMergeBrier:
    def test_degenerate_pairs_give_arithmetic_mean(self):
        p0 = np.array([0.2, 0.4, 0.9])
        assert merge_brier(p0, p0) == pytest.approx(np.mean(p0), abs=1e-15)

    def test_vacuous_interval(self):
        assert merge_brier([0.0], [1.0]) == pytest.approx(0.5, abs=1e-15)

    def test_two_identical_pairs(self):
        assert merge_brier([0.2, 0.2], [0.4, 0.4]) == pytest.approx(0.34, abs=1e-15)

    def test_solves_linear_equation(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            k = int(rng.integers(1, 11))
            p0 = rng.uniform(0.0, 1.0, size=k)
            p1 = p0 + rng.uniform(0.0, 1.0 - p0)
            p = merge_brier(p0, p1)
            assert 0.0 <= p <= 1.0
            lhs = np.sum((1.0 - p) ** 2 - (1.0 - p1) ** 2)
            rhs = np.sum(p ** 2 - p0 ** 2)
            assert abs(lhs - rhs) <= 1e-9

    def test_permutation_invariant(self):
        p0 = np.array([0.1, 0.5, 0.2])
        p1 = np.array([0.4, 0.9, 0.3])
        order = [1, 2, 0]
        assert merge_brier(p0, p1) == pytest.approx(merge_brier(p0[order], p1[order]), abs=1e-12)

    def test_scalar_interval(self):
        # a 0-d pair is one interval, as for merge_log
        p = merge_brier(0.2, 0.4)
        assert type(p) is float
        assert p == merge_brier([0.2], [0.4]) == 0.34


class TestMergeDispatch:
    def test_selects_rule_by_loss(self):
        rng = np.random.default_rng(9)
        p0 = rng.uniform(0.0, 0.5, size=(3, 20))
        p1 = p0 + rng.uniform(0.01, 0.5, size=(3, 20))
        assert np.array_equal(merge(p0, p1, "log"), merge_log(p0, p1))
        assert np.array_equal(merge(p0, p1, "brier"), merge_brier(p0, p1))
        assert merge(0.2, 0.4) == merge_log(0.2, 0.4)

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError, match="unknown loss 'hinge'"):
            merge([0.2], [0.4], "hinge")
        with pytest.raises(ValueError, match="unknown loss 'hinge'"):
            merge_interval(0.2, 0.4, "hinge")

    def test_single_interval_form_matches_batch_bit_for_bit(self):
        rng = np.random.default_rng(10)
        p0 = rng.uniform(0.0, 0.5, size=200)
        p1 = p0 + rng.uniform(0.0, 0.5, size=200)
        for loss in ("log", "brier"):
            batch = merge(p0[None, :], p1[None, :], loss)
            singles = np.array([merge_interval(float(a), float(b), loss)
                                for a, b in zip(p0, p1)])
            assert batch.tobytes() == singles.tobytes()


def test_geometric_interval_narrower_than_arithmetic():
    # geometric means never exceed arithmetic ones, so the merged interval
    # (1 - GM(1-p0), GM(p1)) sits inside (AM(p0), AM(p1))
    rng = np.random.default_rng(77)
    for _ in range(200):
        k = int(rng.integers(1, 11))
        p0 = rng.uniform(0.0, 0.9, size=k)
        p1 = p0 + rng.uniform(0.01, 1.0 - p0)
        gm_hi = np.exp(np.mean(np.log(p1)))
        gm_lo = 1.0 - np.exp(np.mean(np.log(1.0 - p0)))
        assert merged_interval(p0, p1) == (gm_lo, gm_hi)
        assert gm_hi <= np.mean(p1) + 1e-12
        assert gm_lo >= np.mean(p0) - 1e-12
