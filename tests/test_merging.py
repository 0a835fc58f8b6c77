import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from strategies import FINITE
from venncal.merging import merge, merged_interval, row_tables

RANGE = "interval endpoints must lie in [0, 1] with p0 <= p1"
ZERO_OVER_ZERO = "no log merge: one interval has p0 = 1 and another p1 = 0"


def log_rule_is_zero_over_zero(p0, p1, loss):
    """Whether some column of K >= 2 in-range intervals holds one with p0 = 1 and
    another with p1 = 0, so that GM(1 - p0) = GM(p1) = 0 under log loss."""
    p0, p1 = np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)
    return (loss == "log" and p0.ndim > 0 and len(p0) > 1
            and ((p0 == 1.0).any(axis=0) & (p1 == 0.0).any(axis=0)).any())


class TestMergeLog:
    def test_single_pair(self):
        assert merge([0.2], [0.4], "log") == pytest.approx(1 / 3, abs=1e-15)

    def test_degenerate_pairs_reduce_to_value(self):
        for q in (0.1, 0.5, 0.73):
            assert merge([q] * 3, [q] * 3, "log") == pytest.approx(q, abs=1e-12)

    def test_two_pair_hand_value(self):
        # GM(p1)=sqrt(0.18), GM(1-p0)=sqrt(0.72): ratio gives exactly 1/3
        p = merge([0.1, 0.2], [0.3, 0.6], "log")
        assert p == pytest.approx(np.sqrt(0.18) / (np.sqrt(0.72) + np.sqrt(0.18)), abs=1e-15)
        assert p == pytest.approx(1 / 3, abs=1e-12)

    def test_identical_pairs_match_single_pair(self):
        for k in (2, 3, 7):
            assert merge([0.2] * k, [0.4] * k, "log") == pytest.approx(
                merge([0.2], [0.4], "log"), abs=1e-12)
            assert merge([0.2] * k, [0.4] * k, "brier") == pytest.approx(
                merge([0.2], [0.4], "brier"), abs=1e-12)

    def test_equalizes_extra_losses(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            k = int(rng.integers(1, 11))
            p0 = rng.uniform(0.0, 0.98, size=k)
            p1 = p0 + rng.uniform(0.005, 1.0 - p0)
            p = merge(p0, p1, "log")
            assert 0.0 < p < 1.0
            lhs = np.sum(np.log(p1 / p))
            rhs = np.sum(np.log((1.0 - p0) / (1.0 - p)))
            assert abs(lhs - rhs) <= 1e-9

    def test_permutation_invariant(self):
        p0 = np.array([0.1, 0.5, 0.2])
        p1 = np.array([0.4, 0.9, 0.3])
        order = [2, 0, 1]
        assert merge(p0, p1, "log") == pytest.approx(
            merge(p0[order], p1[order], "log"), abs=1e-12)

    def test_vectorized_columns(self):
        p0 = np.array([[0.1, 0.2], [0.2, 0.3]])
        p1 = np.array([[0.3, 0.5], [0.6, 0.7]])
        out = merge(p0, p1, "log")
        assert out.shape == (2,)
        assert out[0] == pytest.approx(merge(p0[:, 0], p1[:, 0], "log"))

    def test_extreme_endpoints_merge_exactly(self):
        # p1 = 0 and p0 = 1 cannot come from the calibrators; a geometric mean
        # with a zero factor is exactly 0
        assert merge([0.0, 0.0], [0.0, 1.0], "log") == 0.0
        assert merge([1.0, 0.0], [1.0, 1.0], "log") == 1.0

    @pytest.mark.parametrize("p0, p1, want", [
        ([0.0, 0.0], [0.0, 0.0], 0.0),          # one copy gives 0.0 too
        ([0.0, 0.0], [0.0, 0.5], 0.0),          # GM(p1) = 0 exactly
        ([0.0, 0.0], [1e-310, 1e-310], 1e-310),  # a subnormal p1 is kept, not floored
        ([1.0, 1.0], [1.0, 1.0], 1.0),
    ])
    def test_zeros_stay_exact(self, p0, p1, want):
        for form in ((p0, p1), (np.array(p0)[:, None], np.array(p1)[:, None])):
            assert np.asarray(merge(*form, "log")).tolist() in (want, [want])

    @pytest.mark.parametrize("p0, p1", [
        ([1.0, 0.0], [1.0, 0.0]),
        ([0.2, 1.0, 0.0], [0.4, 1.0, 0.0]),
        ([[0.2, 1.0], [0.3, 0.0]], [[0.4, 1.0], [0.5, 0.0]]),  # one bad column fails the batch
    ])
    def test_zero_over_zero_rejected(self, p0, p1):
        with pytest.raises(ValueError, match=f"^{ZERO_OVER_ZERO}$"):
            merge(p0, p1, "log")
        # the crossing ends (1, 0) of the column, which `merge` would reject too
        lo, hi = merged_interval(np.array(p0), np.array(p1))
        assert (np.atleast_1d(lo)[-1], np.atleast_1d(hi)[-1]) == (1.0, 0.0)
        assert np.isfinite(merge(p0, p1, "brier")).all()

    def test_bad_batch_rejected(self):
        with pytest.raises(ValueError):
            merge([], [], "log")
        with pytest.raises(ValueError):
            merge([0.1, 0.2], [0.4], "log")
        # one float and one list is not a pair of floats: the shapes differ
        for p0, p1 in ((0.1, [0.4]), ([0.1], 0.4)):
            with pytest.raises(ValueError, match=r"^shape mismatch"):
                merge(p0, p1, "log")
        with pytest.raises(ValueError):
            merge([-0.1], [0.5], "log")
        nan = float("nan")
        for p0, p1 in (([nan], [0.5]), ([0.2], [nan]), ([nan, nan], [nan, nan]),
                       ([0.2, nan], [0.4, 0.6]), ([0.2, 0.3], [nan, 0.6])):
            for loss in ("log", "brier"):
                with pytest.raises(ValueError, match=r"interval endpoints must lie in \[0, 1\]"):
                    merge(p0, p1, loss)

    @pytest.mark.parametrize("p0, p1, loss", [
        ([0.9], [0.1], "log"),            # inverted
        ([2.0, 0.1], [0.3, 0.2], "log"),  # p0 above 1 and above p1
        (1.5, 0.5, "log"),                # 1 - p0 + p1 is zero
        (0.6, 0.4, "brier"),
        ([[0.2, 0.5]], [[0.3, 0.4]], "log"),
        (0.2, 1.5, "log"),                # p1 above 1
        ([0.1, 0.2], [0.5, 1.5], "brier"),
        (0.2, 1.5, "brier"),
        (float("nan"), 0.5, "log"),
        (float("nan"), 0.5, "brier"),
        (0.2, float("nan"), "log"),
        (0.6, 0.4, "log"),
        (-0.1, 0.5, "brier"),
        (0.2, 2.0, "log"),
        (np.full((3, 4), 0.2), np.where(np.arange(12).reshape(3, 4) == 6, 1.5, 0.6), "log"),
        (np.full((3, 4), 0.2), np.where(np.arange(12).reshape(3, 4) == 6, 1.5, 0.6), "brier"),
    ])
    def test_inverted_or_out_of_range_interval_rejected(self, p0, p1, loss):
        # a pair of floats is a 0-d pair, with the batch path's message
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\] with p0 <= p1"):
            merge(p0, p1, loss)

    def test_degenerate_intervals_stay_valid(self):
        for q in (0.0, 0.3, 1.0):
            for loss in ("log", "brier"):
                assert merge(q, q, loss) == q
            assert merge([q, 0.2], [q, 0.2], "brier") == pytest.approx((q + 0.2) / 2)


class TestMergeBrier:
    def test_degenerate_pairs_give_arithmetic_mean(self):
        p0 = np.array([0.2, 0.4, 0.9])
        assert merge(p0, p0, "brier") == pytest.approx(np.mean(p0), abs=1e-15)

    def test_vacuous_interval(self):
        assert merge([0.0], [1.0], "brier") == pytest.approx(0.5, abs=1e-15)

    def test_two_identical_pairs(self):
        assert merge([0.2, 0.2], [0.4, 0.4], "brier") == pytest.approx(0.34, abs=1e-15)

    def test_solves_linear_equation(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            k = int(rng.integers(1, 11))
            p0 = rng.uniform(0.0, 1.0, size=k)
            p1 = p0 + rng.uniform(0.0, 1.0 - p0)
            p = merge(p0, p1, "brier")
            assert 0.0 <= p <= 1.0
            lhs = np.sum((1.0 - p) ** 2 - (1.0 - p1) ** 2)
            rhs = np.sum(p ** 2 - p0 ** 2)
            assert abs(lhs - rhs) <= 1e-9

    def test_permutation_invariant(self):
        p0 = np.array([0.1, 0.5, 0.2])
        p1 = np.array([0.4, 0.9, 0.3])
        order = [1, 2, 0]
        assert merge(p0, p1, "brier") == pytest.approx(
            merge(p0[order], p1[order], "brier"), abs=1e-12)

    def test_scalar_interval(self):
        # a 0-d pair is one interval, as under log loss
        p = merge(0.2, 0.4, "brier")
        assert type(p) is float
        assert p == merge([0.2], [0.4], "brier") == 0.34


class TestMergeDispatch:
    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError, match="unknown loss 'hinge'"):
            merge([0.2], [0.4], "hinge")

    def test_single_interval_form_matches_batch_bit_for_bit(self):
        rng = np.random.default_rng(10)
        p0 = rng.uniform(0.0, 0.5, size=200)
        p1 = p0 + rng.uniform(0.0, 0.5, size=200)
        p0[:3], p1[:3] = (0.0, 0.0, 1.0), (0.0, 1.0, 1.0)
        # the rounding of the stated formulas, which the written outputs depend on
        want = {"log": p1 / ((1.0 - p0) + p1), "brier": p1 + 0.5 * p0 * p0 - 0.5 * p1 * p1}
        for loss in ("log", "brier"):
            batch = merge(p0[None, :], p1[None, :], loss)
            assert batch.tobytes() == want[loss].tobytes()
            singles = np.array([merge(float(a), float(b), loss) for a, b in zip(p0, p1)])
            assert batch.tobytes() == singles.tobytes()
            for a, b, single in zip(p0, p1, singles.tolist()):
                # floats, np.float64, 0-d arrays and (1,) batches: one array path
                forms = (merge(a, b, loss), merge(np.array(a), np.array(b), loss),
                         merge([a], [b], loss))
                assert [f.hex() for f in forms] == [single.hex()] * 3


@st.composite
def interval_batches(draw):
    """A (K, n) batch of intervals 0 <= p0 <= p1 <= 1, exact 0s and 1s included."""
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    ends = draw(arrays(float, (2, k, n), elements=unit))
    return ends.min(axis=0), ends.max(axis=0)


@settings(max_examples=300, deadline=None)
@given(interval_batches(), st.sampled_from(["log", "brier"]))
def test_merge_within_endpoint_range(batch, loss):
    p0, p1 = batch
    if log_rule_is_zero_over_zero(p0, p1, loss):
        with pytest.raises(ValueError, match=f"^{ZERO_OVER_ZERO}$"):
            merge(p0, p1, loss)
    else:
        out = merge(p0, p1, loss)
        assert out.shape == (p0.shape[1],)
        assert (out >= p0.min(axis=0) - 1e-12).all()
        assert (out <= p1.max(axis=0) + 1e-12).all()
    # one interval: the 0-d, (1,) and (1, n) forms agree bit for bit
    row = merge(p0[:1], p1[:1], loss)
    for j in range(p0.shape[1]):
        single = merge(p0[0, j], p1[0, j], loss)
        assert type(single) is float
        assert single.hex() == merge(p0[:1, j], p1[:1, j], loss).hex() == row[j].hex()


def _mean_in_order(v):
    """Mean of v, its entries added in index order: merge's order over the K axis."""
    return functools.reduce(operator.add, v.tolist()) / len(v)


def test_geometric_interval_narrower_than_arithmetic():
    # geometric means never exceed arithmetic ones, so the merged interval
    # (1 - GM(1-p0), GM(p1)) sits inside (AM(p0), AM(p1))
    rng = np.random.default_rng(77)
    for _ in range(200):
        k = int(rng.integers(1, 11))
        p0 = rng.uniform(0.0, 0.9, size=k)
        p1 = p0 + rng.uniform(0.01, 1.0 - p0)
        gm_hi = np.exp(_mean_in_order(np.log(p1)))
        gm_lo = 1.0 - np.exp(_mean_in_order(np.log(1.0 - p0)))
        assert merged_interval(p0, p1) == (gm_lo, gm_hi)
        assert gm_hi <= np.mean(p1) + 1e-12
        assert gm_lo >= np.mean(p0) - 1e-12


def test_merged_interval_ends_cross_when_folds_disagree():
    # the ends are the interval whose single-interval log merge is the K-fold
    # log merge, not a bracket: two far-apart folds give p0 > p1
    p0, p1 = np.array([0.0, 0.99]), np.array([0.01, 1.0])
    lo, hi = merged_interval(p0, p1)
    assert (lo, hi) == pytest.approx((0.9, 0.1), abs=1e-15)
    assert hi / ((1.0 - lo) + hi) == pytest.approx(merge(p0, p1, "log"), abs=1e-15)
    with pytest.raises(ValueError, match="p0 <= p1"):
        merge(lo, hi, "log")


# endpoints at the edges of [0, 1], a subnormal among them
EDGES = [0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53]


@st.composite
def interval_rows(draw):
    """One row of K = 1..17 intervals 0 <= p0 <= p1 <= 1 as two lists of floats,
    edge values and p0 == p1 included."""
    k = draw(st.integers(1, 17))
    end = st.one_of(st.sampled_from(EDGES), st.floats(0.0, 1.0))
    p0, p1 = [], []
    for _ in range(k):
        a, b = sorted((draw(end), draw(end)))
        if draw(st.booleans()):
            a = b = draw(st.sampled_from((a, b)))
        p0.append(a)
        p1.append(b)
    return p0, p1


@settings(max_examples=300, deadline=None)
@given(interval_rows(), st.sampled_from(["log", "brier"]))
def test_float_row_has_the_bits_of_its_column(row, loss):
    p0, p1 = row
    if log_rule_is_zero_over_zero(p0, p1, loss):
        for form in ((p0, p1), (np.array(p0)[:, None], np.array(p1)[:, None])):
            with pytest.raises(ValueError, match=f"^{ZERO_OVER_ZERO}$"):
                merge(*form, loss)
        return
    got = merge(p0, p1, loss)
    assert type(got) is float
    column = merge(np.array(p0)[:, None], np.array(p1)[:, None], loss)
    assert got.hex() == column[0].hex()
    # np.float64 entries are floats too
    assert merge([np.float64(v) for v in p0], p1, loss).hex() == got.hex()


@settings(max_examples=100, deadline=None)
@given(interval_rows(), st.integers(0, 16), st.sampled_from([-0.25, 1.5, math.nan]),
       st.booleans(), st.sampled_from(["log", "brier"]))
def test_float_row_rejects_what_its_column_rejects(row, position, bad, upper, loss):
    p0, p1 = row
    i = position % len(p0)
    (p1 if upper else p0)[i] = bad
    for form in ((p0, p1), (np.array(p0)[:, None], np.array(p1)[:, None])):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\] with p0 <= p1"):
            merge(*form, loss)


@pytest.mark.parametrize("p0, p1", [
    ([0, 0], [1, 1]),                    # ints
    ([0, 0.5], [1, 0.5]),                # ints among floats
    ([True, False], [True, True]),
    ([[0.2], [0.1]], [[0.4], [0.3]]),    # nested: a (2, 1) batch
    ([[0.2, 0.3]], [[0.4, 0.5]]),        # nested: a (1, 2) batch
    ((0.2, 0.1), (0.4, 0.3)),            # tuples
    ([0.2], [0.4]),                      # one interval
])
@pytest.mark.parametrize("loss", ["log", "brier"])
def test_other_lists_merge_as_their_arrays(p0, p1, loss):
    got = merge(p0, p1, loss)
    want = merge(np.asarray(p0, dtype=float), np.asarray(p1, dtype=float), loss)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.data(), st.sampled_from(["log", "brier"]))
def test_any_finite_endpoints_merge_into_unit_range_or_are_rejected(k, n, data, loss):
    # a RuntimeWarning fails this test (the pytest filterwarnings setting)
    ends = data.draw(arrays(float, (2, k, n), elements=FINITE))
    if data.draw(st.booleans()):
        ends.sort(axis=0)  # ordered pairs reach the range check's later terms
    p0, p1 = ends
    forms = [(p0, p1), (p0[:, 0].tolist(), p1[:, 0].tolist()), (float(p0[0, 0]), float(p1[0, 0]))]
    for a, b in forms:
        try:
            out = merge(a, b, loss)
        except ValueError as e:
            # the range check first; in range, the log rule's 0/0 and nothing else
            assert str(e) == RANGE or (str(e) == ZERO_OVER_ZERO
                                       and log_rule_is_zero_over_zero(a, b, loss))
        else:
            assert not log_rule_is_zero_over_zero(a, b, loss)
            assert ((0.0 <= np.asarray(out)) & (np.asarray(out) <= 1.0)).all()


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10), st.one_of(st.sampled_from(EDGES + [1e-310]), st.floats(0.0, 1.0)),
       st.one_of(st.sampled_from(EDGES + [1e-310]), st.floats(0.0, 1.0)))
def test_copies_of_one_interval_merge_to_its_single_merge(k, a, b):
    p0, p1 = min(a, b), max(a, b)
    single = merge(p0, p1, "log")
    for form in (([p0] * k, [p1] * k), (np.full((k, 1), p0), np.full((k, 1), p1))):
        got = float(np.asarray(merge(*form, "log")).ravel()[0])
        if p1 == 0.0:
            assert got == single == 0.0
        # the mean of k logs rounds by up to k ulps, which exp scales by |log x| <= 745;
        # a subnormal GM(p1) is absolute, not relative, rounding
        assert got == pytest.approx(single, rel=k * 745 * 2.0 ** -52, abs=1e-321)


# padded tables of k = 1..4 keys, with entries outside [0, 1] and NaN among them
TABLE_ENTRY = st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.25, 1.5, math.nan])


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.lists(TABLE_ENTRY, min_size=n, max_size=n), st.lists(TABLE_ENTRY, min_size=n, max_size=n))))
def test_row_tables_reject_exactly_the_tables_with_a_bad_readable_pair(tables):
    # a query reads (lower[i], upper[i]), or (lower[i + 1], upper[i]) on a hit of key i
    lower, upper = map(np.array, tables)
    keys = np.arange(len(lower) - 1, dtype=float)
    reads = [(i, 0) for i in range(len(lower))] + [(i, 1) for i in range(len(lower) - 1)]
    if not all(0.0 <= lower[i + hit] <= upper[i] <= 1.0 for i, hit in reads):
        for log in (False, True):
            with pytest.raises(ValueError, match=r"^interval endpoints must lie in \[0, 1\]"):
                row_tables(keys, lower, upper, log)
        return
    closed = keys.tolist() + [math.inf]
    assert row_tables(keys, lower, upper) == (closed, lower.tolist(), upper.tolist())
    # the exact log terms of the batch merge, -inf for a 0 (a cross calibrator's row
    # has its batch bits: tests/test_cvap.py)
    with np.errstate(divide="ignore"):
        logs = np.log(1.0 - lower).tolist(), np.log(upper).tolist()
    assert row_tables(keys, lower, upper, log=True) == (closed, *logs)
