import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    n_negative,
    n_positive,
    query_tree,
    search_tree,
    tree_depth,
    tree_size,
    where_query,
)
from strategies import FINITE, calibration_sets, packed_batches
from venncal.ivap import IvapCalibrator, ProbInterval
from venncal.merging import merge


def random_calibration(rng, max_k=20):
    k = int(rng.integers(1, max_k + 1))
    scores = rng.integers(0, max(2, k), size=k).astype(float)  # deliberate ties
    labels = rng.integers(0, 2, size=k)
    return scores, labels


class TestBuild:
    def test_tree_seven_nodes_for_three_keys(self):
        rule = IvapCalibrator.fit([1, 2, 3], [0, 0, 1])
        tree = search_tree(rule)
        assert tree_size(tree) == 7
        assert tree.key == 2  # midpoint of three keys

    def test_tree_three_nodes_for_one_key(self):
        rule = IvapCalibrator.fit([5], [1])
        tree = search_tree(rule)
        assert tree_size(tree) == 3
        assert tree.key == 5

    def test_node_payloads_match_curves(self):
        rule = IvapCalibrator.fit([1, 2, 3, 4], [0, 1, 0, 1])
        assert np.allclose(rule.p0, [0, 1 / 3, 1 / 3, 1 / 2], atol=1e-15)
        assert np.allclose(rule.p1, [1 / 2, 2 / 3, 2 / 3, 1], atol=1e-15)
        tree = search_tree(rule)
        assert tree_size(tree) == 9
        # root keyed on the second distinct score with its table entries
        assert tree.key == 2
        assert (tree.p0, tree.p1) == (rule.p0[1], rule.p1[1])

    def test_tree_size_always_odd_rule(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            scores, labels = random_calibration(rng)
            rule = IvapCalibrator.fit(scores, labels)
            k = len(rule)
            assert tree_size(search_tree(rule)) == 2 * k + 1
            assert tree_depth(search_tree(rule)) <= math.ceil(math.log2(k + 1)) + 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty calibration set"):
            IvapCalibrator.fit([], [])

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            IvapCalibrator.fit([1, 2], [0, 2])

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            IvapCalibrator.fit([1, np.inf], [0, 1])


class TestQueries:
    def test_exact_key_hit(self):
        rule = IvapCalibrator.fit([1, 2, 3], [0, 0, 1])
        iv = rule.predict_interval(2)
        assert (iv.p0, iv.p1) == (0, 0.5)

    def test_between_keys(self):
        rule = IvapCalibrator.fit([1, 2, 3], [0, 1, 0])
        iv = rule.predict_interval(2.5)
        assert iv.p0 == pytest.approx(1 / 3, abs=1e-15)
        assert iv.p1 == pytest.approx(2 / 3, abs=1e-15)

    def test_below_all_keys(self):
        rule = IvapCalibrator.fit([1, 2, 3], [0, 0, 1])
        iv = rule.predict_interval(0.5)
        assert iv.p0 == 0.0
        assert iv.p1 == pytest.approx(1 / 3, abs=1e-15)

    def test_above_all_keys(self):
        rule = IvapCalibrator.fit([1, 2, 3], [0, 0, 1])
        iv = rule.predict_interval(9.0)
        assert iv.p0 == 0.5
        assert iv.p1 == 1.0

    def test_single_heavy_key(self):
        rule = IvapCalibrator.fit([2.0] * 9, [0, 1, 0, 1, 0, 1, 0, 1, 1])
        at = rule.predict_interval(2.0)
        assert (at.p0, at.p1) == (0.5, 0.6)  # 5/10 and 6/10 after pooling
        below = rule.predict_interval(1.0)
        above = rule.predict_interval(3.0)
        assert (below.p0, below.p1) == (0.0, 0.6)
        assert (above.p0, above.p1) == (0.5, 1.0)

    def test_nonfinite_query_rejected(self):
        rule = IvapCalibrator.fit([1, 2, 3], [0, 0, 1])
        for bad in (math.nan, math.inf, -math.inf, np.float64("nan")):
            with pytest.raises(ValueError, match="^test scores must be finite$"):
                rule.predict_interval(bad)
            with pytest.raises(ValueError, match="^test scores must be finite$"):
                rule.predict_intervals(np.array([bad]))

    def test_tree_agrees_with_array_path(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            scores, labels = random_calibration(rng)
            rule = IvapCalibrator.fit(scores, labels)
            queries = np.concatenate([
                rng.normal(scale=3, size=8),
                rule.points.scores[:2],  # exact hits
            ])
            lo, hi = rule.predict_intervals(queries)
            tree = search_tree(rule)
            for q, l, h in zip(queries, lo, hi):
                assert query_tree(tree, float(q)) == (l, h)

    def test_matches_insert_and_refit_oracle(self):
        from oracles import refit_interval

        rng = np.random.default_rng(12)
        for _ in range(150):
            scores, labels = random_calibration(rng)
            rule = IvapCalibrator.fit(scores, labels)
            queries = np.concatenate([
                rng.normal(scale=2, size=4),
                rng.choice(scores, size=2),            # exact key hits
                [scores.min() - 5, scores.max() + 5],  # out of range
            ])
            lo, hi = rule.predict_intervals(queries)
            for q, l, h in zip(queries, lo, hi):
                exp0, exp1 = refit_interval(scores, labels, float(q))
                assert abs(l - exp0) <= 1e-9
                assert abs(h - exp1) <= 1e-9

    def test_rule_monotone_in_score(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            scores, labels = random_calibration(rng)
            rule = IvapCalibrator.fit(scores, labels)
            qs = np.sort(rng.normal(scale=3, size=30))
            lo, hi = rule.predict_intervals(qs)
            assert np.all(np.diff(lo) >= -1e-15)
            assert np.all(np.diff(hi) >= -1e-15)

    def test_interval_bounds_from_class_counts(self):
        rng = np.random.default_rng(66)
        for _ in range(200):
            scores, labels = random_calibration(rng)
            rule = IvapCalibrator.fit(scores, labels)
            qs = rng.normal(scale=3, size=10)
            lo, hi = rule.predict_intervals(qs)
            assert np.all(hi >= 1.0 / (n_negative(rule) + 1) - 1e-12)
            assert np.all(lo <= 1.0 - 1.0 / (n_positive(rule) + 1) + 1e-12)


class TestScalarQuery:
    """The single-score query returns the bits of the batch query on a batch of one."""

    RULE = IvapCalibrator.fit([0.0, 1.0, 2.0, 2.0, 3.5, 5.0], [0, 1, 0, 1, 1, 0])

    @pytest.mark.parametrize("score", [
        0.0, 1.0, 2.0, 3.5, 5.0,  # exact hits
        0.5, 1.5, 2.75, 4.0,  # between keys
        -1e300, -2.0, 5.5, 1e300,  # below and above the range
        -0.0,  # equal to the 0.0 key
        3, np.float64(2.0), np.int64(5), np.array(1.5), np.array(2),
    ], ids=repr)
    def test_bits_equal_batch_of_one(self, score):
        iv = self.RULE.predict_interval(score)
        lo, hi = self.RULE.predict_intervals(np.array([score], dtype=float))
        assert np.array([iv.p0]).tobytes() == lo.tobytes()
        assert np.array([iv.p1]).tobytes() == hi.tobytes()
        assert type(iv.p0) is float and type(iv.p1) is float

    def test_bits_equal_batch_on_random_rules(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            scores, labels = random_calibration(rng)
            rule = IvapCalibrator.fit(scores, labels)
            queries = np.concatenate([rng.normal(scale=8, size=6), rule.points.scores])
            lo, hi = rule.predict_intervals(queries)
            got = np.array([dataclasses.astuple(rule.predict_interval(q))
                            for q in queries.tolist()])
            assert got[:, 0].tobytes() == lo.tobytes()
            assert got[:, 1].tobytes() == hi.tobytes()


class TestProbInterval:
    def test_slotted_frozen_value(self):
        iv = ProbInterval(0.25, 0.75)
        assert not hasattr(iv, "__dict__")
        assert pickle.loads(pickle.dumps(iv)) == iv
        assert copy.deepcopy(iv) == iv
        assert dataclasses.asdict(iv) == {"p0": 0.25, "p1": 0.75}
        assert dataclasses.replace(iv, p0=0.5) == ProbInterval(0.5, 0.75)
        with pytest.raises(dataclasses.FrozenInstanceError):
            iv.p0 = 0.0


@st.composite
def rules_and_batches(draw):
    """A rule on k >= 1 tied integer scores and an unsorted batch with repeats,
    exact key hits, neighbours of keys, scores outside the key range and
    sometimes an infinity."""
    k = draw(st.integers(1, 12))
    scores = draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k))
    labels = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    rule = IvapCalibrator.fit(np.array(scores, dtype=float), labels)
    keys = st.sampled_from(rule.points.scores.tolist())
    score = st.one_of(
        keys,
        keys.map(lambda x: float(np.nextafter(x, -math.inf))),
        keys.map(lambda x: float(np.nextafter(x, math.inf))),
        st.floats(-10.0, 10.0),
        st.sampled_from([-1e300, 1e300]),
    )
    batch = draw(st.lists(score, min_size=1, max_size=40))
    batch += draw(st.lists(st.sampled_from(batch), max_size=10))
    batch = draw(st.permutations(batch))
    infinity = draw(st.sampled_from([None, None, None, -math.inf, math.inf]))
    if infinity is not None:
        batch.insert(draw(st.integers(0, len(batch))), infinity)
    return rule, np.array(batch)


@settings(max_examples=400, deadline=None)
@given(rules_and_batches())
def test_batch_query_matches_where_oracle(case):
    assert_batch_matches_where(*case)


def assert_batch_matches_where(rule, batch):
    if not np.isfinite(batch).all():
        for query in (where_query, IvapCalibrator.predict_intervals):
            with pytest.raises(ValueError, match="^test scores must be finite$"):
                query(rule, batch)
        return
    lo, hi = rule.predict_intervals(batch)
    want_lo, want_hi = where_query(rule, batch)
    assert lo.tobytes() == want_lo.tobytes()
    assert hi.tobytes() == want_hi.tobytes()


@st.composite
def rules_and_packed_batches(draw):
    """A `packed_batches` batch and a rule on up to 12 of its finite values or
    small integers, so the batch hits keys and falls between close ones."""
    batch = draw(packed_batches())
    finite = [x for x in batch if math.isfinite(x)]
    score = st.one_of(st.sampled_from(finite), st.integers(-5, 5).map(float))
    scores = draw(st.lists(score, min_size=1, max_size=12))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)))
    return IvapCalibrator.fit(scores, labels), np.array(batch)


@settings(max_examples=400, deadline=None)
@given(rules_and_packed_batches())
def test_packed_batch_query_matches_where_oracle(case):
    assert_batch_matches_where(*case)


class TestBatchShapes:
    RULE = IvapCalibrator.fit([1, 2, 2, 3, 5, 5], [0, 1, 0, 1, 1, 0])

    @pytest.mark.parametrize("batch", [
        2.0,
        np.float64(4.0),
        [[9.0, 2.0, 0.5], [3.0, 1.0, 2.5]],
        np.array([[5.0, 0.0, 3.0, 4.0], [2.0, 6.0, 1.0, 2.0], [0.5, 5.0, 2.0, 1.5]]).T,
        np.arange(24.0)[::-1].reshape(2, 3, 4) % 7,
        [3.0, 0.0, 2.0, 2.0, 7.5],
        [],
        np.empty((0, 3)),
    ], ids=["0d_float", "0d_numpy", "2d_list", "2d_transposed", "3d", "list", "empty",
            "empty_2d"])
    def test_shape_and_values_match_oracle(self, batch):
        lo, hi = self.RULE.predict_intervals(batch)
        want_lo, want_hi = where_query(self.RULE, batch)
        for got, want in ((lo, want_lo), (hi, want_hi)):
            assert type(got) is np.ndarray and got.dtype == np.float64
            assert got.shape == want.shape == np.shape(batch)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("position", [0, 4, 8])
    def test_nan_anywhere_rejected(self, position):
        batch = np.array([5.0, -9.0, 2.0, 0.0, 3.0, 1.0, 4.0, 9.0, 2.5])
        batch[position] = math.nan
        for shaped in (batch, batch[::-1], batch.reshape(3, 3), batch.reshape(3, 3).T,
                       batch[position], batch.tolist()):
            with pytest.raises(ValueError, match="^test scores must be finite$"):
                self.RULE.predict_intervals(shaped)

    def test_curves_are_views_of_the_padded_tables(self):
        rule = self.RULE
        assert np.shares_memory(rule.p0, rule._lower) and np.shares_memory(rule.p1, rule._upper)
        assert rule._lower.tolist() == [0.0] + rule.p0.tolist()
        assert rule._upper.tolist() == rule.p1.tolist() + [1.0]


class TestPointPredictions:
    def test_identity_when_interval_degenerate(self):
        for q in (0.2, 0.5, 0.9):
            assert merge(q, q, "log") == pytest.approx(q, abs=1e-15)
            assert merge(q, q, "brier") == pytest.approx(q, abs=1e-15)

    def test_log_formula(self):
        assert merge(0.2, 0.4, "log") == pytest.approx(1 / 3, abs=1e-15)

    def test_brier_formula(self):
        assert merge(0.2, 0.4, "brier") == pytest.approx(0.34, abs=1e-15)

    def test_batch_prediction_matches_scalar_path(self):
        rng = np.random.default_rng(42)
        scores, labels = random_calibration(rng)
        rule = IvapCalibrator.fit(scores, labels)
        qs = rng.normal(scale=2, size=15)
        for loss in ("log", "brier"):
            batch = rule.predict_many(qs, loss=loss)
            singles = np.array([rule.predict(float(q), loss=loss) for q in qs])
            assert batch.tobytes() == singles.tobytes()

    def test_log_prediction_within_count_bounds(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            scores, labels = random_calibration(rng)
            rule = IvapCalibrator.fit(scores, labels)
            p = rule.predict_many(rng.normal(scale=3, size=10), loss="log")
            lo_bound = 1.0 / (n_negative(rule) + 2)
            hi_bound = 1.0 - 1.0 / (n_positive(rule) + 2)
            assert np.all(p >= lo_bound - 1e-12)
            assert np.all(p <= hi_bound + 1e-12)


@settings(max_examples=150, deadline=None)
@given(calibration_sets(), st.data())
def test_intervals_are_the_insert_and_refit_intervals(case, data):
    from oracles import refit_interval

    scores, labels = case
    rule = IvapCalibrator.fit(scores, labels)
    # exact hits, ties, and scores between, below and above the calibration scores
    query = st.one_of(st.sampled_from(scores), st.integers(-7, 7).map(float),
                      st.floats(allow_nan=False, allow_infinity=False))
    queries = data.draw(st.lists(query, min_size=1, max_size=4))
    lo, hi = rule.predict_intervals(np.array(queries))
    for q, l, h in zip(queries, lo.tolist(), hi.tolist()):
        want = refit_interval(scores, labels, q)
        assert (l, h) == want
        assert dataclasses.astuple(rule.predict_interval(q)) == want


@st.composite
def rules_and_scalar_queries(draw):
    """A fitted rule, and queries at, next to, between and outside its keys."""
    scores, labels = draw(calibration_sets())
    rule = IvapCalibrator.fit(scores, labels)
    key = st.sampled_from(rule.points.scores.tolist())
    neighbour = st.tuples(key, st.sampled_from([-math.inf, math.inf])).map(
        lambda pair: math.nextafter(*pair)).filter(math.isfinite)
    query = st.one_of(key, neighbour, st.sampled_from([0.0, -0.0]),
                      st.sampled_from([-1.7976931348623157e308, 1.7976931348623157e308]),
                      st.integers(-7, 7).map(float),
                      st.floats(allow_nan=False, allow_infinity=False))
    return rule, draw(st.lists(query, min_size=1, max_size=12))


@settings(max_examples=300, deadline=None)
@given(rules_and_scalar_queries())
@example((IvapCalibrator.fit([0.0], [1]), [-0.0, 0.0, -5e-324, 5e-324]))  # k = 1, signed zeros
def test_bisection_of_the_list_tables_has_the_batch_bits(case):
    rule, queries = case
    lo, hi = rule.predict_intervals(np.array(queries))
    pairs = np.array([rule._pair(q) for q in queries])
    assert pairs[:, 0].tobytes() == lo.tobytes()
    assert pairs[:, 1].tobytes() == hi.tobytes()
    intervals = [dataclasses.astuple(rule.predict_interval(q)) for q in queries]
    assert np.array(intervals).tobytes() == pairs.tobytes()
    for loss in ("log", "brier"):
        singles = np.array([rule.predict(q, loss) for q in queries])
        assert singles.tobytes() == rule.predict_many(queries, loss).tobytes()


def test_only_a_single_score_query_builds_the_list_tables():
    # a rule that answers only batches (k = 1e6 in the benchmark) must not
    # carry a second, list copy of its tables
    rng = np.random.default_rng(4)
    rule = IvapCalibrator.fit(rng.normal(size=50), rng.integers(0, 2, size=50))
    queries = rng.normal(size=20)
    rule.predict_intervals(queries)
    rule.predict_many(queries, "brier")
    assert "_lists" not in vars(rule)
    rule.predict_interval(0.3)
    assert "_lists" in vars(rule)


@pytest.mark.parametrize("score, loss, message", [
    (math.nan, "hinge", "test scores must be finite"),
    (math.inf, "log", "test scores must be finite"),
    (0.3, "hinge", "unknown loss 'hinge'"),
])
def test_a_single_prediction_fails_as_its_batch_does(score, loss, message):
    # the score is checked before the loss, in `predict` as in `predict_many`
    rule = IvapCalibrator.fit([0.0, 1.0, 1.0], [0, 1, 0])
    for call, arg in ((rule.predict, score), (rule.predict_many, [score])):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(arg, loss)
    assert type(rule.predict(0.3)) is type(rule.predict(0.3, "brier")) is float


def test_two_tied_blocks_give_exact_curves():
    rule = IvapCalibrator.fit([0.0] * 150 + [1.0] * 150, [0] * 150 + [1] * 150)
    assert rule.points.scores.tolist() == [0.0, 1.0]
    assert rule.points.weights.tolist() == [150, 150]
    assert rule.p0.tolist() == [0.0, 150 / 151]
    assert rule.p1.tolist() == [1 / 151, 1.0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(FINITE, st.integers(0, 1)), min_size=1, max_size=30),
       st.lists(FINITE, min_size=1, max_size=8), st.sampled_from(["log", "brier"]), st.data())
def test_ivap_answers_any_finite_input_in_range(pairs, queries, loss, data):
    # a RuntimeWarning fails this test (the pytest filterwarnings setting)
    scores, labels = (list(column) for column in zip(*pairs))
    if data.draw(st.booleans()):  # one label that may be neither 0 nor 1
        labels[data.draw(st.integers(0, len(labels) - 1))] = data.draw(FINITE)
    try:
        rule = IvapCalibrator.fit(scores, labels)
    except ValueError as error:
        assert str(error) == "labels must be 0 or 1"
        assert not all(t in (0, 1) for t in labels)
        return
    lo, hi = rule.predict_intervals(queries)
    assert ((0.0 <= lo) & (lo < hi) & (hi <= 1.0)).all()
    p = rule.predict_many(queries, loss)
    assert ((0.0 <= p) & (p <= 1.0)).all()
    # single answers: the bits of the batch
    assert [rule.predict_interval(q) for q in queries] == list(map(ProbInterval, lo, hi))
    assert [rule.predict(q, loss) for q in queries] == p.tolist()


@pytest.mark.parametrize("loss", ["log", "brier"])
def test_a_0d_score_predicts_the_bits_of_its_single_prediction(loss):
    # a 0-d score is one query, as it is for `predict_intervals` and direct isotonic
    rule = IvapCalibrator.fit([0.0, 1.0, 1.0, 2.0], [0, 1, 0, 1])
    for score in (-1.0, 0.5, 1.0, 3.0):
        p = rule.predict_many(np.float64(score), loss)
        assert np.shape(p) == ()
        assert np.float64(p).tobytes() == np.float64(rule.predict(score, loss)).tobytes()
