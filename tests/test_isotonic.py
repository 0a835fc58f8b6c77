import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

from oracles import brute_force_lower_hull, mean_labels, stable_dedup
from strategies import calibration_sets
from venncal.isotonic import (
    WeightedPoints,
    _csd,
    _graham_scan,
    _lower_hull,
    dedup_weighted,
    fit_isotonic,
    lower_prob_scan,
    upper_prob_scan,
)


def random_points(rng, max_k=8, ties=True):
    k = int(rng.integers(1, max_k + 1))
    if ties:
        scores = rng.integers(0, max(2, k), size=k).astype(float)
    else:
        scores = rng.normal(size=k)
    labels = rng.integers(0, 2, size=k)
    return dedup_weighted(scores, labels)


class TestDedup:
    def test_no_duplicates(self):
        pts = dedup_weighted([1, 2, 3], [0, 0, 1])
        assert pts.scores.tolist() == [1, 2, 3]
        assert pts.weights.tolist() == [1, 1, 1]
        assert mean_labels(pts).tolist() == [0, 0, 1]

    def test_duplicates_merge(self):
        pts = dedup_weighted([1, 1, 2], [0, 1, 1])
        assert pts.scores.tolist() == [1, 2]
        assert pts.weights.tolist() == [2, 1]
        assert mean_labels(pts).tolist() == [0.5, 1.0]

    def test_singleton(self):
        pts = dedup_weighted([5], [1])
        assert pts.scores.tolist() == [5]
        assert pts.weights.tolist() == [1]
        assert mean_labels(pts).tolist() == [1.0]

    def test_unsorted_input(self):
        pts = dedup_weighted([3, 1, 1, 2], [1, 0, 1, 0])
        assert pts.scores.tolist() == [1, 2, 3]
        assert pts.weights.tolist() == [2, 1, 1]
        assert pts.label_sums.tolist() == [1.0, 0.0, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty calibration set"):
            dedup_weighted([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            dedup_weighted([1, 2], [0])

    @pytest.mark.parametrize("scores, labels", [([[1.0, 2.0]], [0, 1]), ([1.0, 2.0], [[0, 1]])])
    def test_two_dimensional_input_rejected(self, scores, labels):
        with pytest.raises(ValueError, match="^scores and labels must be one-dimensional$"):
            dedup_weighted(scores, labels)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            dedup_weighted([1, float("nan")], [0, 1])

    # on some CPUs numpy's vectorized sort puts the second zero first in the last two
    @pytest.mark.parametrize("scores", [[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0],
                                        [0.0, -0.0, -1.0, -1.0], [-0.0, 0.0, -1.0, -1.0]])
    def test_signed_zero_tie_keeps_first_occurrence(self, scores):
        labels = [1, 0, 1, 0][:len(scores)]
        pts = dedup_weighted(scores, labels)
        assert_same_points(pts, stable_dedup(scores, labels))
        zero = pts.scores.tolist().index(0.0)
        assert math.copysign(1.0, pts.scores[zero]) == math.copysign(1.0, scores[0])
        assert pts.weights[zero] == 2


def assert_same_points(got, want):
    for field in ("scores", "weights", "label_sums"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert a.tobytes() == b.tobytes(), field


# few values, so ties are heavy; signed zeros and infinities in any order
TIE_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, np.inf, -np.inf]


@st.composite
def dedup_inputs(draw):
    """Scores with heavy ties, scores rounded to a few decimals, a single score,
    all-equal scores, or the dummy-endpoint shape (-inf first, +inf last), each
    with 0/1 labels."""
    k = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["ties", "rounded", "equal", "endpoints"]))
    if kind == "ties":
        scores = draw(st.lists(st.sampled_from(TIE_VALUES), min_size=k, max_size=k))
    elif kind == "rounded":
        floats = st.floats(-2.0, 2.0, allow_nan=False)
        scores = [round(v, 1) for v in draw(st.lists(floats, min_size=k, max_size=k))]
    elif kind == "equal":
        scores = [draw(st.sampled_from(TIE_VALUES))] * k
    else:
        inner = draw(st.lists(st.sampled_from(TIE_VALUES[:6]), min_size=k, max_size=k))
        scores = [-np.inf] + inner + [np.inf]
    labels = draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)))
    return np.array(scores), np.array(labels, dtype=float)


@settings(max_examples=400, deadline=None)
@given(dedup_inputs())
def test_dedup_matches_stable_oracle(case):
    scores, labels = case
    assert_same_points(dedup_weighted(scores, labels), stable_dedup(scores, labels))


@settings(max_examples=300, deadline=None)
@given(dedup_inputs(), st.data())
def test_dedup_shuffle_invariant(case, data):
    """For 0/1 labels the output depends only on the multiset of (score, label)
    pairs, whatever order the sort leaves a tie in; the one exception is the
    sign of a 0.0/-0.0 tie, which follows the first zero of the input."""
    scores, labels = case
    perm = np.array(data.draw(st.permutations(range(len(scores)))), dtype=np.intp)
    assert_shuffle_invariant(scores, labels, perm)


def assert_shuffle_invariant(scores, labels, perm):
    base = dedup_weighted(scores, labels)
    moved = dedup_weighted(scores[perm], labels[perm])
    assert moved.weights.tobytes() == base.weights.tobytes()
    assert moved.label_sums.tobytes() == base.label_sums.tobytes()
    zero = moved.scores == 0.0
    assert moved.scores[~zero].tobytes() == base.scores[~zero].tobytes()
    if zero.any():
        first = scores[perm][np.argmax(scores[perm] == 0.0)]
        assert moved.scores[zero].tobytes() == np.array([first]).tobytes()


def test_dedup_large_ties_match_oracle_under_shuffles():
    # large enough for numpy's vectorized unstable sort, not its small-array path
    rng = np.random.default_rng(7)
    k = 20_000
    for scores in (np.round(rng.normal(size=k), 2),
                   rng.choice(np.array(TIE_VALUES), size=k),
                   np.where(rng.random(k) < 0.5, 0.0, -0.0)):
        labels = (rng.random(k) < 0.3).astype(float)
        assert_same_points(dedup_weighted(scores, labels), stable_dedup(scores, labels))
        for _ in range(3):
            assert_shuffle_invariant(scores, labels, rng.permutation(k))


class TestFitIsotonic:
    def test_single_pooled_block(self):
        pts = dedup_weighted([1, 2], [1, 0])
        assert fit_isotonic(pts).tolist() == [0.5, 0.5]

    def test_already_monotone(self):
        pts = dedup_weighted([1, 2, 3], [0, 1, 1])
        assert fit_isotonic(pts).tolist() == [0, 1, 1]

    def test_weighted_instance(self):
        # w=(1,2,1,1), y'=(0,1,0,1): pooling the middle pair gives 2/3
        scores = [1, 2, 2, 3, 4]
        labels = [0, 1, 1, 0, 1]
        fit = fit_isotonic(dedup_weighted(scores, labels))
        assert np.allclose(fit, [0, 2 / 3, 2 / 3, 1], atol=1e-12)

    def test_matches_brute_force(self):
        from oracles import brute_force_isotonic

        rng = np.random.default_rng(13)
        for _ in range(200):
            pts = random_points(rng)
            assert np.allclose(fit_isotonic(pts), brute_force_isotonic(pts), atol=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda top: st.lists(
        st.tuples(st.integers(0, top), st.integers(0, 1)), min_size=1, max_size=60)))
    def test_matches_scipy_pava(self, draws):
        # up to 60 draws over at most 6 distinct scores: heavy ties, and k = 1
        # whenever the top score is 0
        pts = dedup_weighted(*zip(*draws))
        want = isotonic_regression(mean_labels(pts), weights=pts.weights).x
        assert np.max(np.abs(fit_isotonic(pts) - want)) <= 1e-12

    def test_nondecreasing_and_level_set_means(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            pts = random_points(rng, max_k=12)
            fit = fit_isotonic(pts)
            assert np.all(np.diff(fit) >= -1e-15)
            for v in np.unique(fit):
                mask = fit == v
                mean = np.sum(mean_labels(pts)[mask] * pts.weights[mask]) / np.sum(
                    pts.weights[mask])
                assert abs(mean - v) <= 1e-12

    def test_corner_slopes_increase(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            pts = random_points(rng, max_k=12)
            cx, cy = _lower_hull(*_csd(pts))
            slopes = np.diff(cy) / np.diff(cx)
            assert np.all(np.diff(slopes) > 0)


class TestProbCurves:
    def test_table_rows_upper(self):
        up = upper_prob_scan(dedup_weighted([1, 2, 3], [0, 0, 1])).values
        assert np.allclose(up, [1 / 3, 1 / 2, 1], atol=1e-15)
        up = upper_prob_scan(dedup_weighted([1, 2, 3], [1, 1, 1])).values
        assert up.tolist() == [1, 1, 1]
        up = upper_prob_scan(dedup_weighted([1, 2, 3, 4], [1, 0, 1, 0])).values
        assert np.allclose(up, [3 / 5, 3 / 5, 2 / 3, 2 / 3], atol=1e-15)

    def test_table_rows_lower(self):
        lo = lower_prob_scan(dedup_weighted([1, 2, 3], [0, 0, 1])).values
        assert np.allclose(lo, [0, 0, 1 / 2], atol=1e-15)
        lo = lower_prob_scan(dedup_weighted([1, 2, 3], [0, 0, 0])).values
        assert lo.tolist() == [0, 0, 0]
        lo = lower_prob_scan(dedup_weighted([1, 2, 3, 4], [1, 1, 0, 1])).values
        assert np.allclose(lo, [1 / 2, 1 / 2, 1 / 2, 3 / 5], atol=1e-15)

    def test_constant_label_extremes(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(1, 10))
            scores = rng.normal(size=k)
            lo = lower_prob_scan(dedup_weighted(scores, np.zeros(k))).values
            up = upper_prob_scan(dedup_weighted(scores, np.ones(k))).values
            assert lo.tolist() == [0.0] * k
            assert up.tolist() == [1.0] * k

    def test_monotone_and_separated(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            pts = random_points(rng, max_k=12)
            lo = lower_prob_scan(pts).values
            up = upper_prob_scan(pts).values
            assert np.all(np.diff(lo) >= -1e-15)
            assert np.all(np.diff(up) >= -1e-15)
            assert np.all(lo < up)

    def test_symmetry_identity_exact(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            k = int(rng.integers(1, 13))
            scores = rng.integers(0, max(2, k), size=k).astype(float)
            labels = rng.integers(0, 2, size=k)
            lo = lower_prob_scan(dedup_weighted(scores, labels))
            up = upper_prob_scan(dedup_weighted(-scores, 1 - labels))
            k2 = len(lo.values)
            for i in range(k2):
                lhs = Fraction(int(lo.num[i]), int(lo.den[i]))
                rhs = 1 - Fraction(int(up.num[k2 - 1 - i]), int(up.den[k2 - 1 - i]))
                assert lhs == rhs

    def test_push_counts_linear(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            pts = random_points(rng, max_k=30, ties=False)
            k = len(pts)
            for scan in (lower_prob_scan(pts), upper_prob_scan(pts)):
                assert scan.corner_pushes <= 2 * k + 2
                assert scan.sweep_pushes <= 2 * k + 2

    def test_slope_components_reproduce_values(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            pts = random_points(rng, max_k=10)
            for scan in (lower_prob_scan(pts), upper_prob_scan(pts)):
                assert np.array_equal(scan.num / scan.den, scan.values)
                assert np.all(scan.den >= 1)

    def test_curves_match_per_score_refits_at_scale(self):
        # the sweep must agree with one full refit per distinct score: insert
        # the test point just beside the score and read the fit at its slot
        rng = np.random.default_rng(7)
        for trial in range(12):
            k = 150
            if trial % 2:
                scores = rng.normal(size=k)
            else:
                scores = rng.integers(0, 40, size=k).astype(float)
            labels = rng.integers(0, 2, size=k)
            pts = dedup_weighted(scores, labels)
            up = upper_prob_scan(pts).values
            lo = lower_prob_scan(pts).values
            gaps = np.diff(np.concatenate([[pts.scores[0] - 2], pts.scores,
                                           [pts.scores[-1] + 2]]))
            for i, s in enumerate(pts.scores):
                left = s - 0.25 * gaps[i]
                right = s + 0.25 * gaps[i + 1]
                ref1 = dedup_weighted(np.append(scores, left), np.append(labels, 1.0))
                fit1 = fit_isotonic(ref1)
                assert abs(fit1[np.searchsorted(ref1.scores, left)] - up[i]) <= 1e-9
                ref0 = dedup_weighted(np.append(scores, right), np.append(labels, 0.0))
                fit0 = fit_isotonic(ref0)
                assert abs(fit0[np.searchsorted(ref0.scores, right)] - lo[i]) <= 1e-9


def fractions(scan) -> list[Fraction]:
    return [Fraction(int(n), int(d)) for n, d in zip(scan.num, scan.den)]


@settings(max_examples=200, deadline=None)
@given(calibration_sets())
@example(([0.5], [1]))
@example(([3.0, -1.0, 3.0, 0.0], [1, 0, 0, 1]))
def test_mirror_identity_exact_on_drawn_sets(case):
    # the lower curve of (s, y) is one minus the upper curve of (-s, 1 - y) read
    # backwards, in the sweep's exact slope components
    s, y = np.array(case[0]), np.array(case[1])
    lo = lower_prob_scan(dedup_weighted(s, y))
    up = upper_prob_scan(dedup_weighted(-s, 1 - y))
    assert fractions(lo) == [1 - f for f in fractions(up)[::-1]]


# ---- the run-skipping sweep against the one-step-at-a-time oracle --------

def mirrored(pts):
    w = pts.weights
    return WeightedPoints(-pts.scores[::-1], w[::-1], (w - pts.label_sums)[::-1])


def assert_sweep_matches_stepwise(pts):
    from oracles import stepwise_upper_prob_scan

    for p in (pts, mirrored(pts)):
        got, want = upper_prob_scan(p), stepwise_upper_prob_scan(p)
        for field in ("values", "num", "den"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        assert (got.corner_pushes, got.sweep_pushes) == (want.corner_pushes, want.sweep_pushes)


def one_label_per_score(labels):
    labels = np.asarray(labels, dtype=float)
    return dedup_weighted(np.arange(len(labels), dtype=float), labels)


# pushes exactly at, and one step either side of, the end of the one-step
# streak (32 steps) and of the numpy windows after it (128, 512, 2048 steps)
BOUNDARY_GAPS = [31, 32, 33, 159, 160, 161, 671, 672, 673, 2719, 2720, 2721]


class TestSweepMatchesStepwise:
    def test_empty_input(self):
        e = np.empty(0)
        assert_sweep_matches_stepwise(WeightedPoints(e, e.astype(np.int64), e))

    def test_every_small_input(self):
        # k = 1-3 distinct scores, weights 1-3, every label sum
        cells = [(w, s) for w in (1, 2, 3) for s in range(w + 1)]
        for k in (1, 2, 3):
            for combo in itertools.product(cells, repeat=k):
                w, s = np.array(combo, dtype=float).T
                assert_sweep_matches_stepwise(
                    WeightedPoints(np.arange(k, dtype=float), w.astype(np.int64), s))

    @pytest.mark.parametrize("kind", ["ties", "continuous", "logistic", "anti_monotone"])
    def test_generated_scores(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(40):
            k = int(rng.integers(1, 3000))
            scores = rng.normal(size=k)
            if kind == "ties":
                scores = np.round(scores, 1)
            p = 1.0 / (1.0 + np.exp(-2.0 * scores))
            if kind == "continuous":
                p = np.full(k, 0.5)
            elif kind == "anti_monotone":
                p = 1.0 - p
            assert_sweep_matches_stepwise(dedup_weighted(scores, rng.random(k) < p))

    @pytest.mark.parametrize("labels", [
        np.arange(5001) % 2,                 # period 1: a push every other step
        (np.arange(5001) // 2) % 2,          # period 2
        np.ones(5001),
        np.zeros(5001),
        (np.arange(5001) < 2500).astype(float),  # anti-monotone
    ], ids=["alternate1", "alternate2", "all_ones", "all_zeros", "ones_then_zeros"])
    def test_label_patterns(self, labels):
        assert_sweep_matches_stepwise(one_label_per_score(labels))

    @pytest.mark.parametrize("gap", BOUNDARY_GAPS)
    def test_runs_ending_at_search_boundaries(self, gap):
        # labels all 1 but a 0 at score `gap`: the first push of the sweep
        # comes exactly at step `gap`, so the first run is `gap` steps long
        labels = np.ones(gap + 40)
        labels[gap - 1] = 0
        pts = one_label_per_score(labels)
        up = upper_prob_scan(pts)
        assert np.all(up.values[:gap] == up.values[0]) and up.values[gap] != up.values[0]
        assert_sweep_matches_stepwise(pts)

    def test_runs_crossing_boundaries_mid_sweep(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            zeros = np.cumsum(rng.permutation(BOUNDARY_GAPS))
            labels = np.ones(zeros[-1] + 100)
            labels[zeros - 1] = 0
            assert_sweep_matches_stepwise(one_label_per_score(labels))


@st.composite
def integer_polylines(draw):
    """1-33 vertices with integer coordinates and x strictly increasing, built
    from runs of equal steps: collinear vertices and repeated slopes."""
    xs, ys = [float(draw(st.integers(-5, 5)))], [float(draw(st.integers(-5, 5)))]
    runs = st.tuples(st.integers(1, 3), st.integers(-3, 3), st.integers(1, 4))
    for dx, dy, count in draw(st.lists(runs, max_size=8)):
        for _ in range(count):
            xs.append(xs[-1] + dx)
            ys.append(ys[-1] + dy)
    return xs, ys


class TestLowerHull:
    @settings(max_examples=300, deadline=None)
    @given(integer_polylines())
    @example(([2.0], [-1.0]))
    @example(([0.0, 1.0], [3.0, -2.0]))
    @example(([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0]))
    def test_matches_brute_force(self, line):
        xs, ys = line
        want = brute_force_lower_hull(xs, ys)
        assert _graham_scan(xs, ys) == want
        assert _lower_hull(np.array(xs), np.array(ys)) == want

    @pytest.mark.parametrize("name", ["convex", "low_end", "random_walk"])
    def test_matches_graham_scan(self, name):
        n = 3000
        x = np.arange(n, dtype=float)
        if name == "convex":
            y = x * x        # every turn is strictly left: a round removes nothing
        else:
            y = np.cumsum(np.random.default_rng(2).integers(-1, 2, size=n)).astype(float)
            if name == "low_end":
                y[-1] = -1e9  # the hull is the two endpoints
        assert _lower_hull(x, y) == _graham_scan(x.tolist(), y.tolist())


class TestExactRange:
    # the largest total weight W with (W + 1)^2 <= 2^53
    W_MAX = math.isqrt(2 ** 53) - 1

    def points(self, total, weights=None, sums=None):
        w = np.array([1, total - 3, 2] if weights is None else weights)
        s = np.array([0.0, 7.0, 2.0] if sums is None else sums)
        return WeightedPoints(np.arange(len(w), dtype=float), w, s)

    def test_largest_total_weight_is_exact(self):
        assert_sweep_matches_stepwise(self.points(self.W_MAX))

    @pytest.mark.parametrize("scan", [upper_prob_scan, lower_prob_scan])
    def test_larger_total_weight_rejected(self, scan):
        with pytest.raises(ValueError, match=r"\(W \+ 1\)\^2 <= 2\^53"):
            scan(self.points(self.W_MAX + 1))

    @pytest.mark.parametrize("weights, sums", [([1, 2], [0.5, 1.0]), ([1.5, 2.0], [1.0, 1.0])])
    @pytest.mark.parametrize("scan", [upper_prob_scan, lower_prob_scan])
    def test_non_integer_components_rejected(self, scan, weights, sums):
        with pytest.raises(ValueError, match="integer weights and label sums"):
            scan(self.points(0, weights, sums))

    def test_fit_reaches_the_check(self, monkeypatch):
        import venncal.ivap

        monkeypatch.setattr(venncal.ivap, "dedup_weighted",
                            lambda s, y: self.points(self.W_MAX + 1))
        with pytest.raises(ValueError, match="integer weights and label sums"):
            venncal.ivap.IvapCalibrator.fit([0.0, 1.0], [0, 1])
