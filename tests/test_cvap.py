import json

import numpy as np
import pytest

import venncal.cvap
from venncal.cvap import CvapCalibrator, assign_folds
from venncal.data import Column, Dataset, generate_synthetic
from venncal.exceptions import DegenerateModelError
from venncal.ivap import IvapCalibrator
from venncal.scorers import ScorerSpec, train_scorer


class TestAssignFolds:
    def test_contiguous_sizes_ten_three(self):
        folds = assign_folds(10, 3)
        assert folds.sizes().tolist() == [4, 3, 3]
        assert folds.fold_of[:4].tolist() == [0, 0, 0, 0]

    def test_divisible_case(self):
        assert assign_folds(9, 3).sizes().tolist() == [3, 3, 3]

    def test_protocol_sizes_large(self):
        assert assign_folds(32561, 5).sizes().tolist() == [6513, 6512, 6512, 6512, 6512]

    def test_randomized_preserves_size_multiset(self):
        folds = assign_folds(10, 3, mode="randomized", seed=7)
        assert sorted(folds.sizes().tolist()) == [3, 3, 4]
        assert folds.mode == "randomized"

    def test_randomized_deterministic_under_seed(self):
        a = assign_folds(50, 4, mode="randomized", seed=3)
        b = assign_folds(50, 4, mode="randomized", seed=3)
        assert np.array_equal(a.fold_of, b.fold_of)

    def test_size_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 500))
            n_folds = int(rng.integers(2, n + 1))
            folds = assign_folds(n, n_folds)
            assert np.all(np.abs(folds.sizes() - n / n_folds) < 1)
            # partition: disjoint and covering
            assert np.sum(folds.sizes()) == n

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            assign_folds(5, 1)
        with pytest.raises(ValueError):
            assign_folds(3, 4)


def small_dataset(n=200, seed=0):
    return generate_synthetic(n, seed)


def spy_on_train_scorer(monkeypatch) -> list:
    """Record the (X, y) that each scorer `CvapCalibrator.fit` trains receives."""
    seen = []

    def spy(spec, X, y):
        seen.append((X.copy(), y.copy()))
        return train_scorer(spec, X, y)

    monkeypatch.setattr(venncal.cvap, "train_scorer", spy)
    return seen


def assert_trained_on_complements(seen, ds, folds):
    """Fold k's scorer saw exactly the rows outside fold k, row for row."""
    assert len(seen) == folds.n_folds
    for k, (X, y) in enumerate(seen):
        rest = folds.complement(k)
        assert np.array_equal(X, ds.X[rest])
        assert np.array_equal(y, ds.y[rest])


class TestBuild:
    def test_two_folds_structure(self):
        model = CvapCalibrator.fit(small_dataset(200), 2, ScorerSpec("constant"))
        assert model.folds.n_folds == 2
        sizes = [int(np.sum(r.points.weights)) for r in model.rules]
        assert sizes == [100, 100]

    def test_scorers_never_see_their_fold(self, monkeypatch):
        ds = small_dataset(90, seed=4)
        seen = spy_on_train_scorer(monkeypatch)
        model = CvapCalibrator.fit(ds, 3, ScorerSpec("constant"))
        assert_trained_on_complements(seen, ds, model.folds)
        for k in range(3):
            fold = set(model.folds.indices(k).tolist())
            train = set(model.folds.complement(k).tolist())
            assert fold.isdisjoint(train)
            assert fold | train == set(range(len(ds)))
            # the constant scorer exposes exactly what it was trained on
            expected_rate = float(np.mean(ds.y[sorted(train)]))
            assert model.scorers[k].value == expected_rate

    def test_degenerate_fold_rejected(self):
        # leave-one-out: every fold has a single observation, hence one class
        X = np.arange(6, dtype=float)[:, None]
        y = np.array([0, 1, 0, 1, 0, 1])
        ds = Dataset(X, y, ())
        with pytest.raises(DegenerateModelError, match="degenerate fold"):
            CvapCalibrator.fit(ds, 6, ScorerSpec("constant"))

    def test_single_class_complement_rejected(self):
        X = np.arange(4, dtype=float)[:, None]
        y = np.array([0, 0, 1, 1])
        ds = Dataset(X, y, ())
        # fold 0 = {0,1} leaves complement {2,3} single-class
        with pytest.raises(DegenerateModelError, match="degenerate fold"):
            CvapCalibrator.fit(ds, 2, ScorerSpec("constant"))


class TestPredict:
    def test_prediction_in_open_interval(self):
        ds = small_dataset(300, seed=1)
        model = CvapCalibrator.fit(ds, 3, ScorerSpec("logistic"))
        p = model.predict_many(np.linspace(-4, 4, 50)[:, None])
        assert np.all(p > 0) and np.all(p < 1)

    def test_log_bound_from_largest_fold(self):
        rng = np.random.default_rng(9)
        for seed in range(20):
            ds = small_dataset(int(rng.integers(20, 80)), seed=seed)
            try:
                model = CvapCalibrator.fit(ds, 3, ScorerSpec("logistic"))
            except DegenerateModelError:
                continue
            k_max = int(np.max(model.folds.sizes()))
            p = model.predict_many(rng.normal(size=(25, 1)) * 3)
            assert np.all(p >= 1.0 / (k_max + 2) - 1e-12)
            assert np.all(p <= 1.0 - 1.0 / (k_max + 2) + 1e-12)

    def test_deterministic_under_seed(self):
        ds = small_dataset(120, seed=5)
        X = np.linspace(-3, 3, 40)[:, None]
        a = CvapCalibrator.fit(ds, 4, ScorerSpec("logistic"), mode="randomized", seed=11)
        b = CvapCalibrator.fit(ds, 4, ScorerSpec("logistic"), mode="randomized", seed=11)
        assert np.array_equal(a.predict_many(X), b.predict_many(X))

    def test_brier_merge_selectable(self):
        ds = small_dataset(150, seed=2)
        model = CvapCalibrator.fit(ds, 3, ScorerSpec("logistic"), merge_loss="brier")
        lo, hi = model.predict_intervals_many(np.array([[0.3]]))
        expected = float(np.mean(hi[:, 0] + 0.5 * lo[:, 0] ** 2 - 0.5 * hi[:, 0] ** 2))
        assert model.predict(np.array([0.3])) == pytest.approx(expected, abs=1e-12)

    def test_feature_width_mismatch_rejected(self):
        ds = small_dataset(100, seed=3)
        model = CvapCalibrator.fit(ds, 2, ScorerSpec("logistic"))
        with pytest.raises(ValueError, match="dimension"):
            model.predict_many(np.zeros((3, 2)))

    def test_matches_first_principles_oracle(self, monkeypatch):
        # recompute one prediction from scratch: per fold, refit isotonic with
        # the test point appended under both labels, then merge by hand
        from oracles import refit_interval

        ds = small_dataset(90, seed=17)
        seen = spy_on_train_scorer(monkeypatch)
        model = CvapCalibrator.fit(ds, 3, ScorerSpec("logistic"))
        assert_trained_on_complements(seen, ds, model.folds)
        for x in (np.array([-1.2]), np.array([0.4]), np.array([2.0])):
            lows, highs = [], []
            for k in range(3):
                fold = model.folds.indices(k)
                scorer = model.scorers[k]
                cal = scorer.score_many(ds.X[fold])
                p0, p1 = refit_interval(cal, ds.y[fold], scorer.score_many(x[None])[0])
                lows.append(p0)
                highs.append(p1)
            gm_hi = np.exp(np.mean(np.log(highs)))
            gm_lo = np.exp(np.mean(np.log(1.0 - np.asarray(lows))))
            expected = gm_hi / (gm_lo + gm_hi)
            assert model.predict(x) == pytest.approx(expected, abs=1e-9)


class TestScalarPredict:
    """`predict(x)` answers with the bits of `predict_many(x[None])[0]`."""

    @pytest.mark.parametrize("kind", ["logistic", "stump", "constant"])
    @pytest.mark.parametrize("n_folds", [2, 5])
    @pytest.mark.parametrize("loss", ["log", "brier"])
    def test_bits_equal_batch_of_one(self, kind, n_folds, loss):
        ds = small_dataset(240, seed=6)
        model = CvapCalibrator.fit(ds, n_folds, ScorerSpec(kind), merge_loss=loss)
        rows = np.concatenate([np.random.default_rng(3).normal(0.5, 2.0, size=(30, 1)),
                               ds.X[:10]])
        for x in rows:
            got = model.predict(x)
            assert type(got) is float
            assert np.array([got]).tobytes() == model.predict_many(x[None]).tobytes()

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("n_folds", [2, 5, 8, 10, 17])
    @pytest.mark.parametrize("loss", ["log", "brier"])
    def test_row_bits_do_not_depend_on_the_batch(self, d, n_folds, loss):
        # numpy sums a (K, 1) batch pairwise from K = 8 on, a (K, n) one in
        # order; a row's K intervals merge as two lists of floats
        rng = np.random.default_rng(17)
        y = rng.integers(0, 2, size=400)
        X = y[:, None] + rng.standard_normal((400, d))
        ds = Dataset(X, y, tuple(Column(f"x{j}", "numeric") for j in range(d)))
        model = CvapCalibrator.fit(ds, n_folds, ScorerSpec("logistic"), merge_loss=loss)
        rows = rng.normal(0.5, 1.5, size=(60, d))
        many = model.predict_many(rows)
        for r, x in enumerate(rows):
            got = np.array([model.predict(x)]).tobytes()
            assert got == model.predict_many(x[None]).tobytes() == many[r:r + 1].tobytes()

    def test_nan_feature_rejected_like_batch(self):
        model = CvapCalibrator.fit(small_dataset(120, seed=2), 3, ScorerSpec("logistic"))
        x = np.array([np.nan])
        with pytest.raises(ValueError, match="^test scores must be finite$"):
            model.predict_many(x[None])
        with pytest.raises(ValueError, match="^test scores must be finite$"):
            model.predict(x)

    def test_single_score_calls_never_take_the_batch_path(self, monkeypatch):
        model = CvapCalibrator.fit(small_dataset(120, seed=2), 3, ScorerSpec("logistic"))
        rule = model.rules[0]
        expected = (rule.predict_interval(0.3), rule.predict(0.3), model.predict(np.array([0.3])))

        def batch_path(*args, **kwargs):
            raise AssertionError("single-score call took the batch path")

        monkeypatch.setattr(IvapCalibrator, "predict_intervals", batch_path)
        monkeypatch.setattr(CvapCalibrator, "predict_many", batch_path)
        assert (rule.predict_interval(0.3), rule.predict(0.3),
                model.predict(np.array([0.3]))) == expected


class TestSerialization:
    def test_round_trip_predictions_identical(self):
        ds = small_dataset(160, seed=8)
        model = CvapCalibrator.fit(ds, 3, ScorerSpec("logistic"), merge_loss="log")
        loaded = CvapCalibrator.from_dict(json.loads(json.dumps(model.to_dict())))
        X = np.linspace(-3, 3, 25)[:, None]
        assert np.array_equal(loaded.predict_many(X), model.predict_many(X))
        assert np.array_equal(loaded.folds.fold_of, model.folds.fold_of)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda d: d.update(n_folds=4), "4 folds with 3 scorers and 3 rules"),
        (lambda d: d.update(scorers=d["scorers"][:2]), "3 folds with 2 scorers and 3 rules"),
        (lambda d: d.update(rules=d["rules"] + d["rules"][:1]), "3 folds with 3 scorers and 4"),
        (lambda d: d["fold_of"].__setitem__(0, 3), "one of 3 folds"),
        (lambda d: d["fold_of"].__setitem__(0, 1),
         r"rules calibrated on \[54, 53, 53\] rows for folds of \[53, 54, 53\]"),
        (lambda d: d.update(merge_loss="hinge"), "unknown merge loss 'hinge'"),
        (lambda d: d["rules"][1]["scores"].reverse(), "strictly increasing"),
        (lambda d: d["scorers"].__setitem__(0, {"kind": "stump", "feature": 3, "threshold": 0.0,
                                                "high_is_one": True, "n_features": 1}),
         "stump feature 3 is not one of 1 features"),
        (lambda d: d["scorers"].__setitem__(1, {"kind": "constant", "value": 0.5,
                                                "n_features": 2}),
         r"fold scorers expect \[1, 2, 1\] features"),
    ], ids=["n_folds", "scorers", "rules", "fold_of_range", "fold_sizes", "merge_loss",
            "nested_rule", "stump_feature", "scorer_widths"])
    def test_corrupt_record_rejected(self, corrupt, message):
        model = CvapCalibrator.fit(small_dataset(160, seed=8), 3, ScorerSpec("logistic"))
        record = model.to_dict()
        CvapCalibrator.from_dict(record)
        corrupt(record)
        with pytest.raises(ValueError, match=message):
            CvapCalibrator.from_dict(record)

    def test_unknown_merge_loss_rejected_at_fit(self):
        with pytest.raises(ValueError, match="unknown merge loss 'hinge'"):
            CvapCalibrator.fit(small_dataset(60, seed=1), 3, merge_loss="hinge")
