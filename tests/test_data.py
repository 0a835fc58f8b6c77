import math

import numpy as np
import pytest

import oracles
from venncal.data import (
    Dataset,
    apply_imputation,
    compute_imputation,
    generate_synthetic,
    load_csv,
    read_calibration_scores,
    read_test_scores,
    split_proper_calibration,
    subset,
)
from venncal.exceptions import DataError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_numeric_with_missing(self, tmp_path):
        path = write(tmp_path, "a,label\n1,yes\n2,no\n?,yes\n")
        ds = load_csv(path, "label")
        assert ds.columns[0].kind == "numeric"
        assert ds.X[0, 0] == 1 and ds.X[1, 0] == 2 and math.isnan(ds.X[2, 0])
        assert ds.label_values == ("no", "yes")
        assert ds.y.tolist() == [1, 0, 1]

    def test_one_hot_nominal(self, tmp_path):
        path = write(tmp_path, "c,label\nb,0\na,1\nb,0\n")
        ds = load_csv(path, "label")
        assert ds.columns[0].categories == ("a", "b")
        assert ds.X.tolist() == [[0, 1], [1, 0], [0, 1]]

    def test_nominal_missing_marks_whole_block(self, tmp_path):
        path = write(tmp_path, "c,label\na,0\n?,1\n")
        ds = load_csv(path, "label")
        assert np.isnan(ds.X[1]).all()

    def test_positive_label_override(self, tmp_path):
        path = write(tmp_path, "a,label\n1,x\n2,y\n")
        ds = load_csv(path, "label", positive_label="x")
        assert ds.label_values == ("y", "x")
        assert ds.y.tolist() == [1, 0]

    @pytest.mark.parametrize("value, label_values", [
        ("1", ("0", "1")), ("0", ("1", "0")), ("yes", ("", "yes"))])
    def test_positive_label_of_a_one_class_file(self, tmp_path, value, label_values):
        # the file's one value is the positive label: every row is labelled 1
        path = write(tmp_path, f"a,label\n1,{value}\n2,{value}\n")
        ds = load_csv(path, "label", positive_label=value)
        assert ds.label_values == label_values
        assert ds.y.tolist() == [1, 1]
        assert oracles.load_csv(path, "label", positive_label=value).y.tolist() == [1, 1]
        # another positive label: a 0/1 file lacks it, and a "yes" file is no 0/1 file
        with pytest.raises(DataError, match="cannot infer" if value == "yes" else "not among"):
            load_csv(path, "label", positive_label="1" if value == "0" else "0")

    def test_ragged_row_rejected_with_line_number(self, tmp_path):
        path = write(tmp_path, "a,label\n1,0\n2\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path, "label")

    def test_three_label_values_rejected(self, tmp_path):
        path = write(tmp_path, "a,label\n1,0\n2,1\n3,2\n")
        with pytest.raises(DataError, match="at most two"):
            load_csv(path, "label")

    def test_single_class_needs_obvious_polarity(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,label\n1,1\n2,1\n"), "label")
        assert ds.y.tolist() == [1, 1]
        with pytest.raises(DataError, match="single label"):
            load_csv(write(tmp_path, "a,label\n1,yes\n2,yes\n"), "label")

    def test_missing_label_rejected(self, tmp_path):
        path = write(tmp_path, "a,label\n1,0\n2,?\n")
        with pytest.raises(DataError, match="missing label"):
            load_csv(path, "label")

    def test_schema_reuse_keeps_encoding(self, tmp_path):
        train = load_csv(write(tmp_path, "c,label\na,0\nb,1\n", "tr.csv"), "label")
        test = load_csv(write(tmp_path, "c,label\nb,0\nb,1\n", "te.csv"), "label",
                        like=train)
        assert test.X.tolist() == [[0, 1], [0, 1]]

    def test_unknown_category_under_schema_rejected(self, tmp_path):
        train = load_csv(write(tmp_path, "c,label\na,0\nb,1\n", "tr.csv"), "label")
        with pytest.raises(DataError, match="unknown category"):
            load_csv(write(tmp_path, "c,label\nz,0\na,1\n", "te.csv"), "label", like=train)

    def test_headerless_positional_label(self, tmp_path):
        path = write(tmp_path, "1,0\n2,1\n")
        ds = load_csv(path, 1, header=False)
        assert ds.columns[0].name == "col0"
        assert ds.y.tolist() == [0, 1]


class TestImputation:
    def test_numeric_mean_from_training_rows(self, tmp_path):
        path = write(tmp_path, "a,label\n1,0\n2,1\n?,0\n")
        ds = load_csv(path, "label")
        values = compute_imputation(subset(ds, [0, 1]))
        assert values == (1.5,)
        filled = apply_imputation(ds, values)
        assert filled.X[2, 0] == 1.5

    def test_nominal_mode(self, tmp_path):
        path = write(tmp_path, "c,label\na,0\na,1\nb,0\n?,1\n")
        ds = load_csv(path, "label")
        values = compute_imputation(subset(ds, [0, 1, 2]))
        assert values == ("a",)
        filled = apply_imputation(ds, values)
        assert filled.X[3].tolist() == [1, 0]

    def test_mode_tie_breaks_lexicographically(self, tmp_path):
        path = write(tmp_path, "c,label\nb,0\na,1\n?,0\n")
        ds = load_csv(path, "label")
        values = compute_imputation(subset(ds, [0, 1]))
        assert values == ("a",)
        # no row observed: every count is 0, so the first category again
        assert compute_imputation(subset(ds, [2])) == ("a",)

    def test_statistics_ignore_other_rows(self, tmp_path):
        # test rows differ wildly; training-derived statistics must not move
        path = write(tmp_path, "a,label\n1,0\n3,1\n1000,0\n?,1\n")
        ds = load_csv(path, "label")
        values = compute_imputation(subset(ds, [0, 1]))
        assert values == (2.0,)
        filled = apply_imputation(ds, values)
        assert filled.X[3, 0] == 2.0

    @pytest.mark.parametrize("values", [(), (1.0, 2.0)])
    def test_values_for_another_layout_rejected(self, tmp_path, values):
        ds = load_csv(write(tmp_path, "a,label\n1,0\n?,1\n"), "label")
        with pytest.raises(DataError,
                           match="^imputation statistics do not match the column layout$"):
            apply_imputation(ds, values)


class TestSplit:
    def test_ratio_four_one(self):
        ds = generate_synthetic(100, seed=0)
        proper, calib = split_proper_calibration(ds, (4, 1))
        assert (len(proper), len(calib)) == (80, 20)

    def test_ratio_one_nine(self):
        ds = generate_synthetic(10, seed=0)
        proper, calib = split_proper_calibration(ds, (1, 9))
        assert (len(proper), len(calib)) == (1, 9)

    def test_protocol_size_large(self):
        ds = generate_synthetic(32561, seed=0)
        proper, calib = split_proper_calibration(ds, (4, 1))
        assert len(proper) == 26049

    def test_contiguous_prefix(self):
        ds = generate_synthetic(10, seed=1)
        proper, calib = split_proper_calibration(ds, (1, 1))
        assert np.array_equal(proper.X[:, 0], ds.X[:5, 0])
        assert np.array_equal(calib.X[:, 0], ds.X[5:, 0])

    def test_partition_exact_under_permutation(self):
        ds = generate_synthetic(37, seed=2)
        proper, calib = split_proper_calibration(ds, (2, 1), shuffle_seed=5)
        merged = np.sort(np.concatenate([proper.X[:, 0], calib.X[:, 0]]))
        assert np.array_equal(merged, np.sort(ds.X[:, 0]))

    def test_same_seed_same_split(self):
        ds = generate_synthetic(50, seed=3)
        a, _ = split_proper_calibration(ds, (2, 1), shuffle_seed=9)
        b, _ = split_proper_calibration(ds, (2, 1), shuffle_seed=9)
        assert np.array_equal(a.X, b.X)

    @staticmethod
    def nine_rows():
        """Rows whose one feature is the row number, and whose label is its parity."""
        return Dataset(np.arange(9.0)[:, None], np.arange(9) % 2, ())

    def test_no_seed_is_contiguous(self):
        proper, calib = split_proper_calibration(self.nine_rows(), (2, 1), shuffle_seed=None)
        assert (proper.X[:, 0].tolist(), calib.X[:, 0].tolist()) == ([0, 1, 2, 3, 4, 5], [6, 7, 8])

    @pytest.mark.parametrize("seed", [0, 9])  # 0 shuffles too: no truthiness test
    def test_seed_shuffles_the_contiguous_order(self, seed):
        # the rows in the order numpy's default_rng(seed).shuffle puts arange(n) in
        order = np.arange(9)
        np.random.default_rng(seed).shuffle(order)
        assert order.tolist() != list(range(9))
        proper, calib = split_proper_calibration(self.nine_rows(), (2, 1), shuffle_seed=seed)
        assert proper.X[:, 0].tolist() == order[:6].tolist()
        assert calib.X[:, 0].tolist() == order[6:].tolist()
        assert np.array_equal(proper.y, order[:6] % 2) and np.array_equal(calib.y, order[6:] % 2)

    def test_seed_zero_keeps_the_earlier_permuted_rows(self):
        # the rows that the earlier `permute=True, seed=0` gave, written out
        proper, calib = split_proper_calibration(self.nine_rows(), (2, 1), shuffle_seed=0)
        assert (proper.X[:, 0].tolist(), calib.X[:, 0].tolist()) == ([4, 5, 2, 6, 3, 8], [7, 0, 1])

    def test_degenerate_rejected(self):
        # 1:1 of one row gives the proper part the row and calibration none
        with pytest.raises(DataError, match="degenerate split: proper=1, calibration=0"):
            split_proper_calibration(generate_synthetic(1, seed=0), (1, 1))
        with pytest.raises(DataError, match="invalid split ratio 0:1"):
            split_proper_calibration(generate_synthetic(5, seed=0), (0, 1))


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(4, seed=42)
        b = generate_synthetic(4, seed=42)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_label_rate_near_half(self):
        ds = generate_synthetic(100_000, seed=7)
        assert abs(float(np.mean(ds.y)) - 0.5) < 0.01

    def test_feature_mean_shifted_by_label(self):
        ds = generate_synthetic(100_000, seed=7)
        assert abs(float(np.mean(ds.X[ds.y == 1, 0])) - 1.0) < 0.02
        assert abs(float(np.mean(ds.X[ds.y == 0, 0]))) < 0.02

    def test_n_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, seed=1)


class TestScoreFiles:
    def test_calibration_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=31)
        labels = rng.integers(0, 2, size=31)
        path = tmp_path / "cal.csv"
        oracles.write_score_file(path, scores, labels)
        s2, y2 = read_calibration_scores(path)
        assert np.array_equal(s2, scores)
        assert np.array_equal(y2, labels)

    def test_test_scores_round_trip_exact(self, tmp_path):
        scores = np.array([0.1, -2.5, 1e-17, 3.333333333333333])
        path = tmp_path / "test.csv"
        oracles.write_score_file(path, scores)
        assert np.array_equal(read_test_scores(path), scores)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,1\n")
        with pytest.raises(DataError, match="header"):
            read_calibration_scores(path)
