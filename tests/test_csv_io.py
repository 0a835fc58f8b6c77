"""The column-at-a-time readers and writers against the per-cell oracles.

Every reader case requires the same result as the oracle: equal Dataset
bytes (X, y, columns, label values) or arrays, or an exception of the same
type with the same message.  Every writer case requires the same bytes.
"""

import csv
import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from venncal import data
from venncal.cli import _write_predictions, main
from venncal.data import generate_synthetic
from venncal.exceptions import DataError


def outcome(fn, path, *args, **kwargs):
    """What a reader does with a file: its result as bytes, or its exception."""
    try:
        result = fn(path, *args, **kwargs)
    except Exception as exc:  # the oracle's own exception is part of the contract
        return type(exc).__name__, str(exc)
    if isinstance(result, data.Dataset):
        return (result.X.tobytes(), result.X.shape, result.y.tobytes(), result.columns,
                result.label_values)
    if isinstance(result, tuple):
        return tuple(a.tobytes() for a in result)
    return result.tobytes()


def assert_same(tmp_path, text, reader, *args, **kwargs):
    path = tmp_path / "in.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    new = outcome(getattr(data, reader), path, *args, **kwargs)
    assert new == outcome(getattr(oracles, reader), path, *args, **kwargs)
    return new


DATASET_TEXTS = {
    "plain": "a,label\n1,0\n2.5,1\n-3e2,0\n",
    "quoted_comma_cell": 'a,label\n"1,5",0\n2,1\n',
    "quoted_numbers": 'a,label\n"1",0\n" 2 ",1\n',
    "quoted_header_comma": '"a,b",label\n1,0\n2,1\n',
    "quoted_newline": 'a,label\n"x\ny",0\nz,1\n',
    # csv.reader keeps a quoted edge newline, which the strip then removes
    "quoted_edge_newline": 'c,label\n"x\n",0\nz,1\n',
    "crlf": "a,label\r\n1,0\r\n2,1\r\n",
    "lone_cr": "a,label\r1,0\r2,1\r",
    "blank_line_middle": "a,label\n1,0\n\n2,1\n",
    "blank_line_end": "a,label\n1,0\n2,1\n\n",
    "only_blank_lines": "\n\n",
    "no_trailing_newline": "a,label\n1,0\n2,1",
    "missing_numeric": "a,label\n1,0\n?,1\n,0\n ? ,1\n 3 ,0\n",
    "missing_nominal": "c,label\nx,0\n?,1\n,0\ny,1\n",
    "all_missing_column": "a,label\n?,0\n,1\n",
    "whitespace_labels": "a,label\n1, yes\n2,no \n3,yes\n",
    "odd_floats": "a,label\n1_000,0\ninf,0\n-inf,1\n１２,0\n1e-5,1\n",
    "nan_cell": "a,label\n1,0\nnan,1\n",
    "unicode_space": "a,label\n\x1c1\x1c,0\n 2 ,1\n",
    "bom_header": "\ufeffa,label\n1,0\n2,1\n",
    "bom_on_label": "\ufefflabel,a\n0,1\n1,2\n",
    "nul_byte": "a,label\n1\x00,0\n2,1\n",
    "ragged_short": "a,label\n1,0\n2\n3,1\n",
    "ragged_long": "a,label\n1,0\n3,1,4\n",
    "header_only": "a,label\n",
    "empty": "",
    "three_labels": "a,label\n1,0\n2,1\n3,2\n",
    "single_class": "a,label\n1,yes\n2,yes\n",
    "missing_label": "a,label\n1,0\n2,?\n",
    "nominal_and_numeric": "c,a,label\nb,1,0\na,?,1\nb,3,1\n?,4,0\n",
    "bad_label_column": "a,b\n1,0\n",
    "empty_label": "a,label\n1,\n2,0\n",
    # whitespace that str.strip removes, in ASCII text and in other text
    "tab_after_label": "a,label\n1,0\n2,1\t\n",
    "unit_separator_category": "c,label\nx\x1f,0\nx,1\n",
    "ideographic_space_label": "a,label\n1,0\n2,1\u3000\n",
    "nbsp_around_number": "a,label\n\u00a01.5\u00a0,0\n\u30002,1\n",
    "next_line_around_number": "a,label\n\x851\x85,0\n2,1\n",
    "non_ascii_category": "c,label\né,0\nü\u00a0,1\n\u00a0é,0\n",
    "bom_ragged": "\ufeffa,label\n1,0\n2\n",
    "leading_newline": "\na,label\n1,0\n2,1\n",
    "lone_newline": "\n",
}


@pytest.mark.parametrize("name", sorted(DATASET_TEXTS))
def test_load_csv_matches_oracle(tmp_path, name):
    assert_same(tmp_path, DATASET_TEXTS[name], "load_csv", "label")


@pytest.mark.parametrize("kwargs", [
    {"label_column": 1, "header": False},
    {"label_column": 0, "header": False},
    {"label_column": 2, "header": False},
    {"label_column": 1, "header": False, "positive_label": "0"},
])
@pytest.mark.parametrize("text", ["1,0\n2,1\n", "x,a\ny,b\n", "1,0\n2\n", "1,0\n\n2,1\n"])
def test_headerless_positional_labels_match_oracle(tmp_path, text, kwargs):
    assert_same(tmp_path, text, "load_csv", **kwargs)


@pytest.mark.parametrize("positive", [None, "yes", "no", "maybe"])
def test_positive_label_matches_oracle(tmp_path, positive):
    for text in ("a,label\n1,yes\n2,no\n", "a,label\n1,yes\n2,yes\n"):  # two classes, one
        assert_same(tmp_path, text, "load_csv", "label", positive_label=positive)


@pytest.mark.parametrize("test_text", [
    "c,a,label\nb,1,0\na,2,1\n",
    "c,a,label\nz,1,0\na,2,1\n",             # unknown category
    "c,a,label\nb,1,0\na,abc,1\n",           # not a number where the schema wants one
    "c,a,label\nb,nan,0\na,abc,1\n",         # a nan cell before a non-number
    "c,a,label\nb,abc,2\na,1,1\n",           # unknown label wins over the bad cells
    "c,a,label\n?,?,0\nb,,1\n",              # missing cells under the schema
    "a,label\n1,0\n",                        # fewer feature columns
])
def test_schema_reuse_matches_oracle(tmp_path, test_text):
    train_path = tmp_path / "train.csv"
    train_path.write_text("c,a,label\na,1,0\nb,2,1\n", encoding="utf-8")
    train = data.load_csv(train_path, "label")
    assert_same(tmp_path, test_text, "load_csv", "label", like=train)


CALIBRATION_TEXTS = [
    "score,label\n0.5,1\n0.25,0\n",
    " score , label \n0.5,1\n",
    "score,label\n0.5, 1\n0.25,0 \n0.1,\t1\n",
    "score,label\n0.5,+1\n",
    "score,label\n0.5,1.0\n",
    "score,label\n0.5,1\x1c\n",              # strips to "1" but int() refuses it
    "score,label\nabc,1\n",
    "score,label\n0.5,2\nabc,1\n",           # first bad row wins
    "score,label\nabc,2\n",                  # bad score before bad label in a row
    "score,label\n0.5,1\n1\nabc,0\n",        # wrong field count
    "score,label\n0.5,x\n1\n",
    "score,label\n0.5,1\n\n0.25,0\n",
    "score,label\n0.5,1\n0.25,0,7\n",
    'score,label\n"0.5",1\n"1,5",0\n',
    "score,label\r\n0.5,1\r\n",
    "score,label\n1_0,1\nnan,0\ninf,1\n１,0\n",
    "score,label\n 1 ,1\n",
    "score,label\n",
    "0.5,1\n",
    "",
    "\ufeffscore,label\n0.5,1\n",
    "score,label\n\u00a00.5\u3000,1\n0.25,\u00a00\n",
    "score,label\n0.5,1\né,0\n",
    "score,label\n0.5\x00,1\n",
    "score,label\n0.5,1\n0.25,\n",           # an empty label cell
    "score,label\n0.5,\nabc,1\n",           # an empty label before a bad score
    "\nscore,label\n0.5,1\n",
    "score,label\n0.5,1\n\n",
    "\n",
]


@pytest.mark.parametrize("text", CALIBRATION_TEXTS)
def test_read_calibration_scores_matches_oracle(tmp_path, text):
    assert_same(tmp_path, text, "read_calibration_scores")


TEST_SCORE_TEXTS = [
    "score\n1\n-2.5\n1e-17\n",
    "score\n1\n2,3\n",
    "score\n1\n\n2\n",
    "score\n1\n2\n\n",
    "score\n1\nabc\n",
    "score\n1_0\n１\n 1 \n",
    "score\n1\x00\n",
    'score\n"1"\n"2,3"\n',
    "score\r\n1\r2\n",
    "score\n1",
    "score\n",
    "score,label\n1,0\n",
    "\ufeffscore\n1\n",
    "score\n\u30001\u00a0\n2\né\n",
    "\nscore\n1\n",
    "\n",
]


@pytest.mark.parametrize("text", TEST_SCORE_TEXTS)
def test_read_test_scores_matches_oracle(tmp_path, text):
    assert_same(tmp_path, text, "read_test_scores")


PREDICTION_TEXTS = [
    "p0,p1,p\n0.1,0.2,0.15\n0.3,0.4,0.35\n",
    "p0,p1,p\n0.1,0.2\n",
    "p\n0.1,5\n0.2\n",
    "a,p\n1,0.1\n1,0.2,3\n2,0.3\n",
    "a,p\n1,0.1\n1,x,3\n2\n",
    "a,p\n1,0.1\n2\n1,x\n",
    "p\n0.1\n\n",
    " p \n0.5\n",
    "p\n",
    "q\n0.5\n",
    "",
    "\ufeffp\n0.5\n",
    "a,p\né,\u00a00.5\nü,0.25\n",
    "p\n0.5\n１\n",
    "a,p\n1, 0.5\n2,\n",
    "\np\n0.5\n",
    "\n",
]


@pytest.mark.parametrize("text", PREDICTION_TEXTS)
def test_read_prediction_column_matches_oracle(tmp_path, text):
    assert_same(tmp_path, text, "read_prediction_column", "p")


def test_oversized_field_is_a_data_error(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("score\n1\n" + "1" * 200_000 + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"big\.csv: line 3: field larger than field limit"):
        data.read_test_scores(path)
    with pytest.raises(csv.Error):
        oracles.read_test_scores(path)
    # a field exactly at the limit is still read
    limit = csv.field_size_limit()
    path.write_text("score\n" + "1" * limit + "\n", encoding="utf-8")
    assert data.read_test_scores(path).tobytes() == oracles.read_test_scores(path).tobytes()


# ---- the field limit: the byte path hands a line with a field over it to
# csv.reader, and keeps a long line whose fields are each under it

READER_ARGS = {"load_csv": ("label",), "read_calibration_scores": (),
               "read_test_scores": (), "read_prediction_column": ("p",)}
LIMIT = csv.field_size_limit()
LONG_LINE_TEXTS = {
    "load_csv": f"a,b,label\n{'1' * (LIMIT - 1)},{'2' * (LIMIT - 1)},0\n3,4,1\n",
    "read_calibration_scores": f"score,label\n0.{'5' * (LIMIT - 2)},{' ' * (LIMIT - 1)}1\n",
    "read_prediction_column": f"a,p\n{'1' * (LIMIT - 1)},0.{'5' * (LIMIT - 2)}\n",
}


@pytest.mark.parametrize("reader", sorted(LONG_LINE_TEXTS))
def test_long_line_of_short_fields_matches_oracle(tmp_path, reader):
    assert_same(tmp_path, LONG_LINE_TEXTS[reader], reader, *READER_ARGS[reader])


def assert_limit_case(tmp_path, reader, field, extra):
    # csv.reader's own error, with the line it names, is the oracle's outcome
    # for a field one character over the limit
    header = {"load_csv": "a,label", "read_calibration_scores": "score,label"}.get(reader)
    text = (f"{header}\n1,0\n{field},1\n" if header else
            f"{'p' if reader == 'read_prediction_column' else 'score'}\n1\n{field}\n")
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8")
    new = outcome(getattr(data, reader), path, *READER_ARGS[reader])
    want = outcome(getattr(oracles, reader), path, *READER_ARGS[reader])
    if extra:
        assert want == ("Error", f"field larger than field limit ({LIMIT})")
        want = ("DataError", f"{path}: line 3: {want[1]}")
    assert new == want


@pytest.mark.parametrize("reader", sorted(READER_ARGS))
@pytest.mark.parametrize("extra", [0, 1])
def test_field_at_and_over_the_limit_match_oracle(tmp_path, reader, extra):
    assert_limit_case(tmp_path, reader, "1" * (LIMIT + extra), extra)


@pytest.mark.parametrize("extra", [0, 1])
def test_first_field_of_the_file_at_and_over_the_limit_matches_oracle(tmp_path, extra):
    # no separator precedes the file's first field, so the byte path measures
    # it from the start of the file
    path = tmp_path / "in.csv"
    path.write_text(f"{'1' * (LIMIT + extra)},0\n2,1\n", encoding="utf-8")
    want = outcome(oracles.load_csv, path, 1, header=False)
    if extra:
        assert want == ("Error", f"field larger than field limit ({LIMIT})")
        want = ("DataError", f"{path}: line 1: {want[1]}")
    assert outcome(data.load_csv, path, 1, header=False) == want
    # the byte path keeps a field at the limit, first or not, and leaves one over it to csv.reader
    raw = path.read_bytes()
    assert [data._record_widths(r) is None for r in (raw, b"0," + raw)] == [bool(extra)] * 2


@pytest.mark.parametrize("reader", sorted(READER_ARGS))
@pytest.mark.parametrize("extra", [0, 1])
def test_two_byte_field_at_and_over_the_limit_match_oracle(tmp_path, reader, extra):
    # the limit counts characters, not the bytes of a two-byte "é": at the
    # limit the field has 2 * LIMIT bytes, and load_csv reads it as a category
    assert_limit_case(tmp_path, reader, "é" * (LIMIT + extra), extra)


def test_invalid_utf8_names_its_byte_offset(tmp_path):
    # the file is decoded whole, so the offset counts from the start of the
    # file (a line-by-line read counts from the start of an 8 KiB chunk)
    path = tmp_path / "bad.csv"
    path.write_bytes(b"score\n" + b"0.5\n" * 5000 + b"\xff\n")
    with pytest.raises(UnicodeDecodeError, match="position 20006"):
        data.read_test_scores(path)


# ---- the tokenizer ---------------------------------------------------------

FAST_ALPHABET = "01.,\n ab?-e"
# non-ASCII text without quotes or carriage returns takes the byte path too
UTF8_ALPHABET = FAST_ALPHABET + "\x00\x1c\x85\u00a0\u2028\u3000\ufeffé"
ANY_ALPHABET = UTF8_ALPHABET + '"\r'


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet=FAST_ALPHABET, max_size=60),
                 st.text(alphabet=UTF8_ALPHABET, max_size=60),
                 st.text(alphabet=ANY_ALPHABET, max_size=60)))
def test_tokenizer_matches_csv_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        fields, widths = data._read_table(path)
        stripped, _ = data._read_table(path, strip=True)
    want = list(itertools.chain.from_iterable(rows))
    assert fields == want
    assert stripped == [f.strip() for f in want]
    assert widths.tolist() == [len(r) for r in rows]


# ---- writers ---------------------------------------------------------------

SPECIAL = np.array([0.5, 0.5, -0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, 1e-5, -0.0,
                    0.1 + 0.2, 1 / 3, np.inf, -np.inf, np.nan, 1.0, 0.0])


def columns(kind, n=70_000):
    rng = np.random.default_rng(5)
    if kind == "special":  # repeated, so each value is formatted once and gathered
        return [np.tile(SPECIAL, 5000), np.tile(SPECIAL[::-1], 5000), np.tile(SPECIAL, 5000)]
    if kind == "ties":
        return [np.round(rng.standard_normal(n), 2) for _ in range(3)]
    return [rng.standard_normal(n) for _ in range(3)]  # all distinct


@pytest.mark.parametrize("kind", ["special", "ties", "distinct"])
def test_prediction_writer_matches_oracle(tmp_path, kind):
    lo, hi, p = columns(kind)
    for intervals in (None, (lo, hi)):
        _write_predictions(tmp_path / "new.csv", p, intervals)
        oracles.write_predictions(tmp_path / "old.csv", p, intervals)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("kind", ["special", "ties", "distinct"])
def test_score_file_writer_matches_oracle(tmp_path, kind):
    scores = columns(kind)[0]
    rng = np.random.default_rng(6)
    int_labels = rng.integers(0, 2, len(scores))
    for labels in (None, int_labels, int_labels.astype(float), int_labels.astype(bool),
                   int_labels.tolist()):
        header = "score" if labels is None else "score,label"
        data.write_csv(tmp_path / "new.csv", header, [scores], labels)
        oracles.write_score_file(tmp_path / "old.csv", scores, labels)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    data.write_csv(tmp_path / "empty.csv", "score", [[]])
    assert (tmp_path / "empty.csv").read_bytes() == b"score\n"


def test_synth_matches_oracle(tmp_path):
    assert main(["synth", "--n", "70000", "--seed", "3", "--out", str(tmp_path / "new.csv")]) == 0
    oracles.write_synth(tmp_path / "old.csv", generate_synthetic(70_000, 3))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError, match="same length"):
        data.write_csv(tmp_path / "x.csv", "a,b", [[0.5], [0.5, 0.25]])
    with pytest.raises(ValueError, match="same length"):
        data.write_csv(tmp_path / "x.csv", "score,label", [[0.5]], [0, 1])
