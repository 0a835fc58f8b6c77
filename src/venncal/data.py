"""Dataset ingestion, preprocessing, deterministic splits, synthetic data.

CSV files are comma-separated with an optional header and quoted fields.
Every reader tokenizes as `csv.reader` does and then parses a column at a
time with float(); a field longer than `csv.field_size_limit()` is a
DataError.  UTF-8 text without quotes or carriage returns is split at its
newlines and commas, with the field counts found in its bytes; a file with
either, a blank line or a field of more bytes than that limit goes through
`csv.reader`.  Data, score and prediction files are written by `write_csv`,
one column at a time.  Missing cells are empty strings or "?".  Feature
columns are numeric when every non-missing cell parses as a float, nominal
otherwise; nominal columns are one-hot encoded with lexicographically sorted
categories, and a missing nominal cell is NaN across the whole indicator
block.  Labels must take exactly two raw values; the lexicographically
smaller one maps to 0 unless overridden.  Imputation statistics (column
means and modes) are computed from the training dataset alone, so test rows
can never contribute; no record of their source is kept.  A cell parsing to
NaN is a DataError.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from venncal.exceptions import DataError

__all__ = [
    "Column",
    "Dataset",
    "load_csv",
    "compute_imputation",
    "apply_imputation",
    "subset",
    "split_proper_calibration",
    "generate_synthetic",
    "write_csv",
    "read_calibration_scores",
    "read_test_scores",
    "read_prediction_column",
]

MISSING_TOKENS = ("", "?")


@dataclass(frozen=True)
class Column:
    """Source-column metadata; nominal columns carry their category list."""

    name: str
    kind: str  # "numeric" | "nominal"
    categories: tuple[str, ...] = ()

    @property
    def width(self) -> int:
        return len(self.categories) if self.kind == "nominal" else 1


@dataclass
class Dataset:
    """Encoded feature matrix with binary labels and column metadata.

    `X` is float64 with NaN marking missing cells (for a nominal column, NaN
    spans its whole one-hot block).  `label_values` records which raw label
    was mapped to 0 and 1.
    """

    X: np.ndarray
    y: np.ndarray
    columns: tuple[Column, ...]
    label_values: tuple[str, str] = ("0", "1")

    def __len__(self) -> int:
        return len(self.y)

    def column_slices(self) -> list[slice]:
        ends = np.cumsum([0, *(col.width for col in self.columns)]).tolist()
        return [slice(a, b) for a, b in zip(ends, ends[1:])]


# ---- CSV tables: a record's line number in messages is its 1-based index


def _record_widths(raw: bytes) -> np.ndarray | None:
    """Field count of each line of `raw`, or None when a line is blank or a
    field is longer than csv.field_size_limit() (left to csv.reader)."""
    buf = np.frombuffer(raw if raw.endswith(b"\n") else raw + b"\n", np.uint8)
    seps = np.flatnonzero((buf == ord("\n")) | (buf == ord(",")))  # where each field ends
    ends = np.flatnonzero(buf[seps] == ord("\n"))  # the index in `seps` of each newline
    if (np.diff(seps, prepend=-1).max() > csv.field_size_limit() + 1
            or np.diff(seps[ends], prepend=-1).min() == 1):
        return None
    return np.diff(ends, prepend=-1)


def _read_table(path, strip: bool = False) -> tuple[list[str], np.ndarray]:
    """The records of a CSV file as csv.reader yields them: every field in
    order (stripped if `strip`), and the field count of each record."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # in UTF-8 text without quotes or carriage returns csv.reader's records are
    # the lines, its fields are the parts between commas (no byte of a multibyte
    # char is either), and a field has no fewer bytes than chars
    plain = b'"' not in raw and b"\r" not in raw
    widths = _record_widths(raw) if plain else None
    # str.strip removes these ASCII characters (\n and \r aside) and some non-ASCII ones
    strip = strip and (not plain or not raw.isascii()
                       or any(map(raw.__contains__, b"\t\x0b\x0c\x1c\x1d\x1e\x1f ")))
    text = raw.decode("utf-8")  # after the widths: their temporaries never overlap it
    del raw  # splitting the text is the peak
    if widths is None:
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
        fields = list(chain.from_iterable(rows))
        widths = np.fromiter(map(len, rows), np.intp, len(rows))
    else:
        sep = "," if widths.sum() > len(widths) else "\n"
        fields = text.replace("\n", sep).split(sep)
        if text.endswith("\n"):
            fields.pop()  # the last newline ends a record and starts none
    return (list(map(str.strip, fields)) if strip else fields), widths


def _first(mask: np.ndarray) -> int:
    """Index of the first true entry of `mask`, else its length."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else len(mask)


def _floats(cells, missing=()) -> tuple[np.ndarray, int | None]:
    """float() of every cell, NaN for a cell whose stripped text is in `missing`,
    and the index of the first cell that is neither (None if none; the values
    from there on are unset)."""
    try:
        return np.fromiter(map(float, cells), float, len(cells)), None
    except ValueError:
        pass
    out = np.empty(len(cells))
    for i, cell in enumerate(cells):
        try:
            out[i] = math.nan if cell.strip() in missing else float(cell)
        except ValueError:
            return out, i
    return out, None


def load_csv(path, label_column, *, header: bool = True,
             positive_label: str | None = None, like: Dataset | None = None) -> Dataset:
    """Read a CSV file into an encoded Dataset.

    `label_column` is a column name (with header) or integer position.  Pass
    `like` to reuse another dataset's column schema and label mapping, e.g.
    to encode a test file consistently with its training file.
    """
    fields, widths = _read_table(path, strip=True)
    if not len(widths):
        raise DataError(f"{path}: empty file")
    first = int(header)
    names = fields[:widths[0]] if header else [f"col{i}" for i in range(widths[0])]
    if len(widths) == first:
        raise DataError(f"{path}: no data rows")

    if isinstance(label_column, int):
        label_idx = label_column
        if not 0 <= label_idx < len(names):
            raise DataError(f"{path}: label column index {label_column} out of range")
    else:
        if label_column not in names:
            raise DataError(f"{path}: label column {label_column!r} not found")
        label_idx = names.index(label_column)

    width = len(names)
    bad = first + _first(widths[first:] != width)
    if bad < len(widths):
        raise DataError(f"{path}: line {bad + 1}: expected {width} fields, got {widths[bad]}")
    # every record has `width` fields, so column j is a stride of the fields
    cells = [fields[first * width + j::width] for j in range(width)]

    raw_labels = cells[label_idx]
    label_set = set(raw_labels)
    if not label_set.isdisjoint(MISSING_TOKENS):
        raise DataError(f"{path}: missing label values are not allowed")
    feature_idx = [j for j in range(width) if j != label_idx]

    parsed = {j: _floats(cells[j], MISSING_TOKENS) for j in feature_idx}
    if like is not None:
        columns = like.columns
        if len(columns) != len(feature_idx):
            raise DataError(f"{path}: expected {len(columns)} feature columns, got {len(feature_idx)}")
        label_values = like.label_values
    else:
        columns = []
        for j in feature_idx:
            # an all-missing column defaults to numeric (imputed later)
            if parsed[j][1] is None:
                columns.append(Column(names[j], "numeric"))
            else:
                cats = tuple(sorted(set(cells[j]).difference(MISSING_TOKENS)))
                columns.append(Column(names[j], "nominal", cats))
        columns = tuple(columns)
        distinct = sorted(label_set)
        if len(distinct) > 2:
            raise DataError(
                f"{path}: labels must take at most two values, got {distinct[:5]!r}")
        if len(distinct) == 1:
            # a single-class file is readable only when the polarity is obvious: a 0/1
            # value, or the positive label beside "" (a missing label: no cell maps to 0)
            if distinct[0] not in ("0", "1", positive_label):
                raise DataError(
                    f"{path}: single label value {distinct[0]!r}; cannot infer its class")
            label_values = ("0", "1") if distinct[0] in ("0", "1") else ("", positive_label)
        else:
            label_values = (distinct[0], distinct[1])
        if positive_label is not None:
            if positive_label not in distinct:
                raise DataError(f"{path}: positive label {positive_label!r} not among {distinct!r}")
            negative = label_values[0] if label_values[1] == positive_label else label_values[1]
            label_values = (negative, positive_label)

    if label_values == ("0", "1") and label_set <= {"0", "1"}:
        y = _binary_digits(raw_labels)
    else:
        codes = list(map({label_values[0]: 0, label_values[1]: 1}.get, raw_labels))
        if None in codes:
            i = codes.index(None)
            raise DataError(f"{path}: line {first + i + 1}: unknown label {raw_labels[i]!r}")
        y = np.array(codes, dtype=np.int64)

    X = np.zeros((len(y), sum(col.width for col in columns)))
    offset = 0
    for col, j in zip(columns, feature_idx):
        if col.kind == "numeric":
            values, bad = parsed[j]
            # a "nan" cell would pose as missing; cells from `bad` on are unset
            bad = next((i for i in np.flatnonzero(np.isnan(values[:bad]))
                        if cells[j][i] not in MISSING_TOKENS), bad)
            if bad is not None:
                raise DataError(
                    f"{path}: line {first + bad + 1}: column {col.name!r}: "
                    f"expected a number, got {cells[j][bad]!r}")
            X[:, offset] = values
        else:
            # position of each cell's category; -1 for a missing cell
            lookup = dict.fromkeys(MISSING_TOKENS, -1)
            lookup.update((c, p) for p, c in enumerate(col.categories))
            pos = list(map(lookup.get, cells[j]))
            if None in pos:
                bad = pos.index(None)
                raise DataError(
                    f"{path}: line {first + bad + 1}: column {col.name!r}: "
                    f"unknown category {cells[j][bad]!r}")
            pos = np.array(pos, dtype=np.int64)
            rows = np.nonzero(pos >= 0)[0]
            X[rows, offset + pos[rows]] = 1.0
            X[pos < 0, offset:offset + col.width] = math.nan
        offset += col.width
    return Dataset(X, y, columns, label_values)


def compute_imputation(dataset: Dataset) -> tuple:
    """Per-column fill values over the dataset's rows: the mean of a numeric
    column, the mode (a category string) of a nominal one."""
    values = []
    for col, sl in zip(dataset.columns, dataset.column_slices()):
        block = dataset.X[:, sl]
        if col.kind == "numeric":
            observed = block[~np.isnan(block[:, 0]), 0]
            values.append(float(np.mean(observed)) if len(observed) else 0.0)
        else:
            counts = block[~np.isnan(block[:, 0])].sum(axis=0)
            # argmax takes the first maximum; categories are sorted, so ties
            # resolve to the lexicographically smallest category (the first
            # one when no row is observed)
            values.append(col.categories[int(np.argmax(counts))])
    return tuple(values)


def apply_imputation(dataset: Dataset, values: tuple) -> Dataset:
    """Fill missing cells with `compute_imputation`'s values; returns a new Dataset."""
    if len(values) != len(dataset.columns):
        raise DataError("imputation statistics do not match the column layout")
    X = dataset.X.copy()
    for col, sl, value in zip(dataset.columns, dataset.column_slices(), values):
        missing = np.isnan(X[:, sl.start])
        if not missing.any():
            continue
        if col.kind == "numeric":
            X[missing, sl.start] = value
        else:
            X[np.ix_(missing, range(sl.start, sl.stop))] = 0.0
            X[missing, sl.start + col.categories.index(value)] = 1.0
    return Dataset(X, dataset.y, dataset.columns, dataset.label_values)


def subset(dataset: Dataset, rows) -> Dataset:
    rows = np.asarray(rows, dtype=np.int64)
    return Dataset(dataset.X[rows], dataset.y[rows], dataset.columns, dataset.label_values)


def split_proper_calibration(dataset: Dataset, ratio: tuple[int, int], *,
                             shuffle_seed: int | None = None) -> tuple[Dataset, Dataset]:
    """Proper-training / calibration split by `ratio`.

    With ratio (a, b) the proper part gets ceil(a / (a + b) * n) rows.  The
    split is contiguous (prefix/suffix) unless `shuffle_seed` is given: then
    the rows are taken in the order `default_rng(shuffle_seed).shuffle` puts
    `arange(n)` in.
    """
    n = len(dataset)
    a, b = ratio
    if a < 1 or b < 1:
        raise DataError(f"invalid split ratio {a}:{b}")
    m = (a * n + (a + b) - 1) // (a + b)
    k = n - m
    if m < 1 or k < 1:
        raise DataError(f"degenerate split: proper={m}, calibration={k}")
    order = np.arange(n)
    if shuffle_seed is not None:
        np.random.default_rng(shuffle_seed).shuffle(order)
    return subset(dataset, order[:m]), subset(dataset, order[m:])


def generate_synthetic(n: int, seed: int | None = None) -> Dataset:
    """One-feature synthetic data: labels are fair coin flips and the feature
    is the label plus standard Gaussian noise.

    Sampling uses numpy's PCG64 generator seeded with `seed`: labels are
    drawn first (uniform integers), noise second (ziggurat normals), so the
    output is deterministic for a given numpy version.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    x = y + rng.standard_normal(n)
    return Dataset(x[:, None].astype(float), y.astype(np.int64),
                   (Column("x", "numeric"),))


# ---- score and prediction files ------------------------------------------
# Calibration files have the header "score,label"; test files have "score".
# Floats are written with repr, so reading a file recovers the exact values.

_WRITE_CHUNK_ROWS = 1 << 16


def _texts(values: np.ndarray, fmt) -> list[str]:
    """fmt(v) for each v of a float64 or int64 array.  fmt runs once per
    distinct bit pattern (-0.0 and 0.0 stay apart), and the texts are
    gathered back into row order."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(fmt, bits.view(values.dtype).tolist())), dtype=object)
    return texts[inverse].tolist()


def write_csv(path, header: str, columns, labels=None) -> None:
    """Write equal-length float columns, then an optional label column, under `header`.

    Floats are written with repr and labels as int(label), one row per
    line.  Rows go out in bounded chunks, so the file's text is never held
    whole in memory.
    """
    texts = [_texts(np.asarray(c, dtype=float), repr) for c in columns]
    if labels is not None:
        texts.append(_texts(np.array([int(v) for v in labels], dtype=np.int64), str))
    if len({len(t) for t in texts}) != 1:
        raise ValueError("columns must have the same length")
    width = len(texts)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for start in range(0, len(texts[0]), _WRITE_CHUNK_ROWS):
            # the chunk's cells interleaved with separators: a,b,...,z\n per row
            n = min(_WRITE_CHUNK_ROWS, len(texts[0]) - start)
            pieces = [","] * (2 * width * n)
            for j, t in enumerate(texts):
                pieces[2 * j::2 * width] = t[start:start + n]
            pieces[2 * width - 1::2 * width] = ["\n"] * n
            fh.write("".join(pieces))


def _read_score_table(path, expected_header: str) -> tuple[list[str], np.ndarray]:
    fields, widths = _read_table(path)
    if not len(widths) or [c.strip() for c in fields[:widths[0]]] != expected_header.split(","):
        raise DataError(f"{path}: expected header {expected_header!r}")
    if len(widths) < 2:
        raise DataError(f"{path}: no data rows")
    return fields, widths


def _binary_digits(cells: list[str]) -> np.ndarray:
    """Cells that are each "0" or "1" as int64 0s and 1s: one ASCII digit per cell."""
    return np.frombuffer("".join(cells).encode(), np.uint8).astype(np.int64) - 48


def read_calibration_scores(path) -> tuple[np.ndarray, np.ndarray]:
    fields, widths = _read_score_table(path, "score,label")
    # the first bad row is reported; within a row the field count is checked
    # first, then the score, then the label
    stop = 1 + _first(widths[1:] != 2)
    score_cells, label_cells = fields[2:2 * stop:2], fields[3:2 * stop:2]
    scores, bad_score = _floats(score_cells)
    n = len(label_cells)
    bad_score = n if bad_score is None else bad_score
    if set(label_cells) <= {"0", "1"}:
        labels = _binary_digits(label_cells)
        bad_label = n
    else:
        valid = list(map(("0", "1").__contains__, map(str.strip, label_cells)))
        bad_label = valid.index(False) if False in valid else n
        labels = np.array(list(map(int, label_cells[:min(bad_score, bad_label)])), dtype=np.int64)
    if bad_score < n and bad_score <= bad_label:
        raise DataError(f"{path}: line {bad_score + 2}: bad score {score_cells[bad_score]!r}")
    if bad_label < n:
        raise DataError(f"{path}: line {bad_label + 2}: bad label {label_cells[bad_label]!r}")
    if stop < len(widths):
        raise DataError(f"{path}: line {stop + 1}: expected two fields")
    return scores, labels


def read_test_scores(path) -> np.ndarray:
    fields, widths = _read_score_table(path, "score")
    stop = 1 + _first(widths[1:] != 1)  # records before it hold one field each
    scores, bad = _floats(fields[1:stop])
    if bad is not None or stop < len(widths):
        i = stop if bad is None else bad + 1
        raise DataError(f"{path}: line {i + 1}: bad score row {fields[i:i + widths[i]]!r}")
    return scores


def read_prediction_column(path, column: str) -> np.ndarray:
    """The named float column of a prediction file such as `calibrate` writes."""
    fields, widths = _read_table(path)
    if not len(widths):
        raise DataError(f"{path}: empty file")
    header = [c.strip() for c in fields[:widths[0]]]
    if column not in header:
        raise DataError(f"{path}: no column {column!r} in header {header!r}")
    j = header.index(column)
    stop = 1 + _first(widths[1:] <= j)
    # records 1..stop-1 each have a field j; rows may differ in width
    values, bad = _floats([fields[s + j] for s in np.cumsum(widths[:stop - 1]).tolist()])
    if bad is not None or stop < len(widths):
        raise DataError(f"{path}: line {stop + 1 if bad is None else bad + 2}: "
                        f"bad value in column {column!r}")
    return values
