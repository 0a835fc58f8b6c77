"""Every record loader either returns a model or raises ValueError, whatever
finite number lands in whichever numeric field of a valid record (with
pytest's RuntimeWarning-as-error setting, so a loader that only warns on a
value fails here)."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venncal.cvap import CvapCalibrator
from venncal.data import Column, Dataset
from venncal.ivap import IvapCalibrator
from venncal.scorers import ScorerSpec, scorer_from_dict, train_scorer


def _records():
    rng = np.random.default_rng(3)
    y = rng.integers(0, 2, size=60)
    X = y[:, None] + rng.standard_normal((60, 2))
    ds = Dataset(X, y, (Column("a", "numeric"), Column("b", "numeric")))
    records = {"ivap": (IvapCalibrator.from_dict,
                        IvapCalibrator.fit(X[:, 0], y).to_dict()),
               "cvap": (CvapCalibrator.from_dict,
                        CvapCalibrator.fit(ds, 3, mode="randomized", seed=1).to_dict())}
    for kind in ("logistic", "stump", "constant"):
        records[kind] = (scorer_from_dict, train_scorer(ScorerSpec(kind), X, y).to_dict())
    return records


RECORDS = _records()


def numeric_fields(record, path=()):
    """Paths to every number, boolean and null in a record, and to every list
    of them, nested records and lists of records searched too."""
    if isinstance(record, dict):
        items = record.items()
    elif isinstance(record, list) and any(isinstance(v, (dict, list)) for v in record):
        items = enumerate(record)
    else:
        return [] if isinstance(record, str) else [path]
    return [p for key, value in items for p in numeric_fields(value, path + (key,))]


finite = st.floats(allow_nan=False, allow_infinity=False)
# the edges of the integer types and of the sweep's exactness bound, which
# random draws over the whole float range almost never hit
EDGES = [2.0 ** 31, 2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 63, 2.0 ** 64, 1.7976931348623157e308,
         -(2.0 ** 63), 0.5, 5e-324]


def field_at(record, path):
    for key in path:
        record = record[key]
    return record


def with_field(record, path, value):
    """A copy of the record with the field at `path` set to `value`."""
    record = copy.deepcopy(record)
    *parents, last = path
    field_at(record, parents)[last] = value
    return record


def loads_or_raises_value_error(load, record) -> None:
    try:
        load(record)
    except ValueError:
        pass


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(RECORDS)), st.data())
def test_any_finite_value_in_any_field_loads_or_raises_value_error(name, data):
    load, record = RECORDS[name]
    path = data.draw(st.sampled_from(numeric_fields(record)))
    field = field_at(record, path)
    if not isinstance(field, list):
        value = data.draw(finite)
    elif data.draw(st.booleans()):  # the whole list
        value = data.draw(st.lists(finite, max_size=len(field) + 1))
    else:  # one entry
        value = list(field)
        value[data.draw(st.integers(0, len(field) - 1))] = data.draw(finite)
    loads_or_raises_value_error(load, with_field(record, path, value))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_edge_values_in_every_field_load_or_raise_value_error(name):
    load, record = RECORDS[name]
    for path in numeric_fields(record):
        field = field_at(record, path)
        for value in EDGES:
            if isinstance(field, list):  # its first entry, or every entry
                changed = [[value] + field[1:], [value] * len(field)]
            else:
                changed = [value]
            for new in changed:
                loads_or_raises_value_error(load, with_field(record, path, new))
