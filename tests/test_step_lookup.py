"""Both batch lookups on each side of `isotonic._step_lookup`'s size rule.

Against a batch over four times longer than the keys, the keys are searched in
the sorted batch, which is correct only if that order is exact; otherwise each
query is searched in the keys.  IVAP answers as `oracles.where_query` and direct
isotonic as `oracles.input_order_isotonic`, bit for bit, on either side.
"""

import math

import numpy as np
import pytest

from oracles import input_order_isotonic, where_query
from venncal.baselines import DirectIsotonic
from venncal.isotonic import _packed_order
from venncal.ivap import IvapCalibrator


def assert_both_lookups_match_oracles(scores, labels, batch):
    rule = IvapCalibrator.fit(scores, labels)
    lo, hi = rule.predict_intervals(batch)
    want_lo, want_hi = where_query(rule, batch)
    assert lo.tobytes() == want_lo.tobytes() and hi.tobytes() == want_hi.tobytes()
    for dummy in (False, True):
        model = DirectIsotonic.fit(scores, labels, dummy_endpoints=dummy)
        got, want = model.predict_many(batch), input_order_isotonic(model, batch)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert got.tobytes() == want.tobytes()


# 40 falling neighbours of 1.0 beside -1e300: the batch straddles zero, the
# packed key keeps 6 bits fewer than the order key, so the whole run shares its
# kept bits and stays in its (falling) input order
RUN = [1.0]
for _ in range(40):
    RUN.append(math.nextafter(RUN[-1], -math.inf))
TRAP = np.array(RUN + [-1e300])


@pytest.mark.parametrize("n_keys", [3, 10, 11, 14])
def test_batch_left_unsorted_by_the_packed_order_answers_exactly(n_keys):
    # the keys lie on the run, so a key falls between two values the packed
    # order leaves reversed; 10 keys or fewer search the keys in the batch
    scores = RUN[5:5 + 2 * n_keys:2]
    labels = [i % 2 for i in range(n_keys)]
    packed = TRAP[_packed_order(TRAP)]
    descent = np.flatnonzero(packed[1:] < packed[:-1])
    assert any(packed[p + 1] < key <= packed[p] for key in scores for p in descent)
    assert (4 * n_keys < len(TRAP)) == (n_keys <= 10)
    assert_both_lookups_match_oracles(scores, labels, TRAP)
    assert_both_lookups_match_oracles(scores, labels, TRAP[::-1])


# distinct keys -5e-324, -0.0, 5e-324, 1.0, 2.5 (0.0 ties -0.0, 1.0 twice)
SCORES = [-5e-324, -0.0, 0.0, 5e-324, 1.0, 1.0, 2.5]
LABELS = [0, 1, 0, 1, 1, 0, 1]
POOL = [0.0, -0.0, 5e-324, -5e-324, 1e-323, 1.0, math.nextafter(1.0, 0.0),
        math.nextafter(1.0, 2.0), 2.5, 3.0, -1.0, 2.0, 1.0, 0.0, -0.0, 5e-324]


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_batches_around_four_times_the_keys(offset):
    # IVAP and plain direct isotonic have 5 keys: n = 19, 20 and 21 put the
    # rule 4k < n on each side; with dummy endpoints the 7 keys stay on one
    n = 4 * 5 + offset
    batch = np.random.default_rng(n).permutation(np.resize(POOL, n))
    assert_both_lookups_match_oracles(SCORES, LABELS, batch)
    assert_both_lookups_match_oracles(SCORES, LABELS, np.sort(batch)[::-1].copy())


@pytest.mark.parametrize("batch", [1.0, np.float64(-0.0), 5e-324, [], np.empty((0, 2)),
                                   np.resize(POOL, (3, 7)).T],
                         ids=["0d_hit", "0d_negative_zero", "0d_subnormal", "empty",
                              "empty_2d", "2d_transposed"])
def test_shapes_match_oracles(batch):
    assert_both_lookups_match_oracles(SCORES, LABELS, batch)
