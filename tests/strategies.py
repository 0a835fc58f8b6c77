"""Hypothesis strategies shared by the test modules."""

import math

from hypothesis import strategies as st

# finite values over the whole float range, subnormals, 0 and 1 included:
# most lie outside [0, 1]
FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52, 1e308, -1e308]),
    st.floats(0.0, 1.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def calibration_sets(draw):
    """1-40 calibration points: scores from a small integer range (ties) or
    any finite float, labels 0 and 1."""
    score = st.one_of(st.integers(-6, 6).map(float),
                      st.floats(allow_nan=False, allow_infinity=False))
    pairs = draw(st.lists(st.tuples(score, st.integers(0, 1)), min_size=1, max_size=40))
    scores, labels = zip(*pairs)
    return list(scores), list(labels)


@st.composite
def packed_batches(draw):
    """Up to ~60 scores that stress `isotonic._packed_order`, as a list.

    A run of up to 40 `nextafter` neighbours of a centre (alone, the shift
    is 0), sometimes with a far value of the centre's opposite sign (the
    shift turns positive and the run ties in the kept bits), plus up to 10
    `FINITE` values, shuffled; sometimes a NaN or an infinity at any position.
    """
    centre = draw(st.one_of(FINITE, st.floats(-4.0, 4.0)))
    step = draw(st.sampled_from([-math.inf, math.inf]))
    batch = [centre]
    for _ in range(draw(st.integers(0, 40))):
        batch.append(math.nextafter(batch[-1], step))
    batch += draw(st.lists(FINITE, max_size=10))
    if draw(st.booleans()):
        far = draw(st.sampled_from([1e300, 1.7976931348623157e308]))
        batch.append(-math.copysign(far, centre))
    batch = draw(st.permutations(batch))
    bad = draw(st.sampled_from([None, None, None, math.nan, -math.inf, math.inf]))
    if bad is not None:
        batch.insert(draw(st.integers(0, len(batch))), bad)
    return batch
