"""Hypothesis strategies shared by the test modules."""

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
