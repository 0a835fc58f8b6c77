"""The abstract's empirical statements, measured on drawn data.

"Imprecise (in practice, almost precise for large data sets) probabilities":
the interval calibrator's mean width p1 - p0 over 20k test scores falls at
every tenfold step of the calibration size k, for each of three score links.
Each link's seed and every size were fixed before any result was seen.  The
widths and the rate k x width are printed (`pytest tests/test_reproduction.py
-s`); only the fall is asserted.
"""

import numpy as np
import pytest

from venncal.ivap import IvapCalibrator

SIZES = (100, 1_000, 10_000, 100_000)
N_TEST = 20_000


def _shift(rng, n):
    """y a fair coin, x = y + N(0, 1): the package's synthetic generator."""
    y = rng.integers(0, 2, size=n)
    return y + rng.standard_normal(n), y


def _linked(probability):
    """x ~ N(0, 1), y ~ Bernoulli(probability(x))."""
    def draw(rng, n):
        x = rng.standard_normal(n)
        return x, (rng.random(n) < probability(x)).astype(int)
    return draw


LINKS = {  # name: (draw, seed)
    "shift": (_shift, 2701),
    "step": (_linked(lambda x: np.where(x <= 0.5, 0.15, 0.8)), 2702),
    "sigmoid-cube": (_linked(lambda x: 1.0 / (1.0 + np.exp(-x ** 3))), 2703),
}


@pytest.mark.parametrize("link", LINKS)
def test_intervals_narrow_as_the_calibration_set_grows(link):
    draw, seed = LINKS[link]
    rng = np.random.default_rng(seed)
    scores, labels = draw(rng, SIZES[-1])
    test_scores, _ = draw(rng, N_TEST)
    widths = []
    for k in SIZES:  # the first k draws: each set holds the one before
        lo, hi = IvapCalibrator.fit(scores[:k], labels[:k]).predict_intervals(test_scores)
        widths.append(float(np.mean(hi - lo)))
    print()
    for k, width in zip(SIZES, widths):
        print(f"{link:>12} k = {k:>6}: mean width {width:.5f}, k x width {k * width:8.2f}")
    assert all(wide > narrow for wide, narrow in zip(widths, widths[1:])), widths
