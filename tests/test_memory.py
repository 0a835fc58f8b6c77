"""Memory a fit allocates above its inputs, in bytes per calibration point.

numpy reports its data buffers to tracemalloc, so the peak traced during one call,
less what was traced before it, is what the call allocated at its worst moment: its
result plus the temporaries alive then.  The figure is deterministic.  The inputs have
the `ivap_bulk` shape at k = 2e5: distinct scores in random order and int64 0/1
labels, which `dedup_weighted` and `IvapCalibrator.fit` convert to float64 (8 bytes
per point).

Each bound is the figure measured for the current code plus a margin of 2 bytes per
point, a quarter of a float64 array of the batch's length.  A change that holds one
more batch-sized float64 buffer at the worst moment crosses it: keeping
`fit_isotonic`'s y coordinate through its readout reads 24.1.  Measured figures, and
those of the code before the fit freed its transients:

| call | now | before |
|---|---|---|
| `dedup_weighted` | 48.0 | 65.0 |
| `fit_isotonic` (on the deduplicated points) | 20.7 | 49.0 |
| `IvapCalibrator.fit` | 64.0 | 113.5 |
"""

import tracemalloc

import numpy as np
import pytest

from venncal.isotonic import dedup_weighted, fit_isotonic
from venncal.ivap import IvapCalibrator

K = 200_000
MARGIN = 2.0


def peak_bytes_per_point(call, *args) -> float:
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call(*args)  # held until the peak is read
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert result is not None
    return peak / K


@pytest.fixture(scope="module")
def calibration():
    rng = np.random.default_rng(0)
    s = rng.permutation((np.arange(K) + rng.random(K)) * (8.0 / K) - 4.0)
    y = (rng.random(K) < 1.0 / (1.0 + np.exp(-1.5 * s))).astype(np.int64)
    return s, y


@pytest.mark.parametrize("name, measured", [
    ("dedup_weighted", 48.0),
    ("fit_isotonic", 20.7),
    ("IvapCalibrator.fit", 64.0),
])
def test_fit_transients_stay_bounded(calibration, name, measured):
    s, y = calibration
    calls = {
        "dedup_weighted": (dedup_weighted, (s, y)),
        "fit_isotonic": (fit_isotonic, (dedup_weighted(s, y),)),
        "IvapCalibrator.fit": (IvapCalibrator.fit, (s, y)),
    }
    call, args = calls[name]
    assert peak_bytes_per_point(call, *args) <= measured + MARGIN
