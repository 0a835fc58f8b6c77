"""The paper's validity claim, checked exactly by enumeration.

Draw k calibration pairs and one test pair (s, Y) independently from one
discrete score/label distribution.  The endpoint p_Y of the test interval
(p1 if Y = 1, else p0) is perfectly calibrated: for every value v,
P(Y = 1, p_Y = v) = v * P(p_Y = v) (Vovk & Petej, *Venn-Abers predictors*,
UAI 2014).  Every (k + 1)-tuple is enumerated with Fraction probabilities,
so both sides are exact; a calibration multiset is fitted once and weighted
by its number of orderings.  Each p_Y is a mean of k + 1 labels, and a fit on
the k calibration labels alone is a mean of at most k, so
`limit_denominator(k + 1)` recovers the value exactly from its float.

The merged probability p = merge(p0, p1, loss) loses that property, as the
paper says of precise probabilities.  It is not a mean of labels, so its
level sets are keyed by the exact value of its float, `Fraction(p)`, and
every declared case shows a calibration gap |P(Y = 1 | p = v) - v| above a
fixed threshold under both losses.
"""

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod

import numpy as np
import pytest

from venncal.baselines import DirectIsotonic
from venncal.ivap import IvapCalibrator
from venncal.merging import LOSSES

# name -> [(score, P(score), P(Y = 1 | score))]; scores repeat across draws, so
# every calibration set with k > len(distribution) holds ties
DISTRIBUTIONS = {
    "two_scores": [(0.0, Fraction(1, 3), Fraction(1, 4)),
                   (1.0, Fraction(2, 3), Fraction(2, 3))],
    "three_scores": [(-1.0, Fraction(1, 4), Fraction(1, 5)),
                     (0.5, Fraction(1, 2), Fraction(1, 2)),
                     (2.0, Fraction(1, 4), Fraction(3, 4))],
    "anti_monotone": [(-2.0, Fraction(1, 2), Fraction(4, 5)),
                      (0.0, Fraction(1, 6), Fraction(1, 2)),
                      (3.0, Fraction(1, 3), Fraction(1, 10))],
}

CASES = [("two_scores", 1), ("two_scores", 3), ("two_scores", 5),
         ("three_scores", 2), ("three_scores", 4), ("anti_monotone", 3), ("anti_monotone", 5)]


def ivap_endpoint(scores, labels, test_scores):
    """(values if Y = 0, values if Y = 1) over the test scores: p0 and p1."""
    rule = IvapCalibrator.fit(scores, labels)
    intervals = [rule.predict_interval(s) for s in test_scores]
    return [iv.p0 for iv in intervals], [iv.p1 for iv in intervals]


def wrong_endpoint(scores, labels, test_scores):
    p0, p1 = ivap_endpoint(scores, labels, test_scores)
    return p1, p0


def plain_isotonic(scores, labels, test_scores):
    p = DirectIsotonic.fit(scores, labels).predict_many(test_scores)
    return p, p


def merged(loss):
    """The merged probability under `loss`: one value whatever Y is."""
    def predictor(scores, labels, test_scores):
        p = IvapCalibrator.fit(scores, labels).predict_many(test_scores, loss)
        return p, p
    return predictor


def level_sets(name: str, k: int, predictor, exact: bool = False) -> dict:
    """{v: [P(p_Y = v), P(Y = 1, p_Y = v)]} over every (k + 1)-tuple of draws;
    v is the float's exact value if `exact`, else the mean of k + 1 labels nearest it."""
    dist = DISTRIBUTIONS[name]
    test_scores = np.array([s for s, _, _ in dist])
    # (score index, label, probability) of each possible draw
    draws = [(i, y, p_s * (p_y if y else 1 - p_y))
             for i, (_, p_s, p_y) in enumerate(dist) for y in (0, 1)]
    sets = defaultdict(lambda: [Fraction(0), Fraction(0)])
    # the fit sees the calibration multiset only, so each multiset stands for
    # its k! / prod(m_j!) orderings
    for calibration in combinations_with_replacement(draws, k):
        scores = test_scores[[i for i, _, _ in calibration]]
        labels = [y for _, y, _ in calibration]
        orderings = factorial(k) // prod(map(factorial, Counter(calibration).values()))
        weight = orderings * prod(p for _, _, p in calibration)
        by_label = predictor(scores, labels, test_scores)
        for i, y, p in draws:
            v = Fraction(float(by_label[y][i]))
            v = v if exact else v.limit_denominator(k + 1)
            sets[v][0] += weight * p
            sets[v][1] += weight * p * y
    assert sum(total for total, _ in sets.values()) == 1
    return sets


def miscalibrated(sets: dict) -> list:
    return [v for v, (total, positive) in sets.items() if positive != v * total]


@pytest.mark.parametrize("name, k", CASES, ids=[f"{n}-k{k}" for n, k in CASES])
def test_selected_endpoint_is_perfectly_calibrated(name, k):
    sets = level_sets(name, k, ivap_endpoint)
    assert len(sets) >= 2
    assert miscalibrated(sets) == []


# below the least gap measured before this test was written (0.077, two_scores
# at k = 1 under Brier loss; the largest was 0.59)
MERGED_GAP = 0.05


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("name, k", CASES, ids=[f"{n}-k{k}" for n, k in CASES])
def test_merged_probability_is_not(name, k, loss):
    sets = level_sets(name, k, merged(loss), exact=True)
    gaps = [abs(positive / total - v) for v, (total, positive) in sets.items()]
    print(f"\n{name} k = {k}, {loss} loss: largest gap {float(max(gaps)):.3f}")
    assert max(gaps) > MERGED_GAP


@pytest.mark.parametrize("name, k", CASES, ids=[f"{n}-k{k}" for n, k in CASES])
def test_wrong_endpoint_and_plain_isotonic_are_not(name, k):
    # without these failures the exact check above could pass vacuously
    assert miscalibrated(level_sets(name, k, wrong_endpoint))
    assert miscalibrated(level_sets(name, k, plain_isotonic))
