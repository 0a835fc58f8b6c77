"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values in the toy tables are exact rationals; every other
expectation is computed by an independent oracle (insert-and-refit,
exhaustive partition enumeration, grid search) or is a structural bound.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from oracles import (
    brute_force_isotonic,
    grid_platt,
    n_negative,
    n_positive,
    platt_objective,
    refit_interval,
)
from venncal.baselines import DirectIsotonic, PlattCalibrator
from venncal.cvap import CvapCalibrator
from venncal.data import generate_synthetic, split_proper_calibration
from venncal.exceptions import DegenerateModelError
from venncal.isotonic import (
    dedup_weighted,
    fit_isotonic,
    lower_prob_scan,
    upper_prob_scan,
)
from venncal.ivap import IvapCalibrator
from venncal.merging import merge
from venncal.metrics import evaluate
from venncal.scorers import ScorerSpec, train_scorer

F = Fraction

# lower/upper probability tables for three calibration scores, all 8 label
# vectors, and for four calibration scores, all 16 label vectors
TABLE3 = {
    (0, 0, 0): ([0, 0, 0], [F(1, 4), F(1, 3), F(1, 2)]),
    (0, 0, 1): ([0, 0, F(1, 2)], [F(1, 3), F(1, 2), 1]),
    (0, 1, 0): ([0, F(1, 3), F(1, 3)], [F(1, 2), F(2, 3), F(2, 3)]),
    (0, 1, 1): ([0, F(1, 2), F(2, 3)], [F(1, 2), 1, 1]),
    (1, 0, 0): ([F(1, 4)] * 3, [F(1, 2)] * 3),
    (1, 0, 1): ([F(1, 3), F(1, 3), F(1, 2)], [F(2, 3), F(2, 3), 1]),
    (1, 1, 0): ([F(1, 2)] * 3, [F(3, 4)] * 3),
    (1, 1, 1): ([F(1, 2), F(2, 3), F(3, 4)], [1, 1, 1]),
}
TABLE4 = {
    (0, 0, 0, 0): ([0, 0, 0, 0], [F(1, 5), F(1, 4), F(1, 3), F(1, 2)]),
    (0, 0, 0, 1): ([0, 0, 0, F(1, 2)], [F(1, 4), F(1, 3), F(1, 2), 1]),
    (0, 0, 1, 0): ([0, 0, F(1, 3), F(1, 3)], [F(1, 3), F(1, 2), F(2, 3), F(2, 3)]),
    (0, 0, 1, 1): ([0, 0, F(1, 2), F(2, 3)], [F(1, 3), F(1, 2), 1, 1]),
    (0, 1, 0, 0): ([0, F(1, 4), F(1, 4), F(1, 4)], [F(2, 5), F(1, 2), F(1, 2), F(1, 2)]),
    (0, 1, 0, 1): ([0, F(1, 3), F(1, 3), F(1, 2)], [F(1, 2), F(2, 3), F(2, 3), 1]),
    (0, 1, 1, 0): ([0, F(1, 2), F(1, 2), F(1, 2)], [F(1, 2), F(3, 4), F(3, 4), F(3, 4)]),
    (0, 1, 1, 1): ([0, F(1, 2), F(2, 3), F(3, 4)], [F(1, 2), 1, 1, 1]),
    (1, 0, 0, 0): ([F(1, 5)] * 4, [F(2, 5), F(2, 5), F(2, 5), F(1, 2)]),
    (1, 0, 0, 1): ([F(1, 4), F(1, 4), F(1, 4), F(1, 2)], [F(1, 2), F(1, 2), F(1, 2), 1]),
    (1, 0, 1, 0): ([F(1, 3), F(1, 3), F(2, 5), F(2, 5)], [F(3, 5), F(3, 5), F(2, 3), F(2, 3)]),
    (1, 0, 1, 1): ([F(1, 3), F(1, 3), F(1, 2), F(2, 3)], [F(2, 3), F(2, 3), 1, 1]),
    (1, 1, 0, 0): ([F(2, 5)] * 4, [F(3, 5)] * 4),
    (1, 1, 0, 1): ([F(1, 2), F(1, 2), F(1, 2), F(3, 5)], [F(3, 4), F(3, 4), F(3, 4), 1]),
    (1, 1, 1, 0): ([F(1, 2), F(3, 5), F(3, 5), F(3, 5)], [F(4, 5), F(4, 5), F(4, 5), F(4, 5)]),
    (1, 1, 1, 1): ([F(1, 2), F(2, 3), F(3, 4), F(4, 5)], [1, 1, 1, 1]),
}


def check_table(table, scores):
    for labels, (exp_lo, exp_hi) in table.items():
        pts = dedup_weighted(scores, labels)
        lo = lower_prob_scan(pts)
        hi = upper_prob_scan(pts)
        assert np.allclose(lo.values, [float(v) for v in exp_lo], rtol=0, atol=1e-12)
        assert np.allclose(hi.values, [float(v) for v in exp_hi], rtol=0, atol=1e-12)
        got_lo = [F(int(n), int(d)) for n, d in zip(lo.num, lo.den)]
        got_hi = [F(int(n), int(d)) for n, d in zip(hi.num, hi.den)]
        assert got_lo == [F(v) for v in exp_lo]
        assert got_hi == [F(v) for v in exp_hi]


def random_calibration(rng, max_k, ties=True):
    k = int(rng.integers(1, max_k + 1))
    if ties:
        scores = rng.integers(0, max(2, k), size=k).astype(float)
    else:
        scores = rng.normal(size=k)
    labels = rng.integers(0, 2, size=k)
    return scores, labels


def test_criterion_01_table3_oracle():
    t0 = time.perf_counter()
    check_table(TABLE3, [1, 2, 3])
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: all 8 label vectors match the 3-score table "
          f"exactly ({elapsed * 1e3:.0f} ms)")


def test_criterion_02_table4_oracle():
    t0 = time.perf_counter()
    check_table(TABLE4, [1, 2, 3, 4])
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: all 16 label vectors match the 4-score table "
          f"exactly ({elapsed * 1e3:.0f} ms)")


def test_criterion_03_insert_and_refit_equivalence():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        scores, labels = random_calibration(rng, 20)
        rule = IvapCalibrator.fit(scores, labels)
        queries = np.concatenate([
            rng.normal(scale=2, size=4),
            rng.choice(scores, size=3),            # exact key hits
            rng.uniform(scores.min(), scores.max() + 1e-9, size=1),
            [scores.min() - 3, scores.max() + 3],  # out of range
        ])
        lo, hi = rule.predict_intervals(queries)
        for q, l, h in zip(queries, lo, hi):
            exp0, exp1 = refit_interval(scores, labels, float(q))
            assert abs(l - exp0) <= 1e-9
            assert abs(h - exp1) <= 1e-9
    print("\nACCEPTANCE 3 PASS: interval queries equal insert-and-refit on "
          "1000 calibration sets x 10 test scores (tol 1e-9)")


def test_criterion_04_brute_force_isotonic_oracle():
    rng = np.random.default_rng(404)
    done = 0
    while done < 1000:
        k = int(rng.integers(1, 9))
        scores = np.repeat(np.arange(k, dtype=float), rng.integers(1, 4, size=k))
        labels = rng.integers(0, 2, size=len(scores))
        pts = dedup_weighted(scores, labels)
        assert np.allclose(fit_isotonic(pts), brute_force_isotonic(pts), rtol=0, atol=1e-9)
        done += 1
    print("\nACCEPTANCE 4 PASS: isotonic fit equals the exhaustive block-partition "
          "minimizer on 1000 instances (tol 1e-9)")


def test_criterion_05_validity_level_sets():
    rng = np.random.default_rng(505)
    for _ in range(200):
        n = int(rng.integers(3, 15))
        scores = rng.integers(0, max(2, n // 2), size=n).astype(float)
        labels = rng.integers(0, 2, size=n).astype(float)
        pts = dedup_weighted(scores, labels)
        pool_fit = fit_isotonic(pts)
        selected = np.empty(n)
        for j in range(n):
            rest = np.arange(n) != j
            rule = IvapCalibrator.fit(scores[rest], labels[rest])
            iv = rule.predict_interval(float(scores[j]))
            selected[j] = iv.p1 if labels[j] == 1.0 else iv.p0
            # the selector-augmented fit is the fit of the whole pool
            at_j = pool_fit[np.searchsorted(pts.scores, scores[j])]
            assert abs(selected[j] - at_j) <= 1e-12
        for value in np.unique(selected):
            group = selected == value
            assert abs(np.mean(labels[group]) - value) <= 1e-12
    print("\nACCEPTANCE 5 PASS: within every level set of the selector-augmented "
          "fit the mean label equals the fitted value (200 pools, tol 1e-12)")


def test_criterion_06_count_bounds():
    rng = np.random.default_rng(606)
    for _ in range(1000):
        scores, labels = random_calibration(rng, 25)
        rule = IvapCalibrator.fit(scores, labels)
        k_pos, k_neg = n_positive(rule), n_negative(rule)
        qs = rng.normal(scale=3, size=5)
        lo, hi = rule.predict_intervals(qs)
        assert np.all(hi >= 1.0 / (k_neg + 1) - 1e-12)
        assert np.all(lo <= 1.0 - 1.0 / (k_pos + 1) + 1e-12)
        p = merge(lo[None, :], hi[None, :], "log")
        assert np.all(p >= 1.0 / (k_neg + 2) - 1e-12)
        assert np.all(p <= 1.0 - 1.0 / (k_pos + 2) + 1e-12)

    built = 0
    while built < 1000:
        n = int(rng.integers(12, 60))
        ds = generate_synthetic(n, seed=int(rng.integers(1 << 31)))
        n_folds = int(rng.integers(2, 5))
        try:
            model = CvapCalibrator.fit(ds, n_folds, ScorerSpec("stump"))
        except DegenerateModelError:
            continue
        built += 1
        k_max = int(np.max(np.bincount(model.folds.fold_of)))
        p = model.predict_many(rng.normal(scale=2, size=(8, 1)))
        assert np.all(p >= 1.0 / (k_max + 2) - 1e-12)
        assert np.all(p <= 1.0 - 1.0 / (k_max + 2) + 1e-12)
    print("\nACCEPTANCE 6 PASS: interval, log-merged and cross-merged predictions "
          "respect the class-count bounds on 1000 + 1000 instances")


def test_criterion_07_merging_identities():
    rng = np.random.default_rng(707)
    for _ in range(1000):
        k = int(rng.integers(1, 11))
        p0 = rng.uniform(0.0, 0.98, size=k)
        p1 = p0 + rng.uniform(0.005, 1.0 - p0)
        p_log = merge(p0, p1, "log")
        assert abs(np.sum(np.log(p1 / p_log))
                   - np.sum(np.log((1.0 - p0) / (1.0 - p_log)))) <= 1e-9
        p_br = merge(p0, p1, "brier")
        assert abs(np.sum((1.0 - p_br) ** 2 - (1.0 - p1) ** 2)
                   - np.sum(p_br ** 2 - p0 ** 2)) <= 1e-9
        q = float(rng.uniform(0.01, 0.99))
        assert abs(merge([q] * k, [q] * k, "log") - q) <= 1e-12
        qs = rng.uniform(0.01, 0.99, size=k)
        assert abs(merge(qs, qs, "brier") - np.mean(qs)) <= 1e-12
    print("\nACCEPTANCE 7 PASS: both merges satisfy their defining equations on "
          "1000 batches (tol 1e-9) and reduce to the precise probability")


def test_criterion_08_symmetry_identity_exact():
    rng = np.random.default_rng(808)
    for _ in range(1000):
        k = int(rng.integers(1, 13))
        scores = rng.integers(0, max(2, k), size=k).astype(float)
        labels = rng.integers(0, 2, size=k)
        lo = lower_prob_scan(dedup_weighted(scores, labels))
        hi = upper_prob_scan(dedup_weighted(-scores, 1 - labels))
        m = len(lo.values)
        for i in range(m):
            lhs = F(int(lo.num[i]), int(lo.den[i]))
            rhs = 1 - F(int(hi.num[m - 1 - i]), int(hi.den[m - 1 - i]))
            assert lhs == rhs
    print("\nACCEPTANCE 8 PASS: mirror symmetry between the lower and upper curves "
          "holds as exact rationals on 1000 instances")


def test_criterion_09_directional_experiment():
    t0 = time.perf_counter()
    spec = ScorerSpec("logistic")
    mbl_wins = 0
    cvap_all_finite = True
    iso_any_infinite = False
    for seed in range(1, 11):
        train = generate_synthetic(5000, seed=seed)
        test = generate_synthetic(25000, seed=1000 + seed)
        model = CvapCalibrator.fit(train, 3, spec)
        rep_cvap = evaluate(model.predict_many(test.X), test.y)
        proper, calib = split_proper_calibration(train, (2, 1))
        scorer = train_scorer(spec, proper.X, proper.y)
        iso = DirectIsotonic.fit(scorer.score_many(calib.X), calib.y)
        rep_iso = evaluate(iso.predict_many(scorer.score_many(test.X)), test.y)
        mbl_wins += rep_cvap.mean_brier_loss <= rep_iso.mean_brier_loss
        cvap_all_finite &= np.isfinite(rep_cvap.mean_log_loss)
        iso_any_infinite |= rep_iso.mean_log_loss == float("inf")
    elapsed = time.perf_counter() - t0
    assert mbl_wins >= 8
    assert cvap_all_finite
    assert iso_any_infinite
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 9 PASS: cross-calibrated MBL wins {mbl_wins}/10 seeds, "
          f"its MLL is always finite, direct isotonic hits an infinite MLL "
          f"({elapsed:.1f} s)")


def test_criterion_10_complexity():
    rng = np.random.default_rng(1010)
    k = 10 ** 6
    scores = np.sort(rng.normal(size=k))
    labels = rng.integers(0, 2, size=k)
    t0 = time.perf_counter()
    rule = IvapCalibrator.fit(scores, labels)
    build = time.perf_counter() - t0
    assert build < 5.0
    bound = 2 * len(rule) + 2
    assert all(c <= bound for c in rule.push_counts)

    small = IvapCalibrator.fit(scores[:1000], labels[:1000])
    queries = rng.normal(size=100_000)

    def per_query(r):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            r.predict_intervals(queries)
            best = min(best, time.perf_counter() - t0)
        return best / len(queries)

    t_small = per_query(small)
    t_big = per_query(rule)
    ratio = t_big / t_small
    assert ratio < 20.0
    print(f"\nACCEPTANCE 10 PASS: 1e6-point rule built in {build:.2f} s, stack "
          f"pushes within {bound}, per-query ratio 1e6 vs 1e3 keys = {ratio:.1f}x")


def _platt_instances():
    out = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 16))
        scores = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() != labels.max():
            out.append((scores, labels))
        if len(out) == 20:
            break
    return out


def test_criterion_11a_platt_objective_beats_grid():
    for scores, labels in _platt_instances():
        m = PlattCalibrator.fit(scores, labels)
        fitted = platt_objective(m.a, m.b, scores, labels, m.k_pos, m.k_neg)
        _, _, oracle = grid_platt(scores, labels)
        assert fitted <= oracle + 1e-6
    print("\nACCEPTANCE 11a PASS: fitted sigmoid objective beats the refined "
          "grid oracle within 1e-6 on 20 instances")


def test_criterion_11b_platt_predictions_in_open_target_range():
    # Stated criterion: every fitted prediction lies strictly inside
    # (1/(k-+2), (k++1)/(k++2)).  This is not a theorem: the stationarity
    # conditions sum(t-p)=0 and sum((t-p)s)=0 allow individual predictions
    # to overshoot the targets.  Smallest counterexample: scores (0,1,2),
    # labels (0,1,1) give p=(0.395, 0.627, 0.812) with upper bound 3/4.
    # The check is kept as written; see the repository notes on this test.
    violations = []
    for scores, labels in _platt_instances():
        m = PlattCalibrator.fit(scores, labels)
        lo = 1.0 / (m.k_neg + 2.0)
        hi = (m.k_pos + 1.0) / (m.k_pos + 2.0)
        p = m.predict_many(scores)
        if p.min() <= lo or p.max() >= hi:
            violations.append((p.min(), p.max(), lo, hi))
    if violations:
        print(f"\nACCEPTANCE 11b FAIL: {len(violations)}/20 instances have fitted "
              f"predictions outside the open target range; first: "
              f"p in [{violations[0][0]:.4f}, {violations[0][1]:.4f}] vs "
              f"({violations[0][2]:.4f}, {violations[0][3]:.4f})")
    else:
        print("\nACCEPTANCE 11b PASS: all predictions inside the open target range")
    assert not violations, (
        "fitted sigmoid predictions can leave the open target range; "
        "the stated bound does not hold at the optimum of the objective")


def test_criterion_12_compare_determinism(tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    for path, n, seed in ((train, 400, 21), (test, 150, 22)):
        ds = generate_synthetic(n, seed=seed)
        with open(path, "w", newline="") as fh:
            fh.write("x,label\n")
            for x, y in zip(ds.X[:, 0], ds.y):
                fh.write(f"{float(x)!r},{int(y)}\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "venncal", "compare", "--train", str(train),
             "--test", str(test), "--ratio", "2:1", "--seed", "9",
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    a, b = outs
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.txt").read_bytes() == (tmp_path / "b.csv.txt").read_bytes()
    ma = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    mb = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert ma == mb
    print("\nACCEPTANCE 12 PASS: two identical compare runs produce byte-identical "
          "tables, text reports and manifests")
