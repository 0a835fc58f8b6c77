"""The four benchmark workloads.

A workload makes its inputs from the seed in `setup`, runs its operations
once per pass in `run_pass`, and checks the outputs of the last pass in
`check`.  Only public entry points are driven: `venncal.cli.main(argv)`,
`IvapCalibrator`, `CvapCalibrator` and module functions.  The checks use
`fit_isotonic` on the calibration set with one inserted point, so they do not
share the sweep they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import venncal.cli
from venncal import (
    CvapCalibrator,
    Dataset,
    IvapCalibrator,
    ScorerSpec,
    WeightedPoints,
    dedup_weighted,
    fit_isotonic,
)
from venncal.data import Column

from spans import BULK_LABELS, digest

METHODS = ("underlying", "platt", "isotonic", "ivap", "cvap")
TOL = 1e-12  # refit and batch answers are exact rationals; allow last-bit rounding


@dataclass
class PassResult:
    """One pass: failed operations, output digest and the time of each operation.

    `times` has the same keys on every pass, so the runner can take the median
    time of each operation over the passes.
    """

    failed: int
    digest: str
    times: dict[str, float]
    latency_ns: np.ndarray | None = None


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _write_lines(path: Path, header: str, columns) -> None:
    rows = zip(*(c.tolist() for c in columns))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows))


def _distinct_scores(rng, k: int) -> np.ndarray:
    """k distinct continuous scores in [-4, 4), in random order."""
    return rng.permutation((np.arange(k) + rng.random(k)) * (8.0 / k) - 4.0)


def _labels_for(rng, scores, slope: float) -> np.ndarray:
    return (rng.random(len(scores)) < _sigmoid(slope * scores)).astype(np.int64)


def refit_interval(points: WeightedPoints, s: float) -> tuple[float, float]:
    """(p0, p1) by definition: isotonic fit at s of calibration + (s, 0) / + (s, 1)."""
    i = int(np.searchsorted(points.scores, s))
    hit = i < len(points) and points.scores[i] == s
    out = []
    for label in (0.0, 1.0):
        if hit:
            w = points.weights.copy()
            w[i] += 1
            sums = points.label_sums.copy()
            sums[i] += label
            extended = WeightedPoints(points.scores, w, sums)
        else:
            extended = WeightedPoints(np.insert(points.scores, i, s),
                                      np.insert(points.weights, i, 1),
                                      np.insert(points.label_sums, i, label))
        out.append(float(fit_isotonic(extended)[i]))
    return out[0], out[1]


def _run_cli(argv: list[str], out_dir: Path, tracer) -> tuple[int, float]:
    main = venncal.cli.main if tracer is None else tracer.wrap("cli", venncal.cli.main)
    t0 = perf_counter()
    rc = main(argv)
    elapsed = perf_counter() - t0
    if tracer is not None:
        tracer.counts["cli.bytes_written"] += sum(p.stat().st_size for p in out_dir.iterdir())
    return rc, elapsed


def _files_digest(out_dir: Path) -> str:
    return digest(*(np.frombuffer(p.read_bytes(), dtype=np.uint8)
                    for p in sorted(out_dir.iterdir())))


class Workload:
    ops_per_pass = 1

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.size = self.SMOKE if smoke else self.FULL
        self.digests: dict[str, str] = {}

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def run_pass(self, tracer) -> PassResult:
        raise NotImplementedError

    def check(self) -> list[str]:
        """Messages for the checks that failed on the last pass's outputs."""
        raise NotImplementedError


class Compare(Workload):
    """`venncal compare --ratio 2:1 --seed 7` on synthetic train/test CSVs."""

    FULL = {"train": 50_000, "test": 250_000}
    SMOKE = {"train": 600, "test": 3_000}

    def setup(self, work: Path) -> None:
        rng = np.random.default_rng(self.seed)
        self.out_dir = work / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for part in ("train", "test"):
            y = rng.integers(0, 2, size=self.size[part])
            x = y + rng.standard_normal(len(y))
            self.paths[part] = work / f"{part}.csv"
            _write_lines(self.paths[part], "x,label", (x, y))
        self.table = self.out_dir / "table.csv"
        self.argv = ["compare", "--train", str(self.paths["train"]), "--test",
                     str(self.paths["test"]), "--ratio", "2:1", "--seed", "7",
                     "--out", str(self.table)]

    def run_pass(self, tracer) -> PassResult:
        rc, elapsed = _run_cli(self.argv, self.out_dir, tracer)
        self.digests["compare_table"] = digest(np.frombuffer(self.table.read_bytes(), np.uint8))
        return PassResult(int(rc != 0), _files_digest(self.out_dir), {"compare": elapsed})

    def check(self) -> list[str]:
        lines = self.table.read_text(encoding="utf-8").splitlines()
        if lines[0] != "method,mll,mbl,n,n_infinite":
            return [f"compare: bad header {lines[0]!r}"]
        rows = [line.split(",") for line in lines[1:]]
        errors = []
        if tuple(r[0] for r in rows) != METHODS:
            errors.append(f"compare: methods {[r[0] for r in rows]} not in documented order")
        for method, _mll, mbl, n, n_inf in rows:
            if int(n) != self.size["test"]:
                errors.append(f"compare: {method}: n = {n}")
            if not 0.0 <= float(mbl) <= 4.0:
                errors.append(f"compare: {method}: MBL {mbl} outside [0, 4]")
            if method in ("ivap", "cvap") and int(n_inf) != 0:
                errors.append(f"compare: {method}: {n_inf} infinite log losses")
        return errors


class CvapScorefiles(Workload):
    """`venncal calibrate --method cvap --intervals` on per-fold score files."""

    FULL = {"folds": 3, "calib": 100_000, "test": 250_000, "spot": 6}
    SMOKE = {"folds": 3, "calib": 1_000, "test": 3_000, "spot": 4}

    def setup(self, work: Path) -> None:
        rng = np.random.default_rng(self.seed)
        self.out_dir = work / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        folds = self.size["folds"]
        self.calib, self.tests = [], []
        calib_paths, test_paths = [], []
        base = rng.standard_normal(self.size["test"])
        for k in range(folds):
            z = rng.standard_normal(self.size["calib"])
            y = _labels_for(rng, z, 2.0)
            s = np.round(z + 0.05 * rng.standard_normal(len(z)), 3)
            # test rows are aligned across folds: one base score plus a small jitter
            t = base + 0.02 * rng.standard_normal(len(base))
            self.calib.append((s, y))
            self.tests.append(t)
            calib_paths.append(str(work / f"calib{k}.csv"))
            test_paths.append(str(work / f"test{k}.csv"))
            _write_lines(Path(calib_paths[-1]), "score,label", (s, y))
            _write_lines(Path(test_paths[-1]), "score", (t,))
        self.preds = self.out_dir / "preds.csv"
        self.argv = ["calibrate", "--method", "cvap", "--intervals",
                     "--calib-scores", *calib_paths, "--scores-in", *test_paths,
                     "--out", str(self.preds)]

    def run_pass(self, tracer) -> PassResult:
        rc, elapsed = _run_cli(self.argv, self.out_dir, tracer)
        self.digests["predictions"] = digest(np.frombuffer(self.preds.read_bytes(), np.uint8))
        return PassResult(int(rc != 0), _files_digest(self.out_dir), {"scorefiles": elapsed})

    def check(self) -> list[str]:
        with open(self.preds, encoding="utf-8") as fh:
            header = fh.readline().strip()
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        if header != "p0,p1,p" or table.shape != (self.size["test"], 3):
            return [f"cvap_scorefiles: header {header!r}, shape {table.shape}"]
        errors = []
        if not (np.isfinite(table).all() and (table >= 0).all() and (table <= 1).all()):
            errors.append("cvap_scorefiles: an output outside [0, 1]")
        rng = np.random.default_rng(self.seed + 1)
        rows = rng.choice(len(table), size=self.size["spot"], replace=False)
        points = [dedup_weighted(s, y) for s, y in self.calib]
        for r in rows:
            ivs = np.array([refit_interval(pts, float(t[r])) for pts, t in zip(points, self.tests)])
            gm_hi = math.exp(np.mean(np.log(ivs[:, 1])))
            gm_lo = math.exp(np.mean(np.log(1.0 - ivs[:, 0])))
            want = (1.0 - gm_lo, gm_hi, gm_hi / (gm_lo + gm_hi))
            if not np.allclose(table[r], want, rtol=TOL, atol=TOL):
                errors.append(f"cvap_scorefiles: row {r}: {table[r].tolist()} != refit {want}")
        return errors


class IvapBulk(Workload):
    """IvapCalibrator.fit at three sizes, then predict_many on 1e6 queries each."""

    FULL = {"ks": (1_000, 10_000, 1_000_000), "queries": 1_000_000, "spot": (8, 8, 1)}
    SMOKE = {"ks": (100, 1_000, 5_000), "queries": 20_000, "spot": (4, 4, 1)}
    ops_per_pass = 6

    def setup(self, work: Path) -> None:
        rng = np.random.default_rng(self.seed)
        self.calib = []
        for k in self.size["ks"]:
            s = _distinct_scores(rng, k)
            self.calib.append((s, _labels_for(rng, s, 1.5)))
        n = self.size["queries"]
        q = rng.uniform(-4.4, 4.4, size=n)
        # one query in ten hits a calibration score of the largest rule exactly
        hits = rng.choice(n, size=n // 10, replace=False)
        q[hits] = rng.choice(self.calib[-1][0], size=len(hits))
        self.queries = q
        self.rules = []

    def run_pass(self, tracer) -> PassResult:
        self.rules = []
        self.answers = []
        times = {}
        for label, (s, y) in zip(BULK_LABELS, self.calib):
            t0 = perf_counter()
            self.rules.append(IvapCalibrator.fit(s, y))
            times[f"fit.{label}"] = perf_counter() - t0
        for label, rule in zip(BULK_LABELS, self.rules):
            if tracer is not None:
                tracer.label = label
            t0 = perf_counter()
            self.answers.append(rule.predict_many(self.queries, loss="log"))
            times[f"query.{label}"] = perf_counter() - t0
        if tracer is not None:
            tracer.label = None
        for label, rule, p in zip(BULK_LABELS, self.rules, self.answers):
            self.digests[f"ivap_tables.{label}"] = digest(rule.p0, rule.p1)
            self.digests[f"predictions.{label}"] = digest(p)
        return PassResult(0, "|".join(self.digests.values()), times)

    def check(self) -> list[str]:
        errors = []
        rng = np.random.default_rng(self.seed + 1)
        for label, (s, y), rule, p, spot in zip(BULK_LABELS, self.calib, self.rules,
                                                 self.answers, self.size["spot"]):
            if len(rule) != len(s):
                errors.append(f"ivap_bulk {label}: {len(rule)} distinct scores, want {len(s)}")
            if not (np.all(rule.p0 < rule.p1) and np.all(np.diff(rule.p0) >= 0)
                    and np.all(np.diff(rule.p1) >= 0)):
                errors.append(f"ivap_bulk {label}: p0 < p1 or monotone curves violated")
            idx = rng.choice(len(self.queries), size=spot, replace=False)
            q = self.queries[idx]
            lo, hi = rule.predict_intervals(q)
            points = dedup_weighted(s, y)
            for j, qj in enumerate(q):
                p0, p1 = refit_interval(points, float(qj))
                merged = p1 / ((1.0 - p0) + p1)
                got = (lo[j], hi[j], p[idx[j]])
                if not np.allclose(got, (p0, p1, merged), rtol=TOL, atol=TOL):
                    errors.append(f"ivap_bulk {label}: query {qj!r}: {got} != refit "
                                  f"{(p0, p1, merged)}")
        return errors


class IvapOnline(Workload):
    """One caller in a closed loop over a fixed mix of single-score calls."""

    FULL = {"k": 10_000, "train": 20_000, "folds": 5, "calls": 40_000}
    SMOKE = {"k": 1_000, "train": 2_000, "folds": 5, "calls": 2_000}
    MIX = (0.6, 0.2, 0.2)  # predict_interval(s), predict(s, loss="log"), cvap predict(x)

    def setup(self, work: Path) -> None:
        rng = np.random.default_rng(self.seed)
        s = _distinct_scores(rng, self.size["k"])
        self.rule = IvapCalibrator.fit(s, _labels_for(rng, s, 1.5))
        y = rng.integers(0, 2, size=self.size["train"])
        X = (y + rng.standard_normal(len(y)))[:, None]
        train = Dataset(X, y, (Column("x", "numeric"),))
        self.model = CvapCalibrator.fit(train, self.size["folds"], ScorerSpec("logistic"))
        n = self.size["calls"]
        self.kinds = rng.choice(3, size=n, p=self.MIX)
        values = rng.uniform(-4.4, 4.4, size=n)
        hits = rng.random(n) < 0.1
        values[hits] = rng.choice(s, size=int(hits.sum()))
        self.values = values
        self.features = rng.normal(0.5, 1.2, size=(n, 1))
        self.ops_per_pass = n

    def run_pass(self, tracer) -> PassResult:
        rule, model = self.rule, self.model
        kinds = self.kinds.tolist()
        values = self.values.tolist()
        rows = list(self.features)
        latency = np.empty(len(kinds), dtype=np.int64)
        answers = [None] * len(kinds)
        t_start = perf_counter()
        for i, kind in enumerate(kinds):
            if kind == 0:
                t0 = perf_counter_ns()
                out = rule.predict_interval(values[i])
                t1 = perf_counter_ns()
            elif kind == 1:
                t0 = perf_counter_ns()
                out = rule.predict(values[i], loss="log")
                t1 = perf_counter_ns()
            else:
                t0 = perf_counter_ns()
                out = model.predict(rows[i])
                t1 = perf_counter_ns()
            latency[i] = t1 - t0
            answers[i] = out
        elapsed = perf_counter() - t_start
        self.answers = answers
        self.digests["answers"] = digest(np.array([
            (a.p0, a.p1) if k == 0 else (a, a) for k, a in zip(kinds, answers)]))
        return PassResult(0, self.digests["answers"], {"online": elapsed}, latency)

    def check(self) -> list[str]:
        """Every scalar answer must equal the batch answer for the same input."""
        kinds = self.kinds
        answers = self.answers
        pick = [np.nonzero(kinds == k)[0] for k in range(3)]
        lo, hi = self.rule.predict_intervals(self.values[pick[0]])
        got = np.array([(answers[i].p0, answers[i].p1) for i in pick[0]]).reshape(-1, 2)
        bad = int(np.sum((got[:, 0] != lo) | (got[:, 1] != hi)))
        got1 = np.array([answers[i] for i in pick[1]])
        bad += int(np.sum(got1 != self.rule.predict_many(self.values[pick[1]], loss="log")))
        got2 = np.array([answers[i] for i in pick[2]])
        bad += int(np.sum(got2 != self.model.predict_many(self.features[pick[2]])))
        return [f"ivap_online: {bad} scalar answers differ from the batch answer"] * bad


WORKLOADS = {
    "compare": Compare,
    "ivap_bulk": IvapBulk,
    "cvap_scorefiles": CvapScorefiles,
    "ivap_online": IvapOnline,
}
