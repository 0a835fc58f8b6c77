"""Spans and counters for the traced benchmark pass.

The package is not instrumented.  Instead, `Tracer.install` replaces names
with timing wrappers at the places the package looks them up: the package
imports by name (`from venncal.data import load_csv`), so `venncal.cli.load_csv`
and `venncal.data.load_csv` are different bindings, and only the one the
caller reads is wrapped.  Methods are wrapped on their class.  Everything is
restored by `uninstall`, so untraced passes run the package untouched.

A span records (layer, start, end, parent).  When a layer calls back into
itself (`predict` calling `predict_interval`, `predict_many` calling
`predict_intervals_many`) no inner span is opened, so a layer's call count
is the number of calls that entered it from outside.  `busy_s` is the summed
span time of a layer, and `self_s` is that time minus the time of its direct
child spans.
"""

from __future__ import annotations

import hashlib
import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

# Every per-layer metric the traced run reports, with its unit.  Layers a
# workload never enters report 0.
LAYER_METRICS = {
    "data.load_csv.busy_s": "s",
    "data.load_csv.rows": "count",
    "data.read_scores.busy_s": "s",
    "data.read_scores.rows": "count",
    "data.prep.busy_s": "s",
    "scorers.train.calls": "count",
    "scorers.train.repeat_calls": "count",
    "scorers.train.iterations": "count",
    "scorers.train.busy_s": "s",
    "scorers.score.calls": "count",
    "scorers.score.rows": "count",
    "scorers.score.busy_s": "s",
    "baselines.platt_fit.busy_s": "s",
    "baselines.isotonic_fit.busy_s": "s",
    "baselines.predict.busy_s": "s",
    "isotonic.dedup.busy_s": "s",
    "isotonic.dedup.points": "count",
    "isotonic.distinct_ratio": "ratio",
    "isotonic.sweep.busy_s": "s",
    "isotonic.sweep.points": "count",
    "isotonic.sweep.ns_per_point": "ns",
    "isotonic.stack_pushes": "count",
    "isotonic.fit_isotonic.busy_s": "s",
    "ivap.fit.calls": "count",
    "ivap.fit.self_s": "s",
    "ivap.query.calls": "count",
    "ivap.query.repeat_calls": "count",
    "ivap.query.queries": "count",
    "ivap.query.busy_s": "s",
    "ivap.query.ns_per_query": "ns",
    "ivap.query.ns_per_query.k1e3": "ns",
    "ivap.query.ns_per_query.k1e4": "ns",
    "ivap.query.ns_per_query.k1e6": "ns",
    "ivap.scalar.calls": "count",
    "ivap.scalar.busy_s": "s",
    "cvap.fit.self_s": "s",
    "cvap.predict.calls": "count",
    "cvap.predict.self_s": "s",
    "merging.calls": "count",
    "merging.intervals": "count",
    "merging.busy_s": "s",
    "metrics.evaluate.calls": "count",
    "metrics.evaluate.rows": "count",
    "metrics.evaluate.busy_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
}

# k labels the ivap_bulk workload sets while it queries each rule
BULK_LABELS = ("k1e3", "k1e4", "k1e6")


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---- notes: counters taken from a call's arguments and result ----------


def _rows_of_result(tr, dur, result, args, kwargs):
    tr.add("rows", len(result[0] if isinstance(result, tuple) else result))


def _rows_of_first_arg(tr, dur, result, args, kwargs):
    tr.add("rows", len(args[0]))


def _train(tr, dur, result, args, kwargs):
    spec, X, y = args[:3]
    key = (repr(spec), digest(np.asarray(X, dtype=float), np.asarray(y, dtype=float)))
    tr.add("repeat_calls", key in tr.seen["train"])
    tr.seen["train"].add(key)
    history = getattr(result, "loss_history", None)
    if history:
        tr.add("iterations", len(history) - 1)


def _dedup(tr, dur, result, args, kwargs):
    tr.add("points", len(args[0]))
    tr.add("distinct", len(result))


def _sweep(tr, dur, result, args, kwargs):
    tr.add("points", len(args[0]))
    tr.add("pushes", result.corner_pushes + result.sweep_pushes)


def _query(tr, dur, result, args, kwargs):
    rule, scores = args[0], np.asarray(args[1], dtype=float)
    key = (id(rule), digest(scores))
    tr.keep.append(rule)  # keeps id(rule) unique for the rest of the pass
    tr.add("repeat_calls", key in tr.seen["query"])
    tr.seen["query"].add(key)
    tr.add("queries", scores.size)
    if tr.label:
        tr.add("queries." + tr.label, scores.size)
        tr.add("busy." + tr.label, dur)


def _merge(tr, dur, result, args, kwargs):
    tr.add("intervals", np.size(args[0]))


# (module[:class], attribute, layer, note)
SITES = (
    ("venncal.cli", "load_csv", "data.load_csv", _rows_of_result),
    ("venncal.cli", "read_calibration_scores", "data.read_scores", _rows_of_result),
    ("venncal.cli", "read_test_scores", "data.read_scores", _rows_of_result),
    ("venncal.cli", "compute_imputation", "data.prep", None),
    ("venncal.cli", "apply_imputation", "data.prep", None),
    ("venncal.cli", "split_proper_calibration", "data.prep", None),
    ("venncal.cli", "assign_folds", "data.prep", None),
    ("venncal.cvap", "assign_folds", "data.prep", None),
    ("venncal.cli", "train_scorer", "scorers.train", _train),
    ("venncal.cvap", "train_scorer", "scorers.train", _train),
    ("venncal.scorers:LogisticScorer", "score_many", "scorers.score", _rows_of_result),
    ("venncal.scorers:LogisticScorer", "probability_many", "scorers.score", _rows_of_result),
    ("venncal.baselines:PlattCalibrator", "fit", "baselines.platt_fit", None),
    ("venncal.baselines:DirectIsotonic", "fit", "baselines.isotonic_fit", None),
    ("venncal.baselines:PlattCalibrator", "predict_many", "baselines.predict", None),
    ("venncal.baselines:DirectIsotonic", "predict_many", "baselines.predict", None),
    ("venncal.ivap", "dedup_weighted", "isotonic.dedup", _dedup),
    ("venncal.baselines", "dedup_weighted", "isotonic.dedup", _dedup),
    ("venncal.ivap", "lower_prob_scan", "isotonic.sweep", _sweep),
    ("venncal.ivap", "upper_prob_scan", "isotonic.sweep", _sweep),
    ("venncal.baselines", "fit_isotonic", "isotonic.fit_isotonic", None),
    ("venncal.ivap:IvapCalibrator", "fit", "ivap.fit", None),
    ("venncal.ivap:IvapCalibrator", "predict_intervals", "ivap.query", _query),
    ("venncal.ivap:IvapCalibrator", "predict_interval", "ivap.scalar", None),
    ("venncal.ivap:IvapCalibrator", "predict", "ivap.scalar", None),
    ("venncal.cvap:CvapCalibrator", "fit", "cvap.fit", None),
    ("venncal.cvap:CvapCalibrator", "predict", "cvap.predict", None),
    ("venncal.cvap:CvapCalibrator", "predict_many", "cvap.predict", None),
    ("venncal.cvap:CvapCalibrator", "predict_intervals_many", "cvap.predict", None),
    ("venncal.ivap", "merge_log", "merging", _merge),
    ("venncal.ivap", "merge_brier", "merging", _merge),
    ("venncal.ivap", "merge_interval", "merging", _merge),
    ("venncal.cvap", "merge_log", "merging", _merge),
    ("venncal.cvap", "merge_brier", "merging", _merge),
    ("venncal.cli", "merge_log", "merging", _merge),
    ("venncal.cli", "merge_brier", "merging", _merge),
    ("venncal.cli", "evaluate", "metrics.evaluate", _rows_of_first_arg),
)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.seen: dict[str, set] = defaultdict(set)
        self.keep: list = []
        self.label: str | None = None
        self.missing: list[str] = []
        self._layer: str | None = None
        self._restore: list[tuple] = []

    def add(self, counter: str, amount) -> None:
        self.counts[f"{self._layer}.{counter}"] += amount

    def wrap(self, layer: str, fn, note=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            tracer._layer = layer
            tracer.add("calls", 1)
            if note is not None:
                note(tracer, span[2] - span[1], result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        for site, attr, layer, note in SITES:
            module_name, _, class_name = site.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{site}.{attr}")
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(layer, raw.__func__, note))
            else:
                new = self.wrap(layer, raw, note)
            setattr(owner, attr, new)
            self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)
        self.keep.clear()

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of this pass, named as in LAYER_METRICS."""
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for layer, start, end, parent in self.spans:
            busy[layer] += end - start
            own[layer] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        c = self.counts

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        out = {}
        for name in LAYER_METRICS:
            layer, _, field = name.rpartition(".")
            if field == "busy_s":
                out[name] = busy[layer]
            elif field == "self_s":
                out[name] = own[layer]
            else:
                out[name] = c[name]
        out["isotonic.distinct_ratio"] = per(c["isotonic.dedup.distinct"],
                                             c["isotonic.dedup.points"])
        out["isotonic.sweep.ns_per_point"] = per(busy["isotonic.sweep"],
                                                 c["isotonic.sweep.points"], 1e9)
        out["isotonic.stack_pushes"] = c["isotonic.sweep.pushes"]
        out["ivap.query.ns_per_query"] = per(busy["ivap.query"], c["ivap.query.queries"], 1e9)
        for label in BULK_LABELS:
            out[f"ivap.query.ns_per_query.{label}"] = per(
                c[f"ivap.query.busy.{label}"], c[f"ivap.query.queries.{label}"], 1e9)
        return out
