"""Benchmark of the venncal package: one workload per invocation.

Run from the repository root; the package is imported from ./src:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--smoke] [--out RESULTS.jsonl]
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

A run sets the workload up several times (the median is `setup_s`), then
repeats timed passes for S seconds and checks the outputs.  With --trace 0
the last line of standard output holds the end-to-end metrics of
BENCHMARK.json; with --trace 1 it alternates untraced and traced passes and
reports the per-layer metrics.  The line before it is the full record:
environment, digests of the outputs, every pass time and the failed checks.
--out appends that record to a JSON-lines file, and --compare prints the
per-metric ratios of two such files.  --smoke shrinks every input so all
workloads run in seconds.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# one thread per workload; must be set before numpy is imported
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("compare", "ivap_bulk", "cvap_scorefiles", "ivap_online")
SETUP_REPEATS = 3
# workload figures the traced run reports next to the layer metrics
RUN_FIGURES = {
    "run.wall_s": "s",
    "run.fit_s": "s",
    "run.query_s": "s",
    "run.calls_per_s": "1/s",
    "run.call_p50_us": "us",
    "run.call_p99_us": "us",
    "run.call_samples": "count",
    "run.error_rate": "ratio",
    "trace.overhead": "ratio",
}


def git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    source = hashlib.sha256()
    for path in sorted((root / "src" / "venncal").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(root),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
        "seed": seed,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


class Passes:
    """Times of each operation over the passes, and the online call latencies."""

    def __init__(self):
        self.times: list[dict[str, float]] = []
        self.latency: list[np.ndarray] = []

    def add(self, result) -> None:
        self.times.append(result.times)
        if result.latency_ns is not None:
            self.latency.append(result.latency_ns)

    def median(self, prefix: str = "") -> float:
        """Sum over the operations named `prefix`* of their median time per pass."""
        ops = [op for op in self.times[0] if op.startswith(prefix)] if self.times else []
        return sum((_median([t[op] for t in self.times]) for op in ops), 0.0)

    def figures(self) -> dict:
        out = {"run.fit_s": self.median("fit."), "run.query_s": self.median("query.")}
        if self.latency:
            lat = np.concatenate(self.latency)
            out["run.calls_per_s"] = len(self.latency[0]) / self.median("online")
            out["run.call_p50_us"] = float(np.percentile(lat, 50)) / 1e3
            out["run.call_p99_us"] = float(np.percentile(lat, 99)) / 1e3
            out["run.call_samples"] = len(lat)
        return out


_REF_DATA = np.random.default_rng(0).random(20_000)
# Time of one reference step on the 2-CPU machine the benchmark was built on,
# in its usual state.  It only fixes the unit of wall_ref_s.
REF_STEP_S = 250e-6


def reference_step_s(seconds: float = 0.1) -> float:
    """Mean time of a fixed step of pure-Python and numpy work that uses no venncal code.

    Measured before every pass; it tracks how fast the shared machine runs
    at the time, which drifts by up to 1.75x over minutes.
    """
    n = 0
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        acc = 0
        for i in range(2_000):
            acc += i * i
        np.sort(_REF_DATA)
        n += 1
    return (perf_counter() - t0) / n


def _count_drift(layers) -> list[str]:
    """Counts must repeat exactly from one traced pass to the next."""
    return [f"{m} differs between traced passes: {[layer[m] for layer in layers]}"
            for m, unit in spans.LAYER_METRICS.items()
            if unit not in ("s", "ns") and any(layer[m] != layers[0][m] for layer in layers)]


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """Set up, measure and check one workload; returns the full record."""
    t0 = perf_counter()
    import venncal.cli  # noqa: F401
    import_s = perf_counter() - t0

    import workloads

    wl = workloads.WORKLOADS[name](seed, smoke)
    work = root / ".bench_build" / f"perfbench-{name}-{os.getpid()}"
    messages: list[str] = []
    plain, traced, layers, ref_steps = Passes(), Passes(), [], []
    attempted = failed = 0
    try:
        setup_times = []
        for _ in range(1 if smoke else SETUP_REPEATS):
            gc.collect()
            t0 = perf_counter()
            wl.setup(work)
            setup_times.append(perf_counter() - t0)

        first_digest = None
        deadline = perf_counter() + seconds
        i = 0
        while i < 1 + trace or perf_counter() < deadline:
            tracer = spans.Tracer() if trace and i % 2 else None
            i += 1
            gc.collect()
            ref_steps.append(reference_step_s())
            attempted += wl.ops_per_pass
            try:
                if tracer is not None:
                    tracer.install()
                result = wl.run_pass(tracer)
            except Exception:
                messages.append(f"pass {i} raised: {traceback.format_exc()}")
                failed += wl.ops_per_pass
                continue
            finally:
                if tracer is not None:
                    tracer.uninstall()
            failed += result.failed
            if first_digest is None:
                first_digest = result.digest
            elif result.digest != first_digest:
                failed += 1
                messages.append(f"pass {i}: outputs differ from the first pass")
            if tracer is None:
                plain.add(result)
            else:
                traced.add(result)
                layers.append(tracer.summary())
                if tracer.missing and len(layers) == 1:
                    messages.append(f"lookup sites not found: {tracer.missing}")
        if not plain.times or (trace and not traced.times):
            raise RuntimeError("no pass completed:\n" + "\n".join(messages))
        try:
            check_errors = wl.check()
        except Exception:
            check_errors = [f"check raised: {traceback.format_exc()}"]
        failed += len(check_errors)
        messages += check_errors
    finally:
        shutil.rmtree(work, ignore_errors=True)

    drift = _count_drift(layers)
    messages += drift
    failed = min(failed + len(drift), attempted)
    figures = {**plain.figures(), "run.wall_s": plain.median(),
               "run.error_rate": failed / attempted}
    if trace:
        figures["trace.overhead"] = traced.median() / plain.median() - 1.0
        metrics = {
            **{m: _median([layer[m] for layer in layers]) for m in spans.LAYER_METRICS},
            **dict.fromkeys(RUN_FIGURES, 0.0),
            **figures,
        }
        units = {**spans.LAYER_METRICS, **RUN_FIGURES}
    else:
        metrics = {
            "setup_s": import_s + _median(setup_times),
            "wall_ref_s": plain.median() * REF_STEP_S / _median(ref_steps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}
    return {
        "workload": name,
        "trace": int(trace),
        "smoke": smoke,
        "seconds": seconds,
        "env": environment(root, seed),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "import_s": import_s,
        "setup_samples_s": setup_times,
        "ref_step_s": ref_steps,
        "op_times_s": plain.times,
        "traced_op_times_s": traced.times,
        "figures": figures,
        "digests": wl.digests,
        "messages": messages[:20],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


# ---- comparison of two result files ---------------------------------------


def _load_results(path: str) -> dict:
    runs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                group = runs.setdefault((rec["workload"], rec["trace"]), {})
                for metric, m in rec["metrics"].items():
                    group.setdefault(metric, []).append(m["value"])
    return runs


def _spread(values) -> float | None:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2 or statistics.median(values) == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def compare(base_path: str, new_path: str) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounded = {m["name"]: m for m in bench["end_to_end"]}
    base, new = _load_results(base_path), _load_results(new_path)
    print(f"{'workload':<16}{'metric':<36}{'base':>12}{'new':>12}{'new/base':>10}"
          f"{'spread':>8}  verdict")
    for key in sorted(base.keys() & new.keys()):
        for metric in sorted(base[key].keys() & new[key].keys()):
            a, b = base[key][metric], new[key][metric]
            ma, mb = statistics.median(a), statistics.median(b)
            ratio = mb / ma if ma else float("nan")
            spreads = [s for s in (_spread(a), _spread(b)) if s is not None]
            spread = max(spreads) if len(spreads) == 2 else None
            verdict = ""
            if metric in bounded:
                bound = bounded[metric]["bound"]
                worse = ratio - 1.0 if bounded[metric]["better"] == "lower" else 1.0 - ratio
                if spread is None or spread > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = f"worse by more than {bound:.0%}"
                else:
                    verdict = "within bound"
            shown = "-" if spread is None else f"{spread:.1%}"
            print(f"{key[0] + ' traced' * key[1]:<16}{metric:<36}{ma:>12.6g}{mb:>12.6g}{ratio:>10.3f}"
                  f"{shown:>8}  {verdict}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for testing")
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="print per-metric ratios of two result files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")

    root = Path.cwd()
    src = root / "src"
    if not (src / "venncal" / "__init__.py").is_file():
        print(f"no venncal package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    record = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace),
                          args.smoke)
    for message in record["messages"]:
        print(message, file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
