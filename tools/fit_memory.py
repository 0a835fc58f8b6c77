"""Fit cost and memory of `IvapCalibrator` against the calibration size k.

Each k runs in a fresh Python process, which builds k distinct scores (uniform over
[-4, 4), in random order), labels drawn as Bernoulli(sigmoid(1.5 s)) and 1e6 uniform
queries over [-4.4, 4.4], as `perfbench`'s `ivap_bulk` does, and reports:

- fit ns/point: the best of `REPEATS` (3) `IvapCalibrator.fit` calls, over k;
- query ns: the best of `REPEATS` `predict_intervals` calls on the 1e6 queries,
  over 1e6;
- traced B/point: the tracemalloc peak of one more fit, above what was traced
  before it (its result included), over k;
- maxrss MB: the process's `ru_maxrss` after the timed calls, before tracing; it
  includes the interpreter, numpy, the inputs and the queries.

Times follow the host: on a shared machine they drift between runs, so compare
rows of one run.  The memory columns repeat exactly.

    python tools/fit_memory.py                 # k = 1e3, 1e4, 1e5, 1e6
    python tools/fit_memory.py --k 1e6 1e7     # 1e7 takes 3-4 s a fit and about 0.8 GB

Needs numpy and the standard library only; the package is imported from ../src.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

QUERIES = 1_000_000
REPEATS = 3  # timed calls per figure
SEED = 1


def measure(k: int) -> dict:
    """One row, measured in this process."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import numpy as np

    from venncal.ivap import IvapCalibrator

    rng = np.random.default_rng(SEED)
    scores = rng.permutation((np.arange(k) + rng.random(k)) * (8.0 / k) - 4.0)
    labels = (rng.random(k) < 1.0 / (1.0 + np.exp(-1.5 * scores))).astype(np.int64)
    queries = rng.uniform(-4.4, 4.4, size=QUERIES)

    def best(call) -> float:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        return min(times)

    fit_s = best(lambda: IvapCalibrator.fit(scores, labels))
    rule = IvapCalibrator.fit(scores, labels)
    query_s = best(lambda: rule.predict_intervals(queries))
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    del rule
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    rule = IvapCalibrator.fit(scores, labels)
    traced = tracemalloc.get_traced_memory()[1] - before
    tracemalloc.stop()
    return {"k": k, "fit_ns_per_point": fit_s / k * 1e9, "query_ns": query_s / QUERIES * 1e9,
            "traced_bytes_per_point": traced / k, "maxrss_mb": maxrss_mb}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--k", nargs="+", default=["1e3", "1e4", "1e5", "1e6"],
                        help="calibration sizes; 1e7 only when named")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:  # the fresh process of one row
        print(json.dumps(measure(int(float(args.k[0])))))
        return 0
    print("| k | fit ns/point | query ns | traced B/point | maxrss MB |")
    print("|---|---|---|---|---|")
    for k in args.k:
        out = subprocess.run([sys.executable, __file__, "--one", "--k", k],
                             stdout=subprocess.PIPE, text=True, check=True)
        row = json.loads(out.stdout)
        print(f"| {k} | {row['fit_ns_per_point']:,.0f} | {row['query_ns']:.0f} "
              f"| {row['traced_bytes_per_point']:.1f} | {row['maxrss_mb']:,.0f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
