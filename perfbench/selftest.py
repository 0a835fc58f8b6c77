"""Smoke test of the benchmark itself, on tiny inputs.

    python3 perfbench/selftest.py        # from the repository root

It runs every workload untraced and traced in --smoke mode and checks that
each metric of BENCHMARK.json is emitted with its unit, that a corrupted
output is counted as failed, and that the benchmark refuses to run where
the package source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace
from pathlib import Path
from unittest import mock

import run  # sets the thread variables before numpy is imported

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import venncal.cli  # noqa: E402
from venncal import IvapCalibrator, ProbInterval  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted(self):
        for workload in (w["name"] for w in BENCH["workloads"]):
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                                 "--trace", trace, "--smoke")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in BENCH[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if key == "end_to_end":
                        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_compare_counts(self):
        record = run.run_workload(ROOT, "compare", 5, 0.0, True, True)
        metrics = {name: m["value"] for name, m in record["metrics"].items()}
        self.assertEqual(metrics["scorers.train.calls"], 7)
        self.assertEqual(metrics["ivap.query.calls"], 7)
        self.assertEqual(metrics["ivap.query.repeat_calls"], 3)
        # the third cvap fold trains on the same rows as the proper training set
        self.assertEqual(metrics["scorers.train.repeat_calls"], 4)

    def test_corrupted_output_raises_error_rate(self):
        corruptions = {
            "compare": mock.patch.object(
                venncal.cli, "evaluate",
                lambda p, y, f=venncal.cli.evaluate: replace(f(p, y), n_infinite=1)),
            "cvap_scorefiles": mock.patch.object(
                venncal.cli, "_write_predictions",
                lambda path, p, iv, f=venncal.cli._write_predictions: f(path, p * 0.999, iv)),
            "ivap_bulk": mock.patch.object(
                IvapCalibrator, "predict_intervals",
                lambda self, s, f=IvapCalibrator.predict_intervals:
                    (f(self, s)[0] * 0.999, f(self, s)[1])),
            "ivap_online": mock.patch.object(
                IvapCalibrator, "predict_interval",
                lambda self, s, f=IvapCalibrator.predict_interval:
                    ProbInterval(f(self, s).p0 * 0.999, f(self, s).p1)),
        }
        for workload, patch in corruptions.items():
            with self.subTest(workload=workload):
                clean = run.run_workload(ROOT, workload, 5, 0.0, False, True)
                self.assertEqual(clean["failed"], 0, clean["messages"])
                with patch:
                    broken = run.run_workload(ROOT, workload, 5, 0.0, False, True)
                self.assertFalse(broken["correct"])
                self.assertGreater(broken["figures"]["run.error_rate"], 0.0)

    def test_refuses_to_run_without_source(self):
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "compare", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
