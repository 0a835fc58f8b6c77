"""The benchmark under perfbench/ runs every workload on tiny inputs.

A change to the package that breaks a name the benchmark imports, or an
output its checks compare, fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["compare", "ivap_bulk", "cvap_scorefiles", "ivap_online"])
def test_workload_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--smoke",
         "--seconds", "0.2", "--trace", "0"],
        cwd=REPO, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
