"""``bench/run.py`` end to end: each workload's traced run passes its
checks with no failed operation and reports every per-layer metric that
``BENCHMARK.json`` declares.

The runs use ``--seconds 0``, so each workload times its minimum number of
calls; the three take about 12 s together on 2 cores.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.slow
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_traced_run_is_correct_and_complete(workload):
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    missing = {metric["name"] for metric in DECLARED["per_layer"]} - set(result["metrics"])
    assert not missing, f"per-layer metrics missing from the {workload} run: {sorted(missing)}"
