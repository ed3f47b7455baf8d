"""The benchmark's own test: every workload at its smoke size, untraced and
traced, runs every check, passes them, and prints every metric of
BENCHMARK.json.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# checks each mode must run at least once
CHECKS = {
    "direct": {"size", "grid", "recourse", "small_input", "weights", "quality"},
    "sparse": {"size", "grid", "contract", "u_size", "u_subset", "weights",
               "quality"},
}


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    checks = json.loads(lines[-2].removeprefix("checks "))
    return checks, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke(workload, trace):
    checks, out = run(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert CHECKS[WORKLOADS[workload].mode] <= set(checks)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in out["metrics"].items()}
    if trace:
        assert out["metrics"]["trace.coverage"]["value"] >= 0.9
