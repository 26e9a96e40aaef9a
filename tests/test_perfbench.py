"""The benchmark's contract with the package: a short traced run of each
workload at the pinned seed finishes, checks every op, and fails none.
The traced run also runs the counting hooks, which read ``segments``,
``split_count``, ``subtasks`` and the simulators' results, so a change
that drops one of them fails here rather than in the benchmark."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sweep-desk", "sweep-paper", "verify"])
def test_traced_seed_1_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert (summary["correct"], summary["failed"]) == (True, 0), proc.stdout
