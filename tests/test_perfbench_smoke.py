"""A short benchmark run: every workload check passes on the current code.

The span-name guard covers only what the traced run wraps; this also covers
what the workloads read from the program, such as ``AkaResult.checks``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_aka_hot_runs_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "aka_hot",
         "--seed", "1", "--seconds", "0.1"],
        cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
