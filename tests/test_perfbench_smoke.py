"""Short benchmark runs: every workload check passes on the current code.

The span-name guard covers only what the traced run wraps; these also cover
what the workloads read from the program, such as ``AkaResult.checks``, and
the traced run's span table and ``BitString.__init__`` counter end to end.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(workload, *extra):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.1", *extra],
        cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_aka_hot_runs_correct():
    assert _run("aka_hot")["correct"] is True


def test_fleet_mixed_runs_correct():
    # reaches the gateway's UAV index on its tamper and replay paths
    assert _run("fleet_mixed")["correct"] is True


def test_traced_aka_hot_runs_correct():
    # the span table and the BitString.__init__ counter, end to end: an
    # honest session builds its payloads unchecked and no BitString through
    # __init__ (test_perfbench_names checks that the counter counts); its
    # PUF and extractor calls still go through the counted OpCounter methods
    result = _run("aka_hot", "--trace", "1")
    assert result["correct"] is True
    metrics = result["metrics"]
    assert metrics["metrics.hash_per_session"]["value"] == 25
    assert metrics["metrics.puf_per_session"]["value"] == 1
    assert metrics["metrics.fe_per_session"]["value"] == 1
    assert metrics["bits.constructions_per_session"]["value"] == 0


def test_traced_fleet_mixed_runs_correct():
    # the traced run wraps enroll_uav under two names; world builds reach both
    result = _run("fleet_mixed", "--trace", "1")
    assert result["correct"] is True
    metrics = result["metrics"]
    assert metrics["metrics.hash_per_session"]["value"] == 25
    assert metrics["simnet.enroll_uav.us"]["value"] > 0
