"""Acceptance gate: every exit criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` and in the
CLI ``selftest``, which runs the same list).
"""

import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fanet_aka import acceptance
from fanet_aka.cli import _dump
from fanet_aka.scenarios import POSITIVE_CONTROL, run_scenario
from fanet_aka.simnet import SimConfig

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG = SimConfig(seed=0)


@pytest.fixture(scope="module")
def results():
    """Run every criterion once; individual tests assert on the shared run."""
    out = {}
    for fn in acceptance.CRITERIA:
        start = time.perf_counter()
        result = fn(CONFIG)
        result.elapsed_s = time.perf_counter() - start
        out[result.number] = result
    return out


@pytest.mark.parametrize("number,name", [
    (1, "communication overhead parity (672/672/512, total 1856, 3 messages)"),
    (2, "computation overhead parity (user 1fe+11h, gwn 6h, uav 1puf+8h)"),
    (3, "timing estimate arithmetic (0.643/0.006/0.023/0.672 ms)"),
    (4, "protocol correctness over 1000 randomized seeds"),
    (5, "tamper exhaustion over all 1856 message bits"),
    (6, "replay rejected inside and outside the freshness window"),
    (7, "knowledge-closure suite, one hash level, positive control"),
    (8, "fuzzy extractor tolerance, 500 cases plus targeted failure"),
    (9, "lifecycle integrations: update, replacement, dynamic addition"),
    (10, "DoS bound: 10000 garbage requests, at most 3 hashes each"),
    (11, "deterministic reports under a fixed seed"),
])
def test_criterion(results, number, name):
    result = results[number]
    print(result.line())
    assert result.passed, f"criterion {number} ({name}): {result.details}"
    bound = acceptance.RUNTIME_BOUNDS_S.get(number)
    if bound is not None:
        assert result.elapsed_s < bound, \
            f"criterion {number} took {result.elapsed_s:.1f}s, bound {bound}s"


def test_closure_criterion_lists_claims_searched_short_of_their_shapes(results):
    """Criterion 7 names each secrecy claim whose closure skipped a shape for budget."""
    unsearched = {name: detail["unsearched"] for name, detail in results[7].details.items()
                  if "unsearched" in detail}
    assert unsearched.pop("esl") == {
        "one session fully opened, other keys stay safe": [("ts", 4)]}
    assert len(unsearched) == 6 and not any(unsearched.values())


@pytest.fixture(scope="module")
def scenario_reports():
    """Real scenario reports, each computed once; every call returns a copy."""
    cache = {}

    def report(name, cfg):
        if name not in cache:
            cache[name] = run_scenario(name, cfg)
        return copy.deepcopy(cache[name])
    return report


@pytest.mark.parametrize("tamper", ["fails", "missing"])
def test_closure_criterion_requires_the_esl_positive_control(monkeypatch,
                                                             scenario_reports, tamper):
    """Criterion 7 fails when esl's positive control fails or is absent."""
    def tampered(name, cfg):
        report = scenario_reports(name, cfg)
        if tamper == "missing":
            report.verdicts = [v for v in report.verdicts
                               if v["claim"] != POSITIVE_CONTROL]
        for verdict in report.verdicts:
            if verdict["claim"] == POSITIVE_CONTROL:
                verdict["passed"] = False
        return report

    monkeypatch.setattr(acceptance, "run_scenario", tampered)
    result = acceptance.closure_suite(CONFIG)
    assert not result.passed
    assert result.details["positive_control"]["sk_derived"] is False
    # without the verdict, esl's report still passes: only the name check fails it
    assert result.details["esl"]["passed"] is (tamper == "missing")


#: The seven lifecycle conditions criterion 9 gates on, by report.
LIFECYCLE_CLAIMS = [
    ("lifecycle_update_replace", "old credentials refused after update"),
    ("lifecycle_update_replace", "session completes after update"),
    ("lifecycle_update_replace", "old pseudonym's registration refused"),
    ("lifecycle_update_replace", "session completes after replacement"),
    ("dynamic_addition", "broadcast announces the new UAV"),
    ("dynamic_addition", "registry grew by one"),
    ("dynamic_addition", "session completes with the new UAV"),
]


def test_lifecycle_criterion_reports_every_lifecycle_claim(results):
    assert [(name, claim) for name, claims in results[9].details.items()
            for claim in claims] == LIFECYCLE_CLAIMS


@pytest.mark.parametrize("scenario,claim", LIFECYCLE_CLAIMS)
def test_lifecycle_criterion_fails_on_any_failed_claim(monkeypatch, scenario_reports,
                                                       scenario, claim):
    def tampered(name, cfg):
        report = scenario_reports(name, cfg)
        for verdict in report.verdicts:
            if (name, verdict["claim"]) == (scenario, claim):
                verdict["passed"] = False
        return report

    monkeypatch.setattr(acceptance, "run_scenario", tampered)
    result = acceptance.lifecycle(CONFIG)
    assert not result.passed
    assert result.details[scenario][claim] is False


def test_correctness_criterion_runs_under_the_callers_window():
    """Criterion 4 uses the caller's config: at delta_t=1 every MSG1 is stale,
    and the criterion stops at its fifth failing seed."""
    result = acceptance.protocol_correctness(SimConfig(delta_t=1))
    assert not result.passed
    assert result.details["failing_seeds"] == [0, 1, 2, 3, 4]


def test_runtime_overrun_keeps_the_report_deterministic(monkeypatch):
    """An overrun fails its criterion and records the bound, not the wall time."""
    monkeypatch.setattr(acceptance, "CRITERIA", [acceptance.timing_arithmetic])
    monkeypatch.setitem(acceptance.RUNTIME_BOUNDS_S, 3, 0.0)
    first, second = (_dump(acceptance.run_all(CONFIG)) for _ in range(2))
    assert first == second
    report = json.loads(first)
    assert report["passed"] is False
    assert report["criteria"][0]["details"]["runtime_bound_s"] == 0.0


def test_selftest_cli_is_byte_deterministic(tmp_path, results):
    """The CLI selftest writes, byte for byte, the report of this process's run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "fanet_aka.cli", "--seed", "0", "selftest",
         "--report-file", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS criterion 11" in proc.stdout
    in_process = acceptance.summary(CONFIG.seed, [results[n] for n in sorted(results)])
    assert out.read_bytes() == _dump(in_process).encode()
    assert json.loads(out.read_bytes())["passed"] is True
