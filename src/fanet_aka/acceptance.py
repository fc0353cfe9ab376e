"""Acceptance suite: the exit criteria for the whole package.

Each criterion is a self-contained check with its tolerance pinned here;
the pytest module and the CLI ``selftest`` subcommand both run this list.
Tolerances are exact unless stated otherwise.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, replace

from .crypto import BIO_BITS, FE_KEY_BITS, FE_REPETITION, FE_TOLERANCE, fe_gen, fe_rep
from .metrics import count_session, overhead_report
from .scenarios import (CLOSURE_SCENARIOS, POSITIVE_CONTROL, SESSION_BITS, _world,
                        run_scenario)
from .simnet import SimConfig, run_aka


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict
    elapsed_s: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        bound = self.details.get("runtime_bound_s")
        over = "" if bound is None else f" (took {self.elapsed_s:.2f} s, bound {bound} s)"
        return f"{status} criterion {self.number}: {self.name}{over}"


#: Runtime ceilings (seconds) for the criteria that carry one.
RUNTIME_BOUNDS_S = {1: 1.0, 4: 30.0, 5: 120.0, 7: 60.0, 10: 10.0}


def _fresh_session(cfg: SimConfig):
    world = _world(cfg, "acceptance")
    return world, run_aka(world, "alice", "uav-1")


def communication_bits(cfg: SimConfig) -> CriterionResult:
    measured = run_scenario("mutual_auth", cfg).bit_counts
    return CriterionResult(1, "communication overhead parity", measured == SESSION_BITS,
                           {"measured": measured, "expected": SESSION_BITS})


#: One session's primitive counts by role, and the hashes of each user phase.
ROLE_OPS = {"user": {"hash": 11, "puf": 0, "fe": 1},
            "gwn": {"hash": 6, "puf": 0, "fe": 0},
            "uav": {"hash": 8, "puf": 1, "fe": 0}}
PHASE_HASHES = {"login": 4, "initiate": 3, "finalize": 4}


def computation_counts(cfg: SimConfig) -> CriterionResult:
    _, result = _fresh_session(cfg)
    counts = count_session(result)
    measured = {r: {op: c[op] for op in ("hash", "puf", "fe")} for r, c in counts.items()}
    totals = {op: sum(c[op] for c in measured.values()) for op in ("hash", "puf", "fe")}
    phases = {p: result.phase_counts[p]["hash"] for p in result.phase_counts}
    return CriterionResult(2, "computation overhead parity",
                           (measured, phases) == (ROLE_OPS, PHASE_HASHES),
                           {"counts": counts, "totals": totals,
                            "user_phases_hash": phases})


def timing_arithmetic(cfg: SimConfig) -> CriterionResult:
    report = run_scenario("mutual_auth", cfg)
    estimates = overhead_report(report.op_counts, report.bit_counts)["proposed"]["estimated_ms"]
    expected = {"user": 0.643, "gwn": 0.006, "uav": 0.023, "total": 0.672}
    deltas = {k: abs(estimates[k] - v) for k, v in expected.items()}
    ok = all(d <= 0.001 for d in deltas.values())
    return CriterionResult(3, "timing estimate arithmetic", ok,
                           {"estimated_ms": estimates, "expected": expected})


def protocol_correctness(cfg: SimConfig) -> CriterionResult:
    failures = []
    for seed in range(1000):
        _, result = _fresh_session(replace(cfg, seed=seed))
        if not (result.ok and result.keys_agree and all(result.checks.values())):
            failures.append(seed)
            if len(failures) >= 5:
                break
    return CriterionResult(4, "protocol correctness over 1000 seeds",
                           not failures, {"failing_seeds": failures})


def tamper_exhaustion(cfg: SimConfig) -> CriterionResult:
    world, _ = _fresh_session(cfg)
    undetected = []
    for kind in ("MSG1", "MSG2", "MSG3"):
        for index in range(SESSION_BITS[kind]):
            world.clock.advance(cfg.delta_t + 1)

            def flip(k, payload, _kind=kind, _index=index):
                return payload.flip(_index) if k == _kind else payload

            outcome = run_aka(world, "alice", "uav-1", intercept=flip)
            if outcome.ok and outcome.keys_agree:
                undetected.append(f"{kind}[{index}]")
    return CriterionResult(5, f"single-bit tamper exhaustion ({SESSION_BITS['total']} bits)",
                           not undetected, {"undetected": undetected})


def replay_suite(cfg: SimConfig) -> CriterionResult:
    report = run_scenario("replay", cfg)
    return CriterionResult(6, "replay rejection inside and outside the window",
                           report.passed, {"verdicts": report.verdicts})


def closure_suite(cfg: SimConfig) -> CriterionResult:
    details = {}
    ok, derived = True, False
    for name in CLOSURE_SCENARIOS:
        report = run_scenario(name, cfg)
        secrecy = [v["claim"] for v in report.verdicts if "leaked" in v["details"]]
        scenario_ok = report.passed and bool(secrecy)
        # a claim whose closure skipped a shape for budget was not searched there
        unsearched = {v["claim"]: v["details"]["closure_skipped"] for v in report.verdicts
                      if v["details"].get("closure_skipped")}
        details[name] = {"passed": scenario_ok, "claims": secrecy, "unsearched": unsearched}
        ok = ok and scenario_ok
        derived = derived or any(v["claim"] == POSITIVE_CONTROL and v["passed"]
                                 for v in report.verdicts)
    details["positive_control"] = {"claim": POSITIVE_CONTROL, "sk_derived": derived}
    return CriterionResult(7, "knowledge-closure suite, one hash level", ok and derived,
                           details)


def fuzzy_tolerance(cfg: SimConfig) -> CriterionResult:
    rng = random.Random(f"{cfg.seed}:fe-tolerance")
    failures = 0
    for _ in range(500):
        bio = rng.getrandbits(BIO_BITS)
        sigma, tau = fe_gen(bio, rng)
        error = 0
        for block in range(FE_KEY_BITS):
            flips = rng.sample(range(FE_REPETITION), rng.randint(0, FE_TOLERANCE))
            for f in flips:
                error |= 1 << (BIO_BITS - 1 - (block * FE_REPETITION + f))
        if fe_rep(bio ^ error, tau) != sigma:
            failures += 1

    bio = rng.getrandbits(BIO_BITS)
    sigma, tau = fe_gen(bio, rng)
    flips = FE_TOLERANCE + 1  # inside the first block
    concentrated = bio ^ ((1 << flips) - 1) << (BIO_BITS - flips)
    beyond_differs = fe_rep(concentrated, tau) != sigma
    return CriterionResult(8, "fuzzy extractor tolerance over 500 cases",
                           failures == 0 and beyond_differs,
                           {"failures": failures,
                            "beyond_tolerance_differs": beyond_differs})


def lifecycle(cfg: SimConfig) -> CriterionResult:
    reports = [run_scenario(name, cfg)
               for name in ("lifecycle_update_replace", "dynamic_addition")]
    return CriterionResult(9, "lifecycle integrations (update, replace, add)",
                           all(r.passed for r in reports),
                           {r.scenario: {v["claim"]: v["passed"] for v in r.verdicts}
                            for r in reports})


def dos_bound(cfg: SimConfig) -> CriterionResult:
    report = run_scenario("dos", cfg)
    bound = next(v for v in report.verdicts if "bounded" in v["claim"])
    emitted = next(v for v in report.verdicts if "emitted" in v["claim"])
    ok = report.passed and bound["details"]["flood"] >= 10_000
    return CriterionResult(10, "DoS bound over 10000 garbage requests", ok,
                           {"max_hashes": bound["details"]["max_hashes_per_message"],
                            "emitted": emitted["details"]["emitted"]})


def determinism(cfg: SimConfig) -> CriterionResult:
    """Byte-identical canonical report for two fresh runs at one seed."""
    first = json.dumps(_canonical_report(cfg), sort_keys=True)
    second = json.dumps(_canonical_report(cfg), sort_keys=True)
    return CriterionResult(11, "deterministic reports under a fixed seed",
                           first == second, {"bytes": len(first)})


def _canonical_report(cfg: SimConfig) -> dict:
    report = run_scenario("mutual_auth", cfg)
    return {"scenario": report.to_json(),
            "overhead": overhead_report(report.op_counts, report.bit_counts)}


CRITERIA = [
    communication_bits,
    computation_counts,
    timing_arithmetic,
    protocol_correctness,
    tamper_exhaustion,
    replay_suite,
    closure_suite,
    fuzzy_tolerance,
    lifecycle,
    dos_bound,
    determinism,
]


def run_all(cfg: SimConfig | None = None, echo=None) -> dict:
    """Run every criterion; returns a JSON-ready report."""
    cfg = cfg or SimConfig()
    results = []
    for criterion in CRITERIA:
        start = time.perf_counter()
        result = criterion(cfg)
        result.elapsed_s = time.perf_counter() - start
        bound = RUNTIME_BOUNDS_S.get(result.number)
        if bound is not None and result.elapsed_s > bound:
            result.passed = False
            # the bound, not the measured time, keeps the report deterministic
            result.details["runtime_bound_s"] = bound
        results.append(result)
        if echo:
            echo(result.line())
    return summary(cfg.seed, results)


def summary(seed: int, results: list[CriterionResult]) -> dict:
    """The JSON-ready report of one run of every criterion."""
    return {
        "seed": seed,
        "passed": all(r.passed for r in results),
        "criteria": [{"number": r.number, "name": r.name, "passed": r.passed,
                      "details": r.details} for r in results],
    }
