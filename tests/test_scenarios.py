import hashlib
import json
from pathlib import Path

import pytest

from fanet_aka.errors import UnknownScenario
from fanet_aka.scenarios import (FEATURES, SCENARIOS, feature_matrix,
                                 run_dynamic_addition, run_lifecycle_replacement,
                                 run_lifecycle_update, run_scenario)
from fanet_aka.simnet import SimConfig

FIXTURES = Path(__file__).parent / "fixtures"
#: SHA-1 of each seed-0 scenario report and lifecycle result, as
#: ``json.dumps(..., sort_keys=True)``; a change that moves a report on
#: purpose re-records this file and says so.
DIGESTS = json.loads((FIXTURES / "report_digests_seed0.json").read_text())


def _digest(doc: dict) -> str:
    return hashlib.sha1(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_passes_at_seed_zero(name):
    report = run_scenario(name, SimConfig(seed=0))
    assert report.scenario == name
    failed = [v["claim"] for v in report.verdicts if not v["passed"]]
    assert report.passed, f"{name} failed: {failed}"
    assert _digest(report.to_json()) == DIGESTS[name]


def test_catalog_order_is_the_feature_order():
    # registration order is definition order; moving a function reorders the matrix
    assert list(SCENARIOS) == [name for _, name in FEATURES[:12]] == [
        "stolen_card", "privileged_insider", "impersonation",
        "anonymity_untraceability", "uav_capture", "mutual_auth", "replay",
        "mitm", "esl", "dos", "side_channel", "crp_leakage"]


def test_unknown_scenario_rejected():
    with pytest.raises(UnknownScenario):
        run_scenario("teleport", SimConfig())


def test_reports_are_reproducible_byte_for_byte():
    first = json.dumps(run_scenario("mutual_auth", SimConfig(seed=0)).to_json(),
                       sort_keys=True)
    second = json.dumps(run_scenario("mutual_auth", SimConfig(seed=0)).to_json(),
                        sort_keys=True)
    assert first == second
    other_seed = json.dumps(run_scenario("mutual_auth", SimConfig(seed=1)).to_json(),
                            sort_keys=True)
    assert first != other_seed


def test_mutual_auth_report_matches_golden_fixture():
    report = run_scenario("mutual_auth", SimConfig(seed=0)).to_json()
    golden = json.loads((FIXTURES / "mutual_auth_seed0.json").read_text())
    assert report == golden


def test_report_shape_is_documented():
    report = run_scenario("mutual_auth", SimConfig(seed=0)).to_json()
    assert set(report) == {"scenario", "seed", "passed", "verdicts",
                           "op_counts", "bit_counts", "transcript"}
    assert report["bit_counts"]["total"] == 1856
    assert all({"claim", "passed", "details"} == set(v)
               for v in report["verdicts"])
    directions = {(t["origin"], t["dest"]) for t in report["transcript"]
                  if not t["secure"]}
    assert ("alice", "gateway-0") in directions


def test_scenario_runs_do_not_share_state():
    # identical back-to-back runs imply fresh parties each time
    a = run_scenario("replay", SimConfig(seed=3)).to_json()
    b = run_scenario("replay", SimConfig(seed=3)).to_json()
    assert a == b


def test_lifecycle_update_flow():
    outcome = run_lifecycle_update(SimConfig(seed=0))
    assert outcome["passed"], outcome
    assert _digest(outcome) == DIGESTS["lifecycle_update"]


def test_lifecycle_replacement_flow():
    outcome = run_lifecycle_replacement(SimConfig(seed=0))
    assert outcome["passed"], outcome
    assert _digest(outcome) == DIGESTS["lifecycle_replacement"]


def test_dynamic_addition_flow():
    outcome = run_dynamic_addition(SimConfig(seed=0))
    assert outcome["passed"], outcome
    assert _digest(outcome) == DIGESTS["dynamic_addition"]


def test_feature_matrix_covers_all_rows():
    matrix = feature_matrix(SimConfig(seed=0))
    assert list(matrix) == [feature for feature, _ in FEATURES]
    assert len(matrix) == 14
    failing = [k for k, v in matrix.items() if not v["passed"]]
    assert not failing, failing
