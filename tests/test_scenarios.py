import hashlib
import json
from pathlib import Path

import pytest

from fanet_aka import simnet
from fanet_aka.errors import IncompleteTranscript, MacMismatch, UnknownScenario
from fanet_aka.metrics import recording
from fanet_aka.scenarios import (FEATURES, SCENARIOS, ScenarioReport, _not_derivable,
                                 feature_matrix, run_scenario)
from fanet_aka.simnet import SimConfig, build_world, enroll_uav, enroll_user, run_aka
from fanet_aka.gwn import Gateway
from fanet_aka.uav import Uav
from fanet_aka.user import User

FIXTURES = Path(__file__).parent / "fixtures"
#: SHA-1 of each scenario report and lifecycle half at seeds 0 and 1000,
#: as ``json.dumps(..., sort_keys=True)``; a change that moves a report on
#: purpose re-records these files and says so.
DIGESTS = json.loads((FIXTURES / "report_digests_seed0.json").read_text())
DIGESTS_SEED1000 = json.loads((FIXTURES / "report_digests_seed1000.json").read_text())
#: The two halves of lifecycle_update_replace, each as its flow's boolean
#: result: a result key per claim the half checks.
HALVES = {"lifecycle_update": {
              "old_password_rejected": "old credentials refused after update",
              "aka_after_update": "session completes after update"},
          "lifecycle_replacement": {
              "old_tid_refused": "old pseudonym's registration refused",
              "aka_after_replacement": "session completes after replacement"}}


def _digest(doc: dict) -> str:
    return hashlib.sha1(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _half(name: str, cfg: SimConfig) -> dict:
    verdicts = {v["claim"]: v["passed"]
                for v in run_scenario("lifecycle_update_replace", cfg).verdicts}
    outcome = {key: verdicts[claim] for key, claim in HALVES[name].items()}
    return {**outcome, "passed": all(outcome.values())}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_passes_at_seed_zero(name):
    report = run_scenario(name, SimConfig(seed=0))
    assert report.scenario == name
    failed = [v["claim"] for v in report.verdicts if not v["passed"]]
    assert report.passed, f"{name} failed: {failed}"
    assert _digest(report.to_json()) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS) + list(HALVES))
def test_report_matches_its_pinned_digest_at_seed_1000(name):
    cfg = SimConfig(seed=1000)
    doc = run_scenario(name, cfg).to_json() if name in SCENARIOS else _half(name, cfg)
    assert doc["passed"], doc
    assert _digest(doc) == DIGESTS_SEED1000[name]


def test_catalog_order_is_the_feature_order():
    # registration order is definition order; moving a function reorders the matrix
    names = ["stolen_card", "privileged_insider", "impersonation",
             "anonymity_untraceability", "uav_capture", "mutual_auth", "replay",
             "mitm", "esl", "dos", "side_channel", "crp_leakage",
             "lifecycle_update_replace", "dynamic_addition"]
    assert list(SCENARIOS) == names
    assert FEATURES == [(f"FSF_{i}", name) for i, name in enumerate(names, start=1)]


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
    outcome = _half("lifecycle_update", SimConfig(seed=0))
    assert outcome["passed"], outcome
    assert _digest(outcome) == DIGESTS["lifecycle_update"]


def test_lifecycle_replacement_flow():
    # the replaced card follows an update in the same world
    outcome = _half("lifecycle_replacement", SimConfig(seed=0))
    assert outcome["passed"], outcome
    assert _digest(outcome) == DIGESTS["lifecycle_replacement"]


def _verdict(report, claim: str) -> bool:
    return next(v["passed"] for v in report.verdicts if v["claim"] == claim)


def test_an_update_that_keeps_the_old_credentials_fails_its_claim(monkeypatch):
    # the card is left as it was, so the old password and biometric still log in
    monkeypatch.setattr(User, "update_credentials", lambda self, *args: self.card)
    report = run_scenario("lifecycle_update_replace", SimConfig(seed=0))
    assert _verdict(report, "old credentials refused after update") is False


def test_a_gateway_that_accepts_an_old_pseudonym_fails_its_claim(monkeypatch):
    register_user = Gateway.register_user

    def accept(self, request):
        self.user_tids.discard(request.tid_i)
        return register_user(self, request)

    monkeypatch.setattr(Gateway, "register_user", accept)
    report = run_scenario("lifecycle_update_replace", SimConfig(seed=0))
    assert _verdict(report, "old pseudonym's registration refused") is False


def test_a_refused_original_fails_the_replay_report(monkeypatch):
    # the first verdict is the outcome of delivering the original messages,
    # and a refusal ends the scenario before any replay
    def refuse(self, msg2, clock, rng):
        raise MacMismatch("MSG2 MAC check failed")

    monkeypatch.setattr(Uav, "aka_respond", refuse)
    report = run_scenario("replay", SimConfig(seed=0))
    assert not report.passed
    assert report.verdicts == [{"claim": "original messages accepted", "passed": False,
                                "details": {"rejection": "MacMismatch"}}]


def test_every_completion_claim_fails_when_the_keys_disagree(monkeypatch):
    # a run that ends with two different keys has not completed a session:
    # each claim that sessions complete also reads keys_agree
    respond = Uav.aka_respond

    def disagree(self, msg2, clock, rng):
        msg3, sk = respond(self, msg2, clock, rng)
        return msg3, sk ^ 1

    monkeypatch.setattr(Uav, "aka_respond", disagree)
    claims, passing = 0, []
    for name in SCENARIOS:
        for verdict in run_scenario(name, SimConfig(seed=0)).verdicts:
            if "complete" in verdict["claim"]:
                claims += 1
                if verdict["passed"]:
                    passing.append(f"{name}: {verdict['claim']}")
    assert claims == 12
    assert not passing, passing


@pytest.mark.parametrize("scenario,claim,leak", [
    pytest.param("side_channel", "readout holds no device seed and no response", "response",
                 id="response"),
    pytest.param("side_channel", "readout holds no device seed and no response", "seed",
                 id="seed"),
    pytest.param("uav_capture", "memory image is exactly the stored triple", "response",
                 id="uav_capture"),
])
def test_a_readout_holding_secret_values_fails_side_channel(monkeypatch, scenario, claim,
                                                            leak):
    # each readout check compares values, not only key names
    def leaky(self):
        secret = (self._puf.eval_value(self.c_j) if leak == "response"
                  else self._puf.seed >> 96)  # the seed's first 160 bits
        return {"c_j": secret, "id_j": self.id_j, "tc_id_j": self.tc_id_j}

    monkeypatch.setattr(Uav, "capture_memory", leaky)
    report = run_scenario(scenario, SimConfig(seed=0))
    verdict = next(v for v in report.verdicts if v["claim"] == claim)
    assert not verdict["passed"]


def test_feature_matrix_covers_all_rows():
    matrix = feature_matrix(SimConfig(seed=0))
    assert list(matrix) == [feature for feature, _ in FEATURES]
    assert len(matrix) == 14
    failing = [k for k, v in matrix.items() if not v["passed"]]
    assert not failing, failing


def test_a_report_never_shows_a_cut_log(monkeypatch):
    # every report serializes its world's whole channel log; a log that
    # evicted entries is refused rather than shown cut
    longest = max(len(run_scenario(name, SimConfig(seed=0)).transcript)
                  for name in ("mutual_auth", "replay"))
    assert longest < simnet.LOG_CAPACITY
    monkeypatch.setattr(simnet, "LOG_CAPACITY", 4)
    for name in ("mutual_auth", "replay"):
        with pytest.raises(IncompleteTranscript, match="evicted"):
            run_scenario(name, SimConfig(seed=0))


@pytest.mark.parametrize("width", [160, None])
def test_a_planted_nonce_is_found_as_a_field_or_raw(width):
    # a secrecy claim declares the nonce once, as its 160-bit field, and
    # the closure takes every held value as a field: a leaked nonce is
    # found, and without one the claim holds
    world = build_world(SimConfig(seed=0))
    enroll_user(world, "alice", "alice-passphrase")
    enroll_uav(world, "uav-1")
    with recording() as hashes:
        result = run_aka(world, "alice", "uav-1")
    n_i = hashes[hashes[result.user_sk][0][1]][0][1]  # TID_i hashes (ID_i, N_i)
    held = [] if width is None else [n_i]
    report = ScenarioReport("planted_leak", 0)
    _not_derivable(report, result.transcript, held, {"nonce stays hidden": {"n_i": n_i}})
    [verdict] = report.verdicts
    assert verdict["details"]["leaked"] == ([] if width is None else ["n_i"])
    assert verdict["passed"] == (width is None)
