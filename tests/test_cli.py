import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from fanet_aka.cli import StateDir, _sim_config, build_parser, load_world, main, save_world
from fanet_aka.simnet import SimConfig, build_world, enroll_uav, enroll_user, run_aka

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, cwd, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "fanet_aka.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli {args} failed ({proc.returncode}):\n"
                             f"{proc.stdout}\n{proc.stderr}")
    return proc


def bootstrap(tmp_path, seed=0):
    run_cli(["--seed", str(seed), "init-gwn"], tmp_path)
    run_cli(["--seed", str(seed), "register-user", "--user", "alice",
             "--password", "pw-alice"], tmp_path)
    run_cli(["--seed", str(seed), "register-uav", "--uav", "uav-1"], tmp_path)


def test_full_session_flow(tmp_path):
    bootstrap(tmp_path)
    proc = run_cli(["run-aka", "--user", "alice", "--uav", "uav-1"], tmp_path)
    session = json.loads(proc.stdout)
    assert session["bit_counts"]["total"] == 1856
    assert session["keys_agree"] is True
    assert session["op_counts"]["user"]["hash"] == 11
    assert len(session["session_key_fingerprint"]) == 40

    report = json.loads(run_cli(["report"], tmp_path).stdout)
    assert report["proposed"]["bits"] == 1856
    table = run_cli(["--format", "table", "report"], tmp_path).stdout
    assert "baseline-fe-hash" in table



def test_closed_standard_output_exits_1_without_a_traceback(tmp_path):
    # ``report | head`` closes the pipe early; here the read end is closed
    # before the CLI starts, so its first write or the flush meets EPIPE
    bootstrap(tmp_path)
    run_cli(["run-aka", "--user", "alice", "--uav", "uav-1"], tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "fanet_aka.cli", "--format", "table",
                               "report"], cwd=tmp_path, env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


#: A registration, maintenance and key-agreement flow; every command runs at --seed 5.
STATE_FLOW = [
    ["init-gwn"],
    ["register-user", "--user", "alice", "--password", "pw-alice"],
    ["register-user", "--user", "bob", "--password", "pw-bob"],
    ["register-uav", "--uav", "uav-1"],
    ["add-uav", "--uav", "uav-2"],
    ["run-aka", "--user", "alice", "--uav", "uav-1"],
    ["update-credentials", "--user", "alice", "--new-password", "pw-alice-2"],
    ["replace-card", "--user", "bob", "--new-password", "pw-bob-2"],
    ["run-aka", "--user", "bob", "--uav", "uav-2"],
]
STATE_DIGESTS = Path(__file__).parent / "fixtures" / "cli_state_seed5.json"


def test_state_files_match_their_pinned_bytes(tmp_path, capsys):
    # every field is written at its width: a 128-bit nonce as 32 hex digits,
    # a 256-bit PUF seed as 64, each 160-bit field as 40
    for args in STATE_FLOW:
        assert main(["--seed", "5", "--state-dir", str(tmp_path), *args]) == 0, args
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.iterdir())}
    assert digests == json.loads(STATE_DIGESTS.read_text())


def test_state_files_hold_no_cleartext_key(tmp_path):
    bootstrap(tmp_path)
    run_cli(["run-aka", "--user", "alice", "--uav", "uav-1"], tmp_path)
    session = json.loads((tmp_path / "state" / "last_session.json").read_text())
    assert "session_key" not in json.dumps(sorted(session)).replace(
        "session_key_fingerprint", "")
    # the secrets file is explicit about what it is
    secrets = json.loads((tmp_path / "state" / "secrets.json").read_text())
    assert "simulation-only" in secrets["_comment"]
    assert "gwn_secret" in secrets


def test_missing_state_exit_code(tmp_path):
    proc = run_cli(["run-aka", "--user", "alice", "--uav", "uav-1"],
                   tmp_path, check=False)
    assert proc.returncode == 3
    bootstrap(tmp_path)
    (tmp_path / "state" / "gwn.json").unlink()
    proc = run_cli(["run-aka", "--user", "alice", "--uav", "uav-1"],
                   tmp_path, check=False)
    assert proc.returncode == 3


def test_unknown_subcommand_exit_code(tmp_path):
    proc = run_cli(["frobnicate"], tmp_path, check=False)
    assert proc.returncode == 2


def test_malformed_config_exit_code(tmp_path):
    (tmp_path / "bad.cfg").write_text("delta_t = not-a-number\n")
    proc = run_cli(["--config", "bad.cfg", "init-gwn"], tmp_path, check=False)
    assert proc.returncode == 4
    (tmp_path / "unknown.cfg").write_text("no_such_knob = 1\n")
    proc = run_cli(["--config", "unknown.cfg", "init-gwn"], tmp_path, check=False)
    assert proc.returncode == 4
    (tmp_path / "list.json").write_text("[1, 2]")
    proc = run_cli(["--config", "list.json", "init-gwn"], tmp_path, check=False)
    assert proc.returncode == 4 and "Traceback" not in proc.stderr
    # a bool or a fraction is refused in either format, never truncated
    for name, text in (("frac.json", '{"delta_t": 2.5}'),
                       ("whole.json", '{"delta_t": 2.0}'),
                       ("bool.json", '{"seed": true}'),
                       ("frac.cfg", "delta_t = 2.5\n"), ("bool.cfg", "seed = true\n")):
        (tmp_path / name).write_text(text)
        proc = run_cli(["--config", name, "attack", "mutual_auth"], tmp_path, check=False)
        assert proc.returncode == 4, name
        assert proc.stderr.startswith("error: bad value for "), name


def _late_session(state_dir, cfg):
    """A session restored from ``state_dir`` under ``cfg``, in which every
    message arrives two ticks after the driver would deliver it."""
    world = load_world(StateDir(state_dir), cfg)

    def late(kind, payload):
        world.clock.advance(2)
        return payload
    return run_aka(world, "alice", "uav-1", intercept=late)


def test_config_file_keys_are_applied(tmp_path):
    bootstrap(tmp_path)
    (tmp_path / "sim.cfg").write_text("seed = 7\ndelta_t = 5\n")
    cfg = _sim_config(build_parser().parse_args(["--config", str(tmp_path / "sim.cfg"),
                                                 "run-aka", "--user", "alice",
                                                 "--uav", "uav-1"]))
    assert cfg.seed == 7
    assert _late_session(tmp_path / "state", cfg).keys_agree
    refused = _late_session(tmp_path / "state", SimConfig())
    assert (refused.stage, refused.error) == ("MSG1", "StaleTimestamp")


def test_window_flag_reaches_every_party(tmp_path):
    # each message arrives past the default window (MSG3 two ticks late), so
    # a party left on the default refuses its message
    bootstrap(tmp_path)
    cfg = _sim_config(build_parser().parse_args(["--delta-t", "5", "run-aka", "--user",
                                                 "alice", "--uav", "uav-1"]))
    result = _late_session(tmp_path / "state", cfg)
    assert result.ok and result.keys_agree
    refused = _late_session(tmp_path / "state", SimConfig())
    assert (refused.stage, refused.error) == ("MSG1", "StaleTimestamp")


@pytest.mark.parametrize("window", ["0", "-1", "1", str(2**31)])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_window_outside_its_range_is_refused(tmp_path, window, source):
    if source == "flag":
        args = [f"--delta-t={window}"]
    else:
        (tmp_path / "sim.cfg").write_text(f"delta_t = {window}\n")
        args = ["--config", "sim.cfg"]
    proc = run_cli([*args, "init-gwn"], tmp_path, check=False)
    assert proc.returncode == 4
    assert proc.stderr.startswith("error: delta_t must be")
    assert len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "state").exists()


def test_window_is_not_stored_in_state(tmp_path):
    for args in (["init-gwn"], ["register-user", "--user", "alice", "--password", "pw-alice"],
                 ["register-uav", "--uav", "uav-1"]):
        run_cli(["--delta-t", "5", *args], tmp_path)
    refused = _late_session(tmp_path / "state", SimConfig())
    assert (refused.stage, refused.error) == ("MSG1", "StaleTimestamp")
    run_cli(["run-aka", "--user", "alice", "--uav", "uav-1"], tmp_path)


def test_init_gwn_refuses_a_populated_deployment(tmp_path):
    bootstrap(tmp_path)
    state = tmp_path / "state"
    before = {p.name: p.read_bytes() for p in state.iterdir()}
    proc = run_cli(["init-gwn"], tmp_path, check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert {p.name: p.read_bytes() for p in state.iterdir()} == before
    run_cli(["run-aka", "--user", "alice", "--uav", "uav-1"], tmp_path)


def test_init_gwn_refuses_a_deployment_that_lost_its_gateway_file(tmp_path):
    # the secrets file still holds the gateway secret every card was minted under
    bootstrap(tmp_path)
    state = tmp_path / "state"
    (state / "gwn.json").unlink()
    before = {p.name: p.read_bytes() for p in state.iterdir()}
    proc = run_cli(["init-gwn"], tmp_path, check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert {p.name: p.read_bytes() for p in state.iterdir()} == before


@pytest.mark.parametrize("name,edit", [
    ("user_alice.json", lambda doc: {}),
    ("uav_uav-1.json", lambda doc: {**doc, "c_j": "not-hex"}),
    ("secrets.json", lambda doc: {**doc, "users": []}),
    pytest.param("uav_uav-1.json", lambda doc: {**doc, "c_j": "ab"},
                 id="uav_uav-1.json-short-c_j"),
    pytest.param("secrets.json", lambda doc: {**doc, "gwn_secret": "00"},
                 id="secrets.json-short-gwn_secret"),
    pytest.param("secrets.json", lambda doc: {**doc, "puf_seeds": {"uav-1": "00"}},
                 id="secrets.json-short-puf_seed"),
    pytest.param("meta.json", lambda doc: {}, id="meta.json-empty"),
    pytest.param("meta.json", lambda doc: {"invocations": "x"}, id="meta.json-text-count"),
    pytest.param("secrets.json", lambda doc: 5, id="secrets.json-number"),
    pytest.param("secrets.json", lambda doc: {**doc, "users": {
        "alice": {**doc["users"]["alice"], "password": 5}}}, id="secrets.json-number-password"),
    # int(text, 16) reads this as a challenge with a zero first byte
    pytest.param("uav_uav-1.json", lambda doc: {**doc, "c_j": "0x" + doc["c_j"][2:]},
                 id="uav_uav-1.json-0x-c_j"),
    # a session would run under uav-2's wire identity and fail its MAC
    pytest.param("uav_uav-1.json", lambda doc: {**doc, "identity": "uav-2"},
                 id="uav_uav-1.json-other-identity"),
    # secrets.json and uav_uav-1.json still hold the UAV the registry lost
    pytest.param("gwn.json", lambda doc: {**doc, "registry": {}},
                 id="gwn.json-registry-lacks-uav"),
    # no command writes an unfinished enrollment; a session to it would fail
    pytest.param("gwn.json", lambda doc: {**doc, "registry": {
        "uav-1": {**doc["registry"]["uav-1"], "r_j": None}}}, id="gwn.json-null-r_j"),
    # text_value zero-pads, so both names are one wire identity, and a
    # session could reach only one of the two records
    pytest.param("gwn.json", lambda doc: {**doc, "registry": {
        **doc["registry"], "uav-1\x00": doc["registry"]["uav-1"]}},
        id="gwn.json-shared-wire-identity"),
    # an empty identity would make id_g 0
    pytest.param("gwn.json", lambda doc: {**doc, "identity": ""}, id="gwn.json-empty-identity"),
])
def test_malformed_state_file_exit_code(tmp_path, name, edit):
    bootstrap(tmp_path)
    path = tmp_path / "state" / name
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    proc = run_cli(["run-aka", "--user", "alice", "--uav", "uav-1"],
                   tmp_path, check=False)
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: malformed state file {Path('state') / name}\n"


@pytest.mark.parametrize("doc", [
    [], {"op_counts": {"user": {}}}, {},
    {"op_counts": {role: {"hash": 1} for role in ("user", "gwn", "uav")}},  # no bit_counts
])
def test_malformed_last_session_exit_code(tmp_path, doc):
    bootstrap(tmp_path)
    (tmp_path / "state" / "last_session.json").write_text(json.dumps(doc))
    proc = run_cli(["report"], tmp_path, check=False)
    assert proc.returncode == 4
    assert proc.stderr == f"error: malformed state file {Path('state') / 'last_session.json'}\n"


def test_lifecycle_subcommands(tmp_path):
    bootstrap(tmp_path)
    run_cli(["run-aka", "--user", "alice", "--uav", "uav-1"], tmp_path)
    run_cli(["update-credentials", "--user", "alice",
             "--new-password", "pw-alice-2"], tmp_path)
    proc = run_cli(["run-aka", "--user", "alice", "--uav", "uav-1"], tmp_path)
    assert json.loads(proc.stdout)["keys_agree"] is True
    # stale password now fails the local credential check
    proc = run_cli(["run-aka", "--user", "alice", "--uav", "uav-1",
                    "--password", "pw-alice"], tmp_path, check=False)
    assert proc.returncode == 1

    run_cli(["replace-card", "--user", "alice",
             "--new-password", "pw-alice-3"], tmp_path)
    proc = run_cli(["run-aka", "--user", "alice", "--uav", "uav-1"], tmp_path)
    assert json.loads(proc.stdout)["keys_agree"] is True

    run_cli(["add-uav", "--uav", "uav-2"], tmp_path)
    proc = run_cli(["run-aka", "--user", "alice", "--uav", "uav-2"], tmp_path)
    assert json.loads(proc.stdout)["keys_agree"] is True


def test_a_failed_run_aka_exits_1_and_keeps_the_last_session(tmp_path, capsys):
    # a run that does not complete has no counts to report, so it writes
    # no session: the last completed one stays as it was, byte for byte
    flow = (["init-gwn"], ["register-user", "--user", "alice", "--password", "pw-alice"],
            ["register-uav", "--uav", "uav-1"], ["run-aka", "--user", "alice", "--uav", "uav-1"],
            ["update-credentials", "--user", "alice", "--new-password", "pw-alice-2"])
    for args in flow:
        assert main(["--seed", "0", "--state-dir", str(tmp_path), *args]) == 0, args
    last = (tmp_path / "last_session.json").read_bytes()
    capsys.readouterr()
    assert main(["--seed", "0", "--state-dir", str(tmp_path), "run-aka", "--user", "alice",
                 "--uav", "uav-1", "--password", "pw-alice"]) == 1
    assert capsys.readouterr().out.startswith("key agreement failed at login")
    assert (tmp_path / "last_session.json").read_bytes() == last


def test_attack_subcommand_exit_codes(tmp_path):
    proc = run_cli(["attack", "replay"], tmp_path)
    report = json.loads(proc.stdout)
    assert report["passed"] is True
    assert proc.returncode == 0
    proc = run_cli(["attack", "not-a-scenario"], tmp_path, check=False)
    assert proc.returncode == 2  # argparse rejects unknown choices


@pytest.mark.parametrize("name", ["lifecycle_update_replace", "dynamic_addition"])
def test_attack_runs_a_lifecycle_flow(tmp_path, name):
    proc = run_cli(["attack", name], tmp_path)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["scenario"] == name and report["passed"] is True


def test_attack_table_format(tmp_path):
    proc = run_cli(["--format", "table", "attack", "mutual_auth"], tmp_path)
    assert "pass" in proc.stdout
    assert "session keys agree" in proc.stdout


def test_same_seed_same_state_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for root in (a, b):
        bootstrap(root, seed=9)
        run_cli(["--seed", "9", "run-aka", "--user", "alice",
                 "--uav", "uav-1"], root)
    for name in ("gwn.json", "user_alice.json", "uav_uav-1.json",
                 "secrets.json", "last_session.json"):
        assert (a / "state" / name).read_bytes() == \
            (b / "state" / name).read_bytes(), name


@pytest.mark.parametrize("command", [
    ["register-user", "--user", "bob", "--password", ""],
    ["replace-card", "--user", "alice", "--new-password", ""],
    ["update-credentials", "--user", "alice", "--new-password", ""],
])
def test_empty_password_is_a_one_line_error(tmp_path, command):
    bootstrap(tmp_path)
    proc = run_cli(command, tmp_path, check=False)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("command", [
    ["register-uav", "--uav", "a/b"],
    ["add-uav", "--uav", "a/b"],
    ["register-user", "--user", "x/y", "--password", "pw-x"],
    ["register-uav", "--uav", ""],
    ["add-uav", "--uav", ""],
    ["register-user", "--user", "", "--password", "pw-x"],
    ["register-uav", "--uav", "uav\0"],
    ["register-user", "--user", "x\0", "--password", "pw-x"],
], ids=["uav-slash", "add-uav-slash", "user-slash", "uav-empty", "add-uav-empty",
        "user-empty", "uav-nul", "user-nul"])
def test_a_name_no_state_file_can_hold_is_a_usage_error(tmp_path, capsys, command):
    # uav_a/b.json cannot be written: the refusal must come before the
    # gateway records the name, or every retry is refused as a duplicate
    state = tmp_path / "state"
    for setup in (["init-gwn"], ["register-user", "--user", "alice", "--password", "pw"]):
        assert main(["--state-dir", str(state), *setup]) == 0
    before = {p.name: p.read_bytes() for p in state.iterdir()}
    capsys.readouterr()
    with pytest.raises(SystemExit) as refused:
        main(["--state-dir", str(state), *command])
    assert refused.value.code == 2
    assert "cannot name a state file" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in state.iterdir()} == before


def test_an_empty_gateway_identity_is_a_usage_error(tmp_path, capsys):
    # its id_g would be 0; the refusal comes before any state file is written
    state = tmp_path / "state"
    with pytest.raises(SystemExit) as refused:
        main(["--state-dir", str(state), "init-gwn", "--identity", ""])
    assert refused.value.code == 2
    assert "gateway identity must be non-empty" in capsys.readouterr().err
    assert not state.exists()
    assert main(["--state-dir", str(state), "init-gwn", "--identity", "g"]) == 0
    assert json.loads((state / "gwn.json").read_text())["identity"] == "g"


def test_a_refused_name_exits_2_without_a_traceback(tmp_path):
    bootstrap(tmp_path)
    state = tmp_path / "state"
    before = {p.name: p.read_bytes() for p in state.iterdir()}
    proc = run_cli(["register-uav", "--uav", "a/b"], tmp_path, check=False)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert {p.name: p.read_bytes() for p in state.iterdir()} == before
    run_cli(["register-uav", "--uav", "a-b"], tmp_path)
    assert (state / "uav_a-b.json").is_file()


def test_run_aka_rewrites_only_gateway_meta_and_session(tmp_path):
    bootstrap(tmp_path)
    run_cli(["register-user", "--user", "bob", "--password", "pw-bob"], tmp_path)
    run_cli(["add-uav", "--uav", "uav-2"], tmp_path)
    state = tmp_path / "state"
    before = {p.name: p.read_bytes() for p in state.iterdir()}
    run_cli(["run-aka", "--user", "alice", "--uav", "uav-2"], tmp_path)
    after = {p.name: p.read_bytes() for p in state.iterdir()}
    changed = {name for name in after if before.get(name) != after[name]}
    assert changed == {"gwn.json", "meta.json", "last_session.json"}


def test_every_config_field_is_a_top_level_flag():
    """A SimConfig field that no flag sets, or a knob flag with no field, fails."""
    not_knobs = {"help", "state_dir", "format", "config", "command"}
    dests = {action.dest for action in build_parser()._actions} - not_knobs
    assert dests == {f.name for f in fields(SimConfig)}


@pytest.mark.parametrize("user,uav", [("carol", "uav-1"), ("alice", "uav-9")])
def test_unregistered_party_exit_code(tmp_path, user, uav):
    bootstrap(tmp_path)
    proc = run_cli(["run-aka", "--user", user, "--uav", uav], tmp_path, check=False)
    assert proc.returncode == 3


def _restored(world, root: Path):
    """``world`` written to ``root`` by save_world and read back by load_world."""
    save_world(StateDir(root), world)
    return load_world(StateDir(root), world.config)


def test_registry_json_round_trip(tmp_path):
    world = build_world(SimConfig(seed=14))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    restored = _restored(world, tmp_path / "a")
    save_world(StateDir(tmp_path / "b"), restored)
    written, rewritten = ((tmp_path / d / "gwn.json").read_bytes() for d in "ab")
    assert rewritten == written
    assert restored.gateway.registry["uav-1"].r_j == world.gateway.registry["uav-1"].r_j
    assert restored.gateway.user_tids == world.gateway.user_tids


def test_restored_gateway_has_the_attributes_of_a_new_one(tmp_path):
    world = build_world(SimConfig(seed=14))
    enroll_uav(world, "uav-1")
    restored = _restored(world, tmp_path)
    assert vars(restored.gateway).keys() == vars(build_world().gateway).keys()


def test_restored_gateway_relays_to_every_registered_uav(tmp_path):
    world = build_world(SimConfig(seed=16))
    enroll_user(world, "alice", "pw-alice")
    for i in range(6):
        enroll_uav(world, f"uav-{i}")
    restored = _restored(world, tmp_path)
    for name in world.uavs:
        result = run_aka(restored, "alice", name)
        assert result.ok and result.keys_agree, name


def test_uav_state_json_round_trip(tmp_path):
    world = build_world(SimConfig(seed=20))
    enroll_uav(world, "uav-1")
    uav = world.uavs["uav-1"]
    restored = _restored(world, tmp_path).uavs["uav-1"]
    assert (restored.identity, restored.c_j, restored.tc_id_j) == (uav.identity, uav.c_j,
                                                                    uav.tc_id_j)
    assert restored.id_j == uav.id_j
    assert restored._puf.eval_value(restored.c_j) == uav._puf.eval_value(uav.c_j)


def test_card_json_round_trip(tmp_path):
    world = build_world(SimConfig(seed=0))
    enroll_user(world, "alice", "correct-horse")
    restored = _restored(world, tmp_path)
    assert restored.users["alice"].card == world.users["alice"].card
    assert restored.user_secrets == world.user_secrets
