import gc
import json
from dataclasses import fields

import pytest

from fanet_aka import wire
from fanet_aka.bits import BitString, contains, int_of_hex
from fanet_aka.errors import (DisallowedAction, DuplicateRegistration, MacMismatch,
                              ReplayDetected)
from fanet_aka.simnet import (LOG_CAPACITY, SimClock, SimConfig, build_world,
                              enroll_user, enroll_uav, run_aka)
from fanet_aka.wire import (FreshnessGuard, decode, decode_msg1, encode, protocol_bits,
                            ts_bits)


def _ready(seed=0, **kwargs):
    world = build_world(SimConfig(seed=seed, **kwargs))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    return world


def test_clock_is_monotone():
    clock = SimClock(2)
    assert clock.advance(3) == 3
    with pytest.raises(ValueError):
        clock.advance(-1)
    assert clock.now == 3


def test_channel_records_secure_and_public_separately():
    world = _ready()
    assert world.channel.log, "registration traffic should be recorded"
    assert all(tr.secure for tr in world.channel.log)
    assert [tr.payload for tr in world.channel.log if not tr.secure] == []
    run_aka(world, "alice", "uav-1")
    assert len([tr.payload for tr in world.channel.log if not tr.secure]) == 3


def test_adversary_cannot_touch_secure_channel():
    world = _ready()
    secure_tr = world.channel.log[0]
    logged = len(world.channel.log)
    with pytest.raises(DisallowedAction):
        world.channel.replay(secure_tr)
    assert len(world.channel.log) == logged
    assert [tr.payload for tr in world.channel.log if not tr.secure] == []


def test_adversary_actions_are_logged():
    world = _ready()
    result = run_aka(world, "alice", "uav-1")
    tr = result.transcript[0]
    copy = world.channel.replay(tr)
    assert copy is world.channel.log[-1]
    assert copy.replayed and not tr.replayed
    assert copy.to_json()["events"] == ["replayed"] and tr.to_json()["events"] == []
    assert not copy.secure
    assert (copy.kind, copy.dest, copy.payload) == (tr.kind, tr.dest, tr.payload)
    assert copy.tick == world.clock.now


def test_dropped_message_stalls_without_keys():
    world = _ready(seed=2)
    result = run_aka(world, "alice", "uav-1",
                     intercept=lambda kind, p: None if kind == "MSG2" else p)
    assert not result.ok
    assert result.stage == "MSG2"
    assert result.user_sk is None and result.uav_sk is None
    assert result.checks == {"credential": True, "mac1": True, "mac2": False,
                             "confirmation": False}


@pytest.mark.parametrize("held", ["MSG1", "MSG2", "MSG3"])
def test_delayed_message_goes_stale(held):
    world = _ready(seed=3)

    def hold(kind, payload):
        if kind == held:
            world.clock.advance(world.config.delta_t)
        return payload

    result = run_aka(world, "alice", "uav-1", intercept=hold)
    assert not result.ok
    assert result.stage == held
    assert result.error == "StaleTimestamp"
    assert result.user_sk is None
    passed = ["credential", "mac1", "mac2", "confirmation"][:int(held[-1])]
    assert [name for name, ok in result.checks.items() if ok] == passed


@pytest.mark.parametrize("start", [2**32 - 2, 2**32 + 5])
def test_sessions_complete_across_the_clock_wrap(start):
    # the timestamp field is 32 bits but the clock is not
    world = _ready(seed=8)
    world.clock.advance(start)
    result = run_aka(world, "alice", "uav-1")
    assert result.ok and result.keys_agree


@pytest.mark.parametrize("start", [2**32 - 1, 2**32 + 5])
def test_msg1_replayed_after_the_clock_wrap_is_refused(start):
    world = _ready(seed=9)
    world.clock.advance(start)
    user, gwn = world.users["alice"], world.gateway
    secrets = world.user_secrets["alice"]
    msg1 = user.aka_initiate(user.login(secrets["password"], secrets["bio"]),
                             "uav-1", world.clock)
    tr = world.channel.send("alice", gwn.identity, msg1)
    gwn.relay_auth(msg1, world.clock, world.rng)
    world.clock.advance(1)
    copy = world.channel.replay(tr)
    with pytest.raises(ReplayDetected):
        gwn.relay_auth(decode_msg1(copy.payload), world.clock, world.rng)


@pytest.mark.parametrize("party", ["gwn", "uav"])
def test_guard_caches_only_verified_macs_and_only_inside_the_window(party):
    world = _ready(seed=10)
    user, gwn, uav = world.users["alice"], world.gateway, world.uavs["uav-1"]
    secrets = world.user_secrets["alice"]
    msg = user.aka_initiate(user.login(secrets["password"], secrets["bio"]),
                            "uav-1", world.clock)
    if party == "gwn":
        guard, receive = gwn.guard, gwn.relay_auth
    else:
        msg = gwn.relay_auth(msg, world.clock, world.rng)
        guard, receive = uav.guard, uav.aka_respond
    cls = type(msg)

    # bit 0 lies in the MAC of both MSG1 and MSG2
    with pytest.raises(MacMismatch):
        receive(decode(cls, encode(msg).flip(0)), world.clock, world.rng)
    assert len(guard._cache) == 0
    receive(msg, world.clock, world.rng)
    assert len(guard._cache) == 1

    world.clock.advance(world.config.delta_t)
    # the same fields under a fresh timestamp: past the window check, so it
    # purges the cache, then fails its MAC
    *kept, _ = (getattr(msg, f.name) for f in fields(msg))
    with pytest.raises(MacMismatch):
        receive(cls(*kept, ts_bits(world.clock.now)), world.clock, world.rng)
    assert len(guard._cache) == 0


def test_guard_holding_many_live_macs_refuses_a_replay_and_admits_an_expired_mac():
    guard, clock = FreshnessGuard("MSG1"), SimClock(3)
    expiries = {}
    for tick in range(10):
        clock.now = tick
        for k in range(200):
            mac = 1000 * tick + k
            expiries[mac] = guard.check(mac, ts_bits(tick), clock)
            guard.accept(mac, expiries[mac])
    # at tick 9 the MACs accepted at ticks 7 to 9 are live, the rest expired
    live = {mac for mac, expiry in expiries.items() if expiry > clock.now}
    assert set(guard._cache) == live and len(live) == 600
    assert len(guard._expiries) == len(live)
    for mac in (9005, 7000, 7199):
        with pytest.raises(ReplayDetected):
            guard.check(mac, ts_bits(clock.now), clock)
    assert guard.check(6005, ts_bits(clock.now), clock) == clock.now + 3
    clock.now += 1
    assert guard.check(7199, ts_bits(clock.now), clock) == clock.now + 3
    assert len(guard._cache) == 400


def test_honest_run_produces_expected_accounting():
    world = _ready(seed=4)
    result = run_aka(world, "alice", "uav-1")
    assert result.ok and result.keys_agree
    assert protocol_bits(result.transcript)["total"] == 1856
    assert result.op_counts["user"]["hash"] == 11
    assert result.op_counts["gwn"]["hash"] == 6
    assert result.op_counts["uav"]["hash"] == 8
    assert [tr.kind for tr in result.transcript] == ["MSG1", "MSG2", "MSG3"]


def test_session_keys_never_equal_any_payload_fragment():
    world = _ready(seed=5)
    result = run_aka(world, "alice", "uav-1")
    for tr in result.transcript:
        assert not contains(tr.payload.width, tr.payload.value, 160, result.user_sk)


def test_same_seed_same_transcript_bytes():
    def transcript_json(seed):
        world = _ready(seed=seed)
        result = run_aka(world, "alice", "uav-1")
        return json.dumps([tr.to_json() for tr in result.transcript],
                          sort_keys=True)

    assert transcript_json(11) == transcript_json(11)
    assert transcript_json(11) != transcript_json(12)


def test_worlds_are_isolated():
    first = _ready(seed=6)
    second = _ready(seed=6)
    run_aka(first, "alice", "uav-1")
    assert [tr.payload for tr in second.channel.log if not tr.secure] == []
    assert second.clock.now != first.clock.now


def test_transmission_json_shape():
    world = _ready(seed=7)
    result = run_aka(world, "alice", "uav-1")
    doc = result.transcript[0].to_json()
    assert set(doc) == {"tick", "origin", "dest", "kind", "secure", "hex",
                        "events"}
    assert doc["kind"] == "MSG1"
    assert decode_msg1(BitString(672, int_of_hex(doc["hex"], 672))).ts1 == doc["tick"]


def test_tampered_delivery_is_marked_with_the_sent_bits():
    world = _ready()
    sent = {}

    def flip(kind, payload):
        sent[kind] = payload
        return payload.flip(400) if kind == "MSG3" else payload

    result = run_aka(world, "alice", "uav-1", intercept=flip)
    assert (result.stage, result.error) == ("MSG3", "AuthFailed")
    msg1, msg2, msg3 = (tr.to_json() for tr in result.transcript)
    assert msg1["events"] == msg2["events"] == [] and "sent_hex" not in msg1
    assert msg3["events"] == ["tampered"]
    assert msg3["sent_hex"] == sent["MSG3"].hex() != msg3["hex"]
    assert msg3["hex"] == sent["MSG3"].flip(400).hex()
    assert world.channel.log[-1] is result.transcript[2]


def test_an_equal_but_distinct_delivery_is_not_tampering():
    def run(intercept):
        world = _ready()
        return world, run_aka(world, "alice", "uav-1", intercept=intercept)

    _, honest = run(None)
    world, copied = run(lambda kind, p: BitString(p.width, p.value))
    assert copied.ok and copied.user_sk == copied.uav_sk == honest.user_sk
    assert [tr.to_json() for tr in copied.transcript] == [
        tr.to_json() for tr in honest.transcript]
    assert not any(tr.sent for tr in world.channel.log)


def _decode_calls(monkeypatch):
    calls = []
    for name in ("decode_msg1", "decode_msg2", "decode_msg3"):
        def counted(raw, _name=name, _decode=getattr(wire, name)):
            calls.append(_name)
            return _decode(raw)
        monkeypatch.setattr(wire, name, counted)
    return calls


@pytest.mark.parametrize("intercept", [None, lambda kind, p: p], ids=["honest", "passed_on"])
def test_an_untouched_message_reaches_its_receiver_without_a_parse(monkeypatch, intercept):
    calls = _decode_calls(monkeypatch)
    result = run_aka(_ready(), "alice", "uav-1", intercept=intercept)
    assert result.ok and result.keys_agree
    assert calls == []


def test_only_a_changed_message_is_parsed_again(monkeypatch):
    calls = _decode_calls(monkeypatch)
    result = run_aka(_ready(), "alice", "uav-1",
                     intercept=lambda kind, p: p.flip(200) if kind == "MSG2" else p)
    assert (result.stage, result.error) == ("MSG2", "MacMismatch")
    assert calls == ["decode_msg2"]


def test_refused_uav_enrollment_draws_and_sends_nothing():
    world = build_world(SimConfig(seed=1))
    enroll_uav(world, "uav-1")
    for name in ("uav-1", "uav-1\x00"):  # a taken name, a taken wire identity
        log_len, rng_state = len(world.channel.log), world.rng.getstate()
        with pytest.raises(DuplicateRegistration):
            enroll_uav(world, name)
        assert len(world.channel.log) == log_len
        assert world.rng.getstate() == rng_state
    assert list(world.uavs) == ["uav-1"]


def test_enrolled_uavs_add_at_most_15_gc_tracked_objects_each():
    # each UAV keeps its party, PUF, counter, replay guard and heap, its
    # registry record, and its three logged registration messages with their
    # payloads; its stored values are ints, which the collector never tracks
    world = build_world(SimConfig(seed=0))
    gc.collect()
    before = len(gc.get_objects())
    for i in range(1000):
        enroll_uav(world, f"uav-{i}")
    gc.collect()
    # 11,962 to 12,003 measured, as the process has built other things once,
    # so the bound leaves room for test order; BitString-valued records and
    # parties added 20,003
    assert len(gc.get_objects()) - before <= 15 * 1000


def test_log_is_bounded_and_counts_each_eviction():
    world = _ready(seed=12)
    channel = world.channel
    while channel.logged + 3 <= LOG_CAPACITY:
        world.clock.advance(world.config.delta_t + 1)
        assert run_aka(world, "alice", "uav-1").ok
    assert channel.evicted == 0
    for _ in range(3):
        world.clock.advance(world.config.delta_t + 1)
        before = channel.logged
        result = run_aka(world, "alice", "uav-1")
        assert result.ok and result.keys_agree
        assert channel.logged == before + 3
        assert len(channel.log) == LOG_CAPACITY
        assert channel.evicted == channel.logged - LOG_CAPACITY > 0
        # the run's transcript is exactly its own messages, the log's newest
        assert result.transcript == list(channel.log)[-3:]
        assert protocol_bits(result.transcript) == {
            "MSG1": 672, "MSG2": 672, "MSG3": 512, "total": 1856, "message_count": 3}
    assert not any(tr.secure for tr in channel.log)  # the oldest went first


def test_transcript_holds_only_the_runs_own_messages():
    # an adversary's copy logged during the run is in the log, not the transcript
    world = _ready(seed=13)
    first = run_aka(world, "alice", "uav-1")
    world.clock.advance(world.config.delta_t + 1)
    replayed = []

    def replay_old_msg1(kind, payload):
        if kind == "MSG2":
            replayed.append(world.channel.replay(first.transcript[0]))
        return payload

    result = run_aka(world, "alice", "uav-1", intercept=replay_old_msg1)
    assert result.ok and result.keys_agree
    assert [tr.kind for tr in result.transcript] == ["MSG1", "MSG2", "MSG3"]
    assert replayed[0] in world.channel.log and replayed[0] not in result.transcript
    assert list(world.channel.log)[-4:] == [*result.transcript[:2], replayed[0],
                                            result.transcript[2]]


def _counts(hash_, puf, fe, xor):
    return {"hash": hash_, "puf": puf, "fe": fe, "xor": xor}


NONE = _counts(0, 0, 0, 0)
LOGIN, INITIATE = _counts(4, 0, 1, 1), _counts(3, 0, 0, 3)


@pytest.mark.parametrize("case, stage, error, counts", [
    (dict(password="not-the-password"), "login", "LoginFailed",
     {"user": LOGIN, "gwn": NONE, "uav": NONE}),
    (dict(intercept=lambda kind, p: None if kind == "MSG1" else p), "MSG1",
     "ProtocolError", {"user": _counts(7, 0, 1, 4), "gwn": NONE, "uav": NONE}),
    (dict(intercept=lambda kind, p: p.flip(200) if kind == "MSG2" else p), "MSG2",
     "MacMismatch", {"user": _counts(7, 0, 1, 4), "gwn": _counts(6, 0, 0, 6),
                     "uav": _counts(3, 1, 0, 1)}),
    (dict(intercept=lambda kind, p: p.flip(400) if kind == "MSG3" else p), "MSG3",
     "AuthFailed", {"user": _counts(9, 0, 1, 6), "gwn": _counts(6, 0, 0, 6),
                    "uav": _counts(8, 1, 0, 7)}),
], ids=["wrong_password", "msg1_dropped", "msg2_tampered", "msg3_tampered"])
def test_counts_of_a_run_stopped_at_each_stage_are_pinned(case, stage, error, counts):
    # a phase is counted once it completes; the run's counts hold what was
    # spent before it stopped, the failed check included
    world = _ready()
    run_aka(world, "alice", "uav-1")  # counters are read, never reset
    world.clock.advance(world.config.delta_t + 1)
    result = run_aka(world, "alice", "uav-1", **case)
    assert (result.stage, result.error) == (stage, error)
    assert result.op_counts == counts
    phases = {"login": LOGIN, "initiate": INITIATE}
    assert result.phase_counts == ({} if stage == "login" else phases)
    assert len(result.transcript) == ("login", "MSG1", "MSG2", "MSG3").index(stage)
