import json
from dataclasses import fields

import pytest

from fanet_aka.bits import BitString
from fanet_aka.errors import DisallowedAction, MacMismatch, ReplayDetected
from fanet_aka.simnet import (SimClock, SimConfig, build_world, enroll_user,
                              enroll_uav, run_aka)
from fanet_aka.wire import decode, decode_msg1, encode, protocol_bits, ts_bits


def _ready(seed=0, **kwargs):
    world = build_world(SimConfig(seed=seed, **kwargs))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    return world


def test_clock_is_monotone():
    clock = SimClock()
    assert clock.advance(3) == 3
    with pytest.raises(ValueError):
        clock.advance(-1)
    assert clock.now == 3


def test_channel_records_secure_and_public_separately():
    world = _ready()
    assert world.channel.log, "registration traffic should be recorded"
    assert all(tr.secure for tr in world.channel.log)
    assert world.channel.public_payloads() == []
    run_aka(world, "alice", "uav-1")
    assert len(world.channel.public_payloads()) == 3


def test_adversary_cannot_touch_secure_channel():
    world = _ready()
    secure_tr = world.channel.log[0]
    logged = len(world.channel.log)
    adversary = world.adversary()
    with pytest.raises(DisallowedAction):
        adversary.replay(secure_tr)
    assert len(world.channel.log) == logged
    assert adversary.observe() == []
    insider = world.adversary(insider=True)
    assert len(insider.observe()) == logged
    assert insider.replay(secure_tr).secure


def test_adversary_actions_are_logged():
    world = _ready()
    result = run_aka(world, "alice", "uav-1")
    tr = result.transcript[0]
    copy = world.adversary().replay(tr)
    assert copy is world.channel.log[-1]
    assert copy.events == ["replayed"] and tr.events == []
    assert (copy.kind, copy.dest, copy.payload) == (tr.kind, tr.dest, tr.payload)
    assert copy.tick == world.clock.now


def test_dropped_message_stalls_without_keys():
    world = _ready(seed=2)
    result = run_aka(world, "alice", "uav-1",
                     intercept=lambda kind, p: None if kind == "MSG2" else p)
    assert not result.ok
    assert result.stage == "MSG2"
    assert result.user_sk is None and result.uav_sk is None


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
    tr = world.channel.send("alice", gwn.identity, "MSG1", encode(msg1))
    gwn.relay_auth(msg1, world.clock, world.rng)
    world.clock.advance(1)
    copy = world.adversary().replay(tr)
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
        assert not tr.payload.contains(result.user_sk)


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
    assert second.channel.public_payloads() == []
    assert second.clock.now != first.clock.now


def test_transmission_json_shape():
    world = _ready(seed=7)
    result = run_aka(world, "alice", "uav-1")
    doc = result.transcript[0].to_json()
    assert set(doc) == {"tick", "origin", "dest", "kind", "secure", "hex",
                        "events"}
    assert doc["kind"] == "MSG1"
    assert decode_msg1(BitString.from_hex(doc["hex"])).ts1.value == doc["tick"]
