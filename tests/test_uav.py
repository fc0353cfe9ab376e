import random

import pytest

from fanet_aka.bits import contains, text_value
from fanet_aka.crypto import CHALLENGE_BITS, PUF_SEED_BITS, PufDevice
from fanet_aka.errors import MacMismatch, ReplayDetected, StaleTimestamp
from fanet_aka.metrics import diff_counts
from fanet_aka.simnet import SimConfig, build_world, enroll_user, enroll_uav, run_aka
from fanet_aka.uav import Uav
from fanet_aka.wire import decode_msg2, encode


def _world_with_msg2(seed=20):
    world = build_world(SimConfig(seed=seed))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    enroll_uav(world, "uav-2")
    user = world.users["alice"]
    secrets = world.user_secrets["alice"]
    ctx = user.login(secrets["password"], secrets["bio"])
    msg1 = user.aka_initiate(ctx, "uav-1", world.clock)
    world.clock.advance(1)
    msg2 = world.gateway.relay_auth(msg1, world.clock, world.rng)
    return world, msg2


def test_register_stores_triple_and_returns_response():
    rng = random.Random(1)
    puf = PufDevice.generate(rng)
    c_j, tc_id_j = rng.getrandbits(CHALLENGE_BITS), 9
    uav = Uav("uav-1", text_value("uav-1"), puf, c_j, tc_id_j)
    submit = uav.register()
    assert submit.r_j == puf.eval_value(c_j)
    assert uav.c_j == c_j
    assert uav.tc_id_j == tc_id_j


def test_same_challenge_different_devices_differ():
    rng = random.Random(2)
    challenge = rng.getrandbits(CHALLENGE_BITS)
    responses = {PufDevice.generate(rng).eval_value(challenge) for _ in range(10)}
    assert len(responses) == 10


def test_capture_memory_is_exactly_the_triple():
    rng = random.Random(3)
    uav = Uav("uav-1", text_value("uav-1"), PufDevice.generate(rng),
              rng.getrandbits(CHALLENGE_BITS), 1)
    memory = uav.capture_memory()
    assert sorted(memory) == ["c_j", "id_j", "tc_id_j"]
    assert all(type(value) is int and 0 <= value < 1 << 160 for value in memory.values())
    assert memory["id_j"] == text_value("uav-1")
    # neither the response nor the device seed is in the image
    r_j = uav._puf.eval_value(uav.c_j)
    assert all(value != r_j for value in memory.values())
    top = uav._puf.seed >> (PUF_SEED_BITS - 160)
    assert all(not contains(160, value, 160, top) for value in memory.values())


def test_respond_accepts_honest_relay_and_counts_ops():
    world, msg2 = _world_with_msg2()
    uav = world.uavs["uav-1"]
    world.clock.advance(1)
    before = uav.ops.counts()
    msg3, sk = uav.aka_respond(msg2, world.clock, world.rng)
    spent = diff_counts(before, uav.ops.counts())
    assert (spent["hash"], spent["puf"]) == (8, 1)
    assert encode(msg3).width == 512
    assert type(sk) is int and 0 <= sk < 1 << 160


def test_respond_reconstructs_request_pseudonym():
    # the responder's unmasking must close back to MSG1's rid_j
    world = build_world(SimConfig(seed=21))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    result = run_aka(world, "alice", "uav-1")
    assert result.ok
    from fanet_aka.wire import decode_msg1, decode_msg3
    msg1 = decode_msg1(result.transcript[0].payload)
    msg3 = decode_msg3(result.transcript[2].payload)
    # v5 = h(tid || rid || ts3) xor n_k and the user accepted it, so the
    # responder's rid matched; keys agreeing is the end-to-end witness
    assert result.keys_agree
    assert 0 <= msg1.rid_j < 1 << 160 and 0 <= msg3.v5 < 1 << 160


def test_respond_rejects_wrong_uav_record():
    world, msg2 = _world_with_msg2()
    world.clock.advance(1)
    with pytest.raises(MacMismatch):
        world.uavs["uav-2"].aka_respond(msg2, world.clock, world.rng)


def test_respond_rejects_stale_timestamp():
    world, msg2 = _world_with_msg2()
    world.clock.advance(world.config.delta_t + 1)
    with pytest.raises(StaleTimestamp):
        world.uavs["uav-1"].aka_respond(msg2, world.clock, world.rng)


def test_respond_rejects_replay():
    world, msg2 = _world_with_msg2()
    world.clock.advance(1)
    world.uavs["uav-1"].aka_respond(msg2, world.clock, world.rng)
    with pytest.raises(ReplayDetected):
        world.uavs["uav-1"].aka_respond(msg2, world.clock, world.rng)


def test_respond_enforces_nonce_zero_prefix():
    # flipping a top bit of v1 corrupts the recovered nonce's zero prefix
    world, msg2 = _world_with_msg2()
    world.clock.advance(1)
    uav = world.uavs["uav-1"]
    tampered = decode_msg2(encode(msg2).flip(160))  # v1 bit 0
    before = uav.ops.hash_count
    with pytest.raises(MacMismatch):
        uav.aka_respond(tampered, world.clock, world.rng)
    # rejected before the pseudonym digest: one unmasking hash only
    assert uav.ops.hash_count - before == 1


def test_respond_emits_no_key_on_error():
    world, msg2 = _world_with_msg2()
    world.clock.advance(1)
    uav = world.uavs["uav-1"]
    tampered = decode_msg2(encode(msg2).flip(3))  # mac2 region
    with pytest.raises(MacMismatch):
        uav.aka_respond(tampered, world.clock, world.rng)
