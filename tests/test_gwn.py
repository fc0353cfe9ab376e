import random
from dataclasses import replace

import pytest

from fanet_aka.bits import BitString
from fanet_aka.crypto import sha1_digest
from fanet_aka.errors import (DuplicateRegistration, MacMismatch, ProtocolError,
                              ReplayDetected, StaleTimestamp, UnknownUav)
from fanet_aka.gwn import SECRET_BITS, Gateway
from fanet_aka.simnet import SimConfig, SimClock, build_world, enroll_user, enroll_uav, run_aka
from fanet_aka.wire import Msg1, UserRegRequest, decode_msg1, encode, ts_bits


def test_gateway_secret_is_seed_deterministic():
    def secret(seed):
        return build_world(SimConfig(seed=seed)).gateway.export_secret()
    assert secret(0) == secret(0)
    assert secret(0) != secret(1)


def test_register_user_cancellation_identity():
    gwn = Gateway("gateway-0", BitString.random(SECRET_BITS, random.Random(2)))
    request = UserRegRequest(tid_i=BitString(160, 111), tpw_i=BitString(160, 222))
    response = gwn.register_user(request)
    recovered = response.tc_id_i ^ request.tid_i ^ request.tpw_i
    assert recovered == sha1_digest(gwn.id_g,
                                   BitString.from_hex(gwn.export_secret())).value


def test_register_user_golden_seed_zero():
    rng = random.Random(0)
    from fanet_aka.user import User
    request = User("alice").register_begin("correct-horse", rng)
    gwn = Gateway("gateway-0", BitString.random(SECRET_BITS, random.Random(0)))
    response = gwn.register_user(request)
    assert BitString(160, response.tc_id_i).hex() == "8ecf89a82baf010167098e07ae54eb16f6794148"


def test_duplicate_user_registration_rejected():
    gwn = Gateway("gateway-0", BitString.random(SECRET_BITS, random.Random(2)))
    request = UserRegRequest(tid_i=BitString(160, 1), tpw_i=BitString(160, 2))
    gwn.register_user(request)
    with pytest.raises(DuplicateRegistration):
        gwn.register_user(request)


def test_uav_registration_flow():
    rng = random.Random(3)
    gwn = Gateway("gateway-0", BitString.random(SECRET_BITS, rng))
    response = gwn.register_uav_begin("uav-1", rng)
    assert encode(response).width == 320
    with pytest.raises(DuplicateRegistration):
        gwn.register_uav_begin("uav-1", rng)
    with pytest.raises(UnknownUav):
        gwn.register_uav_complete("uav-9", BitString.zeros(160))
    gwn.register_uav_complete("uav-1", BitString(160, 77))
    assert gwn.registry["uav-1"].r_j == BitString(160, 77)


def test_distinct_uavs_get_distinct_challenges():
    rng = random.Random(4)
    gwn = Gateway("gateway-0", BitString.random(SECRET_BITS, rng))
    challenges = {gwn.register_uav_begin(f"uav-{i}", rng).c_j
                  for i in range(20)}
    assert len(challenges) == 20


def _ready_world(seed=8):
    world = build_world(SimConfig(seed=seed))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    user = world.users["alice"]
    secrets = world.user_secrets["alice"]
    ctx = user.login(secrets["password"], secrets["bio"])
    msg1 = user.aka_initiate(ctx, "uav-1", world.clock)
    return world, msg1


def test_relay_accepts_honest_request():
    world, msg1 = _ready_world()
    msg2 = world.gateway.relay_auth(msg1, world.clock, world.rng)
    assert encode(msg2).width == 672


def test_relay_counts_six_hashes():
    world, msg1 = _ready_world()
    world.gateway.ops.reset()
    world.gateway.relay_auth(msg1, world.clock, world.rng)
    assert world.gateway.ops.hash_count == 6


def test_relay_rejects_stale_timestamp():
    world, msg1 = _ready_world()
    world.clock.advance(world.config.delta_t)
    with pytest.raises(StaleTimestamp):
        world.gateway.relay_auth(msg1, world.clock, world.rng)


def test_relay_rejects_replay_within_window():
    world, msg1 = _ready_world()
    world.gateway.relay_auth(msg1, world.clock, world.rng)
    with pytest.raises(ReplayDetected):
        world.gateway.relay_auth(msg1, world.clock, world.rng)


def test_relay_rejects_tampered_mac_fields():
    world, msg1 = _ready_world()
    raw = encode(msg1)
    for index in (0, 200, 350, 500):  # mac / rid / g / f' regions
        tampered = decode_msg1(raw.flip(index))
        with pytest.raises((MacMismatch, UnknownUav)):
            world.gateway.relay_auth(tampered, world.clock, world.rng)


def test_relay_rejects_unknown_uav():
    world = build_world(SimConfig(seed=9))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    user = world.users["alice"]
    secrets = world.user_secrets["alice"]
    ctx = user.login(secrets["password"], secrets["bio"])
    msg1 = user.aka_initiate(ctx, "uav-ghost", world.clock)
    with pytest.raises(UnknownUav):
        world.gateway.relay_auth(msg1, world.clock, world.rng)


def test_relay_never_crashes_on_fuzz():
    world, _ = _ready_world()
    rng = random.Random(31)
    for _ in range(300):
        try:
            world.gateway.relay_auth(decode_msg1(BitString.random(672, rng)),
                                     world.clock, world.rng)
        except (StaleTimestamp, ReplayDetected, MacMismatch, UnknownUav):
            pass


def test_rejection_work_is_bounded():
    # a garbage request with a fresh timestamp dies at the MAC check
    world, _ = _ready_world()
    rng = random.Random(37)
    gwn = world.gateway
    for _ in range(50):
        fields = [BitString.random(160, rng) for _ in range(4)]
        garbage = Msg1(*fields, ts1=ts_bits(world.clock.now))
        before = gwn.ops.hash_count
        with pytest.raises((MacMismatch, UnknownUav)):
            gwn.relay_auth(garbage, world.clock, world.rng)
        assert gwn.ops.hash_count - before <= 3


def test_secret_confinement_in_public_payloads():
    world = build_world(SimConfig(seed=10))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    result = run_aka(world, "alice", "uav-1")
    assert result.ok
    s = BitString.from_hex(world.gateway.export_secret())
    record = world.gateway.registry["uav-1"]
    needles = [s, record.n_j, record.n_j.zext(160), record.r_j]
    for transmission in world.channel.log:
        if transmission.secure:
            continue
        for needle in needles:
            assert not transmission.payload.contains(needle)


def test_relay_requires_registration_argument_order():
    # regression pin: the relay digest is h(identity || secret); a card
    # minted with the reversed order can never authenticate
    world = build_world(SimConfig(seed=11))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    user = world.users["alice"]
    secrets = world.user_secrets["alice"]
    ctx = user.login(secrets["password"], secrets["bio"])
    s = BitString.from_hex(world.gateway.export_secret())
    assert ctx.c_i == sha1_digest(world.gateway.id_g, s).value

    ctx.c_i = sha1_digest(s, world.gateway.id_g).value  # reversed order
    msg1 = user.aka_initiate(ctx, "uav-1", world.clock)
    with pytest.raises((MacMismatch, UnknownUav)):
        world.gateway.relay_auth(msg1, world.clock, world.rng)


def test_add_uav_dynamic_broadcasts_and_grows_registry():
    world = build_world(SimConfig(seed=13))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    before = len(world.gateway.registry)
    enroll_uav(world, "uav-2", announce=True)
    assert world.users["alice"].known_uavs == {"uav-2"}
    assert len(world.gateway.registry) == before + 1
    with pytest.raises(DuplicateRegistration):
        enroll_uav(world, "uav-2", announce=True)


def test_registry_json_round_trip():
    world = build_world(SimConfig(seed=14))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    doc = world.gateway.to_json()
    restored = Gateway.from_json(doc, world.gateway.export_secret())
    assert restored.to_json() == doc
    assert restored.registry["uav-1"].r_j == world.gateway.registry["uav-1"].r_j


def test_restored_gateway_has_the_attributes_of_a_new_one():
    world = build_world(SimConfig(seed=14))
    enroll_uav(world, "uav-1")
    restored = Gateway.from_json(world.gateway.to_json(), world.gateway.export_secret())
    assert vars(restored).keys() == vars(build_world().gateway).keys()


def test_uav_sharing_a_wire_identity_is_refused():
    # from_text zero-pads, so both names encode to the same 160-bit id_j;
    # a second record could never be reached by a session
    world = build_world(SimConfig(seed=15))
    enroll_uav(world, "uav-1")
    with pytest.raises(DuplicateRegistration):
        enroll_uav(world, "uav-1\x00")
    assert list(world.gateway.registry) == ["uav-1"]

    doc = world.gateway.to_json()
    doc["registry"]["uav-1\x00"] = doc["registry"]["uav-1"]
    with pytest.raises(ValueError):
        Gateway.from_json(doc, world.gateway.export_secret())


def test_restored_gateway_relays_to_every_registered_uav():
    world = build_world(SimConfig(seed=16))
    enroll_user(world, "alice", "pw-alice")
    for i in range(6):
        enroll_uav(world, f"uav-{i}")
    world.gateway = Gateway.from_json(world.gateway.to_json(),
                                      world.gateway.export_secret())
    for name in world.uavs:
        result = run_aka(world, "alice", name)
        assert result.ok and result.keys_agree, name


def test_a_msg1_field_cannot_be_assigned_and_a_replaced_one_is_refused():
    # an assigned field would skip the record's boundary; replace goes
    # through it, so the gateway sees an int and refuses the MAC
    world = build_world(SimConfig(seed=0))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    user, gwn = world.users["alice"], world.gateway
    secrets = world.user_secrets["alice"]
    msg1 = user.aka_initiate(user.login(secrets["password"], secrets["bio"]),
                             "uav-1", world.clock)
    with pytest.raises(AttributeError):
        msg1.g_i = BitString(160, 1)
    forged = replace(msg1, g_i=BitString(160, 1))
    assert forged.g_i == 1
    with pytest.raises(ProtocolError):
        gwn.relay_auth(forged, world.clock, world.rng)
    gwn.relay_auth(msg1, world.clock, world.rng)  # the original still verifies
