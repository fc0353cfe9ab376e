import random
from dataclasses import replace

import pytest

from fanet_aka.bits import BitString, text_value
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
    gwn = Gateway("gateway-0", random.Random(2).getrandbits(SECRET_BITS))
    request = UserRegRequest(tid_i=BitString(160, 111), tpw_i=BitString(160, 222))
    response = gwn.register_user(request)
    recovered = response.tc_id_i ^ request.tid_i ^ request.tpw_i
    assert recovered == sha1_digest(BitString(160, text_value("gateway-0")),
                                   BitString(SECRET_BITS, gwn.export_secret())).value


def test_register_user_golden_seed_zero():
    rng = random.Random(0)
    from fanet_aka.user import User
    request = User("alice").register_begin("correct-horse", rng)
    gwn = Gateway("gateway-0", random.Random(0).getrandbits(SECRET_BITS))
    response = gwn.register_user(request)
    assert BitString(160, response.tc_id_i).hex() == "8ecf89a82baf010167098e07ae54eb16f6794148"


def test_duplicate_user_registration_rejected():
    gwn = Gateway("gateway-0", random.Random(2).getrandbits(SECRET_BITS))
    request = UserRegRequest(tid_i=BitString(160, 1), tpw_i=BitString(160, 2))
    gwn.register_user(request)
    with pytest.raises(DuplicateRegistration):
        gwn.register_user(request)


def test_uav_registration_flow():
    rng = random.Random(3)
    gwn = Gateway("gateway-0", rng.getrandbits(SECRET_BITS))
    id_j = gwn.check_uav_name("uav-1")
    assert id_j == text_value("uav-1")
    response = gwn.register_uav_begin("uav-1", id_j, rng)
    assert encode(response).width == 320
    with pytest.raises(DuplicateRegistration):
        gwn.register_uav_begin("uav-1", id_j, rng)
    with pytest.raises(DuplicateRegistration):
        gwn.check_uav_name("uav-1")
    with pytest.raises(UnknownUav):
        gwn.register_uav_complete("uav-9", 0)
    gwn.register_uav_complete("uav-1", 77)
    assert gwn.registry["uav-1"].r_j == 77


def test_an_empty_uav_name_is_refused():
    # as User("") is: the name would leave the UAV no state file of its own
    gwn = Gateway("gateway-0", random.Random(3).getrandbits(SECRET_BITS))
    with pytest.raises(ValueError):
        gwn.check_uav_name("")
    assert gwn.registry == {}


def test_an_empty_gateway_identity_is_refused():
    # as User("") is: its id_g would be 0
    with pytest.raises(ValueError):
        Gateway("", random.Random(3).getrandbits(SECRET_BITS))


def test_distinct_uavs_get_distinct_challenges():
    rng = random.Random(4)
    gwn = Gateway("gateway-0", rng.getrandbits(SECRET_BITS))
    challenges = {gwn.register_uav_begin(f"uav-{i}", gwn.check_uav_name(f"uav-{i}"), rng).c_j
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
    before = world.gateway.ops.hash_count
    world.gateway.relay_auth(msg1, world.clock, world.rng)
    assert world.gateway.ops.hash_count - before == 6


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
    s = BitString(SECRET_BITS, world.gateway.export_secret())
    record = world.gateway.registry["uav-1"]
    needles = [s, BitString(128, record.n_j), BitString(160, record.n_j),
               BitString(160, record.r_j)]
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
    s = BitString(SECRET_BITS, world.gateway.export_secret())
    id_g = BitString(160, text_value(world.gateway.identity))
    assert ctx.c_i == sha1_digest(id_g, s).value

    ctx.c_i = sha1_digest(s, id_g).value  # reversed order
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


def test_uav_sharing_a_wire_identity_is_refused():
    # text_value zero-pads, so both names encode to the same 160-bit id_j;
    # a second record could never be reached by a session
    world = build_world(SimConfig(seed=15))
    enroll_uav(world, "uav-1")
    with pytest.raises(DuplicateRegistration):
        enroll_uav(world, "uav-1\x00")
    with pytest.raises(DuplicateRegistration):
        world.gateway.register_uav_begin("uav-3", world.uavs["uav-1"].id_j, world.rng)
    assert list(world.gateway.registry) == ["uav-1"]


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
