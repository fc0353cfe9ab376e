import json
import random

import pytest

from fanet_aka.bits import BitString
from fanet_aka.crypto import FeParams, fe_rep, hash_parts, lift
from fanet_aka.errors import LoginFailed, ProtocolError
from fanet_aka.gwn import Gateway
from fanet_aka.simnet import SimConfig, build_world, enroll_user, enroll_uav, run_aka
from fanet_aka.user import SmartCard, User


def _registered_user(seed=0, password="correct-horse"):
    rng = random.Random(seed)
    user = User("alice")
    request = user.register_begin(password, rng)
    gwn = Gateway("gateway-0", random.Random(seed + 1000))
    response = gwn.register_user(request)
    bio = BitString.random(user.fe_params.bio_width, rng)
    user.register_complete(response, bio, rng)
    return user, gwn, bio, request, response


def test_registration_golden_values_seed_zero():
    rng = random.Random(0)
    request = User("alice").register_begin("correct-horse", rng)
    assert request.tid_i.hex() == "e8e1407bbaeb8ba819fb718038aa792963f86bde"
    assert request.tpw_i.hex() == "66fd22f74c10486eb35ab5f8268ade9552a1f243"


def test_pseudonym_is_not_the_identity():
    for seed in range(10):
        rng = random.Random(seed)
        user = User("alice")
        request = user.register_begin("pw", rng)
        assert request.tid_i != user.id_i


def test_same_password_different_nonce_different_tpw():
    rng = random.Random(0)
    first = User("alice").register_begin("shared-pw", rng)
    second = User("bob").register_begin("shared-pw", rng)
    assert first.tpw_i != second.tpw_i


def test_card_carries_gateway_digest():
    # C_i must cancel down to the gateway's own digest of (identity, secret)
    user, gwn, _, _, _ = _registered_user()
    expected = hash_parts(gwn.id_g, BitString.from_hex(gwn.export_secret()))
    assert user.card.c_i == expected


def test_card_contains_no_plaintext_secret():
    user, _, bio, request, _ = _registered_user()
    card = user.card
    secrets = [
        user.id_i,
        BitString.from_text("correct-horse"),
        fe_rep(bio, card.tau_i, card.fe_params),  # sigma
    ]
    fields = [card.a_i, card.b_i, card.c_i, card.tau_i]
    for secret in secrets:
        assert all(field != secret for field in fields)
        assert all(not field.contains(secret) for field in fields)


def test_card_json_round_trip():
    user, _, _, _, _ = _registered_user()
    doc = json.loads(json.dumps(user.card.to_json()))
    restored = SmartCard.from_json(doc)
    assert restored == user.card


def test_login_round_trip_recovers_registration_values():
    user, _, bio, request, _ = _registered_user()
    ctx = user.login("correct-horse", bio)
    assert ctx.tid_i == request.tid_i
    assert ctx.tpw_i == request.tpw_i


def test_login_wrong_password_fails_opaquely():
    user, _, bio, _, _ = _registered_user()
    with pytest.raises(LoginFailed) as info:
        user.login("wrong-horse", bio)
    assert "password" not in str(info.value)
    assert info.value.debug_cause == "credential-check"


def test_login_tolerates_bounded_biometric_noise():
    user, _, bio, _, _ = _registered_user()
    params = user.fe_params
    noisy = bio
    for block in range(0, params.key_bits, 3):
        for offset in range(params.tolerance):
            noisy = noisy.flip(block * params.repetition + offset)
    assert user.login("correct-horse", noisy) is not None


def test_login_rejects_noise_beyond_tolerance():
    user, _, bio, _, _ = _registered_user()
    noisy = bio
    for i in range(user.fe_params.tolerance + 1):
        noisy = noisy.flip(i)  # t+1 flips inside one block
    with pytest.raises(LoginFailed):
        user.login("correct-horse", noisy)


def test_login_requires_card():
    with pytest.raises(ProtocolError):
        User("alice").login("pw", BitString.zeros(160))


def test_finalize_requires_pending_session():
    user, _, bio, _, _ = _registered_user()
    from fanet_aka.wire import Msg3, ts_bits
    from fanet_aka.simnet import SimClock
    msg3 = Msg3(BitString.zeros(160), BitString.zeros(160), ts_bits(0),
                BitString.zeros(160))
    with pytest.raises(ProtocolError):
        user.aka_finalize(msg3, SimClock(), 2)


def test_pending_session_is_single_use():
    world = build_world(SimConfig(seed=4))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    result = run_aka(world, "alice", "uav-1")
    assert result.ok
    from fanet_aka.wire import decode_msg3
    msg3 = decode_msg3(result.transcript[2].payload)
    with pytest.raises(ProtocolError):
        world.users["alice"].aka_finalize(msg3, world.clock,
                                          world.config.delta_t)


def test_relay_recovers_pseudonym_from_request():
    # the gateway's unmasking algebra closes over MSG1's fields
    world = build_world(SimConfig(seed=5))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    user = world.users["alice"]
    secrets = world.user_secrets["alice"]
    ctx = user.login(secrets["password"], secrets["bio"])
    msg1 = user.aka_initiate(ctx, "uav-1", world.clock)

    s = BitString.from_hex(world.gateway.export_secret())
    m1 = hash_parts(world.gateway.id_g, s)
    e_i = hash_parts(m1, msg1.ts1)
    assert msg1.g_i ^ (msg1.f_i_prime ^ e_i) == ctx.tid_i


def test_two_initiations_share_no_field():
    world = build_world(SimConfig(seed=6))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    user = world.users["alice"]
    secrets = world.user_secrets["alice"]
    first = user.aka_initiate(user.login(secrets["password"], secrets["bio"]),
                              "uav-1", world.clock)
    world.clock.advance(3)
    second = user.aka_initiate(user.login(secrets["password"], secrets["bio"]),
                               "uav-1", world.clock)
    for name in ("mac1", "rid_j", "g_i", "f_i_prime", "ts1"):
        assert getattr(first, name) != getattr(second, name)


def test_update_keeps_nonce_and_gateway_digest():
    user, _, bio, _, _ = _registered_user()
    old_ctx = user.login("correct-horse", bio)
    rng = random.Random(99)
    new_bio = BitString.random(user.fe_params.bio_width, rng)
    old_card_c = user.card.c_i
    user.update_credentials("correct-horse", bio, "new-horse", new_bio, rng)

    with pytest.raises(LoginFailed):
        user.login("correct-horse", bio)
    new_ctx = user.login("new-horse", new_bio)
    assert new_ctx.n_i == old_ctx.n_i
    assert new_ctx.tid_i == old_ctx.tid_i
    assert user.card.c_i == old_card_c


def test_update_requires_old_credentials():
    user, _, bio, _, _ = _registered_user()
    rng = random.Random(98)
    with pytest.raises(LoginFailed):
        user.update_credentials("wrong", bio, "new-horse",
                                BitString.random(160, rng), rng)


def test_aka_succeeds_after_update():
    world = build_world(SimConfig(seed=7))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    user = world.users["alice"]
    secrets = world.user_secrets["alice"]
    new_bio = BitString.random(user.fe_params.bio_width, world.rng)
    user.update_credentials(secrets["password"], secrets["bio"],
                            "pw-alice-2", new_bio, world.rng)
    secrets.update(password="pw-alice-2", bio=new_bio)
    result = run_aka(world, "alice", "uav-1")
    assert result.ok and result.keys_agree


def test_replacement_mints_fresh_values():
    user, gwn, bio, request, _ = _registered_user()
    rng = random.Random(55)
    new_request = user.register_begin("fresh-pw", rng)
    assert new_request.tid_i != request.tid_i
    assert user._reg_nonce is not None
    from fanet_aka.wire import encode
    assert encode(new_request).width == 320

    response = gwn.register_user(new_request)
    new_bio = BitString.random(user.fe_params.bio_width, rng)
    user.register_complete(response, new_bio, rng)
    assert user.login("fresh-pw", new_bio).tid_i == new_request.tid_i
    with pytest.raises(LoginFailed):
        user.login("correct-horse", bio)
