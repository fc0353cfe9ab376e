import random
from dataclasses import replace

import pytest

from fanet_aka.bits import BitString, contains, text_value
from fanet_aka.crypto import (BIO_BITS, FE_KEY_BITS, FE_REPETITION, FE_TOLERANCE, fe_rep,
                              sha1_digest)
from fanet_aka.errors import AuthFailed, LoginFailed, ProtocolError
from fanet_aka.gwn import SECRET_BITS, Gateway
from fanet_aka.metrics import OPS
from fanet_aka.simnet import (SimConfig, build_world, enroll_user, enroll_uav, run_aka,
                              update_credentials)
from fanet_aka.user import User


def _flipped(bio: int, *indices: int) -> int:
    """``bio`` with the bits at ``indices``, counted from the most significant, inverted."""
    return bio ^ sum(1 << (BIO_BITS - 1 - i) for i in indices)


def _registered_user(seed=0, password="correct-horse"):
    rng = random.Random(seed)
    user = User("alice")
    request = user.register_begin(password, rng)
    gwn = Gateway("gateway-0", random.Random(seed + 1000).getrandbits(SECRET_BITS))
    response = gwn.register_user(request)
    bio = rng.getrandbits(BIO_BITS)
    user.register_complete(response, bio, rng)
    return user, gwn, bio, request, response


def test_registration_golden_values_seed_zero():
    rng = random.Random(0)
    request = User("alice").register_begin("correct-horse", rng)
    assert BitString(160, request.tid_i).hex() == "e8e1407bbaeb8ba819fb718038aa792963f86bde"
    assert BitString(160, request.tpw_i).hex() == "66fd22f74c10486eb35ab5f8268ade9552a1f243"


def test_enrollment_costs_four_hashes_and_one_extraction():
    user, _, _, _, _ = _registered_user()
    assert dict(zip(OPS, user.ops.counts())) == {"hash": 4, "puf": 0, "fe": 1, "xor": 3}


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
    expected = sha1_digest(BitString(160, text_value("gateway-0")),
                           BitString(SECRET_BITS, gwn.export_secret()))
    assert user.card.c_i == expected.value


def test_card_contains_no_plaintext_secret():
    user, _, bio, request, _ = _registered_user()
    card = user.card
    secrets = [user.id_i, text_value("correct-horse"), fe_rep(bio, card.tau_i)]  # sigma last
    fields = [card.a_i, card.b_i, card.c_i, card.tau_i]
    for secret in secrets:
        assert all(field != secret for field in fields)
        assert all(not contains(160, field, 160, secret) for field in fields)


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


def test_login_refuses_a_password_too_wide_for_its_field():
    # 30 bytes cannot be the password: a wrong one, not a codec error
    user, _, bio, _, _ = _registered_user()
    with pytest.raises(LoginFailed):
        user.login("x" * 30, bio)


def test_login_tolerates_bounded_biometric_noise():
    user, _, bio, _, _ = _registered_user()
    noisy = _flipped(bio, *(block * FE_REPETITION + offset
                            for block in range(0, FE_KEY_BITS, 3)
                            for offset in range(FE_TOLERANCE)))
    assert user.login("correct-horse", noisy) is not None


def test_login_rejects_noise_beyond_tolerance():
    user, _, bio, _, _ = _registered_user()
    noisy = _flipped(bio, *range(FE_TOLERANCE + 1))  # t+1 flips inside one block
    with pytest.raises(LoginFailed):
        user.login("correct-horse", noisy)


def test_empty_identity_is_refused():
    with pytest.raises(ValueError):
        User("")


def test_register_complete_requires_a_registration_in_progress():
    user, _, bio, _, response = _registered_user()
    # the completed registration was consumed, as a fresh user has none
    for party in (user, User("bob")):
        with pytest.raises(ProtocolError):
            party.register_complete(response, bio, random.Random(0))


def test_login_requires_card():
    with pytest.raises(ProtocolError):
        User("alice").login("pw", 0)


def test_finalize_requires_pending_session():
    user, _, bio, _, _ = _registered_user()
    from fanet_aka.wire import Msg3, ts_bits
    from fanet_aka.simnet import SimClock
    msg3 = Msg3(BitString(160, 0), BitString(160, 0), ts_bits(0),
                BitString(160, 0))
    with pytest.raises(ProtocolError):
        user.aka_finalize(msg3, SimClock(2))


def test_pending_session_is_single_use():
    world = build_world(SimConfig(seed=4))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    result = run_aka(world, "alice", "uav-1")
    assert result.ok
    from fanet_aka.wire import decode_msg3
    msg3 = decode_msg3(result.transcript[2].payload)
    with pytest.raises(ProtocolError):
        world.users["alice"].aka_finalize(msg3, world.clock)


def test_second_initiation_replaces_the_pending_session():
    world = build_world(SimConfig(seed=4))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    user, uav = world.users["alice"], world.uavs["uav-1"]
    secrets = world.user_secrets["alice"]
    ctx = user.login(secrets["password"], secrets["bio"])
    first = user.aka_initiate(ctx, "uav-1", world.clock)
    world.clock.advance(1)
    user.aka_initiate(ctx, "uav-1", world.clock)

    msg2 = world.gateway.relay_auth(first, world.clock, world.rng)
    msg3, _ = uav.aka_respond(msg2, world.clock, world.rng)
    with pytest.raises(AuthFailed):
        user.aka_finalize(msg3, world.clock)
    with pytest.raises(ProtocolError, match="no session pending"):
        user.aka_finalize(msg3, world.clock)


def test_relay_recovers_pseudonym_from_request():
    # the gateway's unmasking algebra closes over MSG1's fields
    world = build_world(SimConfig(seed=5))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    user = world.users["alice"]
    secrets = world.user_secrets["alice"]
    ctx = user.login(secrets["password"], secrets["bio"])
    msg1 = user.aka_initiate(ctx, "uav-1", world.clock)

    s = BitString(SECRET_BITS, world.gateway.export_secret())
    m1 = sha1_digest(BitString(160, text_value(world.gateway.identity)), s)
    e_i = sha1_digest(m1, BitString(32, msg1.ts1))
    assert msg1.g_i ^ (msg1.f_i_prime ^ e_i.value) == ctx.tid_i


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
    new_bio = rng.getrandbits(BIO_BITS)
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
                                rng.getrandbits(BIO_BITS), rng)


def test_update_refuses_an_empty_password_and_keeps_the_card():
    user, _, bio, request, _ = _registered_user()
    card, before = user.card, replace(user.card)
    rng = random.Random(97)
    with pytest.raises(ValueError, match="password must be non-empty"):
        user.update_credentials("correct-horse", bio, "", rng.getrandbits(BIO_BITS), rng)
    assert user.card is card and card == before
    assert user.login("correct-horse", bio).tid_i == request.tid_i


def test_aka_succeeds_after_update():
    world = build_world(SimConfig(seed=7))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    update_credentials(world, "alice", "pw-alice-2")
    result = run_aka(world, "alice", "uav-1")
    assert result.ok and result.keys_agree


def test_replacement_mints_fresh_values():
    user, gwn, bio, request, _ = _registered_user()
    rng = random.Random(55)
    new_request = user.register_begin("fresh-pw", rng)
    assert new_request.tid_i != request.tid_i
    assert user._reg is not None
    from fanet_aka.wire import encode
    assert encode(new_request).width == 320

    response = gwn.register_user(new_request)
    new_bio = rng.getrandbits(BIO_BITS)
    user.register_complete(response, new_bio, rng)
    assert user.login("fresh-pw", new_bio).tid_i == new_request.tid_i
    with pytest.raises(LoginFailed):
        user.login("correct-horse", bio)
