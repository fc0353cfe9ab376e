"""README's "Known breaks", each run as a check that the break is still there.

The attacks use only what an eavesdropper has: the public payloads, the
UAV's name (each report prints it as MSG2's ``dest``) and the hash. The
one exception, the key-confirmation gap, flips one bit of MSG3 on the
channel. No scenario verdict reports these yet, so a test here fails the
day a fix lands, and the README's list must follow.
"""

import random

import pytest

from fanet_aka.bits import text_value
from fanet_aka.crypto import sha1_value
from fanet_aka.scenarios import SESSION_BITS, _swapped
from fanet_aka.simnet import SimConfig, build_world, enroll_uav, enroll_user, run_aka
from fanet_aka.wire import Msg1, Msg2, Msg3, decode

SEEDS = [0, 1000]


def _deployment(seed, users=("alice",), uavs=("uav-1",)):
    world = build_world(SimConfig(seed=seed), rng=random.Random(f"{seed}:known-breaks"))
    for user in users:
        enroll_user(world, user, f"{user}-passphrase")
    for uav in uavs:
        enroll_uav(world, uav)
    return world


def _passive(transcript, uav="uav-1") -> dict:
    """Everything one session's public payloads give away, given the UAV's name."""
    msg1, msg2, msg3 = (decode(cls, tr.payload) for cls, tr in zip((Msg1, Msg2, Msg3),
                                                                     transcript))
    id_j = text_value(uav)
    # f_i masks both the UAV's name and the pseudonym in MSG1
    f_i = msg1.rid_j ^ id_j
    tid_i = msg1.g_i ^ f_i
    n_j = msg2.h_i ^ tid_i
    r_j = msg2.f_i_dprime ^ f_i
    n_k = msg3.v5 ^ sha1_value((tid_i, msg1.rid_j), ts=msg3.ts3)
    v3 = msg3.v4 ^ sha1_value((tid_i, msg1.rid_j, n_k))
    sk = sha1_value((v3, tid_i, msg1.rid_j, n_k), ts=msg3.ts3)
    return {"n_j": n_j, "r_j": r_j, "v3": v3, "sk": sk}


@pytest.mark.parametrize("seed", SEEDS)
def test_an_eavesdropper_recovers_the_session_key(seed):
    world = _deployment(seed)
    result = run_aka(world, "alice", "uav-1")
    assert result.ok and result.keys_agree
    found = _passive(result.transcript)
    record = world.gateway.registry["uav-1"]
    assert (found["n_j"], found["r_j"]) == (record.n_j, record.r_j)
    assert found["sk"] == result.user_sk


@pytest.mark.parametrize("seed", SEEDS)
def test_an_eavesdropper_impersonates_the_uav_in_a_later_session(seed):
    world = _deployment(seed)
    learned = _passive(run_aka(world, "alice", "uav-1").transcript)
    world.clock.advance(world.clock.delta_t + 1)
    id_j, n_k = text_value("uav-1"), 1
    keys = []

    def forge(sent: Msg3) -> Msg3:
        # the UAV's MSG3 is dropped; the attacker answers the MSG2 on the wire
        msg2 = decode(Msg2, world.channel.log[-2].payload)
        # h_i masks TID_i with N_j, and f_i'' masks the user's mask f_i with r_j
        tid_i = msg2.h_i ^ learned["n_j"]
        rid_j = id_j ^ msg2.f_i_dprime ^ learned["r_j"]
        ts3 = sent.ts3
        keys.append(sha1_value((learned["v3"], tid_i, rid_j, n_k), ts=ts3))
        return Msg3(sha1_value((tid_i, rid_j), ts=ts3) ^ n_k,
                    learned["v3"] ^ sha1_value((tid_i, rid_j, n_k)), ts3,
                    sha1_value((id_j, tid_i), ts=ts3) ^ n_k)

    result = _swapped(world, "MSG3", forge)
    assert (result.ok, result.stage) == (True, "complete")
    assert result.user_sk == keys[0]
    assert result.user_sk != result.uav_sk


@pytest.mark.parametrize("seed", SEEDS)
def test_a_replaced_card_still_completes_a_session(seed):
    world = _deployment(seed)
    old_card, old_secrets = world.users["alice"], world.user_secrets["alice"]
    enroll_user(world, "alice", "replacement-pw")
    world.users["alice"], world.user_secrets["alice"] = old_card, old_secrets
    result = run_aka(world, "alice", "uav-1")
    assert result.ok and result.keys_agree


@pytest.mark.parametrize("seed", SEEDS)
def test_msg2_tags_repeat_across_sessions(seed):
    # v1 = h(ID_j, TC_j, r_j) xor N_j names the UAV whoever runs the session;
    # h_i = TID_i xor N_j names the pair
    users, uavs = ("alice", "bob"), ("uav-1", "uav-2")
    world = _deployment(seed, users, uavs)
    v1, h_i = {}, {}
    for _ in range(2):
        for user in users:
            for uav in uavs:
                world.clock.advance(world.clock.delta_t + 1)
                result = run_aka(world, user, uav)
                assert result.ok and result.keys_agree
                msg2 = decode(Msg2, result.transcript[1].payload)
                v1.setdefault(uav, set()).add(msg2.v1)
                h_i.setdefault((user, uav), set()).add(msg2.h_i)
    assert all(len(tags) == 1 for tags in v1.values())
    assert all(len(tags) == 1 for tags in h_i.values())
    assert len(set().union(*v1.values())) == len(uavs)
    assert len(set().union(*h_i.values())) == len(users) * len(uavs)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_flipped_v4_bit_is_accepted_under_a_key_the_uav_lacks(seed):
    # the user's check v2 = h(ID_j, TID_i, TS3) xor N_k does not cover v4,
    # MSG3's bits 160-319, so each of their flips ends the run with the user
    # holding a key no one else holds; no MSG3 flip keeps the keys agreeing
    world = _deployment(seed)
    mismatched, agreeing = [], []
    for index in range(SESSION_BITS["MSG3"]):
        world.clock.advance(world.clock.delta_t + 1)
        result = run_aka(world, "alice", "uav-1", intercept=lambda kind, payload, i=index:
                         payload.flip(i) if kind == "MSG3" else payload)
        if result.ok:
            (agreeing if result.keys_agree else mismatched).append(index)
    assert mismatched == list(range(160, 320))
    assert not agreeing
