import hashlib

import pytest
from hypothesis import example, given, strategies as st

from fanet_aka import bits, metrics
from fanet_aka.bits import BitString, text_value
from fanet_aka.crypto import sha1_digest, sha1_value
from fanet_aka.metrics import (BASELINES, OpCounter, TIMING_PRESET_MS, diff_counts,
                               estimate_ms, overhead_report, recording, render_table)
from fanet_aka.simnet import SimConfig, build_world, enroll_user, enroll_uav, run_aka
from fanet_aka.wire import UserRegRequest, decode, protocol_bits


def _session(seed=0):
    world = build_world(SimConfig(seed=seed))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    return run_aka(world, "alice", "uav-1")


def test_counter_facade_counts_real_calls():
    ops = OpCounter()
    digest = ops.h(text_value("x"))
    ops.xor(digest, digest)
    assert ops.counts() == (1, 0, 0, 1)  # hash, puf, fe, xor
    # the tallies only go up: a span is the difference of two readings
    before = ops.counts()
    ops.h(digest)
    assert diff_counts(before, ops.counts()) == {"hash": 1, "puf": 0, "fe": 0, "xor": 0}


X, Y = text_value("x"), text_value("y")


def test_hash_outside_a_recording_scope_records_nothing():
    ops = OpCounter()
    with recording() as table:
        pass
    ops.h(X)
    assert table == {}
    assert metrics._recorded is None


def test_nested_recording_scope_restores_the_outer_table():
    ops = OpCounter()
    with recording() as outer:
        dx = ops.h(X)
        with recording() as inner:
            dy = ops.h(Y)
        dxy = ops.h(X, Y)
    # h returns the digest's int, which keys the (fields, ts) it was given
    assert inner == {dy: ((Y,), None)}
    assert outer == {dx: ((X,), None), dxy: ((X, Y), None)}


def test_exception_inside_a_recording_scope_restores_the_outer_table():
    ops = OpCounter()
    with recording() as outer:
        with pytest.raises(RuntimeError):
            with recording():
                ops.h(Y)
                raise RuntimeError("inside the inner scope")
        dx = ops.h(X)
    assert outer == {dx: ((X,), None)}
    assert metrics._recorded is None


@given(st.lists(st.integers(0, (1 << 160) - 1), max_size=6),
       st.none() | st.integers(0, (1 << 32) - 1))
@example([], 0)
@example([(1 << 160) - 1], (1 << 32) - 1)
def test_int_parts_hash_and_record_like_bit_strings(fields, ts):
    # h takes the ints of 160-bit fields and then, if given, a timestamp at
    # its own 32 bits (a timestamp of 0 is hashed too); the digest is that of
    # the all-BitString call, and the table keeps (fields, ts) as passed
    ops = OpCounter()
    with recording() as table:
        digest = ops.h(*fields, ts=ts)
    parts = [BitString(160, v) for v in fields]
    if ts is not None:
        parts.append(BitString(32, ts))
    assert BitString(160, digest) == sha1_digest(*parts)
    assert table == {digest: (tuple(fields), ts)}
    assert sha1_value(fields, ts=ts) == digest
    # and the protocol's byte layout itself: 20 bytes a field, 4 for ts
    data = b"".join(f.to_bytes(20, "big") for f in fields)
    if ts is not None:
        data += ts.to_bytes(4, "big")
    assert digest == int.from_bytes(hashlib.sha1(data).digest(), "big")


def test_every_recorded_session_hash_rehashes_to_its_key():
    world = build_world(SimConfig(seed=0))
    enroll_user(world, "alice", "pw-alice")
    with recording() as hashes:
        enroll_uav(world, "uav-1")
        result = run_aka(world, "alice", "uav-1")
    assert result.ok and result.user_sk in hashes
    for digest, (fields, ts) in hashes.items():
        # ints of 160-bit fields, and at most one timestamp, the int of 32 bits
        assert all(type(f) is int and 0 <= f < 1 << 160 for f in fields)
        assert ts is None or type(ts) is int and 0 <= ts < 1 << 32
        assert sha1_value(fields, ts=ts) == digest


def test_session_key_recorded_inputs_rehash_to_the_key():
    world = build_world(SimConfig(seed=0))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    with recording() as hashes:
        result = run_aka(world, "alice", "uav-1")
    fields, ts = hashes[result.user_sk]
    assert [type(p) for p in fields] == [int] * 4
    assert type(ts) is int and 0 <= ts < 1 << 32
    assert sha1_value(fields, ts=ts) == result.user_sk == result.uav_sk
    # (v3, TID_i, RID_j, N_k) and ts3; TID_i hashes (ID_i, N_i)
    tid_i = fields[1]
    request = world.channel.log[0]
    assert request.kind == UserRegRequest.KIND
    assert tid_i == decode(UserRegRequest, request.payload).tid_i
    (id_i, n_i), no_ts = hashes[tid_i]
    assert no_ts is None
    assert id_i == world.users["alice"].id_i
    assert n_i >> 128 == 0  # a nonce: a 160-bit field with a zero 32-bit prefix
    assert sha1_value((id_i, n_i)) == tid_i


def test_op_counts_match_reference_tallies():
    counts = _session().op_counts
    assert counts["user"]["fe"] == 1
    assert counts["user"]["hash"] == 11
    assert counts["gwn"]["hash"] == 6
    assert counts["gwn"]["puf"] == 0
    assert counts["uav"]["puf"] == 1
    assert counts["uav"]["hash"] == 8


def test_honest_session_builds_at_most_3_bit_strings(monkeypatch):
    # every BitString is built by bits._new (unchecked) or by __init__; the
    # role steps and the message records carry ints, and so do the
    # timestamps, the name encodings, the session keys, the biometric and
    # the fuzzy extractor's key, so a session builds one only for its 3
    # payloads (8 while the timestamps were wrapped and the password and the
    # UAV name were encoded through one, 10 while the session keys were, 17
    # while the UAV's nonce, the PUF response and the extractor's digest
    # were, 42 while message fields were BitStrings, 73 before the role
    # steps computed on ints, 104 before the hash, XOR and message layers
    # were flattened)
    world = build_world(SimConfig(seed=0))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    built = 0
    new, init = bits._new, BitString.__init__

    def counted_new(cls):
        nonlocal built
        built += 1
        return new(cls)

    def counted_init(self, width, value):
        nonlocal built
        built += 1
        init(self, width, value)

    monkeypatch.setattr(bits, "_new", counted_new)
    monkeypatch.setattr(BitString, "__init__", counted_init)
    result = run_aka(world, "alice", "uav-1")
    monkeypatch.undo()
    assert result.ok and result.keys_agree
    assert built <= 3
    assert result.op_counts == {"user": {"hash": 11, "puf": 0, "fe": 1, "xor": 7},
                                "gwn": {"hash": 6, "puf": 0, "fe": 0, "xor": 6},
                                "uav": {"hash": 8, "puf": 1, "fe": 0, "xor": 7}}


def test_user_phase_decomposition_is_pinned():
    result = _session()
    hashes = {phase: c["hash"] for phase, c in result.phase_counts.items()}
    assert hashes == {"login": 4, "initiate": 3, "finalize": 4}
    assert result.phase_counts["login"]["fe"] == 1


def test_estimate_arithmetic_is_a_plain_dot_product():
    assert estimate_ms({"hash": 11, "fe": 1}) == pytest.approx(0.643)
    assert estimate_ms({"hash": 6}) == pytest.approx(0.006)
    assert estimate_ms({"hash": 8, "puf": 1}) == pytest.approx(0.023)
    # xor is counted but never billed
    assert estimate_ms({"hash": 6, "xor": 100}) == pytest.approx(0.006)


def test_report_reproduces_reference_row():
    result = _session()
    report = overhead_report(result.op_counts, protocol_bits(result.transcript))
    est = report["proposed"]["estimated_ms"]
    assert est["user"] == pytest.approx(0.643, abs=1e-3)
    assert est["gwn"] == pytest.approx(0.006, abs=1e-3)
    assert est["uav"] == pytest.approx(0.023, abs=1e-3)
    assert est["total"] == pytest.approx(0.672, abs=1e-3)
    assert report["proposed"]["bits"] == 1856
    assert report["proposed"]["messages"] == 3


def test_baseline_constants_present():
    bits = [b["bits"] for b in BASELINES]
    assert bits == [1696, 2336, 3200, 2240]
    report = overhead_report(None, None)
    assert [b["bits"] for b in report["baselines"]] == bits
    ests = {b["name"]: b["estimated_ms"]["total"] for b in report["baselines"]}
    assert ests["baseline-fe-hash"] == pytest.approx(0.663, abs=1e-3)
    assert ests["baseline-ecc"] == pytest.approx(8.359, abs=1e-3)
    assert ests["baseline-pairing-hmac"] == pytest.approx(91.611, abs=1e-3)
    assert ests["baseline-ecc-puf"] == pytest.approx(1.292, abs=1e-3)


def test_report_renders_without_session():
    report = overhead_report(None, None)
    table = render_table(report)
    assert "proposed" in table
    assert "baseline-ecc" in table
    lines = table.splitlines()
    assert len(lines) == 2 + 1 + len(BASELINES)
    assert "-" in table


def test_report_without_timings_skips_estimates():
    # with no session to count, the proposed row has nothing to estimate:
    # every millisecond, message and bit cell renders as "-"
    report = overhead_report(None, None)
    assert "estimated_ms" not in report["proposed"]
    assert all("estimated_ms" in b for b in report["baselines"])
    proposed_line = render_table(report).splitlines()[2]
    assert proposed_line.split() == ["proposed"] + ["-"] * 6


def test_deleting_a_primitive_call_would_fail_the_pin():
    # simulate an implementation that lost one gateway hash: the pinned
    # comparison must reject it
    counts = _session().op_counts
    counts["gwn"]["hash"] -= 1
    assert counts["gwn"]["hash"] != 6


def test_timing_constants_cover_all_baseline_terms():
    for base in BASELINES:
        for ops in base["ops"].values():
            for op in ops:
                assert op in TIMING_PRESET_MS
