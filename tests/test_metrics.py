import pytest
from hypothesis import given, strategies as st

from fanet_aka import bits, metrics
from fanet_aka.bits import BitString
from fanet_aka.crypto import sha1_digest, sha1_value
from fanet_aka.errors import IncompleteTranscript
from fanet_aka.metrics import (BASELINES, OpCounter, TIMING_PRESET_MS,
                               count_session, estimate_ms, overhead_report,
                               recording, render_table)
from fanet_aka.simnet import SimConfig, build_world, enroll_user, enroll_uav, run_aka
from fanet_aka.wire import UserRegRequest, decode, protocol_bits


def _session(seed=0):
    world = build_world(SimConfig(seed=seed))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    return run_aka(world, "alice", "uav-1")


def test_counter_facade_counts_real_calls():
    ops = OpCounter()
    digest = ops.h(BitString.from_text("x"))
    ops.xor(digest, digest)
    assert ops.counts() == (1, 0, 0, 1)  # hash, puf, fe, xor
    ops.reset()
    assert ops.counts() == (0, 0, 0, 0)


X, Y = BitString.from_text("x"), BitString.from_text("y")


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
    # h returns the digest's int, which keys the parts it was given
    assert inner == {dy: (Y,)}
    assert outer == {dx: (X,), dxy: (X, Y)}


def test_exception_inside_a_recording_scope_restores_the_outer_table():
    ops = OpCounter()
    with recording() as outer:
        with pytest.raises(RuntimeError):
            with recording():
                ops.h(Y)
                raise RuntimeError("inside the inner scope")
        dx = ops.h(X)
    assert outer == {dx: (X,)}
    assert metrics._recorded is None


#: A hash part: a 160-bit field or a bit string of any width, byte-aligned or not.
_parts = st.lists(st.one_of(
    st.integers(0, (1 << 160) - 1).map(lambda v: BitString(160, v)),
    st.integers(0, 300).flatmap(
        lambda w: st.integers(0, (1 << w) - 1).map(lambda v: BitString(w, v)))),
    max_size=6)


@given(_parts, st.data())
def test_int_parts_hash_and_record_like_bit_strings(parts, data):
    # any 160-bit part may reach h as its int; the digest is that of the
    # all-BitString call, and the table keeps the parts exactly as passed
    mixed = [p.value if p.width == 160 and data.draw(st.booleans()) else p
             for p in parts]
    ops = OpCounter()
    with recording() as table:
        digest = ops.h(*mixed)
    assert BitString(160, digest) == sha1_digest(*parts)
    assert table == {digest: tuple(mixed)}
    assert sha1_value(table[digest]) == digest


def test_every_recorded_session_hash_rehashes_to_its_key():
    world = build_world(SimConfig(seed=0))
    enroll_user(world, "alice", "pw-alice")
    with recording() as hashes:
        enroll_uav(world, "uav-1")
        result = run_aka(world, "alice", "uav-1")
    assert result.ok and result.user_sk in hashes
    for digest, parts in hashes.items():
        # ints of 160-bit fields, and timestamps at their own width
        assert all(0 <= p < 1 << 160 if type(p) is int else p.width == 32 for p in parts)
        assert sha1_value(parts) == digest


def test_session_key_recorded_inputs_rehash_to_the_key():
    world = build_world(SimConfig(seed=0))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    with recording() as hashes:
        result = run_aka(world, "alice", "uav-1")
    parts = hashes[result.user_sk]
    assert [type(p) for p in parts[:4]] == [int] * 4 and parts[4].width == 32
    assert sha1_value(parts) == result.user_sk == result.uav_sk
    # (v3, TID_i, RID_j, N_k, ts3); TID_i hashes (ID_i, N_i)
    tid_i = parts[1]
    request = world.channel.log[0]
    assert request.kind == UserRegRequest.KIND
    assert tid_i == decode(UserRegRequest, request.payload).tid_i
    id_i, n_i = hashes[tid_i]
    assert id_i == world.users["alice"].id_i
    assert n_i >> 128 == 0  # a nonce: a 160-bit field with a zero 32-bit prefix
    assert sha1_value((id_i, n_i)) == tid_i


def test_count_session_matches_reference_tallies():
    counts = count_session(_session())
    assert counts["user"]["fe"] == 1
    assert counts["user"]["hash"] == 11
    assert counts["gwn"]["hash"] == 6
    assert counts["gwn"]["puf"] == 0
    assert counts["uav"]["puf"] == 1
    assert counts["uav"]["hash"] == 8


def test_honest_session_builds_at_most_8_bit_strings(monkeypatch):
    # every BitString is built by bits._new (unchecked) or by __init__; the
    # role steps and the message records carry ints, and so do the session
    # keys, the biometric and the fuzzy extractor's key, so a session builds
    # one only for its 3 payloads, its 3 timestamps and the encodings of the
    # password and the UAV name (10 while the session keys were wrapped, 17
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
    assert built <= 8
    assert result.op_counts == {"user": {"hash": 11, "puf": 0, "fe": 1, "xor": 7},
                                "gwn": {"hash": 6, "puf": 0, "fe": 0, "xor": 6},
                                "uav": {"hash": 8, "puf": 1, "fe": 0, "xor": 7}}


def test_user_phase_decomposition_is_pinned():
    result = _session()
    hashes = {phase: c["hash"] for phase, c in result.phase_counts.items()}
    assert hashes == {"login": 4, "initiate": 3, "finalize": 4}
    assert result.phase_counts["login"]["fe"] == 1


def test_count_session_rejects_incomplete_runs():
    world = build_world(SimConfig(seed=1))
    enroll_user(world, "alice", "pw-alice")
    enroll_uav(world, "uav-1")
    result = run_aka(world, "alice", "uav-1",
                     intercept=lambda kind, p: None if kind == "MSG1" else p)
    with pytest.raises(IncompleteTranscript):
        count_session(result)


def test_estimate_arithmetic_is_a_plain_dot_product():
    assert estimate_ms({"hash": 11, "fe": 1}) == pytest.approx(0.643)
    assert estimate_ms({"hash": 6}) == pytest.approx(0.006)
    assert estimate_ms({"hash": 8, "puf": 1}) == pytest.approx(0.023)
    # xor is counted but never billed
    assert estimate_ms({"hash": 6, "xor": 100}) == pytest.approx(0.006)


def test_report_reproduces_reference_row():
    result = _session()
    report = overhead_report(count_session(result),
                             protocol_bits(result.transcript))
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
    counts = count_session(_session())
    counts["gwn"]["hash"] -= 1
    assert counts["gwn"]["hash"] != 6


def test_timing_constants_cover_all_baseline_terms():
    for base in BASELINES:
        for ops in base["ops"].values():
            for op in ops:
                assert op in TIMING_PRESET_MS
