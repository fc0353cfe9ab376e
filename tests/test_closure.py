import hashlib
import math
import random
from contextlib import nullcontext
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from fanet_aka import closure, scenarios
from fanet_aka.bits import hex_of
from fanet_aka.closure import Closure, compute_closure
from fanet_aka.crypto import sha1_value
from fanet_aka.metrics import recording
from fanet_aka.scenarios import _observed
from fanet_aka.simnet import (SimConfig, build_world, enroll_uav, enroll_user, run_aka,
                              update_credentials)
from fanet_aka.wire import Msg1, Msg2, Msg3, decode


def _rand(bits=160, seed=0):
    return random.Random(seed).getrandbits(bits)


def _h(*fields, ts=None):
    return sha1_value(fields, ts=ts)


def test_empty_knowledge_empty_closure():
    clo = compute_closure([], [], [0])
    assert len(clo.terms) == 0
    assert 0 not in clo


def test_given_terms_are_members_with_traces():
    x = _rand(seed=1)
    clo = compute_closure([x], [], [x])
    assert x in clo
    assert clo.derivation(x) == [f"given {hex_of(160, x)}"]


def test_xor_rule_recovers_masked_term():
    x, y = _rand(seed=2), _rand(seed=3)
    clo = compute_closure([x, x ^ y], [], [y])
    assert y in clo
    steps = clo.derivation(y)
    assert steps and "xor" in steps[0]


def test_xor_trace_is_verifiable():
    # re-execute the reported derivation and land on the target
    x, y = _rand(seed=4), _rand(seed=5)
    clo = compute_closure([x, x ^ y], [], [y])
    acc = 0
    for _, value in clo._xor_subset(y):
        acc ^= value
    assert acc == y


def test_multi_term_xor_combinations_are_found():
    a, b, c = _rand(seed=6), _rand(seed=7), _rand(seed=8)
    clo = compute_closure([a, b, c, a ^ b ^ c ^ _rand(seed=9)], [], [_rand(seed=9)])
    assert _rand(seed=9) in clo


def test_hash_rule_and_chaining():
    # one-part hashes are searched; a digest is never hashed again
    x, ts = _rand(seed=10), 5
    clo = compute_closure([x], [ts], [_h(x), _h(ts=ts), _h(_h(x))])
    assert _h(x) in clo and _h(ts=ts) in clo
    assert _h(_h(x)) not in clo


def test_terms_are_the_knowledge_atoms():
    # the givens, once each, and the two zero constants; no digest the
    # hash rule finds joins them
    fields = [_rand(seed=11), _rand(seed=12), _rand(seed=11)]
    stamps = [4, 4, 6]
    clo = compute_closure(fields, stamps, [_h(*fields[:2], ts=6)])
    assert _h(*fields[:2], ts=6) in clo
    assert len(clo.terms) == len(set(fields)) + len(set(stamps)) + 2


def test_hash_of_concatenation_is_explored():
    a, b = _rand(seed=12), _rand(seed=13)
    ts = 77
    targets = [_h(a, b), _h(b, a), _h(a, b, ts=ts), _h(a, ts=ts)]
    clo = compute_closure([a, b], [ts], targets)
    for target in targets:
        assert target in clo


def test_concat_hash_trace_reconstruction():
    a, b = _rand(seed=14), _rand(seed=15)
    target = _h(a, b)
    clo = compute_closure([a, b], [], [target])
    steps = clo.derivation(target)
    assert steps and "hash-concat" in steps[0]
    assert hex_of(160, a) in steps[0] and hex_of(160, b) in steps[0]


def test_plans_cover_every_hash_shape_the_protocol_uses():
    # registration of both parties, login, a full session, a credential
    # update and a card replacement: every hash input the parties form
    # has a shape the hash-of-concatenation rule searches
    with recording() as hashes:
        world = build_world(SimConfig(seed=0))
        enroll_user(world, "alice", "alice-passphrase")
        enroll_uav(world, "uav-1")
        assert run_aka(world, "alice", "uav-1").ok
        update_credentials(world, "alice", "updated-passphrase")
        assert run_aka(world, "alice", "uav-1").ok
        enroll_user(world, "alice", "replacement-pw")
        assert run_aka(world, "alice", "uav-1").ok
    shapes = {("pure" if ts is None else "ts", len(fields)) for fields, ts in hashes.values()}
    assert shapes <= set(closure._PLANS)


def test_observed_splits_a_transcript_into_fields_and_stamps():
    # the adversary's projection: decoding each logged message with its
    # kind's record yields MSG1's and MSG2's four fields and MSG3's three
    # as fields, and ts1, ts2 and ts3 as stamps
    world = build_world(SimConfig(seed=0))
    enroll_user(world, "alice", "alice-passphrase")
    enroll_uav(world, "uav-1")
    result = run_aka(world, "alice", "uav-1")
    msg1, msg2, msg3 = (decode(cls, tr.payload)
                        for cls, tr in zip((Msg1, Msg2, Msg3), result.transcript))
    fields, stamps = _observed(result.transcript)
    assert fields == [msg1.mac1, msg1.rid_j, msg1.g_i, msg1.f_i_prime,
                      msg2.mac2, msg2.v1, msg2.h_i, msg2.f_i_dprime,
                      msg3.v5, msg3.v4, msg3.v2]
    assert stamps == [msg1.ts1, msg2.ts2, msg3.ts3]
    clo = compute_closure(fields, stamps, fields)
    assert all(f in clo for f in fields)
    assert all((32, ts) in clo.terms for ts in stamps)


def test_nonce_masked_by_multipart_hash_stays_hidden():
    # v = h(a || b) xor n with a, b unknown: n's 160-bit field must not be
    # derivable
    a, b = _rand(seed=21), _rand(seed=22)
    n = _rand(bits=128, seed=23)
    v = _h(a, b) ^ n
    clo = compute_closure([v], [], [n])
    assert n not in clo


def test_digest_mixtures_do_not_saturate_the_span():
    # engine-made digests are not XOR generators: mixing many of them
    # must not make unrelated values "derivable"
    givens = [_rand(seed=s) for s in range(30, 40)]
    target = _rand(seed=999)
    mix = _h(givens[0]) ^ _h(givens[1])
    clo = compute_closure(givens, [], [target, mix])
    assert target not in clo
    assert mix not in clo


def test_budget_zero_skips_tuple_enumeration(monkeypatch):
    monkeypatch.setattr(closure, "BUDGET", 0)
    a, b = _rand(seed=41), _rand(seed=42)
    clo = compute_closure([a, b], [], [_h(a, b), _h(a)])
    assert clo.bulk_count == 0
    assert _h(a, b) not in clo and _h(a) not in clo
    # the zero constants give every shape a pool, so all eight are skipped
    assert clo.skipped_shapes == list(closure._PLANS)


def test_zero_constants_are_assumed_public():
    x = _rand(seed=43)
    clo = compute_closure([x], [], [0])
    assert 0 in clo
    assert {(160, 0), (32, 0)} <= set(clo.terms)
    assert (128, 0) not in clo.terms  # no 128-bit term exists


def test_helper_data_reveals_nothing_about_the_key():
    # fuzzy-extractor helper alone never yields the extracted digest
    from fanet_aka.crypto import BIO_BITS, fe_gen
    rng = random.Random(77)
    bio = rng.getrandbits(BIO_BITS)
    sigma, tau = fe_gen(bio, rng)
    clo = compute_closure([tau], [], [sigma])
    assert sigma not in clo


def test_closure_is_deterministic():
    knowledge = [_rand(seed=s) for s in range(50, 56)]
    ts = 9
    targets = [_h(knowledge[0], knowledge[1]), _h(*knowledge[:3], ts=ts),
               _h(knowledge[2], ts=ts)]
    a = compute_closure(knowledge, [ts], targets)
    b = compute_closure(knowledge, [ts], targets)
    assert a.hits == b.hits and len(a.hits) == len(targets)
    assert a.bulk_count == b.bulk_count > 0
    assert set(a.terms) == set(b.terms)


def test_undeclared_query_raises():
    a, b = _rand(seed=60), _rand(seed=61)
    clo = compute_closure([a, b], [], [_h(a, b)])
    for query in (lambda t: t in clo, clo.derivation):
        with pytest.raises(ValueError):
            query(_h(b, a))
        with pytest.raises(ValueError):
            query(a)  # a given term is a member, but it was not declared


def test_ts4_shaped_target_trace_rehashes_to_target():
    # the session key's input shape: four field elements and one timestamp
    a, b, c, d = (_rand(seed=s) for s in range(62, 66))
    ts = 3
    target = _h(a, b, c, d, ts=ts)
    clo = compute_closure([a, b, c, d], [ts], [target])
    assert ("ts", 4) in clo.enumerated_shapes and not clo.skipped_shapes
    assert target in clo
    (line,) = clo.derivation(target)
    args = line[line.index("(") + 1:line.index(")")].split(", ")
    assert [len(h) for h in args] == [40] * 4 + [8]
    *parts, stamp = (int(h, 16) for h in args)
    assert _h(*parts, ts=stamp) == target
    assert line.endswith(f"= {hex_of(160, target)}")


def test_budget_starved_shape_is_listed_as_skipped(monkeypatch):
    monkeypatch.setattr(closure, "BUDGET", 10_000)
    atoms = [_rand(seed=s) for s in range(66, 76)]
    # with the zero constants: 11 field atoms and 3 timestamps, so every
    # shape but ("ts", 4) (11**4 * 3 = 43,923 tuples) fits in 10,000
    clo = compute_closure(atoms, [1, 2], [_h(*atoms[:4], ts=2)])
    assert clo.skipped_shapes == [("ts", 4)]
    assert ("ts", 4) not in clo.enumerated_shapes
    assert clo.bulk_count == 3 + 11 + 11**2 + 11 * 3 + 11**3 + 11**2 * 3 + 11**3 * 3


def _reference_search(fields, stamps, targets, budget):
    """The hash-of-concatenation rule as a plain ``product(*pools)`` loop:
    one join and one hash per tuple. Returns the hits, the tuple count and
    the enumerated and skipped shapes."""
    atoms160 = [v.to_bytes(20, "big") for v in dict.fromkeys([*fields, 0])]
    atoms32 = [v.to_bytes(4, "big") for v in dict.fromkeys([*stamps, 0])]
    wanted = {t.to_bytes(20, "big"): t for t in targets}
    hits, bulk, enumerated, skipped = {}, 0, [], []
    for shape, m in closure._PLANS:
        pools = [atoms160] * m + ([atoms32] if shape == "ts" else [])
        cost = math.prod(map(len, pools))
        if bulk + cost > budget:
            skipped.append((shape, m))
            continue
        bulk += cost
        enumerated.append((shape, m))
        for combo in product(*pools):
            digest = hashlib.sha1(b"".join(combo)).digest()
            if digest in wanted:
                hits.setdefault(wanted[digest], combo)
    return hits, bulk, enumerated, skipped


def _reference_xor_subset(terms, target):
    """The GF(2) span query with contributor sets, basis rebuilt per call."""
    pivots = {}
    for key in terms:
        v, contributors = key[1], {key}
        while v:
            msb = v.bit_length()
            if msb not in pivots:
                pivots[msb] = (v, contributors)
                break
            pv, pm = pivots[msb]
            v ^= pv
            contributors ^= pm
    vec, mask = target, set()
    while vec:
        msb = vec.bit_length()
        if msb not in pivots:
            return None
        pv, pm = pivots[msb]
        vec ^= pv
        mask ^= pm
    return sorted(mask) if mask else None


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, (1 << 160) - 1), min_size=1, max_size=4),
       st.lists(st.integers(0, (1 << 32) - 1), max_size=2),
       st.sampled_from([0, 40, 400, closure.BUDGET]),
       st.data())
def test_search_matches_a_plain_product_loop(fields, stamps, budget, data):
    # one target planted in each of the eight shapes, plus an XOR member and
    # a value that is almost surely no member
    atoms = [*dict.fromkeys([*fields, 0])]
    stamp_atoms = [*dict.fromkeys([*stamps, 0])]
    targets = [data.draw(st.integers(0, (1 << 160) - 1)),
               fields[0] ^ data.draw(st.sampled_from(atoms))]
    for shape, m in closure._PLANS:
        parts = [data.draw(st.sampled_from(atoms)) for _ in range(m)]
        stamp = data.draw(st.sampled_from(stamp_atoms)) if shape == "ts" else None
        targets.append(_h(*parts, ts=stamp))
    with patch.object(closure, "BUDGET", budget):
        clo = compute_closure(fields, stamps, targets)
    hits, bulk, enumerated, skipped = _reference_search(fields, stamps, targets, budget)
    assert clo.hits == hits
    assert (clo.bulk_count, clo.enumerated_shapes, clo.skipped_shapes) == (
        bulk, enumerated, skipped)
    plain = Closure(targets=clo.targets, terms=clo.terms, hits=hits)
    for target in targets:
        assert clo._xor_subset(target) == _reference_xor_subset(clo.terms, target)
        assert clo.derivation(target) == plain.derivation(target)
        assert (target in clo) == (target in plain)


def test_span_basis_is_built_once_per_closure():
    x, y = _rand(seed=80), _rand(seed=81)
    clo = compute_closure([x, x ^ y], [], [y, x])
    span = clo._span
    assert y in clo and clo.derivation(y) and x in clo
    assert clo._span is span


def test_each_scenario_hit_is_its_recorded_input_in_the_atoms(monkeypatch):
    # the lookup a provenance engine would make: over the seven closure
    # scenarios at seed 0, a declared target is hit exactly when the hash
    # input the run recorded for it lies in the atoms in a shape the search
    # walked, and the hit's parts are that input
    calls = []

    def compute(fields, stamps, targets):
        clo = compute_closure(fields, stamps, targets)
        calls.append(clo)
        return clo

    with recording() as table:
        monkeypatch.setattr(scenarios, "recording", lambda: nullcontext(table))
        monkeypatch.setattr(scenarios, "compute_closure", compute)
        for name in scenarios.CLOSURE_SCENARIOS:
            scenarios.run_scenario(name, SimConfig(seed=0))

    checked = hits = 0
    for clo in calls:
        atoms = set(clo.terms)
        for target in clo.targets:
            checked += 1
            fields, ts = table.get(target, ((), None))
            parts = [(160, v) for v in fields] + ([] if ts is None else [(32, ts)])
            shape = ("pure" if ts is None else "ts", len(fields))
            expected = bool(parts) and atoms.issuperset(parts) and shape in clo.enumerated_shapes
            assert (target in clo.hits) == expected
            if expected:
                hits += 1
                found = tuple(int.from_bytes(p, "big") for p in clo.hits[target])
                assert found == (*fields, *([] if ts is None else [ts]))
    assert checked and hits  # esl's positive control is a hit
