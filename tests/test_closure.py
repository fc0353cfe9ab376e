import random

import pytest

from fanet_aka import closure
from fanet_aka.bits import BitString, concat
from fanet_aka.closure import compute_closure
from fanet_aka.crypto import sha1_digest


def _rand(width=160, seed=0):
    return BitString.random(width, random.Random(seed))


def test_empty_knowledge_empty_closure():
    clo = compute_closure([], [BitString.zeros(160)])
    assert len(clo.terms) == 0
    assert BitString.zeros(160) not in clo


def test_given_terms_are_members_with_traces():
    x = _rand(seed=1)
    clo = compute_closure([x], [x])
    assert x in clo
    assert clo.derivation(x) == [f"given {x.hex()}"]


def test_xor_rule_recovers_masked_term():
    x, y = _rand(seed=2), _rand(seed=3)
    clo = compute_closure([x, x ^ y], [y])
    assert y in clo
    steps = clo.derivation(y)
    assert steps and "xor" in steps[0]


def test_xor_trace_is_verifiable():
    # re-execute the reported derivation and land on the target
    x, y = _rand(seed=4), _rand(seed=5)
    clo = compute_closure([x, x ^ y], [y])
    subset = clo._xor_subset(y)
    acc = BitString.zeros(1)
    for term in subset:
        acc = acc ^ term
    assert acc.value == y.value


def test_multi_term_xor_combinations_are_found():
    a, b, c = _rand(seed=6), _rand(seed=7), _rand(seed=8)
    clo = compute_closure([a, b, c, a ^ b ^ c ^ _rand(seed=9)], [_rand(seed=9)])
    assert _rand(seed=9) in clo


def test_hash_rule_and_chaining():
    x = _rand(seed=10)
    clo = compute_closure([x], [sha1_digest(x), sha1_digest(sha1_digest(x))])
    assert sha1_digest(x) in clo
    assert sha1_digest(sha1_digest(x)) in clo


def test_depth_zero_is_just_the_givens(monkeypatch):
    monkeypatch.setattr(closure, "DEPTH", 0)
    x = _rand(seed=11)
    clo = compute_closure([x], [x, sha1_digest(x)])
    assert x in clo
    assert sha1_digest(x) not in clo


def test_hash_of_concatenation_is_explored():
    a, b = _rand(seed=12), _rand(seed=13)
    ts = BitString(32, 77)
    targets = [sha1_digest(a, b), sha1_digest(b, a), sha1_digest(a, b, ts), sha1_digest(a, ts)]
    clo = compute_closure([a, b, ts], targets)
    assert sha1_digest(a, b) in clo
    assert sha1_digest(b, a) in clo
    assert sha1_digest(a, b, ts) in clo
    assert sha1_digest(a, ts) in clo


def test_concat_hash_trace_reconstruction():
    a, b = _rand(seed=14), _rand(seed=15)
    target = sha1_digest(a, b)
    clo = compute_closure([a, b], [target])
    steps = clo.derivation(target)
    assert steps and "hash-concat" in steps[0]
    assert a.hex() in steps[0] and b.hex() in steps[0]


def test_slicing_at_field_boundaries():
    fields = [_rand(seed=s) for s in (16, 17, 18, 19)]
    ts = BitString(32, 5)
    payload = concat(fields + [ts])
    assert payload.width == 672
    clo = compute_closure([payload], fields + [ts])
    for f in fields:
        assert f in clo
    assert ts in clo


def test_lift_rule_extends_nonces():
    n = _rand(width=128, seed=20)
    clo = compute_closure([n], [n.zext(160)])
    assert n.zext(160) in clo


def test_nonce_masked_by_multipart_hash_stays_hidden():
    # v = h(a || b) xor n with a, b unknown: n must not be derivable
    a, b = _rand(seed=21), _rand(seed=22)
    n = _rand(width=128, seed=23)
    v = sha1_digest(a, b) ^ n
    clo = compute_closure([v], [n, n.zext(160)])
    assert n not in clo
    assert n.zext(160) not in clo


def test_digest_mixtures_do_not_saturate_the_span():
    # engine-made digests are not XOR generators: mixing many of them
    # must not make unrelated values "derivable"
    givens = [_rand(seed=s) for s in range(30, 40)]
    target = _rand(seed=999)
    mix = sha1_digest(givens[0]) ^ sha1_digest(givens[1])
    clo = compute_closure(givens, [target, mix])
    assert target not in clo
    assert mix not in clo


def test_budget_zero_skips_tuple_enumeration(monkeypatch):
    monkeypatch.setattr(closure, "BUDGET", 0)
    a, b = _rand(seed=41), _rand(seed=42)
    clo = compute_closure([a, b], [sha1_digest(a, b), sha1_digest(a)])
    assert clo.bulk_count == 0
    assert sha1_digest(a, b) not in clo
    assert sha1_digest(a) in clo  # single-term rule is not budgeted


def test_zero_constants_are_assumed_public():
    x = _rand(seed=43)
    clo = compute_closure([x], [BitString.zeros(160), BitString.zeros(32)])
    assert BitString.zeros(160) in clo
    assert BitString.zeros(32) in clo


def test_helper_data_reveals_nothing_about_the_key():
    # fuzzy-extractor helper alone never yields the extracted digest
    from fanet_aka.crypto import BIO_BITS, fe_gen
    rng = random.Random(77)
    bio = rng.getrandbits(BIO_BITS)
    sigma, tau = fe_gen(bio, rng)
    key = BitString(160, sigma)
    clo = compute_closure([BitString(BIO_BITS, tau)], [key])
    assert key not in clo


def test_closure_is_deterministic():
    knowledge = [_rand(seed=s) for s in range(50, 56)]
    ts = BitString(32, 9)
    targets = [sha1_digest(knowledge[0], knowledge[1]), sha1_digest(*knowledge[:3], ts),
               sha1_digest(knowledge[2], ts)]
    a = compute_closure(knowledge + [ts], targets)
    b = compute_closure(knowledge + [ts], targets)
    assert a.hits == b.hits and len(a.hits) == len(targets)
    assert a.bulk_count == b.bulk_count > 0
    assert set(a.terms) == set(b.terms)


def test_undeclared_query_raises():
    a, b = _rand(seed=60), _rand(seed=61)
    clo = compute_closure([a, b], [sha1_digest(a, b)])
    for query in (lambda t: t in clo, clo.derivation):
        with pytest.raises(ValueError):
            query(sha1_digest(b, a))
        with pytest.raises(ValueError):
            query(a)  # a given term is a member, but it was not declared


def test_ts4_shaped_target_trace_rehashes_to_target():
    # the session key's input shape: four field elements and one timestamp
    a, b, c, d = (_rand(seed=s) for s in range(62, 66))
    ts = BitString(32, 3)
    target = sha1_digest(a, b, c, d, ts)
    clo = compute_closure([a, b, c, d, ts], [target])
    assert ("ts", 4) in clo.enumerated_shapes and not clo.skipped_shapes
    assert target in clo
    (line,) = clo.derivation(target)
    args = line[line.index("(") + 1:line.index(")")].split(", ")
    parts = [BitString.from_hex(h) for h in args]
    assert [p.width for p in parts] == [160] * 4 + [32]
    assert sha1_digest(*parts) == target
    assert line.endswith(f"= {target.hex()}")


def test_budget_starved_shape_is_listed_as_skipped(monkeypatch):
    monkeypatch.setattr(closure, "BUDGET", 10_000)
    atoms = [_rand(seed=s) for s in range(66, 76)] + [BitString(32, 1), BitString(32, 2)]
    # with the zero constants: 11 field atoms and 3 timestamps, so every
    # shape but ("ts", 4) (11**4 * 3 = 43,923 tuples) fits in 10,000
    clo = compute_closure(atoms, [sha1_digest(*atoms[:4], atoms[-1])])
    assert clo.skipped_shapes == [("ts", 4)]
    assert ("ts", 4) not in clo.enumerated_shapes
    assert clo.bulk_count == 11**2 + 11 * 3 + 11**3 + 11**2 * 3 + 11**3 * 3
