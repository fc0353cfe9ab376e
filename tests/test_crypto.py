import hashlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from fanet_aka.bits import BitString, concat, hex_of, text_value
from fanet_aka.crypto import (BIO_BITS, CHALLENGE_BITS, FE_KEY_BITS, FE_REPETITION,
                              FE_TOLERANCE, NONCE_BITS, PUF_SEED_BITS, PufDevice, fe_gen,
                              _expand, fe_rep, sha1_digest, sha1_value)
from fanet_aka.errors import WidthMismatch


# -- hash -------------------------------------------------------------------

def test_sha1_empty_input_matches_standard_vector():
    assert sha1_digest(BitString(0, 0)).hex() == \
        "da39a3ee5e6b4b0d3255bfef95601890afd80709"


def test_sha1_abc_matches_standard_vector():
    assert sha1_digest(BitString(24, int.from_bytes(b"abc", "big"))).hex() == \
        "a9993e364706816aba3e25717850c26c9cd0d89d"


def test_sha1_deterministic_and_160_wide():
    x = BitString(160, text_value("payload"))
    assert sha1_digest(x) == sha1_digest(x)
    assert sha1_digest(x).width == 160


def test_sha1_pads_input_to_byte_boundary():
    # 3-bit input 0b101 hashes as the single byte 0b10100000
    import hashlib
    expected = hashlib.sha1(bytes([0b10100000])).hexdigest()
    assert sha1_digest(BitString(3, 0b101)).hex() == expected


_part = st.one_of(st.sampled_from([3, 12, 33]), st.integers(min_value=0, max_value=300)).flatmap(
    lambda w: st.builds(BitString, st.just(w),
                        st.integers(min_value=0, max_value=(1 << w) - 1)))


@given(st.lists(_part, max_size=6))
@example([BitString(3, 0b101), BitString(12, 0xABC), BitString(33, (1 << 33) - 1)])
def test_sha1_digest_matches_hashlib_on_the_padded_bytes(parts):
    # the parts are hashed as their concatenation, padded once at the end
    joined = concat(parts)
    expected = hashlib.sha1(bytes.fromhex(hex_of(joined.width, joined.value))).digest()
    assert sha1_digest(*parts) == BitString(160, int.from_bytes(expected, "big"))


@given(_part, st.lists(st.integers(0, (1 << 160) - 1), max_size=3))
@example(BitString(33, (1 << 33) - 1), [(1 << 160) - 1])  # each part at its width limit
def test_sha1_value_from_a_leading_int_hashes_as_that_part(first, rest):
    # a caller holding a bare int of any width passes it as the start of
    # the concatenation, ahead of the 160-bit field ints; the digest is that
    # of the part it stands for
    fields = [BitString(160, v) for v in rest]
    assert sha1_value(rest, first.width, first.value) == sha1_digest(first, *fields).value


@pytest.mark.parametrize("fields, width, value, ts", [
    ((4, 1 << 160), 0, 0, None),   # would alias (5, 0)
    ((-1,), 0, 0, None),
    ((6,), 0, 0, (1 << 32) + 1),   # would alias (7,) at ts 1
    ((6,), 0, 0, -1),
    ((), 32, 1 << 32, None),       # a prefix wider than its width
    ((1,), 3, 0b1000, None),
    ((), 0, -1, None),
], ids=["field", "negative-field", "ts", "negative-ts", "prefix", "prefix-before-field",
        "negative-prefix"])
def test_sha1_value_refuses_a_part_wider_than_its_width(fields, width, value, ts):
    # a part's extra bits would land in the part before it and hash as a
    # different in-range input
    with pytest.raises(WidthMismatch):
        sha1_value(fields, width, value, ts)


def test_hash_parts_matches_manual_concatenation():
    # h(a || b) over separate parts equals the digest of their concatenation
    a, b = BitString(160, text_value("a")), BitString(160, text_value("b"))
    assert sha1_digest(a, b) == sha1_digest(concat([a, b]))


def test_short_corpus_has_no_collisions():
    corpus = [BitString(160, text_value(f"input-{i}")) for i in range(200)]
    digests = {sha1_digest(x).value for x in corpus}
    assert len(digests) == len(corpus)


# -- nonces ------------------------------------------------------------------

def test_nonce_width_and_determinism():
    a = random.Random(3).getrandbits(NONCE_BITS)
    b = random.Random(3).getrandbits(NONCE_BITS)
    assert 0 <= a < 1 << 128
    assert a == b


def test_nonce_known_seed_values():
    rng = random.Random(0)
    assert BitString(NONCE_BITS, rng.getrandbits(NONCE_BITS)).hex() == \
        "e3e70682c2094cac629f6fbed82c07cd"
    assert BitString(NONCE_BITS, rng.getrandbits(NONCE_BITS)).hex() == \
        "f728b4fa42485e3a0a5d2f346baa9455"


def test_nonce_stream_has_no_collisions():
    seen = set()
    for seed in range(10):
        rng = random.Random(seed)
        for _ in range(1000):
            seen.add(rng.getrandbits(NONCE_BITS))
    assert len(seen) == 10_000


# -- PUF -------------------------------------------------------------------

def test_puf_deterministic_without_noise():
    dev = PufDevice.generate(random.Random(1))
    challenge = random.Random(2).getrandbits(CHALLENGE_BITS)
    assert dev.eval_value(challenge) == dev.eval_value(challenge)
    assert dev.eval_value(challenge) >> 160 == 0
    assert BitString(160, dev.eval_value(challenge)).hex() == \
        "1373e3816748765e24b52ee89e70c45dc106ed3a"


def test_puf_rejects_bad_challenge_width():
    dev = PufDevice.generate(random.Random(1))
    for challenge in (1 << CHALLENGE_BITS, -1):
        with pytest.raises(WidthMismatch):
            dev.eval_value(challenge)


def test_puf_rejects_bad_seed_width():
    for seed in (1 << PUF_SEED_BITS, -1):
        with pytest.raises(WidthMismatch):
            PufDevice(seed)


_SEED_MAX, _CHALLENGE_MAX = (1 << PUF_SEED_BITS) - 1, (1 << CHALLENGE_BITS) - 1


@given(st.integers(0, _SEED_MAX), st.integers(0, _CHALLENGE_MAX))
@example(0, 0)
@example(_SEED_MAX, 0)
@example(0, _CHALLENGE_MAX)
@example(_SEED_MAX, _CHALLENGE_MAX)
def test_puf_hashes_seed_then_challenge_as_52_bytes(seed, challenge):
    # the PUF's own layout is the general hash's, and the plain bytes'
    device = PufDevice(seed)
    expected = int.from_bytes(hashlib.sha1(seed.to_bytes(32, "big")
                                           + challenge.to_bytes(20, "big")).digest(), "big")
    assert device.eval_value(challenge) == sha1_value((challenge,), PUF_SEED_BITS, seed)
    assert device.eval_value(challenge) == expected
    for bad in (-1, 1 << CHALLENGE_BITS):
        with pytest.raises(WidthMismatch):
            device.eval_value(bad)


def test_int_cores_match_their_bit_string_wrappers():
    # the role steps take the PUF response and the extractor digest as ints
    rng = random.Random(4)
    for _ in range(50):
        dev, challenge = PufDevice.generate(rng), rng.getrandbits(CHALLENGE_BITS)
        assert dev.eval_value(challenge) == sha1_digest(
            BitString(PUF_SEED_BITS, dev.seed), BitString(CHALLENGE_BITS, challenge)).value
        bio = rng.getrandbits(BIO_BITS)
        sigma, tau = fe_gen(bio, rng)
        noisy = bio ^ 1 << (BIO_BITS - 1 - rng.randrange(BIO_BITS))
        for reading in (bio, noisy, rng.getrandbits(BIO_BITS)):
            assert fe_rep(reading, tau) == _slice_reference_rep(
                BitString(BIO_BITS, reading), BitString(BIO_BITS, tau)).value
        assert fe_rep(noisy, tau) == sigma
    with pytest.raises(WidthMismatch):
        fe_rep(1 << BIO_BITS, 0)
    with pytest.raises(WidthMismatch):
        fe_rep(0, 1 << BIO_BITS)


def test_puf_inter_device_uniqueness():
    # same challenge, distinct devices: distance stays in the healthy
    # binomial(160, 1/2) band over 100 pairs
    rng = random.Random(42)
    challenge = rng.getrandbits(CHALLENGE_BITS)
    for _ in range(100):
        a = PufDevice.generate(rng).eval_value(challenge)
        b = PufDevice.generate(rng).eval_value(challenge)
        assert 48 <= (a ^ b).bit_count() <= 112


# -- fuzzy extractor ----------------------------------------------------------

def test_fe_round_trip_without_noise():
    rng = random.Random(5)
    bio = rng.getrandbits(BIO_BITS)
    sigma, tau = fe_gen(bio, rng)
    assert 0 <= sigma < 1 << 160
    assert 0 <= tau < 1 << BIO_BITS and BIO_BITS == 160
    assert fe_rep(bio, tau) == sigma


def test_fe_all_zero_bio_exposes_codeword():
    # with a zero biometric the helper is exactly the repetition codeword
    rng = random.Random(6)
    sigma, tau = fe_gen(0, rng)
    blocks = [tau >> (i * FE_REPETITION) & (1 << FE_REPETITION) - 1
              for i in range(FE_KEY_BITS)]
    assert all(b in (0b00000, 0b11111) for b in blocks)


def test_fe_rejects_width_mismatch():
    for bio in (1 << BIO_BITS, -1):
        with pytest.raises(WidthMismatch):
            fe_gen(bio, random.Random(0))
    for bio, tau in ((1 << BIO_BITS, 0), (-1, 0), (0, 1 << BIO_BITS), (0, -1)):
        with pytest.raises(WidthMismatch):
            fe_rep(bio, tau)


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, (1 << BIO_BITS) - 1))
@example(0, 0)
@example(2 ** 32 - 1, (1 << BIO_BITS) - 1)
def test_fe_hashes_its_word_as_4_bytes(seed, bio):
    # a clone of the rng draws the word fe_gen draws; sigma and the
    # reproduced key are both the general hash of that 32-bit word
    rng = random.Random(seed)
    clone = random.Random()
    clone.setstate(rng.getstate())
    word = clone.getrandbits(FE_KEY_BITS)
    sigma, tau = fe_gen(bio, rng)
    assert sigma == sha1_value((), FE_KEY_BITS, word)
    assert fe_rep(bio, tau) == sha1_value((), FE_KEY_BITS, word)


@given(st.integers(0, (1 << FE_KEY_BITS) - 1), st.integers(0, (1 << BIO_BITS) - 1))
@example(0, 0)
@example((1 << FE_KEY_BITS) - 1, 0)
@example((1 << FE_KEY_BITS) - 1, (1 << BIO_BITS) - 1)
def test_fe_rep_hashes_the_decoded_word_as_4_bytes(word, bio):
    expected = int.from_bytes(hashlib.sha1(word.to_bytes(4, "big")).digest(), "big")
    assert fe_rep(bio, _expand(word) ^ bio) == sha1_value((), FE_KEY_BITS, word) == expected


def _per_block_error(rng, max_flips):
    error = 0
    for block in range(FE_KEY_BITS):
        for offset in rng.sample(range(FE_REPETITION), rng.randint(0, max_flips)):
            error |= 1 << (BIO_BITS - 1 - (block * FE_REPETITION + offset))
    return error


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_fe_corrects_any_within_tolerance_pattern(seed):
    rng = random.Random(seed)
    bio = rng.getrandbits(BIO_BITS)
    sigma, tau = fe_gen(bio, rng)
    error = _per_block_error(rng, FE_TOLERANCE)
    assert fe_rep(bio ^ error, tau) == sigma


def test_fe_exhaustive_over_each_block():
    # every error pattern of every block, alone: it decodes iff it has at
    # most FE_TOLERANCE set bits
    rng = random.Random(11)
    bio = rng.getrandbits(BIO_BITS)
    sigma, tau = fe_gen(bio, rng)
    for block in range(FE_KEY_BITS):
        shift = BIO_BITS - (block + 1) * FE_REPETITION
        for pattern in range(1 << FE_REPETITION):
            noisy = bio ^ (pattern << shift)
            assert (fe_rep(noisy, tau) == sigma) == (pattern.bit_count() <= FE_TOLERANCE)


def test_fe_fails_beyond_tolerance_in_one_block():
    # t+1 flips inside one block flip that key bit: sigma must differ
    rng = random.Random(12)
    bio = rng.getrandbits(BIO_BITS)
    sigma, tau = fe_gen(bio, rng)
    noisy = BitString(BIO_BITS, bio)
    for i in range(FE_TOLERANCE + 1):
        noisy = noisy.flip(i)
    assert fe_rep(noisy.value, tau) != sigma


def test_fe_beyond_tolerance_matches_bit_flip_oracle():
    # majority decode with t+1 errors in block 0 recovers w with bit 0
    # inverted; the oracle reads w off the noise-free codeword instead
    rng = random.Random(13)
    bio = rng.getrandbits(BIO_BITS)
    sigma, tau = fe_gen(bio, rng)

    noisy = BitString(BIO_BITS, bio)
    for i in range(3):  # t + 1 = 3 flips, all inside block 0
        noisy = noisy.flip(i)
    got = fe_rep(noisy.value, tau)

    codeword = tau ^ bio
    word = BitString(FE_KEY_BITS, int("".join(str(codeword >> (BIO_BITS - 1 - k) & 1)
                                              for k in range(0, BIO_BITS, FE_REPETITION)), 2))
    assert sha1_digest(word).value == sigma
    expected = sha1_digest(word.flip(0)).value
    assert got == expected


def _slice_reference_rep(bio, tau):
    """Majority decode over BitString blocks cut by shift and mask, one
    block at a time, hashed as the concatenation of 1-bit strings."""
    noisy = tau.value ^ bio.value
    r, block = FE_REPETITION, (1 << FE_REPETITION) - 1
    word = [BitString(1, int((noisy >> (BIO_BITS - (i + 1) * r) & block).bit_count() > r // 2))
            for i in range(FE_KEY_BITS)]
    return sha1_digest(concat(word))


def _block_loop_rep(bio, tau):
    """The key word majority-decoded from ``tau XOR bio`` one block per step,
    as ints: the loop the whole-int decode replaced."""
    noisy, block = tau ^ bio, (1 << FE_REPETITION) - 1
    word = 0
    for shift in range(BIO_BITS - FE_REPETITION, -1, -FE_REPETITION):
        word = (word << 1) | ((noisy >> shift & block).bit_count() > FE_TOLERANCE)
    return word


def _block_loop_expand(word):
    """The codeword of ``word`` built one block per step: the loop the
    whole-int expansion replaced."""
    block = (1 << FE_REPETITION) - 1
    value = 0
    for i in range(word.width):
        bit = word.value >> (word.width - 1 - i) & 1
        value = (value << FE_REPETITION) | (block if bit else 0)
    return BitString(BIO_BITS, value)


@given(st.integers(min_value=0, max_value=2 ** FE_KEY_BITS - 1))
@example(0)
@example(2 ** FE_KEY_BITS - 1)
@example(0x80000001)
def test_expand_matches_the_block_loop(value):
    assert _expand(value) == _block_loop_expand(BitString(FE_KEY_BITS, value)).value


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.lists(st.integers(min_value=0, max_value=FE_REPETITION),
                min_size=FE_KEY_BITS, max_size=FE_KEY_BITS))
@example(0, [FE_TOLERANCE] * FE_KEY_BITS)
@example(1, [FE_TOLERANCE + 1] * FE_KEY_BITS)
@example(2, [FE_REPETITION] * FE_KEY_BITS)
@example(3, [FE_TOLERANCE, FE_TOLERANCE + 1] * (FE_KEY_BITS // 2))
def test_fe_rep_integer_decode_matches_slice_reference(seed, flips):
    # fe_rep majority-decodes every block at once on whole ints; the
    # references, one block at a time, must agree at, and beyond, the
    # tolerance of each block
    rng = random.Random(seed)
    bio = rng.getrandbits(BIO_BITS)
    sigma, tau = fe_gen(bio, rng)
    r = FE_REPETITION
    error = 0
    for count in flips:
        error = (error << r) | sum(1 << i for i in rng.sample(range(r), count))
    noisy = bio ^ error
    got = fe_rep(noisy, tau)
    assert got == _slice_reference_rep(BitString(BIO_BITS, noisy), BitString(BIO_BITS, tau)).value
    assert got == sha1_value((), FE_KEY_BITS, _block_loop_rep(noisy, tau))
    assert (got == sigma) == (max(flips) <= FE_TOLERANCE)
