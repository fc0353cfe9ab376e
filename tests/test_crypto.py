import hashlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from fanet_aka.bits import BitString, concat
from fanet_aka.crypto import (BIO_BITS, FE_KEY_BITS, FE_REPETITION, FE_TOLERANCE,
                              PufDevice, fe_gen, fe_rep, fe_rep_value, lift, random_nonce,
                              sha1_digest, sha1_value)
from fanet_aka.errors import WidthMismatch


# -- hash -------------------------------------------------------------------

def test_sha1_empty_input_matches_standard_vector():
    assert sha1_digest(BitString(0, 0)).hex() == \
        "da39a3ee5e6b4b0d3255bfef95601890afd80709"


def test_sha1_abc_matches_standard_vector():
    assert sha1_digest(BitString.from_bytes(b"abc")).hex() == \
        "a9993e364706816aba3e25717850c26c9cd0d89d"


def test_sha1_deterministic_and_160_wide():
    x = BitString.from_text("payload")
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
    expected = hashlib.sha1(concat(parts).to_bytes()).digest()
    assert sha1_digest(*parts) == BitString.from_bytes(expected)


@given(_part, st.lists(_part, max_size=3))
def test_sha1_value_from_a_leading_int_hashes_as_that_part(first, rest):
    # a caller holding a bare int of any width passes it as the start of
    # the concatenation; the digest is that of the part it stands for
    assert sha1_value(rest, first.width, first.value) == sha1_digest(first, *rest).value


def test_hash_parts_matches_manual_concatenation():
    # h(a || b) over separate parts equals the digest of their concatenation
    a, b = BitString.from_text("a"), BitString.from_text("b")
    assert sha1_digest(a, b) == sha1_digest(concat([a, b]))


def test_short_corpus_has_no_collisions():
    corpus = [BitString.from_text(f"input-{i}") for i in range(200)]
    digests = {sha1_digest(x).value for x in corpus}
    assert len(digests) == len(corpus)


# -- nonces ------------------------------------------------------------------

def test_nonce_width_and_determinism():
    a = random_nonce(random.Random(3))
    b = random_nonce(random.Random(3))
    assert a.width == 128
    assert a == b


def test_nonce_known_seed_values():
    rng = random.Random(0)
    assert random_nonce(rng).hex() == "e3e70682c2094cac629f6fbed82c07cd"
    assert random_nonce(rng).hex() == "f728b4fa42485e3a0a5d2f346baa9455"


def test_nonce_stream_has_no_collisions():
    seen = set()
    for seed in range(10):
        rng = random.Random(seed)
        for _ in range(1000):
            seen.add(random_nonce(rng).value)
    assert len(seen) == 10_000


def test_lift_zero_extends_nonce():
    n = BitString(128, 12345)
    assert lift(n) == BitString(160, 12345)


# -- PUF -------------------------------------------------------------------

def test_puf_deterministic_without_noise():
    dev = PufDevice.generate(random.Random(1))
    challenge = BitString.random(160, random.Random(2))
    assert dev.eval(challenge) == dev.eval(challenge)
    assert dev.eval(challenge).width == 160
    assert dev.eval(challenge).hex() == "1373e3816748765e24b52ee89e70c45dc106ed3a"


def test_puf_rejects_bad_challenge_width():
    dev = PufDevice.generate(random.Random(1))
    with pytest.raises(WidthMismatch):
        dev.eval(BitString(128, 0))
    with pytest.raises(WidthMismatch):
        dev.eval_value(BitString(128, 0))


def test_int_cores_match_their_bit_string_wrappers():
    # the role steps take the PUF response and the extractor digest as ints
    rng = random.Random(4)
    for _ in range(50):
        dev, challenge = PufDevice.generate(rng), BitString.random(160, rng)
        assert dev.eval_value(challenge) == dev.eval(challenge).value
        bio = BitString.random(BIO_BITS, rng)
        sigma, tau = fe_gen(bio, rng)
        noisy = bio.flip(rng.randrange(BIO_BITS))
        for reading in (bio, noisy, BitString.random(BIO_BITS, rng)):
            assert fe_rep_value(reading, tau) == fe_rep(reading, tau).value
        assert fe_rep_value(noisy, tau) == sigma.value
    with pytest.raises(WidthMismatch):
        fe_rep_value(BitString.zeros(8), BitString.zeros(160))


def test_puf_inter_device_uniqueness():
    # same challenge, distinct devices: distance stays in the healthy
    # binomial(160, 1/2) band over 100 pairs
    rng = random.Random(42)
    challenge = BitString.random(160, rng)
    for _ in range(100):
        a = PufDevice.generate(rng).eval(challenge)
        b = PufDevice.generate(rng).eval(challenge)
        assert 48 <= a.hamming(b) <= 112


# -- fuzzy extractor ----------------------------------------------------------

def test_fe_round_trip_without_noise():
    rng = random.Random(5)
    bio = BitString.random(BIO_BITS, rng)
    sigma, tau = fe_gen(bio, rng)
    assert sigma.width == 160
    assert tau.width == BIO_BITS == 160
    assert fe_rep(bio, tau) == sigma


def test_fe_all_zero_bio_exposes_codeword():
    # with a zero biometric the helper is exactly the repetition codeword
    rng = random.Random(6)
    sigma, tau = fe_gen(BitString.zeros(BIO_BITS), rng)
    blocks = [tau.slice(i * FE_REPETITION, (i + 1) * FE_REPETITION).value
              for i in range(FE_KEY_BITS)]
    assert all(b in (0b00000, 0b11111) for b in blocks)


def test_fe_rejects_width_mismatch():
    with pytest.raises(WidthMismatch):
        fe_gen(BitString.zeros(8), random.Random(0))
    with pytest.raises(WidthMismatch):
        fe_rep(BitString.zeros(8), BitString.zeros(160))


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
    bio = BitString.random(BIO_BITS, rng)
    sigma, tau = fe_gen(bio, rng)
    error = _per_block_error(rng, FE_TOLERANCE)
    noisy = BitString(BIO_BITS, bio.value ^ error)
    assert fe_rep(noisy, tau) == sigma


def test_fe_exhaustive_over_each_block():
    # every error pattern of every block, alone: it decodes iff it has at
    # most FE_TOLERANCE set bits
    rng = random.Random(11)
    bio = BitString.random(BIO_BITS, rng)
    sigma, tau = fe_gen(bio, rng)
    for block in range(FE_KEY_BITS):
        shift = BIO_BITS - (block + 1) * FE_REPETITION
        for pattern in range(1 << FE_REPETITION):
            noisy = BitString(BIO_BITS, bio.value ^ (pattern << shift))
            assert (fe_rep(noisy, tau) == sigma) == (pattern.bit_count() <= FE_TOLERANCE)


def test_fe_fails_beyond_tolerance_in_one_block():
    # t+1 flips inside one block flip that key bit: sigma must differ
    rng = random.Random(12)
    bio = BitString.random(BIO_BITS, rng)
    sigma, tau = fe_gen(bio, rng)
    noisy = bio
    for i in range(FE_TOLERANCE + 1):
        noisy = noisy.flip(i)
    assert fe_rep(noisy, tau) != sigma


def test_fe_beyond_tolerance_matches_bit_flip_oracle():
    # majority decode with t+1 errors in block 0 recovers w with bit 0
    # inverted; the oracle reads w off the noise-free codeword instead
    rng = random.Random(13)
    bio = BitString.random(BIO_BITS, rng)
    sigma, tau = fe_gen(bio, rng)

    noisy = bio
    for i in range(3):  # t + 1 = 3 flips, all inside block 0
        noisy = noisy.flip(i)
    got = fe_rep(noisy, tau)

    codeword = tau ^ bio
    word = BitString(FE_KEY_BITS, int("".join(str(codeword.bit(i * FE_REPETITION))
                                              for i in range(FE_KEY_BITS)), 2))
    assert sha1_digest(word) == sigma
    expected = sha1_digest(word.flip(0))
    assert got == expected


def _slice_reference_rep(bio, tau):
    """Majority decode written with BitString slices, one block at a time."""
    noisy = tau ^ bio
    r = FE_REPETITION
    word = [BitString(1, int(noisy.slice(i * r, (i + 1) * r).value.bit_count() > r // 2))
            for i in range(FE_KEY_BITS)]
    return sha1_digest(concat(word))


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.lists(st.integers(min_value=0, max_value=FE_REPETITION),
                min_size=FE_KEY_BITS, max_size=FE_KEY_BITS))
@example(0, [FE_TOLERANCE] * FE_KEY_BITS)
@example(1, [FE_TOLERANCE + 1] * FE_KEY_BITS)
@example(2, [FE_REPETITION] * FE_KEY_BITS)
@example(3, [FE_TOLERANCE, FE_TOLERANCE + 1] * (FE_KEY_BITS // 2))
def test_fe_rep_integer_decode_matches_slice_reference(seed, flips):
    # fe_rep decodes two blocks per step from a table; the reference, one
    # block at a time, must agree at, and beyond, the tolerance of each block
    rng = random.Random(seed)
    bio = BitString.random(BIO_BITS, rng)
    sigma, tau = fe_gen(bio, rng)
    r = FE_REPETITION
    error = 0
    for count in flips:
        error = (error << r) | sum(1 << i for i in rng.sample(range(r), count))
    noisy = BitString(BIO_BITS, bio.value ^ error)
    got = fe_rep(noisy, tau)
    assert got == _slice_reference_rep(noisy, tau)
    assert (got == sigma) == (max(flips) <= FE_TOLERANCE)
