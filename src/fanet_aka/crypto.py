"""Cryptographic substrate: hash, nonces, simulated PUF, fuzzy extractor.

Everything here is deterministic given an injected ``random.Random``
handle, which is what makes scenario runs and golden transcripts
reproducible. The hash is SHA-1 because the whole bit-accounting contract
of the wire format is built around a 160-bit digest; this is a simulation
fidelity choice, not an endorsement of SHA-1 for new designs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import partial

from .bits import BitString, _unchecked
from .errors import WidthMismatch

DIGEST_BITS = 160
NONCE_BITS = 128
ID_BITS = 160
TS_BITS = 32
CHALLENGE_BITS = 160
PUF_SEED_BITS = 256


_sha1 = hashlib.sha1
_from_bytes = int.from_bytes


def sha1_value(parts, width: int = 0, value: int = 0) -> int:
    """160-bit digest, as an int, of the concatenation of ``parts``.

    A part is a :class:`BitString` or an ``int`` holding one 160-bit field.
    The concatenation starts from ``value``, ``width`` bits wide (none by
    default), so a caller holding a bare ``int`` of another width need not
    wrap it. It is right-padded with zero bits to a byte boundary before
    hashing (see :meth:`BitString.to_bytes`); all parties share this rule,
    so digests computed from algebraically equal inputs match.
    """
    for part in parts:
        if type(part) is int:
            width += DIGEST_BITS
            value = (value << DIGEST_BITS) | part
        else:
            width += part.width
            value = (value << part.width) | part.value
    pad = -width & 7
    return _from_bytes(_sha1((value << pad).to_bytes((width + pad) >> 3, "big")).digest(),
                       "big")


def sha1_digest(*parts: BitString) -> BitString:
    """The protocol's h(a || b) as a 160-bit BitString (see :func:`sha1_value`)."""
    return _unchecked(DIGEST_BITS, sha1_value(parts))


#: A 160-bit field BitString from the int a role step computed.
field = partial(_unchecked, DIGEST_BITS)


def lift(value: BitString) -> BitString:
    """Zero-extend a value (typically a nonce) to the 160-bit field width.

    Nonces are 128 bits on the wire accounting but always enter hashes and
    XOR masks zero-extended to 160 bits, so both sides of the protocol
    concatenate identical byte sequences.
    """
    return value.zext(DIGEST_BITS)


@dataclass(slots=True)
class PufDevice:
    """Simulated physical unclonable function.

    Modeled as an ideal (noise-free) keyed pseudorandom function of a
    per-device 256-bit seed and the challenge: the protocol has no error
    correction for the response, so a noisy PUF fails nearly every session.
    """

    seed: int

    def __post_init__(self):
        if self.seed < 0 or self.seed >> PUF_SEED_BITS:
            raise WidthMismatch(f"device seed must be {PUF_SEED_BITS} bits")

    @classmethod
    def generate(cls, rng: random.Random) -> "PufDevice":
        return cls(rng.getrandbits(PUF_SEED_BITS))

    def eval_value(self, challenge: int) -> int:
        """Deterministic response to a 160-bit challenge, as the ``int`` of
        its 160-bit field: h(seed || challenge)."""
        if challenge < 0 or challenge >> CHALLENGE_BITS:
            raise WidthMismatch(f"challenge must be {CHALLENGE_BITS} bits")
        return sha1_value((challenge,), PUF_SEED_BITS, self.seed)


#: The code-offset fuzzy extractor (Dodis, Reyzin & Smith) over one
#: repetition code: each of the ``FE_KEY_BITS`` random key bits is repeated
#: ``FE_REPETITION`` times, so the biometric is ``BIO_BITS`` wide and up to
#: ``FE_TOLERANCE`` flipped bits per block are corrected by majority vote.
FE_KEY_BITS = 32
FE_REPETITION = 5
BIO_BITS = FE_KEY_BITS * FE_REPETITION
FE_TOLERANCE = FE_REPETITION // 2

#: fe_rep decodes two repetition blocks per step: this table maps their
#: ``2 * FE_REPETITION`` noisy bits to the two majority bits, first block high.
_PAIR_BITS = 2 * FE_REPETITION
_PAIR_MASK = (1 << _PAIR_BITS) - 1
_PAIR_MAJORITY = tuple(((pair >> FE_REPETITION).bit_count() > FE_TOLERANCE) << 1
                       | ((pair & ((1 << FE_REPETITION) - 1)).bit_count() > FE_TOLERANCE)
                       for pair in range(1 << _PAIR_BITS))


def _expand(word: BitString) -> BitString:
    """Repetition-code codeword: every bit of ``word`` repeated."""
    block = (1 << FE_REPETITION) - 1
    value = 0
    for i in range(word.width):
        value = (value << FE_REPETITION) | (block if word.bit(i) else 0)
    return BitString(BIO_BITS, value)


def fe_gen(bio: BitString, rng: random.Random) -> tuple[BitString, BitString]:
    """Enroll a biometric: returns (key digest sigma, public helper tau).

    tau = codeword(w) XOR bio for a fresh random word w; sigma = h(w).
    tau is safe to publish: without a close biometric it reveals nothing
    usable about sigma.
    """
    if bio.width != BIO_BITS:
        raise WidthMismatch(f"biometric must be {BIO_BITS} bits")
    word = BitString.random(FE_KEY_BITS, rng)
    tau = _expand(word) ^ bio
    return sha1_digest(word), tau


def fe_rep(bio: BitString, tau: BitString) -> BitString:
    """Reproduce the enrolled key digest from a noisy biometric reading.

    Majority-decodes each repetition block of tau XOR bio. Guaranteed to
    return enrollment's sigma whenever every block of the error pattern has
    at most ``FE_TOLERANCE`` set bits; beyond that it silently yields a
    different digest, which downstream credential checks reject.
    """
    if tau.width != BIO_BITS:
        raise WidthMismatch(f"biometric and helper must be {BIO_BITS} bits")
    return _unchecked(DIGEST_BITS, fe_rep_value(bio, tau.value))


def fe_rep_value(bio: BitString, tau: int) -> int:
    """The digest of :func:`fe_rep` as an ``int``, from the ``int`` helper a card stores."""
    if bio.width != BIO_BITS or tau < 0 or tau >> BIO_BITS:
        raise WidthMismatch(f"biometric and helper must be {BIO_BITS} bits")
    noisy = tau ^ bio.value
    word = 0
    for shift in range(BIO_BITS - _PAIR_BITS, -1, -_PAIR_BITS):
        word = (word << 2) | _PAIR_MAJORITY[(noisy >> shift) & _PAIR_MASK]
    return sha1_value((), FE_KEY_BITS, word)
