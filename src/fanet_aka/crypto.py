"""Cryptographic substrate: hash, nonces, simulated PUF, fuzzy extractor.

Each hash owns its byte layout. The protocol's own hashes (160-bit
fields, then at most one 32-bit timestamp) run through
:meth:`metrics.OpCounter.h`; the PUF hashes its 256-bit seed and 160-bit
challenge as 52 bytes (:meth:`PufDevice.eval_value`), and the fuzzy
extractor its 32-bit key word as 4 bytes (:func:`fe_gen`, :func:`fe_rep`).
Each is whole bytes, so each is one ``to_bytes`` and one SHA-1 call.
:func:`sha1_value` is the general hash: parts of any width, padded to a
byte boundary, each range-checked; it serves :func:`sha1_digest`, the
session-key fingerprints and the replays of recorded inputs, and returns
the same digest as each of the layouts above on the same parts.

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

from .bits import BitString, _unchecked
from .errors import WidthMismatch

DIGEST_BITS = 160
#: A nonce is drawn at 128 bits but is a 160-bit field whose top 32 bits are
#: zero: it enters hashes and XOR masks at field width, so both sides of the
#: protocol hash the same bytes.
NONCE_BITS = 128
ID_BITS = 160
TS_BITS = 32
CHALLENGE_BITS = 160
PUF_SEED_BITS = 256


_sha1 = hashlib.sha1
_from_bytes = int.from_bytes


def sha1_value(fields, width: int = 0, value: int = 0, ts: int | None = None) -> int:
    """160-bit digest, as an int, of the concatenation of ``fields``.

    The general hash, for inputs of any layout: :func:`sha1_digest`'s bit
    strings, the session-key fingerprints of ``cli`` and ``scenarios``, and
    replays of recorded inputs. The protocol, the PUF and the fuzzy
    extractor hash their own whole-byte layouts directly, with the digest
    this returns for the same parts. Each
    field is the ``int`` of one 160-bit field, and ``ts``, if given, the
    ``int`` of a 32-bit timestamp after them: a hash takes at most one
    timestamp, always last, so its position carries its width. The
    concatenation starts from ``value``, ``width`` bits wide (none by
    default), so a caller holding a bare ``int`` of another width need not
    wrap it. It is right-padded with zero bits to a byte boundary before
    hashing, as :func:`~fanet_aka.bits.hex_of` pads; all parties share this
    rule, so digests computed from algebraically equal inputs match. A part
    outside its width (negative, or a field ``>= 2**160``, a ``ts >=
    2**32``, a ``value >= 2**width``) raises :class:`WidthMismatch`: its
    extra bits would land in the part before it, and the digest would be
    that of a different in-range input.
    """
    if value >> width:
        raise WidthMismatch(f"prefix must be {width} bits")
    for part in fields:
        if part >> DIGEST_BITS:
            raise WidthMismatch(f"field must be {DIGEST_BITS} bits")
        width += DIGEST_BITS
        value = (value << DIGEST_BITS) | part
    if ts is not None:
        if ts >> TS_BITS:
            raise WidthMismatch(f"timestamp must be {TS_BITS} bits")
        width += TS_BITS
        value = (value << TS_BITS) | ts
    pad = -width & 7
    return _from_bytes(_sha1((value << pad).to_bytes((width + pad) >> 3, "big")).digest(),
                       "big")


def sha1_digest(*parts: BitString) -> BitString:
    """The protocol's h(a || b) as a 160-bit BitString: the digest of the
    parts joined in order (see :func:`sha1_value`). No package code calls
    it: the benchmark's span table names it, and tests use it as the
    reference hash of bit strings of any width."""
    width = value = 0
    for part in parts:
        width += part.width
        value = (value << part.width) | part.value
    return _unchecked(DIGEST_BITS, sha1_value((), width, value))


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
        its 160-bit field: h(seed || challenge).

        The layout is the 32-byte seed, then the 20-byte challenge: 52
        bytes, hashed as one ``int`` shifted together. It cannot alias
        another (seed, challenge) pair because both are in range: the seed
        is checked at construction and the challenge here, on every call.
        ``sha1_value((challenge,), PUF_SEED_BITS, seed)`` is the same digest.
        """
        if challenge < 0 or challenge >> CHALLENGE_BITS:
            raise WidthMismatch(f"challenge must be {CHALLENGE_BITS} bits")
        return _from_bytes(_sha1((self.seed << 160 | challenge).to_bytes(52, "big")).digest(),
                           "big")


#: The code-offset fuzzy extractor (Dodis, Reyzin & Smith) over one
#: repetition code: each of the ``FE_KEY_BITS`` random key bits is repeated
#: ``FE_REPETITION`` times, so the biometric is ``BIO_BITS`` wide and up to
#: ``FE_TOLERANCE`` flipped bits per block are corrected by majority vote.
#: The reading, the key word and the helper are plain ``int``s of those widths.
FE_KEY_BITS = 32
FE_REPETITION = 5
BIO_BITS = FE_KEY_BITS * FE_REPETITION
FE_TOLERANCE = FE_REPETITION // 2

#: The repetition code runs on whole ints: key bit k owns the block at bits
#: 5k..5k+4 of a codeword. ``_LANES[s]`` masks groups of 2**s bits, 5 * 2**s
#: bits apart; each of the five ``_STEPS`` (shift, lanes before, lanes after)
#: doubles the groups, moving key bit k from bit 5k to bit k, or back.
_LANES = tuple(sum(((1 << (1 << s)) - 1) << i for i in range(0, BIO_BITS, FE_REPETITION << s))
               for s in range(FE_KEY_BITS.bit_length()))
_STEPS = tuple(zip([(FE_REPETITION - 1) << s for s in range(len(_LANES))], _LANES, _LANES[1:]))


def _expand(word: int) -> int:
    """Repetition-code codeword: every bit of the ``FE_KEY_BITS``-bit ``word`` repeated."""
    for shift, lanes, _ in reversed(_STEPS):
        word = (word | word << shift) & lanes
    return word * ((1 << FE_REPETITION) - 1)


def fe_gen(bio: int, rng: random.Random) -> tuple[int, int]:
    """Enroll a ``BIO_BITS``-bit biometric: returns (key digest sigma, public helper tau).

    tau = codeword(w) XOR bio for a fresh random ``FE_KEY_BITS``-bit word w;
    sigma = h(w), the ``int`` of its 160-bit digest. tau is safe to publish:
    without a close biometric it reveals nothing usable about sigma.

    w is hashed as its 4 big-endian bytes, ``sha1_value((), FE_KEY_BITS,
    w)``'s digest. Distinct words cannot alias: w fits in 32 bits by
    construction, and ``to_bytes`` would raise if it did not.
    """
    if bio < 0 or bio >> BIO_BITS:
        raise WidthMismatch(f"biometric must be {BIO_BITS} bits")
    word = rng.getrandbits(FE_KEY_BITS)
    return _from_bytes(_sha1(word.to_bytes(4, "big")).digest(), "big"), _expand(word) ^ bio


def fe_rep(bio: int, tau: int) -> int:
    """Reproduce the enrolled key digest from a noisy biometric reading.

    Majority-decodes each repetition block of tau XOR bio. Guaranteed to
    return enrollment's sigma whenever every block of the error pattern has
    at most ``FE_TOLERANCE`` set bits; beyond that it silently yields a
    different digest, which downstream credential checks reject. The
    decoded word is hashed as :func:`fe_gen` hashes it: 4 bytes, 32 bits
    by construction (each of the 32 key bits is one majority vote).
    """
    if bio < 0 or bio >> BIO_BITS or tau < 0 or tau >> BIO_BITS:
        raise WidthMismatch(f"biometric and helper must be {BIO_BITS} bits")
    noisy, low = tau ^ bio, _LANES[0]
    votes = ((noisy & low) + (noisy >> 1 & low) + (noisy >> 2 & low)
             + (noisy >> 3 & low) + (noisy >> 4 & low))
    word = (votes + 5 * low) >> 3 & low  # a block's votes + 5 reach 8 iff 3 or more
    for shift, _, lanes in _STEPS:
        word = (word | word >> shift) & lanes
    return _from_bytes(_sha1(word.to_bytes(4, "big")).digest(), "big")
