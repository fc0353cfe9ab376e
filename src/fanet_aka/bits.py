"""Fixed-width fields as ``int``s, their one hex codec, and the payload type.

A party stores the ``int`` of each field, and a role step computes on
those ints (see :class:`~fanet_aka.metrics.OpCounter`), as do the
timestamps, the session key, the biometric and the fuzzy extractor.
Message records carry them (see :mod:`~fanet_aka.wire`). Hex text is
written by :func:`hex_of` and read back by :func:`int_of_hex`, the one
hex codec, and a name's field is :func:`text_value`. A scenario searches
the bits of an ``int`` for another with :func:`contains`.

A :class:`BitString` is a message payload: the bits a record packs into
and the channel logs, which an intercept may flip. Widths are explicit
and equality is bit-exact: ``BitString(32, 5)`` and ``BitString(160, 5)``
are different values. Bit 0 is the most significant bit (big-endian),
both for indexing and for the wire layout.

The public constructor checks that the value fits its width. Values that
fit by construction (flips, digests, ``random``) are built by
:func:`_unchecked`, which skips that check; the wire codec's generated
packers build their payloads the same way, through the same slot
setters, inline.
"""

from __future__ import annotations

import random

from .errors import WidthMismatch

TEXT_BYTES = 20  # identities and passwords fill one 160-bit field
_HEX_DIGITS = frozenset("0123456789abcdef")


class BitString:
    """Immutable bit sequence with a fixed width: a message payload.

    The value is held as a non-negative integer right-aligned in the
    width, so zero-extension on the left is a no-op on the integer.
    """

    __slots__ = ("width", "value")

    def __init__(self, width: int, value: int):
        """A checked payload. The benchmark counts these constructions per
        session, and tests build the payloads they tamper with by it."""
        if width < 0:
            raise ValueError(f"negative width {width}")
        if not 0 <= value < (1 << width):
            raise ValueError(f"value does not fit in {width} bits")
        _set_width(self, width)
        _set_value(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"BitString is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"BitString is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not BitString:
            return NotImplemented
        return self.width == other.width and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.width, self.value))

    def __reduce__(self):
        # copy and pickle would otherwise restore the slots via __setattr__
        return BitString, (self.width, self.value)

    @classmethod
    def random(cls, width: int, rng: random.Random) -> "BitString":
        """A payload of ``rng.getrandbits(width)``: the garbage of ``dos``
        and the fields of the benchmark's garbage MSG1."""
        if width < 0:
            raise ValueError(f"negative width {width}")
        return _unchecked(width, rng.getrandbits(width))

    def hex(self) -> str:
        """:func:`hex_of` of the payload: how a transcript shows it."""
        return hex_of(self.width, self.value)

    def __repr__(self) -> str:
        return f"BitString({self.width}, 0x{self.value:x})"

    def flip(self, index: int) -> "BitString":
        """Copy with the bit at ``index`` inverted: the tamper primitive of
        the acceptance suite's bit exhaustion and the benchmark's tamper
        events."""
        if not 0 <= index < self.width:
            raise IndexError(index)
        return _unchecked(self.width, self.value ^ (1 << (self.width - 1 - index)))


def hex_of(width: int, value: int) -> str:
    """Lowercase hex of the ``int`` of a ``width``-bit field, right-padded
    with zero bits to ``2 * ceil(width / 8)`` digits; ValueError if the
    value is outside ``[0, 2**width)``."""
    if not 0 <= value < (1 << width):
        raise ValueError(f"value does not fit in {width} bits")
    pad = -width & 7
    return (value << pad).to_bytes((width + pad) >> 3, "big").hex()


def int_of_hex(text: str, width: int) -> int:
    """Inverse of :func:`hex_of`: the ``int`` of a ``width``-bit field.

    The text must be hex digits alone, or ValueError is raised: no ``0x``,
    sign, ``_`` or space, which ``int(text, 16)`` would take. It must be
    exactly the ``2 * ceil(width / 8)`` digits :func:`hex_of` writes, with
    the padding bits zero; anything else raises WidthMismatch.
    """
    text = text.lower()
    if not _HEX_DIGITS.issuperset(text):
        raise ValueError(f"not hex digits: {text!r}")
    pad = -width & 7
    value = int(text, 16) if text else 0
    if len(text) != (width + pad) >> 2 or value & ((1 << pad) - 1):
        raise WidthMismatch(f"{width}-bit field needs {(width + pad) >> 2} hex digits, "
                            f"got {text!r}")
    return value >> pad


def text_value(text: str) -> int:
    """Canonical encoding of identities and passwords, as the ``int`` of
    the UTF-8 bytes zero-padded on the right to the 160-bit identity field.
    The text must fit."""
    raw = text.encode("utf-8")
    if len(raw) > TEXT_BYTES:
        raise WidthMismatch(f"{text!r} does not fit in {8 * TEXT_BYTES} bits")
    return int.from_bytes(raw.ljust(TEXT_BYTES, b"\x00"), "big")


def contains(width: int, value: int, needle_width: int, needle: int) -> bool:
    """True if the ``needle_width``-bit ``needle`` appears as a contiguous
    bit pattern in the ``width``-bit ``value``; the ``crp_leakage`` and
    ``side_channel`` scenarios search payloads and the PUF seed with it."""
    mask = (1 << needle_width) - 1
    return any((value >> shift) & mask == needle
               for shift in range(width - needle_width + 1))


_set_width = BitString.width.__set__
_set_value = BitString.value.__set__
_new = object.__new__


def _unchecked(width: int, value: int) -> BitString:
    """A BitString whose value the caller guarantees fits ``width``."""
    bits = _new(BitString)
    _set_width(bits, width)
    _set_value(bits, value)
    return bits
