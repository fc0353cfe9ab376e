"""Fixed-width bit strings and the operators the protocol algebra runs on.

A value that leaves the protocol as bits is a :class:`BitString`: a
message payload. A party stores the ``int`` of each field,
saved and restored by :func:`hex_of` and :func:`int_of_hex` (a name's by
:func:`text_value`); a role step computes on those ints (see
:class:`~fanet_aka.metrics.OpCounter`), and so do the timestamps, the
session key, the biometric and the fuzzy extractor; message records
carry them (see :mod:`~fanet_aka.wire`), so a BitString is built only
where a value leaves. Widths are explicit and equality is bit-exact:
``BitString(32, 5)`` and ``BitString(160, 5)`` are different values. Bit 0
is the most significant bit (big-endian), both for indexing and for the
wire layout.

Values are validated where they enter: the public constructor and
:meth:`BitString.from_hex` check that the value fits its width, and so do
a message record's constructor and ``encode`` for the fields they take.
Values that fit by construction (flips, slices, concatenation, digests,
``random``) are built by :func:`_unchecked`, which skips that check; the
wire codec's generated packers build their payloads the same way, through
the same slot setters, inline.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .errors import WidthMismatch

TEXT_BYTES = 20  # identities and passwords fill one 160-bit field
_HEX_DIGITS = frozenset("0123456789abcdef")


class BitString:
    """Immutable bit sequence with a fixed width.

    The value is held as a non-negative integer right-aligned in the
    width, so zero-extension on the left is a no-op on the integer.
    """

    __slots__ = ("width", "value")

    def __init__(self, width: int, value: int):
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

    # -- constructors ----------------------------------------------------

    @classmethod
    def random(cls, width: int, rng: random.Random) -> "BitString":
        if width < 0:
            raise ValueError(f"negative width {width}")
        return _unchecked(width, rng.getrandbits(width))

    @classmethod
    def from_hex(cls, text: str, width: int | None = None) -> "BitString":
        """Inverse of :meth:`hex`.

        The text must be hex digits alone, or ValueError is raised: no
        ``0x``, sign, ``_`` or space, which ``int(text, 16)`` would take.
        Without ``width`` every digit is four bits. With it, the text must
        be exactly the ``2 * ceil(width / 8)`` digits :meth:`hex` writes,
        with the padding bits zero; anything else raises WidthMismatch.
        """
        text = text.lower()
        if not _HEX_DIGITS.issuperset(text):
            raise ValueError(f"not hex digits: {text!r}")
        value = int(text, 16) if text else 0
        if width is None:
            return cls(4 * len(text), value)
        nbytes = (width + 7) // 8
        pad = 8 * nbytes - width
        if len(text) != 2 * nbytes or value & ((1 << pad) - 1):
            raise WidthMismatch(f"{width}-bit field needs {2 * nbytes} hex digits, "
                                f"got {text!r}")
        return cls(width, value >> pad)

    # -- views ------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Bytes view, right-padded with zero bits to a byte boundary.

        This padding rule is part of the wire and hashing contract: all
        parties feed identical byte sequences to the hash.
        """
        nbytes = (self.width + 7) // 8
        return (self.value << (8 * nbytes - self.width)).to_bytes(nbytes, "big")

    def hex(self) -> str:
        """Lowercase hex of :meth:`to_bytes`, no separators."""
        return self.to_bytes().hex()

    def __repr__(self) -> str:
        return f"BitString({self.width}, 0x{self.value:x})"

    # -- tamper and search ------------------------------------------------

    def flip(self, index: int) -> "BitString":
        """Copy with the bit at ``index`` inverted (tamper primitive)."""
        if not 0 <= index < self.width:
            raise IndexError(index)
        return _unchecked(self.width, self.value ^ (1 << (self.width - 1 - index)))

    def slice(self, start: int, stop: int) -> "BitString":
        """Bits ``[start, stop)`` in MSB-first order."""
        if not 0 <= start <= stop <= self.width:
            raise IndexError((start, stop))
        w = stop - start
        return _unchecked(w, (self.value >> (self.width - stop)) & ((1 << w) - 1))

    def contains(self, needle: "BitString") -> bool:
        """True if ``needle`` appears as a contiguous bit pattern."""
        if needle.width > self.width:
            return False
        mask = (1 << needle.width) - 1
        for shift in range(self.width - needle.width + 1):
            if (self.value >> shift) & mask == needle.value:
                return True
        return False


def hex_of(width: int, value: int) -> str:
    """:meth:`BitString.hex` of the ``int`` of a ``width``-bit field."""
    return BitString(width, value).hex()


def int_of_hex(text: str, width: int) -> int:
    """Inverse of :func:`hex_of`, checked as :meth:`BitString.from_hex` is."""
    return BitString.from_hex(text, width=width).value


def text_value(text: str) -> int:
    """Canonical encoding of identities and passwords, as the ``int`` of
    the UTF-8 bytes zero-padded on the right to the 160-bit identity field.
    The text must fit."""
    raw = text.encode("utf-8")
    if len(raw) > TEXT_BYTES:
        raise WidthMismatch(f"{text!r} does not fit in {8 * TEXT_BYTES} bits")
    return int.from_bytes(raw.ljust(TEXT_BYTES, b"\x00"), "big")


def concat(parts: Sequence[BitString] | Iterable[BitString]) -> BitString:
    """Concatenate bit strings in order; result width is the sum of widths."""
    width = 0
    value = 0
    for part in parts:
        width += part.width
        value = (value << part.width) | part.value
    return _unchecked(width, value)


_set_width = BitString.width.__set__
_set_value = BitString.value.__set__
_new = object.__new__


def _unchecked(width: int, value: int) -> BitString:
    """A BitString whose value the caller guarantees fits ``width``."""
    bits = _new(BitString)
    _set_width(bits, width)
    _set_value(bits, value)
    return bits
