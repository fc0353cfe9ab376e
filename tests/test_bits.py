import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from fanet_aka.bits import BitString, concat, text_value
from fanet_aka.errors import WidthMismatch


def bitstrings(width=None):
    widths = st.just(width) if width else st.integers(min_value=1, max_value=256)
    return widths.flatmap(
        lambda w: st.integers(min_value=0, max_value=(1 << w) - 1).map(
            lambda v: BitString(w, v)))


def test_width_is_validated():
    with pytest.raises(ValueError):
        BitString(4, 16)
    with pytest.raises(ValueError):
        BitString(-1, 0)
    with pytest.raises(ValueError, match="negative width"):
        BitString.random(-1, random.Random(0))
    assert BitString(0, 0).width == 0


def test_equality_is_bit_exact():
    assert BitString(32, 5) == BitString(32, 5)
    assert BitString(32, 5) != BitString(160, 5)
    assert BitString(32, 5) != BitString(32, 6)


# The protocol XORs the ints of its fields (see OpCounter.xor): these pin
# the algebra its masks rely on.

@given(bitstrings())
def test_xor_identity_and_involution(x):
    assert x.value ^ 0 == x.value
    assert x.value ^ x.value == 0


@given(bitstrings(160), bitstrings(160))
def test_xor_commutes(a, b):
    assert a.value ^ b.value == b.value ^ a.value


@given(bitstrings(160), bitstrings(160), bitstrings(160))
def test_xor_associates(a, b, c):
    assert (a.value ^ b.value) ^ c.value == a.value ^ (b.value ^ c.value)


@given(bitstrings(160), bitstrings(128))
def test_xor_zero_extends_shorter_operand(digest, nonce):
    # a 128-bit nonce masked by a 160-bit digest stays a 160-bit field
    out = BitString(160, digest.value ^ nonce.value)
    # the top 32 bits come straight from the wider operand
    assert out.slice(0, 32) == digest.slice(0, 32)


@given(bitstrings(128), bitstrings(128))
def test_xor_recovers_through_involution(x, y):
    assert (x.value ^ y.value) ^ y.value == x.value


def test_concat_widths_and_order():
    a = BitString(8, 0xAB)
    b = BitString(4, 0xC)
    assert concat([a]) == a
    assert concat([a, b]).width == 12
    assert concat([a, b]).value == 0xABC
    assert concat([a, b]) != concat([b, a])
    assert concat([BitString(160, 1), BitString(32, 1)]).width == 192


@given(st.lists(bitstrings(), min_size=1, max_size=5))
def test_concat_width_is_sum(parts):
    assert concat(parts).width == sum(p.width for p in parts)


@given(bitstrings(160), bitstrings(160))
def test_concat_equal_width_injective(a, b):
    if a != b:
        assert concat([a, b]) != concat([b, a])


def test_slice_is_msb_first():
    x = BitString(16, 0xABCD)
    assert x.slice(0, 4).value == 0xA
    assert x.slice(12, 16).value == 0xD
    assert x.slice(0, 16) == x
    assert x.slice(4, 4).width == 0


def test_bit_indexing_and_flip():
    # bit 0 is the most significant
    x = BitString(8, 0b10000000)
    assert x.flip(0).value == 0
    assert x.flip(7).value == 0b10000001
    with pytest.raises(IndexError):
        x.flip(8)


@given(bitstrings(), st.data())
def test_flip_changes_exactly_one_bit(x, data):
    i = data.draw(st.integers(min_value=0, max_value=x.width - 1))
    assert (x.flip(i).value ^ x.value).bit_count() == 1
    assert x.flip(i).flip(i) == x


def test_to_bytes_pads_on_the_right():
    # 3 bits 0b101 -> one byte 0b10100000
    assert BitString(3, 0b101).to_bytes() == bytes([0b10100000])
    assert BitString(16, 0xABCD).to_bytes() == b"\xab\xcd"


def test_hex_round_trip():
    x = BitString(160, 0xDEADBEEF)
    assert BitString.from_hex(x.hex()) == x
    assert x.hex() == x.hex().lower()


def test_from_text_pads_and_rejects_overflow():
    # text_value is the int of the name's bytes, zero-padded to 160 bits
    assert BitString(160, text_value("alice")).to_bytes() == b"alice" + b"\x00" * 15
    assert text_value("x" * 20) == int.from_bytes(b"x" * 20, "big")
    with pytest.raises(WidthMismatch):
        text_value("x" * 21)


def test_contains_finds_contiguous_patterns():
    hay = BitString(24, 0xABCDEF)
    assert hay.contains(BitString(8, 0xCD))
    assert hay.contains(hay)
    assert not hay.contains(BitString(8, 0x12))
    assert not BitString(8, 0xAB).contains(hay)


def test_random_reproducible():
    assert BitString.random(128, random.Random(7)) == \
        BitString.random(128, random.Random(7))


def test_bitstring_is_immutable():
    x = BitString(32, 5)
    for name in ("width", "value", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    with pytest.raises(AttributeError):
        del x.value
    assert x == BitString(32, 5)
    assert copy.copy(x) == x and pickle.loads(pickle.dumps(x)) == x


@given(bitstrings())
def test_equal_values_hash_equal_however_built(x):
    # results built without validation (flip, slice, concat) must be
    # indistinguishable from validated constructions
    built = [BitString(x.width, x.value), x.flip(0).flip(0),
             x.slice(0, x.width), concat([x]), BitString.from_hex(x.hex(), x.width)]
    for y in built:
        assert y == x and hash(y) == hash(x)
    assert BitString(x.width + 1, x.value) != x


def test_from_hex_with_width_takes_exactly_the_hex_of_that_width():
    assert BitString.from_hex("ab", width=8) == BitString(8, 0xAB)
    # hex() pads on the right to a byte boundary; from_hex undoes it
    odd = BitString(3, 0b101)
    assert BitString.from_hex(odd.hex(), width=3) == odd
    for text, width in (("ab", 160), ("00", 160), ("abcd", 8), ("a1", 3)):
        with pytest.raises(WidthMismatch):
            BitString.from_hex(text, width=width)
    # int(text, 16) reads each of these as 0x0012; hex() writes none of them
    for text in ("0x12", "+012", "0_12", "-012", " 012", "012 ", "0012\n"):
        with pytest.raises(ValueError):
            BitString.from_hex(text, width=16)
    assert BitString.from_hex("0012", width=16) == BitString(16, 0x12)
