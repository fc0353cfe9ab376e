import copy
import pickle
import random

import pytest
from hypothesis import example, given, strategies as st

from fanet_aka.bits import BitString, concat, hex_of, int_of_hex, text_value
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
    assert out.value >> 128 == digest.value >> 128


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


def test_hex_pads_on_the_right():
    # 3 bits 0b101 -> one byte 0b10100000
    assert hex_of(3, 0b101) == "a0"
    assert hex_of(16, 0xABCD) == "abcd"
    assert hex_of(0, 0) == ""
    assert BitString(3, 0b101).hex() == "a0"
    for width, value in ((3, 8), (160, 1 << 160), (8, -1)):
        with pytest.raises(ValueError):
            hex_of(width, value)


def test_hex_round_trip():
    x = BitString(160, 0xDEADBEEF)
    assert int_of_hex(x.hex(), 160) == x.value
    assert x.hex() == x.hex().lower()


@given(st.integers(min_value=0, max_value=300).flatmap(
    lambda w: st.tuples(st.just(w), st.integers(min_value=0, max_value=(1 << w) - 1))))
@example((0, 0))
@example((3, 0b101))
@example((161, (1 << 161) - 1))
def test_int_of_hex_inverts_hex_of_at_every_width(field):
    width, value = field
    text = hex_of(width, value)
    assert len(text) == 2 * ((width + 7) // 8)
    assert int_of_hex(text, width) == value


def test_from_text_pads_and_rejects_overflow():
    # text_value is the int of the name's bytes, zero-padded to 160 bits
    assert hex_of(160, text_value("alice")) == (b"alice" + b"\x00" * 15).hex()
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
    # results built without validation (flip, concat) must be
    # indistinguishable from validated constructions
    built = [BitString(x.width, x.value), x.flip(0).flip(0), concat([x]),
             BitString(x.width, int_of_hex(x.hex(), x.width))]
    for y in built:
        assert y == x and hash(y) == hash(x)
    assert BitString(x.width + 1, x.value) != x


def test_int_of_hex_takes_exactly_the_hex_of_that_width():
    assert int_of_hex("ab", 8) == 0xAB
    assert int_of_hex("AB", 8) == 0xAB
    # hex_of pads on the right to a byte boundary; int_of_hex undoes it
    assert int_of_hex(hex_of(3, 0b101), 3) == 0b101
    for text, width in (("ab", 160), ("00", 160), ("abcd", 8), ("a1", 3), ("", 8),
                        ("00", 0)):
        with pytest.raises(WidthMismatch):
            int_of_hex(text, width)
    # int(text, 16) reads each of these as 0x0012; hex_of writes none of them
    for text in ("0x12", "+012", "0_12", "-012", " 012", "012 ", "0012\n"):
        with pytest.raises(ValueError):
            int_of_hex(text, 16)
    assert int_of_hex("0012", 16) == 0x12
