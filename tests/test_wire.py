import random
from dataclasses import fields, replace
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from fanet_aka.bits import BitString
from fanet_aka.errors import IncompleteTranscript, StaleTimestamp, WidthMismatch
from fanet_aka import wire
from fanet_aka.wire import (Msg1, Msg2, Msg3, UserRegRequest, UavRegResponse,
                            check_fresh, decode, decode_msg1, decode_msg2,
                            decode_msg3, encode, protocol_bits, ts_bits)


def _names(cls):
    return [f.name for f in fields(cls)]


def field(width=160):
    return st.integers(min_value=0, max_value=(1 << width) - 1).map(
        lambda v: BitString(width, v))


def test_message_widths_match_the_contract():
    assert sum(Msg1.WIDTHS) == 672
    assert sum(Msg2.WIDTHS) == 672
    assert sum(Msg3.WIDTHS) == 512
    assert sum(UserRegRequest.WIDTHS) == 320
    assert sum(UavRegResponse.WIDTHS) == 320


def test_encode_msg1_layout_offsets():
    msg = Msg1(mac1=BitString(160, 1), rid_j=BitString(160, 2),
               g_i=BitString(160, 3), f_i_prime=BitString(160, 4),
               ts1=ts_bits(5))
    raw = encode(msg)
    assert raw.width == 672
    mask = (1 << 160) - 1
    assert raw.value >> 512 == 1
    assert raw.value >> 352 & mask == 2
    assert raw.value >> 192 & mask == 3
    assert raw.value >> 32 & mask == 4
    assert raw.value & 0xFFFFFFFF == 5


def test_msg3_timestamp_sits_third():
    msg = Msg3(v5=BitString(160, 9), v4=BitString(160, 8),
               ts3=ts_bits(7), v2=BitString(160, 6))
    raw = encode(msg)
    assert raw.width == 512
    assert raw.value >> 160 & 0xFFFFFFFF == 7
    assert raw.value & (1 << 160) - 1 == 6


def test_encode_rejects_bad_field_width():
    # a timestamp is an int like every field, and encode range-checks it
    msg = Msg1(mac1=BitString(160, 1), rid_j=BitString(160, 2),
               g_i=BitString(160, 3), f_i_prime=BitString(160, 4),
               ts1=2 ** 32)
    with pytest.raises(WidthMismatch, match="Msg1.ts1"):
        encode(msg)


@pytest.mark.parametrize("cls", wire.MESSAGE_TYPES)
def test_wrong_width_bit_string_is_refused_at_construction(cls):
    for i, width in enumerate(cls.WIDTHS):
        for bad in (BitString(width - 32, 0), BitString(width + 1, 1)):
            values = [BitString(w, 0) for w in cls.WIDTHS]
            values[i] = bad
            with pytest.raises(WidthMismatch, match=f"{cls.__name__}.{_names(cls)[i]}"):
                cls(*values)
        values = [0] * len(cls.WIDTHS)
        values[i] = "not a field"
        with pytest.raises(TypeError):
            cls(*values)


@pytest.mark.parametrize("cls", wire.MESSAGE_TYPES)
def test_out_of_range_int_is_refused_at_encode(cls):
    for i, width in enumerate(cls.WIDTHS):
        for bad in (-1, 1 << width):
            values = [0] * len(cls.WIDTHS)
            values[i] = bad
            msg = cls(*values)
            with pytest.raises(WidthMismatch, match=f"{cls.__name__}.{_names(cls)[i]}"):
                encode(msg)


@pytest.mark.parametrize("cls", wire.MESSAGE_TYPES)
def test_two_out_of_range_ints_name_the_first_declared(cls):
    # packing tests each width group at once and only then field by field,
    # in declaration order, so the error names the same field as a walk of
    # one check per field
    names = _names(cls)
    for i, j in combinations(range(len(names)), 2):
        for bad_i, bad_j in product((-1, 1 << cls.WIDTHS[i]), (-1, 1 << cls.WIDTHS[j])):
            values = [0] * len(names)
            values[i], values[j] = bad_i, bad_j
            with pytest.raises(WidthMismatch, match=f"{cls.__name__}.{names[i]} "):
                encode(cls(*values))


@pytest.mark.parametrize("cls", wire.MESSAGE_TYPES)
def test_records_are_immutable(cls):
    # as on BitString, a field cannot be assigned or deleted after
    # construction, so every value a record holds passed its constructor
    msg = cls(*(BitString(w, 1) for w in cls.WIDTHS))
    for name in _names(cls):
        with pytest.raises(AttributeError):
            setattr(msg, name, BitString(160, 1))
        with pytest.raises(AttributeError):
            delattr(msg, name)
    with pytest.raises(AttributeError):
        msg.extra = 1
    assert msg == cls(*(BitString(w, 1) for w in cls.WIDTHS))


def test_replace_goes_through_the_boundary_constructor():
    msg = Msg1(1, 2, 3, 4, ts_bits(5))
    assert replace(msg, g_i=BitString(160, 7)).g_i == 7
    with pytest.raises(WidthMismatch, match="Msg1.g_i"):
        replace(msg, g_i=BitString(128, 7))
    with pytest.raises(TypeError):
        replace(msg, rid_j="not a field")


def test_decode_rejects_wrong_total_width():
    with pytest.raises(WidthMismatch):
        decode_msg1(BitString(671, 0))
    with pytest.raises(WidthMismatch):
        decode_msg3(BitString(672, 0))


@given(field(), field(), field(), field(), field(32))
def test_msg1_round_trip(a, b, c, d, ts):
    msg = Msg1(a, b, c, d, ts)
    assert decode_msg1(encode(msg)) == msg


@given(field(), field(), field(), field(), field(32))
def test_msg2_round_trip(a, b, c, d, ts):
    msg = Msg2(a, b, c, d, ts)
    assert decode_msg2(encode(msg)) == msg


@given(field(), field(), field(32), field())
def test_msg3_round_trip(a, b, ts, c):
    msg = Msg3(a, b, ts, c)
    assert decode_msg3(encode(msg)) == msg


@pytest.mark.parametrize("cls", wire.MESSAGE_TYPES)
def test_every_type_round_trips(cls):
    # a record built from BitString fields holds their ints, equals the
    # decoded record and encodes to the same payload
    rng = random.Random(17)
    values = [BitString.random(w, rng) for w in cls.WIDTHS]
    msg = cls(*values)
    payload = BitString(sum(cls.WIDTHS),
                        int("".join(format(v.value, f"0{v.width}b") for v in values), 2))
    assert encode(msg) == payload
    assert decode(cls, payload) == msg
    for name, value in zip(_names(cls), values):
        assert getattr(msg, name) == value.value


@given(st.data())
def test_every_type_round_trips_its_ints(data):
    cls = data.draw(st.sampled_from(wire.MESSAGE_TYPES))
    values = [data.draw(st.integers(0, (1 << w) - 1)) for w in cls.WIDTHS]
    msg = cls(*values)
    raw = encode(msg)
    assert raw.width == sum(cls.WIDTHS)
    assert decode(cls, raw) == msg
    assert encode(decode(cls, raw)) == raw


def test_fuzzed_decode_is_total():
    rng = random.Random(23)
    for _ in range(500):
        msg = decode_msg1(BitString.random(672, rng))
        assert 0 <= msg.ts1 < 1 << 32
        msg = decode_msg3(BitString.random(512, rng))
        assert 0 <= msg.v2 < 1 << 160


def test_ts_bits_wraps_to_32_bits():
    assert ts_bits(5) == 5
    assert ts_bits(2 ** 32 + 5) == 5
    assert ts_bits(2 ** 32 - 1) == 2 ** 32 - 1


def test_check_fresh_compares_modulo_2_32():
    assert check_fresh("MSG1", ts_bits(7), 7, 2) == 0
    assert check_fresh("MSG1", ts_bits(2 ** 32 - 1), 2 ** 32, 2) == -1
    assert check_fresh("MSG1", ts_bits(2 ** 32), 2 ** 32 - 1, 2) == 1
    assert check_fresh("MSG1", ts_bits(3), 2 ** 33 + 4, 2) == -1
    for ts, now in ((0, 2), (2, 0), (2 ** 32 - 1, 2 ** 32 + 1), (2 ** 31, 0)):
        with pytest.raises(StaleTimestamp, match="MSG1 outside freshness window"):
            check_fresh("MSG1", ts_bits(ts), now, 2)


class _FakeEntry:
    def __init__(self, kind, width):
        self.kind = kind
        self.payload = BitString(width, 0)


def test_protocol_bits_requires_complete_run():
    with pytest.raises(IncompleteTranscript):
        protocol_bits([_FakeEntry("MSG1", 672)])


def test_protocol_bits_measures_serialized_widths():
    transcript = [_FakeEntry("MSG1", 672), _FakeEntry("MSG2", 672),
                  _FakeEntry("MSG3", 512)]
    assert protocol_bits(transcript) == {
        "MSG1": 672, "MSG2": 672, "MSG3": 512,
        "total": 1856, "message_count": 3,
    }


def test_hex_representation_is_lowercase_unseparated():
    raw = encode(Msg3(BitString(160, 0xAB), BitString(160, 0xCD),
                      ts_bits(1), BitString(160, 0xEF)))
    text = raw.hex()
    assert text == text.lower()
    assert len(text) == 512 // 4
