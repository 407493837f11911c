"""Tests for the protobuf wire format, including property-based checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpc.wire import (
    WireError,
    WireType,
    decode_fixed64,
    decode_key,
    decode_len_prefixed,
    decode_varint,
    encode_fixed64,
    encode_key,
    encode_len_prefixed,
    encode_varint,
    zigzag_decode,
    zigzag_encode,
)


# ------------------------------ Varint --------------------------------
def test_varint_known_vectors():
    # Canonical protobuf examples.
    assert encode_varint(0) == b"\x00"
    assert encode_varint(1) == b"\x01"
    assert encode_varint(127) == b"\x7f"
    assert encode_varint(128) == b"\x80\x01"
    assert encode_varint(300) == b"\xac\x02"


def test_varint_negative_rejected():
    with pytest.raises(WireError):
        encode_varint(-1)


def test_varint_truncated_rejected():
    with pytest.raises(WireError):
        decode_varint(b"\x80")


def test_varint_overlong_rejected():
    with pytest.raises(WireError):
        decode_varint(b"\xff" * 10 + b"\x01")
    with pytest.raises(WireError):
        decode_varint(b"\xff" * 9 + b"\x7f")  # a 70-bit value
    with pytest.raises(WireError):
        encode_varint((1 << 64) + 5)


def test_varint_64_bit_boundary():
    encoded = encode_varint((1 << 64) - 1)
    assert encoded == b"\xff" * 9 + b"\x01"
    assert decode_varint(encoded) == ((1 << 64) - 1, 10)


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_varint_roundtrip(value):
    encoded = encode_varint(value)
    decoded, offset = decode_varint(encoded)
    assert decoded == value
    assert offset == len(encoded)


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_varint_encoding_is_minimal(value):
    encoded = encode_varint(value)
    assert len(encoded) == max(1, (value.bit_length() + 6) // 7)


# ------------------------------ ZigZag --------------------------------
def test_zigzag_known_vectors():
    assert zigzag_encode(0) == 0
    assert zigzag_encode(-1) == 1
    assert zigzag_encode(1) == 2
    assert zigzag_encode(-2) == 3
    assert zigzag_encode(2147483647) == 4294967294


@given(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
def test_zigzag_roundtrip(value):
    assert zigzag_decode(zigzag_encode(value)) == value


def test_zigzag_out_of_range():
    with pytest.raises(WireError):
        zigzag_encode(1 << 63)


# ------------------------------- Keys ---------------------------------
def test_key_roundtrip():
    encoded = encode_key(5, WireType.LEN)
    number, wire_type, offset = decode_key(encoded)
    assert (number, wire_type) == (5, WireType.LEN)
    assert offset == len(encoded)


def test_key_field_number_zero_rejected():
    with pytest.raises(WireError):
        encode_key(0, WireType.VARINT)
    with pytest.raises(WireError):
        decode_key(b"\x00")  # field number 0 on the wire


def test_key_bad_wire_type_rejected():
    # wire type 3 (SGROUP) is unsupported.
    with pytest.raises(WireError):
        decode_key(bytes([(1 << 3) | 3]))


@given(st.integers(min_value=1, max_value=536_870_911), st.sampled_from(list(WireType)))
def test_key_roundtrip_property(number, wire_type):
    n, w, _ = decode_key(encode_key(number, wire_type))
    assert (n, w) == (number, wire_type)


# ------------------------------ Fixed64 -------------------------------
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fixed64_roundtrip(value):
    decoded, offset = decode_fixed64(encode_fixed64(value), 0)
    assert decoded == value
    assert offset == 8


def test_fixed64_truncated():
    with pytest.raises(WireError):
        decode_fixed64(b"\x00" * 4, 0)


# --------------------------- Length-prefixed --------------------------
@given(st.binary(max_size=300))
def test_len_prefixed_roundtrip(payload):
    decoded, offset = decode_len_prefixed(encode_len_prefixed(payload), 0)
    assert decoded == payload


def test_len_prefixed_overrun():
    bad = encode_varint(100) + b"short"
    with pytest.raises(WireError):
        decode_len_prefixed(bad, 0)
