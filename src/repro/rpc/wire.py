"""Protocol Buffers wire format.

A from-scratch implementation of the protobuf encoding the hardware
(de)serializers operate on: base-128 varints, little-endian fixed64,
and length-delimited fields (strings, nested messages).  Field keys
are ``(field_number << 3) | wire_type``.
"""

from __future__ import annotations

import enum
import struct
from typing import Tuple


class WireType(enum.IntEnum):
    VARINT = 0
    I64 = 1
    LEN = 2
    I32 = 5


class WireError(ValueError):
    """Malformed wire data."""


# Every value below 0x80 is its own one-byte varint.
_ONE_BYTE_VARINT = tuple(bytes((value,)) for value in range(0x80))


def encode_varint(value: int) -> bytes:
    """Base-128 varint encoding of an unsigned 64-bit integer."""
    if value < 0x80:
        if value < 0:
            raise WireError("varint requires a non-negative value")
        return _ONE_BYTE_VARINT[value]
    if value >> 64:
        raise WireError("varint value exceeds 64 bits")
    out = []
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a varint; returns ``(value, next_offset)``."""
    if offset >= len(data):
        raise WireError("truncated varint")
    byte = data[offset]
    if byte < 0x80:
        return byte, offset + 1
    result = byte & 0x7F
    shift = 7
    pos = offset + 1
    while True:
        if pos >= len(data):
            raise WireError("truncated varint")
        byte = data[pos]
        pos += 1
        # The 10th byte holds bit 63 alone: anything above 0x01 there
        # (a higher bit or a continuation) is longer than 64 bits.
        if shift == 63 and byte > 0x01:
            raise WireError("varint longer than 64 bits")
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def encode_key(field_number: int, wire_type: WireType) -> bytes:
    if field_number < 1:
        raise WireError("field numbers start at 1")
    return encode_varint((field_number << 3) | int(wire_type))


# The 3-bit wire type of a key -> WireType, None where unsupported.
_WIRE_TYPE_OF = tuple(
    next((wire_type for wire_type in WireType if wire_type.value == raw), None)
    for raw in range(8)
)


def decode_key(data: bytes, offset: int = 0) -> Tuple[int, WireType, int]:
    """Decode a field key; returns ``(field_number, wire_type, next_offset)``."""
    key, pos = decode_varint(data, offset)
    field_number = key >> 3
    if field_number < 1:
        raise WireError(f"invalid field number {field_number}")
    wire_type = _WIRE_TYPE_OF[key & 0x7]
    if wire_type is None:
        raise WireError(f"unsupported wire type {key & 0x7}")
    return field_number, wire_type, pos


def encode_fixed64(value: float) -> bytes:
    return struct.pack("<d", value)


def decode_fixed64(data: bytes, offset: int) -> Tuple[float, int]:
    if offset + 8 > len(data):
        raise WireError("truncated fixed64")
    return struct.unpack_from("<d", data, offset)[0], offset + 8


def encode_len_prefixed(payload: bytes) -> bytes:
    return encode_varint(len(payload)) + payload


def decode_len_prefixed(data: bytes, offset: int) -> Tuple[bytes, int]:
    length, pos = decode_varint(data, offset)
    if pos + length > len(data):
        raise WireError("length-delimited field overruns buffer")
    return data[pos : pos + length], pos + length
