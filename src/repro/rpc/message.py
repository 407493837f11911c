"""Message values: encode/decode against a schema, generate test data.

A message value is a dict from field name to a Python value; nested
messages are dicts.  ``encode_message``/``decode_message`` implement
the schema-guided walk the hardware engines perform, built on the wire
primitives, and they round-trip exactly (property-tested).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.rpc.schema import FieldDescriptor, FieldKind, MessageSchema
from repro.rpc.wire import (
    WireError,
    decode_fixed64,
    decode_key,
    decode_len_prefixed,
    decode_varint,
    encode_fixed64,
    encode_len_prefixed,
    encode_varint,
)


def _encode_scalar(descriptor: FieldDescriptor, item) -> bytes:
    if descriptor.kind == FieldKind.UINT:
        return encode_varint(int(item))
    if descriptor.kind == FieldKind.DOUBLE:
        return encode_fixed64(float(item))
    if descriptor.kind == FieldKind.STRING:
        return encode_len_prefixed(item.encode("utf-8"))
    raise ValueError(f"not a scalar kind: {descriptor.kind}")


def encode_message(schema: MessageSchema, value: Dict) -> bytes:
    """Serialize ``value`` per ``schema`` into protobuf wire bytes."""
    out = bytearray()
    for descriptor in schema.fields:
        if descriptor.name not in value:
            continue   # proto3 semantics: absent fields are skipped
        item = value[descriptor.name]
        if descriptor.repeated:
            if not item:
                # proto3: an empty repeated field is absent on the wire.
                continue
            if descriptor.packed:
                # One LEN record holding every element back to back.
                payload = bytearray()
                for element in item:
                    payload += _encode_scalar(descriptor, element)
                out += descriptor.key
                out += encode_len_prefixed(bytes(payload))
            else:
                for element in item:
                    out += descriptor.key
                    if descriptor.kind == FieldKind.MESSAGE:
                        out += encode_len_prefixed(
                            encode_message(descriptor.message, element)
                        )
                    else:
                        out += _encode_scalar(descriptor, element)
            continue
        out += descriptor.key
        if descriptor.kind == FieldKind.MESSAGE:
            out += encode_len_prefixed(encode_message(descriptor.message, item))
        else:
            out += _encode_scalar(descriptor, item)
    return bytes(out)


def _decode_string(data: bytes, offset: int):
    raw, offset = decode_len_prefixed(data, offset)
    return raw.decode("utf-8"), offset


# Scalar kind -> ``decode(data, offset) -> (value, next_offset)``.
_DECODE_SCALAR = {
    FieldKind.UINT: decode_varint,
    FieldKind.DOUBLE: decode_fixed64,
    FieldKind.STRING: _decode_string,
}


def decode_message(schema: MessageSchema, data: bytes) -> Dict:
    """Parse wire bytes back into a value dict (unknown fields rejected).

    A one-byte key finds its descriptor in the schema's key table.  Any
    other key (multi-byte, malformed, unknown, or of the wrong wire
    type) goes through ``decode_key`` and ``field_by_number``, which
    raise on a bad one.
    """
    value: Dict = {}
    by_key = schema._by_key
    offset = 0
    end = len(data)
    while offset < end:
        key = data[offset]
        if key < 0x80 and key in by_key:
            descriptor = by_key[key]
            offset += 1
        else:
            number, wire_type, offset = decode_key(data, offset)
            descriptor = schema.field_by_number(number)
            if descriptor.wire_type is not wire_type:
                raise WireError(
                    f"field {descriptor.name} expected {descriptor.wire_type}, got {wire_type}"
                )
        if descriptor.kind == FieldKind.MESSAGE:
            raw, offset = decode_len_prefixed(data, offset)
            element = decode_message(descriptor.message, raw)
        elif descriptor.packed:
            payload, offset = decode_len_prefixed(data, offset)
            decode = _DECODE_SCALAR[descriptor.kind]
            elements = value.setdefault(descriptor.name, [])
            inner = 0
            while inner < len(payload):
                element, inner = decode(payload, inner)
                elements.append(element)
            continue
        else:
            element, offset = _DECODE_SCALAR[descriptor.kind](data, offset)
        if descriptor.repeated:
            value.setdefault(descriptor.name, []).append(element)
        else:
            value[descriptor.name] = element
    return value


@dataclass
class MessageStats:
    """The cost drivers the hardware pipelines care about."""

    wire_bytes: int
    scalar_fields: int
    nested_messages: int
    max_depth: int


def message_stats(schema: MessageSchema, value: Dict) -> MessageStats:
    return _stats(schema, value, encode_message(schema, value))


def _stats(schema: MessageSchema, value: Dict, wire: bytes) -> MessageStats:
    """Stats of ``value`` whose encoding ``wire`` the caller already holds."""
    fields, nested, depth = _walk(schema, value, 0)
    return MessageStats(
        wire_bytes=len(wire),
        scalar_fields=fields,
        nested_messages=nested,
        max_depth=depth,
    )


def _walk(schema: MessageSchema, value: Dict, depth: int):
    fields = 0
    nested = 0
    max_depth = depth
    for descriptor in schema.fields:
        if descriptor.name not in value:
            continue
        item = value[descriptor.name]
        elements = item if descriptor.repeated else [item]
        for element in elements:
            if descriptor.kind == FieldKind.MESSAGE:
                nested += 1
                f, n, d = _walk(descriptor.message, element, depth + 1)
                fields += f
                nested += n
                max_depth = max(max_depth, d)
            else:
                fields += 1
    return fields, nested, max_depth


def generate_message(
    schema: MessageSchema,
    rng: random.Random,
    string_bytes: int = 16,
) -> Dict:
    """Fill every field of ``schema`` with deterministic random data."""
    value: Dict = {}
    for descriptor in schema.fields:
        if descriptor.repeated:
            count = rng.randint(1, 4)
            value[descriptor.name] = [
                _generate_element(descriptor, rng, string_bytes)
                for _ in range(count)
            ]
        else:
            value[descriptor.name] = _generate_element(descriptor, rng, string_bytes)
    return value


def _generate_element(descriptor: FieldDescriptor, rng: random.Random, string_bytes: int):
    if descriptor.kind == FieldKind.UINT:
        return _draw_uint20(rng)
    if descriptor.kind == FieldKind.DOUBLE:
        return rng.random() * 1e6
    if descriptor.kind == FieldKind.STRING:
        size = max(1, int(string_bytes * rng.uniform(0.9, 1.1)))
        return _draw_letters(rng, size)
    if descriptor.kind == FieldKind.MESSAGE:
        return generate_message(descriptor.message, rng, string_bytes)
    raise ValueError(f"unknown kind {descriptor.kind}")


def _draw_uint20(rng: random.Random) -> int:
    """``rng.randrange(1 << 20)`` without its two Python frames.

    Exact, leaving ``rng`` in the same state as ``randrange``: it takes
    ``k = n.bit_length()`` bits per try and retries until the value is
    below ``n``, so for ``n = 2**20`` it draws ``getrandbits(21)`` (the
    top 21 bits of one 32-bit Mersenne word) until bit 20 is clear.
    """
    value = rng.getrandbits(21)
    while value >> 20:
        value = rng.getrandbits(21)
    return value


_LETTERS = b"abcdefghijklmnopqrstuvwxyz"
# Top byte of a 32-bit Mersenne word -> the letter its top 5 bits pick;
# bytes whose top 5 bits are 26..31 are the draws ``choice`` rejects.
_LETTER_OF_TOP_BYTE = bytes(
    _LETTERS[byte >> 3] if byte >> 3 < len(_LETTERS) else 0 for byte in range(256)
)
_REJECTED_TOP_BYTES = bytes(range(len(_LETTERS) << 3, 256))


def _draw_letters(rng: random.Random, size: int) -> str:
    """``"".join(rng.choice(letters) for _ in range(size))``, drawn in bulk.

    Exact, leaving ``rng`` in the same state as the loop: ``choice`` over
    26 letters draws ``getrandbits(5)``, the top 5 bits of one 32-bit
    Mersenne word, until the value is below 26.  ``getrandbits(32 * n)``
    returns the next n such words, least significant first, so the top
    byte of word i is byte ``4 * i + 3`` of its little-endian form.  Each
    word yields at most one letter, so drawing one word per missing
    letter never draws past the last word the loop would consume.
    """
    letters = b""
    while len(letters) < size:
        need = size - len(letters)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        letters += words[3::4].translate(_LETTER_OF_TOP_BYTE, _REJECTED_TOP_BYTES)
    return letters.decode("ascii")
