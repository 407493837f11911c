"""Tests for schema-driven message encode/decode and stats."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpc.message import (
    _draw_letters,
    _draw_uint20,
    decode_message,
    encode_message,
    generate_message,
    message_stats,
)
from repro.rpc.schema import FieldDescriptor, FieldKind, MessageSchema
from repro.rpc.wire import WireError, WireType


INNER = MessageSchema(
    "Inner",
    (
        FieldDescriptor(1, "id", FieldKind.UINT),
    ),
)

ROOT = MessageSchema(
    "Root",
    (
        FieldDescriptor(1, "id", FieldKind.UINT),
        FieldDescriptor(2, "name", FieldKind.STRING),
        FieldDescriptor(3, "score", FieldKind.DOUBLE),
        FieldDescriptor(5, "inner", FieldKind.MESSAGE, INNER),
    ),
)


def test_roundtrip_full_message():
    value = {
        "id": 42,
        "name": "cohet",
        "score": 3.25,
        "inner": {"id": 7},
    }
    assert decode_message(ROOT, encode_message(ROOT, value)) == value


def test_absent_fields_skipped():
    value = {"id": 1}
    wire = encode_message(ROOT, value)
    assert decode_message(ROOT, wire) == value


def test_unknown_field_rejected():
    other = MessageSchema("X", (FieldDescriptor(99, "x", FieldKind.UINT),))
    wire = encode_message(other, {"x": 1})
    with pytest.raises(KeyError):
        decode_message(ROOT, wire)


def test_wire_type_mismatch_rejected():
    # Encode field 1 (uint in ROOT) as length-delimited.
    bad_schema = MessageSchema("Bad", (FieldDescriptor(1, "id", FieldKind.STRING),))
    wire = encode_message(bad_schema, {"id": "oops"})
    with pytest.raises(WireError):
        decode_message(ROOT, wire)


@pytest.mark.parametrize(
    "wire, error, message",
    [
        (b"\x00\x01", WireError, "invalid field number 0"),
        (b"\x0b", WireError, "unsupported wire type 3"),
        (b"\x0c", WireError, "unsupported wire type 4"),
        (b"\x0e", WireError, "unsupported wire type 6"),
        (b"\x0f", WireError, "unsupported wire type 7"),
        (b"\x48\x01", KeyError, "Root has no field 9"),
        (b"\x80\x01\x01", KeyError, "Root has no field 16"),
        (
            b"\x0a\x01a",
            WireError,
            f"field id expected {WireType.VARINT}, got {WireType.LEN}",
        ),
        (
            b"\x2d\x00\x00\x00\x00",
            WireError,
            f"field inner expected {WireType.LEN}, got {WireType.I32}",
        ),
        (b"\x08\x01\x80", WireError, "truncated varint"),
    ],
    ids=[
        "field-0", "wire-type-3", "wire-type-4", "wire-type-6",
        "wire-type-7", "unknown-field", "unknown-two-byte-key",
        "wire-type-mismatch", "i32-on-message", "truncated-key",
    ],
)
def test_bad_keys_raise_their_own_error(wire, error, message):
    """Every key the key table does not hold still raises what
    ``decode_key`` and ``field_by_number`` raise, word for word."""
    with pytest.raises(error) as raised:
        decode_message(ROOT, wire)
    assert type(raised.value) is error
    assert raised.value.args == (message,)


def test_duplicate_field_numbers_rejected():
    with pytest.raises(ValueError):
        MessageSchema(
            "Dup",
            (
                FieldDescriptor(1, "a", FieldKind.UINT),
                FieldDescriptor(1, "b", FieldKind.UINT),
            ),
        )


def test_message_kind_needs_schema():
    with pytest.raises(ValueError):
        FieldDescriptor(1, "x", FieldKind.MESSAGE)
    with pytest.raises(ValueError):
        FieldDescriptor(1, "x", FieldKind.UINT, INNER)


def test_stats_counts():
    value = {
        "id": 1,
        "name": "ab",
        "score": 1.0,
        "inner": {"id": 2},
    }
    stats = message_stats(ROOT, value)
    assert stats.scalar_fields == 4
    assert stats.nested_messages == 1
    assert stats.max_depth == 1
    assert stats.wire_bytes == len(encode_message(ROOT, value))


def test_generate_message_fills_all_fields():
    value = generate_message(ROOT, random.Random(3))
    assert set(value) == {"id", "name", "score", "inner"}
    assert decode_message(ROOT, encode_message(ROOT, value)) == value


@given(st.integers(), st.integers(min_value=1, max_value=2_000))
def test_bulk_letter_draw_matches_choice_loop(seed, size):
    loop_rng = random.Random(seed)
    expected = "".join(
        loop_rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(size)
    )
    bulk_rng = random.Random(seed)
    assert _draw_letters(bulk_rng, size) == expected
    assert bulk_rng.getstate() == loop_rng.getstate()


@given(st.integers(), st.integers(min_value=0, max_value=300))
def test_uint20_draw_matches_randrange_loop(seed, count):
    loop_rng = random.Random(seed)
    expected = [loop_rng.randrange(1 << 20) for _ in range(count)]
    draw_rng = random.Random(seed)
    assert [_draw_uint20(draw_rng) for _ in range(count)] == expected
    assert draw_rng.getstate() == loop_rng.getstate()


@settings(max_examples=50)
@given(
    st.fixed_dictionaries(
        {},
        optional={
            "id": st.integers(min_value=0, max_value=(1 << 64) - 1),
            "name": st.text(max_size=40),
            "score": st.floats(allow_nan=False, allow_infinity=False),
            "inner": st.fixed_dictionaries(
                {},
                optional={
                    "id": st.integers(min_value=0, max_value=(1 << 64) - 1),
                },
            ),
        },
    )
)
def test_roundtrip_property(value):
    assert decode_message(ROOT, encode_message(ROOT, value)) == value
