"""Tests for repeated / packed protobuf fields."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpc.layout import SlabAllocator, UnitKind, layout_message
from repro.rpc.message import (
    decode_message,
    encode_message,
    generate_message,
    message_stats,
)
from repro.rpc.schema import FieldDescriptor, FieldKind, MessageSchema
from repro.rpc.wire import WireType, decode_key

ITEM = MessageSchema(
    "Item",
    (FieldDescriptor(1, "sku", FieldKind.UINT),),
)

ORDER = MessageSchema(
    "Order",
    (
        FieldDescriptor(1, "ids", FieldKind.UINT, repeated=True),
        FieldDescriptor(3, "weights", FieldKind.DOUBLE, repeated=True),
        FieldDescriptor(4, "tags", FieldKind.STRING, repeated=True),
        FieldDescriptor(5, "items", FieldKind.MESSAGE, ITEM, repeated=True),
        FieldDescriptor(6, "note", FieldKind.STRING),
    ),
)


def test_packed_numeric_roundtrip():
    value = {"ids": [1, 128, 300, 0], "weights": [1.5, -2.25]}
    assert decode_message(ORDER, encode_message(ORDER, value)) == value


def test_packed_uses_single_len_record():
    wire = encode_message(ORDER, {"ids": [1, 2, 3]})
    number, wire_type, _ = decode_key(wire)
    assert number == 1
    assert wire_type is WireType.LEN  # one packed record, not three keys


def test_unpacked_strings_and_messages_roundtrip():
    value = {
        "tags": ["a", "bb", "ccc"],
        "items": [{"sku": 1}, {"sku": 2}],
        "note": "done",
    }
    assert decode_message(ORDER, encode_message(ORDER, value)) == value


def test_empty_repeated_list_is_absent_on_wire():
    # proto3: an empty repeated field encodes to nothing.
    wire = encode_message(ORDER, {"ids": [], "tags": []})
    assert wire == b""
    assert decode_message(ORDER, wire) == {}


def test_stats_count_every_element():
    value = {"ids": [1, 2, 3], "items": [{"sku": 1}, {"sku": 2}]}
    stats = message_stats(ORDER, value)
    assert stats.scalar_fields == 3 + 2   # three ids + one sku per item
    assert stats.nested_messages == 2
    assert stats.max_depth == 1


def test_layout_lays_out_every_element():
    value = {
        "ids": list(range(30)),
        "tags": ["t" * 200] * 3,
        "items": [{"sku": n} for n in range(4)],
        "note": "hi",
    }
    layout = layout_message(ORDER, value, SlabAllocator())
    stats = message_stats(ORDER, value)
    assert layout.count(UnitKind.HOP) == 1 + stats.nested_messages == 5
    # Root: 30 ids + 3 tags + the note = 34 slots -> 4 descriptor lines,
    # and 602 body bytes -> 10 lines; each item is a block of its own.
    assert [block[1:] for block in layout.blocks] == [(4, 10)] + [(1, 0)] * 4
    assert layout.count(UnitKind.DESCRIPTOR) == 8
    assert layout.count(UnitKind.BODY) == 10


def test_generate_repeated_fields():
    value = generate_message(ORDER, random.Random(1))
    assert isinstance(value["ids"], list)
    assert 1 <= len(value["ids"]) <= 4
    assert decode_message(ORDER, encode_message(ORDER, value)) == value


def test_packed_flag():
    assert ORDER.field_by_number(1).packed
    assert not ORDER.field_by_number(4).packed   # strings never pack
    assert not ORDER.field_by_number(6).packed   # singular


@settings(max_examples=60)
@given(
    st.fixed_dictionaries(
        {},
        optional={
            "ids": st.lists(st.integers(0, (1 << 64) - 1), max_size=10),
            "weights": st.lists(
                st.floats(allow_nan=False, allow_infinity=False), max_size=6
            ),
            "tags": st.lists(st.text(max_size=12), max_size=5),
            "items": st.lists(
                st.fixed_dictionaries({"sku": st.integers(0, 1 << 32)}),
                max_size=5,
            ),
        },
    )
)
def test_repeated_roundtrip_property(value):
    decoded = decode_message(ORDER, encode_message(ORDER, value))
    # proto3 canonical form: empty repeated fields are absent.
    canonical = {k: v for k, v in value.items() if v != []}
    assert decoded == canonical
