"""Message schemas.

The host pre-runs the protobuf compiler and loads message-structure
metadata into the NIC's schema table (Fig. 10); the hardware
(de)serializer walks this metadata to decode/encode field-by-field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.rpc.wire import WireType, encode_key


class FieldKind:
    UINT = "uint64"          # varint
    DOUBLE = "double"        # fixed64
    STRING = "string"        # length-delimited
    MESSAGE = "message"      # nested, length-delimited

    ALL = (UINT, DOUBLE, STRING, MESSAGE)


_WIRE_OF = {
    FieldKind.UINT: WireType.VARINT,
    FieldKind.DOUBLE: WireType.I64,
    FieldKind.STRING: WireType.LEN,
    FieldKind.MESSAGE: WireType.LEN,
}


@dataclass(frozen=True)
class FieldDescriptor:
    """One field of a message schema.

    ``repeated`` fields hold lists; repeated numeric fields use proto3's
    packed encoding (one length-delimited record), while repeated
    strings and messages repeat the field key per element.
    """

    number: int
    name: str
    kind: str
    message: Optional["MessageSchema"] = None   # for nested fields
    repeated: bool = False
    # Derived once from the fields above, for the per-field codec loops.
    # proto3: repeated numeric fields default to packed encoding.
    packed: bool = field(init=False, repr=False, compare=False)
    wire_type: WireType = field(init=False, repr=False, compare=False)
    key: bytes = field(init=False, repr=False, compare=False)   # encoded field key

    def __post_init__(self) -> None:
        if self.number < 1:
            raise ValueError("field numbers start at 1")
        if self.kind not in FieldKind.ALL:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if (self.kind == FieldKind.MESSAGE) != (self.message is not None):
            raise ValueError("message kind and nested schema must go together")
        packed = self.repeated and self.kind in (FieldKind.UINT, FieldKind.DOUBLE)
        wire_type = WireType.LEN if packed else _WIRE_OF[self.kind]
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "wire_type", wire_type)
        object.__setattr__(self, "key", encode_key(self.number, wire_type))


@dataclass(frozen=True)
class MessageSchema:
    """An ordered set of field descriptors."""

    name: str
    fields: tuple
    _by_number: Dict[int, FieldDescriptor] = field(
        init=False, repr=False, compare=False
    )
    # Full field key ``(number << 3) | wire_type`` -> descriptor: the
    # decoder's tag table (protobuf's ``_decoders_by_tag``).
    _by_key: Dict[int, FieldDescriptor] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        by_number = {f.number: f for f in self.fields}
        if len(by_number) != len(self.fields):
            raise ValueError(f"duplicate field numbers in {self.name}")
        object.__setattr__(self, "_by_number", by_number)
        object.__setattr__(
            self, "_by_key", {f.number << 3 | f.wire_type: f for f in self.fields}
        )

    def field_by_number(self, number: int) -> FieldDescriptor:
        try:
            return self._by_number[number]
        except KeyError:
            raise KeyError(f"{self.name} has no field {number}") from None
