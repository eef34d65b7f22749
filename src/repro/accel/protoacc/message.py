"""Protocol-buffer messages and their wire format, from scratch.

Protoacc accelerates protobuf (de)serialization, so the reproduction
needs a real protobuf substrate: schemas, concrete message instances,
and the actual wire encoding (varints, tags, length-delimited fields).
The hardware model consumes instances; the functional encoder/decoder
below also lets tests verify the model's notion of "output bytes"
against a real encoding.

Supported field kinds cover what Protoacc's evaluation exercises:
varint ints, fixed 32/64-bit scalars, bytes/strings, and nested
(sub)messages, including repeated fields.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TypeAlias

_MASK64 = (1 << 64) - 1


class FieldKind(enum.Enum):
    VARINT = "varint"
    FIXED32 = "fixed32"
    FIXED64 = "fixed64"
    BYTES = "bytes"
    MESSAGE = "message"


#: Protobuf wire types, by field kind.
_WIRE_TYPE = {
    FieldKind.VARINT: 0,
    FieldKind.FIXED64: 1,
    FieldKind.BYTES: 2,
    FieldKind.MESSAGE: 2,
    FieldKind.FIXED32: 5,
}

FieldValue: TypeAlias = "int | bytes | Message"


def encode_varint(value: int) -> bytes:
    """LEB128 encoding of an unsigned 64-bit integer."""
    if value < 0:
        value &= _MASK64  # two's-complement, as protobuf does for int64
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint at ``offset``; returns (value, next_offset)."""
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise ValueError("varint longer than 64 bits")


@dataclass(frozen=True)
class Field:
    """One concrete field instance inside a message."""

    number: int
    kind: FieldKind
    value: FieldValue

    def __post_init__(self) -> None:
        if self.number < 1:
            raise ValueError("field numbers start at 1")
        if self.kind is FieldKind.MESSAGE and not isinstance(self.value, Message):
            raise TypeError("message fields need a Message value")
        if self.kind is FieldKind.BYTES and not isinstance(self.value, bytes):
            raise TypeError("bytes fields need a bytes value")
        if self.kind in (
            FieldKind.VARINT,
            FieldKind.FIXED32,
            FieldKind.FIXED64,
        ) and not isinstance(self.value, int):
            raise TypeError(f"{self.kind.value} fields need an int value")

    @property
    def tag(self) -> bytes:
        return encode_varint((self.number << 3) | _WIRE_TYPE[self.kind])


@dataclass(frozen=True)
class Message:
    """A concrete message instance (repeated fields appear repeatedly).

    Attributes:
        fields: In wire order.
        schema_name: Optional name of the format this instance follows.
    """

    fields: tuple[Field, ...] = ()
    schema_name: str = "anonymous"

    # ------------------------------------------------------------------
    # Structure metrics the interfaces read
    # ------------------------------------------------------------------
    @property
    def num_fields(self) -> int:
        """Fields directly in this message (not recursive)."""
        return len(self.fields)

    def submessages(self) -> Iterator[Message]:
        for f in self.fields:
            if f.kind is FieldKind.MESSAGE:
                yield f.value  # type: ignore[misc]

    @property
    def nesting_depth(self) -> int:
        """0 for a flat message; 1 + max over submessages otherwise."""
        subs = list(self.submessages())
        if not subs:
            return 0
        return 1 + max(s.nesting_depth for s in subs)

    @property
    def total_fields(self) -> int:
        """Recursive field count."""
        return self.num_fields + sum(s.total_fields for s in self.submessages())

    @property
    def total_messages(self) -> int:
        """This message plus all transitively nested submessages."""
        return 1 + sum(s.total_messages for s in self.submessages())

    @property
    def num_writes(self) -> int:
        """Output-beat count: 8-byte units the write combiner emits.

        This is the quantity the paper's Fig. 3 interface reads; it is
        derived from the real encoding size, so interface and encoder
        can never drift apart.
        """
        return max(1, -(-self.encoded_size() // 8))

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def encode(self, sizes: dict[int, int] | None = None) -> bytes:
        """The wire bytes; with ``sizes``, also records the length of this
        message's encoding and of each nested one's, by ``id()``."""
        out = bytearray()
        for f in self.fields:
            out += f.tag
            if f.kind is FieldKind.VARINT:
                out += encode_varint(f.value)  # type: ignore[arg-type]
            elif f.kind is FieldKind.FIXED32:
                out += int(f.value).to_bytes(4, "little", signed=False)
            elif f.kind is FieldKind.FIXED64:
                out += int(f.value).to_bytes(8, "little", signed=False)
            elif f.kind is FieldKind.BYTES:
                payload: bytes = f.value  # type: ignore[assignment]
                out += encode_varint(len(payload)) + payload
            elif f.kind is FieldKind.MESSAGE:
                body = f.value.encode(sizes)  # type: ignore[union-attr]
                out += encode_varint(len(body)) + body
        if sizes is not None:
            sizes[id(self)] = len(out)
        return bytes(out)

    def encoded_size(self) -> int:
        return len(self.encode())

    @property
    def blob_bytes(self) -> int:
        """Bytes held in this message's own BYTES fields (not recursive):
        the data the field readers must stream through memory."""
        return sum(
            len(f.value)  # type: ignore[arg-type]
            for f in self.fields
            if f.kind is FieldKind.BYTES
        )

    @property
    def payload_bytes(self) -> int:
        """Raw in-memory bytes of field data (pre-encoding)."""
        total = 0
        for f in self.fields:
            if f.kind is FieldKind.VARINT or f.kind is FieldKind.FIXED64:
                total += 8
            elif f.kind is FieldKind.FIXED32:
                total += 4
            elif f.kind is FieldKind.BYTES:
                total += len(f.value)  # type: ignore[arg-type]
            elif f.kind is FieldKind.MESSAGE:
                total += f.value.payload_bytes  # type: ignore[union-attr]
        return total

    def __str__(self) -> str:
        return (
            f"Message({self.schema_name}: {self.num_fields} fields, "
            f"depth={self.nesting_depth}, {self.encoded_size()}B)"
        )


def encoded_sizes(msg: Message) -> dict[int, int]:
    """``encoded_size()`` of ``msg`` and of every nested submessage, by
    ``id()``, from one encoding (sizing each part on its own encodes a
    part at depth *d* *d* + 1 times)."""
    sizes: dict[int, int] = {}
    msg.encode(sizes)
    return sizes


# ----------------------------------------------------------------------
# JSON round-trip (for persisted serving tapes, repro.runtime.tape)
# ----------------------------------------------------------------------
def message_to_jsonable(msg: Message) -> dict:
    """A JSON-serializable dict that :func:`message_from_jsonable`
    rebuilds into an *equal* Message (bytes travel base64-encoded)."""
    import base64

    def enc_value(kind: FieldKind, value: FieldValue):
        if kind is FieldKind.MESSAGE:
            return message_to_jsonable(value)  # type: ignore[arg-type]
        if kind is FieldKind.BYTES:
            return base64.b64encode(value).decode("ascii")  # type: ignore[arg-type]
        return value

    return {
        "schema": msg.schema_name,
        "fields": [
            [f.number, f.kind.value, enc_value(f.kind, f.value)] for f in msg.fields
        ],
    }


def message_from_jsonable(obj: dict) -> Message:
    """Inverse of :func:`message_to_jsonable`."""
    import base64

    fields = []
    for number, kind_value, value in obj["fields"]:
        kind = FieldKind(kind_value)
        if kind is FieldKind.MESSAGE:
            value = message_from_jsonable(value)
        elif kind is FieldKind.BYTES:
            value = base64.b64decode(value)
        fields.append(Field(int(number), kind, value))
    return Message(tuple(fields), schema_name=obj["schema"])


def decode(data: bytes, schema_name: str = "decoded") -> Message:
    """Parse wire bytes back into a :class:`Message`.

    Length-delimited fields are decoded as BYTES (wire type 2 does not
    distinguish strings, bytes, and submessages without a schema); use
    :func:`decode_with_kinds` when submessage recovery matters.
    """
    fields, pos = _decode_fields(data, 0, len(data), recurse=False)
    return Message(fields=tuple(fields), schema_name=schema_name)


def decode_with_kinds(data: bytes, schema: Message) -> Message:
    """Schema-guided decode: recovers submessages recursively by looking
    up each field number's kind in a template instance."""
    kind_of = {f.number: f.kind for f in schema.fields}
    sub_schema = {
        f.number: f.value for f in schema.fields if f.kind is FieldKind.MESSAGE
    }
    out: list[Field] = []
    pos = 0
    while pos < len(data):
        key, pos = decode_varint(data, pos)
        number, wire = key >> 3, key & 7
        kind = kind_of.get(number)
        if wire == 0:
            value, pos = decode_varint(data, pos)
            out.append(Field(number, FieldKind.VARINT, value))
        elif wire == 1:
            value = int.from_bytes(data[pos : pos + 8], "little")
            pos += 8
            out.append(Field(number, FieldKind.FIXED64, value))
        elif wire == 5:
            value = int.from_bytes(data[pos : pos + 4], "little")
            pos += 4
            out.append(Field(number, FieldKind.FIXED32, value))
        elif wire == 2:
            length, pos = decode_varint(data, pos)
            body = data[pos : pos + length]
            if len(body) != length:
                raise ValueError("truncated length-delimited field")
            pos += length
            if kind is FieldKind.MESSAGE and number in sub_schema:
                sub = decode_with_kinds(body, sub_schema[number])
                out.append(Field(number, FieldKind.MESSAGE, sub))
            else:
                out.append(Field(number, FieldKind.BYTES, body))
        else:
            raise ValueError(f"unsupported wire type {wire}")
    return Message(fields=tuple(out), schema_name=schema.schema_name)


def _decode_fields(
    data: bytes, pos: int, end: int, recurse: bool
) -> tuple[list[Field], int]:
    out: list[Field] = []
    while pos < end:
        key, pos = decode_varint(data, pos)
        number, wire = key >> 3, key & 7
        if wire == 0:
            value, pos = decode_varint(data, pos)
            out.append(Field(number, FieldKind.VARINT, value))
        elif wire == 1:
            out.append(
                Field(number, FieldKind.FIXED64, int.from_bytes(data[pos : pos + 8], "little"))
            )
            pos += 8
        elif wire == 5:
            out.append(
                Field(number, FieldKind.FIXED32, int.from_bytes(data[pos : pos + 4], "little"))
            )
            pos += 4
        elif wire == 2:
            length, pos = decode_varint(data, pos)
            if pos + length > end:
                raise ValueError("truncated length-delimited field")
            out.append(Field(number, FieldKind.BYTES, data[pos : pos + length]))
            pos += length
        else:
            raise ValueError(f"unsupported wire type {wire}")
    return out, pos
