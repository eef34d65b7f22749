"""One bottom-up sizing walk gives the same tokens and scalar beats as
encoding every (sub)message on its own."""

from __future__ import annotations

from math import ceil

import numpy as np

from repro.accel.protoacc import Field, FieldKind, Message
from repro.accel.protoacc.formats import instances
from repro.accel.protoacc.interfaces import _blob_stream_cost_own, _flatten, tokenize_message
from repro.accel.protoacc.message import encoded_sizes
from repro.accel.protoacc.model import OUT_BYTES_PER_BEAT, ProtoaccSerializerModel


def random_message(rng: np.random.Generator, depth: int) -> Message:
    """A seeded message with every field kind, edge-sized values, and
    (below the top) submessages, one of them repeated by reference."""
    fields = []
    for number in range(1, int(rng.integers(1, 12)) + 1):
        kind = rng.choice(["varint", "fixed32", "fixed64", "bytes", "message"])
        if kind == "varint":
            value = int(rng.choice([0, 1, 127, 128, 300, -1, 2**63, 2**64 - 1]))
            fields.append(Field(number, FieldKind.VARINT, value))
        elif kind == "fixed32":
            fields.append(Field(number, FieldKind.FIXED32, int(rng.integers(0, 2**32))))
        elif kind == "fixed64":
            fields.append(Field(number, FieldKind.FIXED64, int(rng.integers(0, 2**63))))
        elif kind == "bytes" or depth == 0:
            size = int(rng.choice([0, 1, 127, 128, 16_385]))
            fields.append(Field(number, FieldKind.BYTES, b"b" * size))
        else:
            sub = random_message(rng, depth - 1)
            fields.append(Field(number, FieldKind.MESSAGE, sub))
            if rng.random() < 0.3:
                fields.append(Field(number + 100, FieldKind.MESSAGE, sub))
    return Message(tuple(fields), schema_name=f"random{depth}")


MESSAGES = list(instances(seed=3).values()) + [
    random_message(np.random.default_rng(seed), depth=3) for seed in range(40)
]


def tokens_by_encoding(msg: Message) -> list:
    """The tokenizer's formula with every part encoded on its own."""
    out = []
    for part in _flatten(msg):
        own = part.encoded_size() - sum(s.encoded_size() for s in part.submessages())
        payload = {
            "groups": ceil(part.num_fields / 32),
            "blob": _blob_stream_cost_own(part),
            "beats": max(1, -(-own // 8)),
        }
        out.append(("in", payload, 0.0))
    return out


def scalar_beats_by_encoding(msg: Message) -> int:
    own = msg.encoded_size()
    for f in msg.fields:
        if f.kind is FieldKind.BYTES:
            own -= len(f.value)
        elif f.kind is FieldKind.MESSAGE:
            own -= f.value.encoded_size()
    return max(0, -(-own // OUT_BYTES_PER_BEAT))


def test_one_walk_sizes_every_part_like_the_encoder():
    assert max(m.nesting_depth for m in MESSAGES) >= 3
    assert any(len(encoded_sizes(m)) < m.total_messages for m in MESSAGES)  # shared parts
    for msg in MESSAGES:
        sizes = encoded_sizes(msg)
        parts = _flatten(msg)
        assert {id(p) for p in parts} == set(sizes)
        for part in parts:
            assert sizes[id(part)] == len(part.encode())
            beats = ProtoaccSerializerModel._scalar_beats(part, sizes)
            assert beats == scalar_beats_by_encoding(part)
        assert tokenize_message(msg) == tokens_by_encoding(msg)
