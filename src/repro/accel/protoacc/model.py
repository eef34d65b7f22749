"""Ground-truth model of the Protoacc serializer (and deserializer).

Microarchitecture (following the Protoacc paper's structure at the
granularity its performance depends on):

**Read path** — a serial descriptor/pointer engine:

1. Message header fetch: one dependent DRAM access.
2. Field-data base dereference: a second dependent access.
3. Descriptor-table fetches: one access per 32 fields, each followed by
   4 cycles of decode.  Scalar field *data* rides along with its
   descriptor group (Protoacc's packed layout), so each group becomes
   an output operation when its fetch completes.
4. BYTES fields stream their payload through the prefetch port.
5. Submessage fields are pointer chases: the engine recurses, fully
   serially (this is why "throughput decreases as the degree of nesting
   increases", paper Fig. 1).

**Write path** — a write combiner that drains the encoded stream at one
8-byte beat per cycle after a 5-cycle per-message setup, stalling when
the read path has not yet produced the next bytes.

The model computes real encoded sizes via :mod:`.message`'s wire-format
encoder, assigns each message deterministic pseudo-random memory
addresses (pointer chases land in random rows/banks, as heap objects
do), and resolves all DRAM timing through :class:`repro.hw.Dram`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.accel.base import AcceleratorModel
from repro.hw import Dram, DramConfig
from repro.hw.noc import BusConfig, SharedBus
from repro.hw.tlb import Tlb, TlbConfig

from .message import FieldKind, Message, encoded_sizes

# Microarchitectural constants.
MSG_CONTROL_CYCLES = 6     # per-message bookkeeping in the read engine
DESCRIPTOR_DECODE = 4      # cycles to decode one 32-field descriptor group
FIELDS_PER_DESCRIPTOR = 32
WRITE_SETUP = 5            # write-combiner setup per message
READ_BYTES_PER_BEAT = 16   # prefetch/stream width (DRAM beat)
OUT_BYTES_PER_BEAT = 8     # write-combiner drain rate (encode is the
                           # narrow port: varint repacking halves width)
EPILOGUE = 2               # final flush handshake

DRAM_CONFIG = DramConfig()


@dataclass(frozen=True)
class _Op:
    """One unit of encoded output produced by the read path."""

    ready: float   # cycle the data is available to the write combiner
    beats: int     # 8-byte beats of encoded output


@dataclass(frozen=True)
class SerializeTiming:
    """Timing breakdown for one message."""

    read_end: float
    write_end: float
    ops: int

    @property
    def latency(self) -> float:
        return self.write_end + EPILOGUE


class ProtoaccSerializerModel(AcceleratorModel[Message]):
    """Cycle-level Protoacc serializer: the reproduction's ground truth."""

    name = "protoacc-ser"

    def __init__(
        self,
        dram_config: DramConfig | None = None,
        *,
        tlb_config: TlbConfig | None = None,
        heap_pages: int = 512,
        bus_config: BusConfig | None = None,
        tracer=None,
    ):
        """``tlb_config`` enables the paper's §5 extension: the
        co-processor reaches memory through an IOMMU TLB and every
        pointer chase, descriptor fetch, or payload stream first pays
        for translation.  ``heap_pages`` bounds the message arena so
        translations exhibit realistic locality (512 pages = 2 MiB).

        ``bus_config`` inserts a shared SmartNIC interconnect between
        the accelerator and memory: every transaction arbitrates on the
        bus (against its background traffic) before DRAM sees it —
        §5's other environment example.

        ``tracer`` (see :class:`repro.obs.Tracer`) is threaded into the
        DRAM the model instantiates per measurement, so memory activity
        shows up as ``hw.dram`` spans.  ``trace_origin`` is a settable
        attribute: models time each call on a local 0-based clock, and a
        caller serving requests on its own timeline (e.g.
        :class:`repro.runtime.device.ResilientDevice`) sets it before
        each measurement so the spans land under the offload window."""
        self.dram_config = dram_config or DRAM_CONFIG
        self.tlb_config = tlb_config
        self.heap_pages = heap_pages
        self.bus_config = bus_config
        self.tracer = (
            tracer if tracer is not None and getattr(tracer, "enabled", True) else None
        )
        self.trace_origin = 0.0

    def _dram(self) -> Dram:
        return Dram(
            self.dram_config,
            tracer=self.tracer,
            trace_origin=self.trace_origin,
            trace_tid=f"{self.name}.dram",
        )

    # ------------------------------------------------------------------
    def _addr_rng(self, msg: Message, salt: int = 0) -> np.random.Generator:
        """Deterministic per-message address layout: heap pointers are
        effectively random, but the same message must always measure
        identically.  ``salt`` distinguishes successive heap objects in
        a streaming run (copy k of a message is a different allocation).
        """
        digest = zlib.crc32(msg.encode()) ^ (msg.total_messages << 16)
        return np.random.default_rng((digest, salt))

    def _read_message(
        self,
        msg: Message,
        t: float,
        dram: Dram,
        rng: np.random.Generator,
        ops: list[_Op],
        tlb: Tlb | None = None,
        bus: SharedBus | None = None,
        sizes: dict[int, int] | None = None,
    ) -> float:
        """Walk one message; appends output ops; returns read-done time.
        ``sizes``: :func:`~.message.encoded_sizes` of the top message."""
        if sizes is None:
            sizes = encoded_sizes(msg)

        cross = (lambda at, size: at) if bus is None else bus.request

        if tlb is None:
            def rand_addr() -> int:
                return int(rng.integers(0, 1 << 28)) * 64

            translate = lambda addr, at: at  # noqa: E731 - no TLB configured
        else:
            # A bounded arena gives page locality, so the TLB matters.
            def rand_addr() -> int:
                page = int(rng.integers(0, self.heap_pages))
                return page * 4096 + int(rng.integers(0, 64)) * 64

            translate = tlb.translate

        # Two dependent accesses: header, then field-data base pointer.
        addr = rand_addr()
        t = dram.access(addr, cross(translate(addr, t), 64), 64)
        addr = rand_addr()
        t = dram.access(addr, cross(translate(addr, t), 64), 64)
        t += MSG_CONTROL_CYCLES

        # Descriptor groups: each fetch+decode releases its scalars'
        # encoded bytes to the write combiner.  Descriptor-table pages
        # live wherever the runtime allocated them, so each group fetch
        # is a full-latency (usually row-missing) access.
        n_groups = -(-msg.num_fields // FIELDS_PER_DESCRIPTOR) if msg.num_fields else 0
        scalar_beats = self._scalar_beats(msg, sizes)
        for g in range(n_groups):
            addr = rand_addr()
            t = dram.access(addr, cross(translate(addr, t), 64), 64)
            t += DESCRIPTOR_DECODE
            share = scalar_beats // n_groups + (1 if g < scalar_beats % n_groups else 0)
            if share:
                ops.append(_Op(ready=t, beats=share))

        # Field walk in wire order: blobs stream, submessages recurse.
        for f in msg.fields:
            if f.kind is FieldKind.BYTES:
                size = len(f.value)  # type: ignore[arg-type]
                addr = rand_addr()
                t = dram.stream(
                    addr, cross(translate(addr, t), max(1, size)), max(1, size)
                )
                ops.append(_Op(ready=t, beats=max(1, -(-size // OUT_BYTES_PER_BEAT))))
            elif f.kind is FieldKind.MESSAGE:
                t = self._read_message(f.value, t, dram, rng, ops, tlb, bus, sizes)  # type: ignore[arg-type]
        return t

    @staticmethod
    def _scalar_beats(msg: Message, sizes: dict[int, int]) -> int:
        """Encoded beats contributed by this message's own scalar fields
        and by the tag/length prefixes of its blob/submessage fields
        (``sizes``: :func:`~.message.encoded_sizes` of a message holding it)."""
        own = sizes[id(msg)]
        for f in msg.fields:
            if f.kind is FieldKind.BYTES:
                own -= len(f.value)  # type: ignore[arg-type]
            elif f.kind is FieldKind.MESSAGE:
                own -= sizes[id(f.value)]
        return max(0, -(-own // OUT_BYTES_PER_BEAT))

    def _drain(self, ops: list[_Op], setup_done: float) -> float:
        """Write-combiner drain completion for a message's op list."""
        t = setup_done
        for op in ops:
            t = max(t, op.ready) + op.beats
        return t

    def serialize_timing(
        self, msg: Message, *, dram: Dram | None = None, start: float = 0.0
    ) -> SerializeTiming:
        dram = dram or self._dram()
        ops: list[_Op] = []
        rng = self._addr_rng(msg)
        tlb = Tlb(self.tlb_config) if self.tlb_config else None
        bus = SharedBus(self.bus_config) if self.bus_config else None
        read_end = self._read_message(msg, start, dram, rng, ops, tlb, bus)
        write_end = self._drain(ops, setup_done=start + WRITE_SETUP)
        return SerializeTiming(read_end=read_end, write_end=write_end, ops=len(ops))

    # ------------------------------------------------------------------
    # AcceleratorModel contract
    # ------------------------------------------------------------------
    def measure_latency(self, item: Message) -> float:
        return self.serialize_timing(item).latency

    def measure_throughput(self, item: Message, repeat: int = 8) -> float:
        """Stream ``repeat`` copies: the next message's read path starts
        as soon as the engine frees, overlapping the previous message's
        writes (read and write paths are distinct hardware)."""
        if repeat < 1:
            raise ValueError("repeat must be >= 1")
        dram = self._dram()
        tlb = Tlb(self.tlb_config) if self.tlb_config else None
        bus = SharedBus(self.bus_config) if self.bus_config else None
        sizes = encoded_sizes(item)
        read_t = 0.0
        write_free = 0.0
        ends: list[float] = []
        for copy in range(repeat):
            ops: list[_Op] = []
            rng = self._addr_rng(item, salt=copy)
            read_t = self._read_message(item, read_t, dram, rng, ops, tlb, bus, sizes)
            write_end = self._drain(ops, setup_done=write_free + WRITE_SETUP)
            write_free = write_end
            ends.append(write_end + EPILOGUE)
        if repeat == 1:
            return 1.0 / ends[0]
        return (repeat - 1) / (ends[-1] - ends[0])


class ProtoaccDeserializerModel(AcceleratorModel[Message]):
    """Deserializer counterpart: parses the wire stream and scatters
    fields to memory.  The parse front end consumes 2 encoded bytes per
    cycle; length-delimited payloads stream at full beat rate; each
    submessage allocation costs one dependent DRAM access (object
    placement), mirroring the serializer's pointer chases in reverse.
    """

    name = "protoacc-deser"
    PARSE_BYTES_PER_CYCLE = 2

    def __init__(self, dram_config: DramConfig | None = None):
        self.dram_config = dram_config or DRAM_CONFIG

    def _walk(
        self, msg: Message, t: float, dram: Dram, rng: np.random.Generator, sizes: dict[int, int]
    ) -> float:
        t = dram.access(int(rng.integers(0, 1 << 28)) * 64, t, 64)  # allocate
        scalars = ProtoaccSerializerModel._scalar_beats(msg, sizes) * OUT_BYTES_PER_BEAT
        t += scalars / self.PARSE_BYTES_PER_CYCLE
        for f in msg.fields:
            if f.kind is FieldKind.BYTES:
                size = max(1, len(f.value))  # type: ignore[arg-type]
                t = dram.stream(int(rng.integers(0, 1 << 28)) * 64, t, size)
            elif f.kind is FieldKind.MESSAGE:
                t = self._walk(f.value, t, dram, rng, sizes)  # type: ignore[arg-type]
        return t

    def measure_latency(self, item: Message) -> float:
        dram = Dram(self.dram_config)
        rng = np.random.default_rng(zlib.crc32(item.encode()))
        return self._walk(item, 0.0, dram, rng, encoded_sizes(item)) + EPILOGUE
