"""Performance interfaces for the Protoacc serializer (paper Fig. 3).

The executable interface below keeps the figure's exact structure —
recursive ``read_cost``, throughput as the min of read and write rates,
and honest latency *bounds* instead of a point estimate (read and write
overlap in message-dependent ways, so a closed form is hard; bounds are
"still much better than no information at all").

One extension relative to the figure: our 32-format suite includes
large BYTES payloads, so ``read_cost`` carries a streaming term for
them (the paper's formats were scalar/nesting-focused).  Constants are
vendor-fitted to the ground-truth model, like all interface constants
in this reproduction.
"""

from __future__ import annotations

from math import ceil

from repro.core.interface import LatencyBounds
from repro.core.nl import EnglishInterface, PerformanceStatement, Relation
from repro.core.program import ProgramInterface

from .message import FieldKind, Message, encoded_sizes

# ----------------------------------------------------------------------
# Representation 1: English (paper Fig. 1, third entry)
# ----------------------------------------------------------------------
ENGLISH = EnglishInterface(
    accelerator="protoacc-ser",
    statements=(
        PerformanceStatement(
            metric="Throughput",
            relation=Relation.DECREASES_WITH,
            quantity="the degree of nesting in a message",
            accessor=lambda msg: float(msg.nesting_depth),
        ),
    ),
)

# ----------------------------------------------------------------------
# Representation 2: executable Python program (paper Fig. 3)
# ----------------------------------------------------------------------
#: Fitted average latency of one accelerator memory access (cycles).
#: Pointer chases and descriptor fetches land on effectively random
#: rows, so this sits near the row-miss service time plus refresh duty.
AVG_MEM_LATENCY = 42.9
#: Conservative per-access latency used in the guaranteed upper bound.
WORST_MEM_LATENCY = 48.0
#: Best-case (row hit, no refresh) access, used in the lower bound.
BEST_MEM_LATENCY = 18.0
#: Fixed cost of one payload stream (CAS + activate), plus 1 beat/16 B.
STREAM_SETUP = 38.0


def _blob_stream_cost(msg: Message) -> float:
    """Read-path cycles spent streaming this message's own BYTES data."""
    return sum(
        STREAM_SETUP + ceil(len(f.value) / 16)  # type: ignore[arg-type]
        for f in msg.fields
        if f.kind is FieldKind.BYTES
    )


def read_cost(msg: Message, avg_mem_latency: float = AVG_MEM_LATENCY) -> float:
    """Read-path cycles for ``msg``, recursively (paper Fig. 3 lines 1-5).

    6 control cycles + two dependent accesses (header, data base) + one
    descriptor fetch-and-decode per 32 fields + payload streaming + the
    full cost of every nested submessage (pointer chases serialize).
    """
    cost = 0.0
    for sub in msg.submessages():
        cost += read_cost(sub, avg_mem_latency)
    cost += _blob_stream_cost(msg)
    return (
        cost
        + 6
        + avg_mem_latency * 2
        + (4 + avg_mem_latency) * ceil(msg.num_fields / 32)
    )


def write_cost(msg: Message) -> float:
    """Write-combiner cycles: setup plus one cycle per 16 B beat."""
    return 5.0 + msg.num_writes


def tput_protoacc_ser(msg: Message) -> float:
    """Messages/cycle at saturation: the slower of the two paths wins
    (paper Fig. 3 lines 7-13)."""
    read_tput = 1.0 / read_cost(msg)
    write_tput = 1.0 / write_cost(msg)
    return min(read_tput, write_tput)


def min_latency_protoacc_ser(msg: Message) -> float:
    """Guaranteed lower bound: even with reads fully hidden, the write
    combiner must set up and drain every beat, and the first beat cannot
    exist before two best-case dependent accesses (Fig. 3 line 15-16)."""
    return write_cost(msg) + 2 * BEST_MEM_LATENCY


def max_latency_protoacc_ser(msg: Message) -> float:
    """Guaranteed upper bound: read path and write path fully serialized,
    with every access at its worst-case latency (Fig. 3 lines 18-22)."""
    return read_cost(msg, WORST_MEM_LATENCY) + write_cost(msg) + 16.0


PROGRAM = ProgramInterface(
    "protoacc-ser",
    throughput_fn=tput_protoacc_ser,
    min_latency_fn=min_latency_protoacc_ser,
    max_latency_fn=max_latency_protoacc_ser,
)


def latency_bounds(msg: Message) -> LatencyBounds:
    """Convenience accessor for the guaranteed interval."""
    return LatencyBounds(min_latency_protoacc_ser(msg), max_latency_protoacc_ser(msg))


def bottleneck(msg: Message) -> str:
    """Which stage limits throughput for ``msg`` — the question the
    paper says this interface lets developers answer per message."""
    return "read" if read_cost(msg) > write_cost(msg) else "write"


# ----------------------------------------------------------------------
# Representation 3: Petri-net IR (serving-layer addition)
# ----------------------------------------------------------------------
#: The paper shipped nets only for its JPEG/VTA-class pipelines; the
#: pool runtime's ``interface_predicted`` router wants one for every
#: device it prices, so this net models the serializer at routing
#: granularity: one token per (sub)message, a single-server read stage
#: (pointer chases serialize, paper Fig. 1) feeding a single-server
#: write combiner through a small staging queue, so the write of one
#: submessage overlaps the read of the next — the overlap the program
#: interface can only bound.  Constants are the Fig. 3 vendor fits.
PROTOACC_PNET = """
net protoacc_ser

place in
place staged capacity 4
place out

inject in fields groups blob beats

transition read
  consume in
  produce staged
  delay expr: 6 + 85.8 + 46.9 * tok["groups"] + tok["blob"]

transition write
  consume staged
  produce out
  delay expr: 5 + tok["beats"]
"""

#: Fixed epilogue: final write-combiner flush handshake.
PNET_EPILOGUE = 16.0


def _flatten(msg: Message) -> list[Message]:
    """Messages in pointer-chase order: parent before its submessages."""
    out = [msg]
    for sub in msg.submessages():
        out.extend(_flatten(sub))
    return out


def tokenize_message(msg: Message):
    """One ``(place, payload, at)`` token per (sub)message, in the order
    the read engine chases them.  ``beats`` is the submessage's own
    encoded contribution (its nested bodies are billed to their own
    tokens)."""
    sizes = encoded_sizes(msg)
    injections = []
    for part in _flatten(msg):
        own_encoded = sizes[id(part)] - sum(sizes[id(s)] for s in part.submessages())
        payload = {
            "groups": ceil(part.num_fields / 32),
            "blob": _blob_stream_cost_own(part),
            "beats": max(1, -(-own_encoded // 8)),
        }
        injections.append(("in", payload, 0.0))
    return injections


def _blob_stream_cost_own(msg: Message) -> float:
    """Non-recursive form of :func:`_blob_stream_cost` (per-token)."""
    return sum(
        STREAM_SETUP + ceil(len(f.value) / 16)  # type: ignore[arg-type]
        for f in msg.fields
        if f.kind is FieldKind.BYTES
    )


def petri_interface(*, cache=None, tracer=None):
    """Build the Petri-net interface (fresh net, reusable across items).

    ``cache``/``tracer`` pass through to
    :class:`~repro.core.petrinet.PetriNetInterface` — the pool runtime
    prices requests through it with a shared
    :class:`~repro.perf.EvalCache` so routing stays cheap; a tracer
    makes each simulation's firings visible as ``petri.*`` spans.
    """
    from repro.core.petrinet import PetriNetInterface
    from repro.petri import parse

    return PetriNetInterface(
        "protoacc-ser",
        net_factory=lambda: parse(PROTOACC_PNET),
        tokenize=tokenize_message,
        sink="out",
        epilogue=PNET_EPILOGUE,
        pnet_text=PROTOACC_PNET,
        cache=cache,
        tracer=tracer,
    )


def all_interfaces() -> dict[str, object]:
    return {"english": ENGLISH, "program": PROGRAM, "petri-net": petri_interface()}


#: Token-field value ranges the serializer contract is stated over:
#: up to 256 fields (8 descriptor groups), 4 KiB of streamed BYTES
#: cost, and 4 KiB of encoded output (512 write beats).
PNET_FEATURE_DOMAINS = {
    "groups": (0.0, 8.0),
    "blob": (0.0, 4096.0),
    "beats": (1.0, 512.0),
}


def perflint_bundle():
    """Everything the perf-lint toolchain audits for this accelerator
    (``python -m repro.tools.perflint protoacc``): all three
    representations — the routing-granularity Petri net included, so
    ``pnet verify`` can prove the serializer's latency contract —
    plus their cross-checks."""
    from repro.lint import InterfaceBundle

    from .formats import instances

    return InterfaceBundle(
        accelerator="protoacc-ser",
        english=ENGLISH,
        program=PROGRAM,
        program_fns={
            "read-cost": read_cost,
            "write-cost": write_cost,
            "throughput": tput_protoacc_ser,
            "min-latency": min_latency_protoacc_ser,
            "max-latency": max_latency_protoacc_ser,
            "deser-latency": latency_protoacc_deser,
        },
        workload_type=Message,
        pnet_text=PROTOACC_PNET,
        pnet_file="src/repro/accel/protoacc/interfaces.py#PROTOACC_PNET",
        samples=list(instances(seed=3).values()),
        feature_domains=PNET_FEATURE_DOMAINS,
        declared_monotone={"groups": +1, "blob": +1, "beats": +1},
    )


def perf_contract():
    """The serializer's verified performance contract (derived fresh;
    callers that price many requests should cache it — the pool
    runtime does)."""
    from repro.lint import analyze_bundle

    return analyze_bundle(perflint_bundle()).contract


# ----------------------------------------------------------------------
# §5 extension: composing with an environment (TLB) component interface
# ----------------------------------------------------------------------
#: Expected translation costs of the IOMMU TLB component, quoted by the
#: platform (not the accelerator) vendor — the paper's §5 proposal is to
#: model such shared components once and reuse them across accelerators.
TLB_HIT_CYCLES = 1.0
TLB_WALK_CYCLES = 110.0


def accesses_per_message(msg: Message) -> int:
    """Memory transactions the read path issues for ``msg``: header +
    data-base chase, one per descriptor group, one per BYTES stream,
    recursively."""
    count = 2 + ceil(msg.num_fields / 32)
    count += sum(1 for f in msg.fields if f.kind is FieldKind.BYTES)
    for sub in msg.submessages():
        count += accesses_per_message(sub)
    return count


def tlb_translation_cost(miss_ratio: float) -> float:
    """Expected cycles one translation adds, given a workload's TLB
    miss ratio (the component interface's single parameter)."""
    if not 0.0 <= miss_ratio <= 1.0:
        raise ValueError("miss_ratio must be in [0, 1]")
    return TLB_HIT_CYCLES + miss_ratio * TLB_WALK_CYCLES


def read_cost_with_tlb(
    msg: Message,
    miss_ratio: float,
    avg_mem_latency: float = AVG_MEM_LATENCY,
) -> float:
    """Fig. 3's read cost composed with the TLB component interface."""
    return read_cost(msg, avg_mem_latency) + accesses_per_message(
        msg
    ) * tlb_translation_cost(miss_ratio)


def tput_protoacc_ser_tlb(msg: Message, miss_ratio: float) -> float:
    """Throughput interface for a TLB-mediated deployment (§5)."""
    read_tput = 1.0 / read_cost_with_tlb(msg, miss_ratio)
    write_tput = 1.0 / write_cost(msg)
    return min(read_tput, write_tput)


# ----------------------------------------------------------------------
# Deserializer interface (the "de" in (de)serialization)
# ----------------------------------------------------------------------
#: Parse front-end rate and per-allocation chase cost, vendor-fitted to
#: the deserializer model.
DESER_PARSE_BYTES_PER_CYCLE = 2.0
DESER_ALLOC_COST = AVG_MEM_LATENCY


def latency_protoacc_deser(msg: Message) -> float:
    """Deserialization latency: one allocation chase per (sub)message,
    scalar parsing at the front-end rate, payload scatter as streams."""
    cost = DESER_ALLOC_COST
    scalars = msg.encoded_size()
    for f in msg.fields:
        if f.kind is FieldKind.BYTES:
            size = len(f.value)  # type: ignore[arg-type]
            scalars -= size
            cost += STREAM_SETUP + ceil(size / 16)
        elif f.kind is FieldKind.MESSAGE:
            sub = f.value
            scalars -= sub.encoded_size()  # type: ignore[union-attr]
            cost += latency_protoacc_deser(sub)  # type: ignore[arg-type]
    return cost + scalars / DESER_PARSE_BYTES_PER_CYCLE


def tput_protoacc_deser(msg: Message) -> float:
    """Messages/cycle: the parse engine is fully serial per message."""
    return 1.0 / latency_protoacc_deser(msg)


DESER_PROGRAM = ProgramInterface(
    "protoacc-deser",
    latency_fn=latency_protoacc_deser,
    throughput_fn=tput_protoacc_deser,
)


# ----------------------------------------------------------------------
# §5 extension: composing with a shared-interconnect component
# ----------------------------------------------------------------------


def read_cost_with_bus(
    msg: Message,
    bus_config,
    avg_mem_latency: float = AVG_MEM_LATENCY,
) -> float:
    """Fig. 3's read cost composed with the interconnect component
    interface (:func:`repro.hw.noc.expected_bus_delay`): every word
    transaction and every payload stream arbitrates on the bus first."""
    from repro.hw.noc import expected_bus_delay

    cost = read_cost(msg, avg_mem_latency)
    word_accesses = accesses_per_message(msg) - _blob_count(msg)
    cost += word_accesses * expected_bus_delay(64, bus_config)
    cost += sum(
        expected_bus_delay(len(f.value), bus_config)  # type: ignore[arg-type]
        for f in _all_blob_fields(msg)
    )
    return cost


def tput_protoacc_ser_bus(msg: Message, bus_config) -> float:
    """Throughput interface for a shared-interconnect deployment (§5)."""
    read_tput = 1.0 / read_cost_with_bus(msg, bus_config)
    write_tput = 1.0 / write_cost(msg)
    return min(read_tput, write_tput)


def _blob_count(msg: Message) -> int:
    own = sum(1 for f in msg.fields if f.kind is FieldKind.BYTES)
    return own + sum(_blob_count(s) for s in msg.submessages())


def _all_blob_fields(msg: Message):
    for f in msg.fields:
        if f.kind is FieldKind.BYTES:
            yield f
        elif f.kind is FieldKind.MESSAGE:
            yield from _all_blob_fields(f.value)  # type: ignore[arg-type]
