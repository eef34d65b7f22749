"""Performance interfaces for Optimus Prime, the in-place transformer.

The paper's example #2 pits Protoacc against Optimus Prime and argues a
designer choosing between them needs *interfaces*, not papers: Optimus
Prime wins on small objects (descriptor cache, no pointer chasing) and
loses on large ones (modest parser-array streaming rate).  These are
the interfaces that make that comparison mechanical — an English
summary and an executable program, both derived from the constants of
:mod:`repro.accel.optimusprime.model`.

A Petri-net representation (one single-server transition) ships too,
so the pool runtime's ``interface_predicted`` router can price this
device through the compiled engine and a shared :class:`EvalCache`
like every other pooled accelerator.  The lint bundle audits all
three representations, and ``pnet verify`` proves the net's latency
contract (symbolic bounds + monotonicity certificates).
"""

from __future__ import annotations

from repro.accel.protoacc.message import Message
from repro.core.nl import EnglishInterface, PerformanceStatement, Relation
from repro.core.program import ProgramInterface

from .model import (
    BYTES_PER_CYCLE,
    DESCRIPTOR_MISS_CYCLES,
    PER_FIELD_CYCLES,
    PER_MESSAGE_CYCLES,
)

# ----------------------------------------------------------------------
# Representation 1: English
# ----------------------------------------------------------------------
ENGLISH = EnglishInterface(
    accelerator="optimus-prime",
    statements=(
        PerformanceStatement(
            metric="Latency",
            relation=Relation.INCREASES_WITH,
            quantity="the message's encoded size",
            accessor=lambda msg: float(msg.encoded_size()),
        ),
        PerformanceStatement(
            metric="Throughput",
            relation=Relation.DECREASES_WITH,
            quantity="the message's encoded size",
            accessor=lambda msg: float(msg.encoded_size()),
        ),
    ),
)


# ----------------------------------------------------------------------
# Representation 2: executable Python program
# ----------------------------------------------------------------------
def latency_optimusprime(msg: Message, descriptor_cache_hit: bool = True) -> float:
    """Transform latency in cycles: pipeline restart, one parser-array
    step per field, streaming at the array's fixed rate, plus a schema
    fetch per (sub)message when the descriptor cache misses."""
    cycles = PER_MESSAGE_CYCLES
    cycles += PER_FIELD_CYCLES * msg.total_fields
    cycles += msg.encoded_size() / BYTES_PER_CYCLE
    if not descriptor_cache_hit:
        cycles += DESCRIPTOR_MISS_CYCLES * msg.total_messages
    return cycles


def tput_optimusprime(msg: Message) -> float:
    """Messages/cycle: the parser array is a single non-overlapping
    pipeline, so throughput is the reciprocal of latency."""
    return 1.0 / latency_optimusprime(msg)


PROGRAM = ProgramInterface(
    "optimus-prime",
    latency_fn=latency_optimusprime,
    throughput_fn=tput_optimusprime,
)


# ----------------------------------------------------------------------
# Representation 3: Petri-net IR (serving-layer addition)
# ----------------------------------------------------------------------
#: Optimus Prime is a single non-overlapping parser-array pipeline, so
#: its net is one single-server transition: restart + per-field dispatch
#: + bandwidth-limited streaming, the same structure the model implements.
#: Shipped so the pool runtime's ``interface_predicted`` router can
#: price this device through the same compiled-engine + EvalCache path
#: as every other pooled accelerator.
OPTIMUS_PNET = """
net optimus_prime

place in
place out

inject in fields fields size

transition transform
  consume in
  produce out
  delay expr: 20 + 0.5 * tok["fields"] + tok["size"] / 2.0
"""


def tokenize_message(msg: Message):
    """One ``(place, payload, at)`` token per message: the parser array
    does not overlap them."""
    return [("in", {"fields": msg.total_fields, "size": msg.encoded_size()}, 0.0)]


def petri_interface(*, cache=None, tracer=None):
    """Build the Petri-net interface (fresh net, reusable across items)."""
    from repro.core.petrinet import PetriNetInterface
    from repro.petri import parse

    return PetriNetInterface(
        "optimus-prime",
        net_factory=lambda: parse(OPTIMUS_PNET),
        tokenize=tokenize_message,
        sink="out",
        pnet_text=OPTIMUS_PNET,
        cache=cache,
        tracer=tracer,
    )


def all_interfaces() -> dict[str, object]:
    return {"english": ENGLISH, "program": PROGRAM, "petri-net": petri_interface()}


#: Token-field value ranges the transform contract is stated over:
#: up to 256 fields and 4 KiB of encoded message.
PNET_FEATURE_DOMAINS = {
    "fields": (0.0, 256.0),
    "size": (0.0, 4096.0),
}


def perflint_bundle():
    """Everything the perf-lint toolchain audits for this accelerator
    (``python -m repro.tools.perflint optimusprime``) — the
    single-transition Petri net included, so ``pnet verify`` can prove
    the transform's latency contract."""
    from repro.lint import InterfaceBundle

    from repro.accel.protoacc.formats import instances

    return InterfaceBundle(
        accelerator="optimus-prime",
        english=ENGLISH,
        program=PROGRAM,
        program_fns={
            "latency": latency_optimusprime,
            "throughput": tput_optimusprime,
        },
        workload_type=Message,
        pnet_text=OPTIMUS_PNET,
        pnet_file="src/repro/accel/optimusprime/interfaces.py#OPTIMUS_PNET",
        samples=list(instances(seed=5).values()),
        feature_domains=PNET_FEATURE_DOMAINS,
        declared_monotone={
            "fields": +1,
            "size": +1,
            "total_fields": +1,
            "encoded_size": +1,
        },
    )


def perf_contract():
    """The transform's verified performance contract (derived fresh;
    callers that price many requests should cache it — the pool
    runtime does)."""
    from repro.lint import analyze_bundle

    return analyze_bundle(perflint_bundle()).contract
