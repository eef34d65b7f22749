"""Performance interfaces for the Bitcoin miner.

The miner is the paper's example of a *configuration-sensitive*
interface: performance depends on a synthesis parameter (``Loop``)
rather than on the input, and the interface exposes the area/latency
tradeoff an SoC designer needs (paper example #1).
"""

from __future__ import annotations

from repro.core.nl import EnglishInterface, PerformanceStatement, Relation
from repro.core.petrinet import PetriNetInterface
from repro.core.program import ProgramInterface
from repro.petri import parse

from .model import CONTROL_AREA, ROUND_LOGIC_AREA, SCHEDULE_AREA, BitcoinMinerModel
from .workload import MiningJob

# ----------------------------------------------------------------------
# Representation 1: English (paper Fig. 1, second entry)
# ----------------------------------------------------------------------
ENGLISH = EnglishInterface(
    accelerator="bitcoin-miner",
    statements=(
        PerformanceStatement(
            metric="Latency (cycles)",
            relation=Relation.EQUALS_PARAM,
            quantity="Loop",
            # The property lives in the *configuration*, not the
            # workload item: the accessor reads the Loop parameter.
            accessor=lambda loop: float(loop),
        ),
        PerformanceStatement(
            metric="However, the area occupied by the accelerator",
            relation=Relation.INVERSELY_PROPORTIONAL,
            quantity="Loop",
            accessor=lambda loop: float(loop),
        ),
    ),
)

# ----------------------------------------------------------------------
# Representation 2: executable Python program
# ----------------------------------------------------------------------


def latency_miner(loop: int) -> float:
    """Cycles for one SHA-256 compression pass: exactly ``Loop``."""
    return float(loop)


def latency_attempt(loop: int) -> float:
    """Cycles for a full double-SHA nonce attempt."""
    return 2.0 * loop


def tput_miner(loop: int) -> float:
    """Nonce attempts per cycle: the folded core's initiation interval
    equals ``Loop`` (the two chained hash cores overlap)."""
    return 1.0 / loop


def area_miner(loop: int) -> float:
    """Datapath area in gate-equivalents: grows inversely with Loop."""
    return 64 / loop * (ROUND_LOGIC_AREA + SCHEDULE_AREA) * 2 + CONTROL_AREA


def mining_cycles(loop: int, expected_attempts: float) -> float:
    """Expected cycles to find a nonce needing ``expected_attempts``."""
    return latency_attempt(loop) + (expected_attempts - 1) * loop


def program_interface(loop: int) -> ProgramInterface[MiningJob]:
    """Interface bundle for one configuration (item = a nonce attempt)."""
    return ProgramInterface(
        "bitcoin-miner",
        latency_fn=lambda _job: latency_attempt(loop),
        throughput_fn=lambda _job: tput_miner(loop),
    )


# ----------------------------------------------------------------------
# Representation 3: Petri-net IR
# ----------------------------------------------------------------------
MINER_PNET_TEMPLATE = """
net bitcoin_miner

place in
place mid capacity 1
place out

inject in

transition hash1
  consume in
  produce mid
  delay {loop}

transition hash2
  consume mid
  produce out
  delay {loop}
"""


def petri_interface(loop: int) -> PetriNetInterface[MiningJob]:
    """Two folded cores in series; each is busy ``Loop`` cycles/pass."""
    text = MINER_PNET_TEMPLATE.format(loop=loop)
    return PetriNetInterface(
        "bitcoin-miner",
        net_factory=lambda: parse(text),
        tokenize=lambda _job: [("in", None, 0.0)],
        sink="out",
        pnet_text=text,
    )


def all_interfaces(loop: int = 8) -> dict[str, object]:
    return {
        "english": ENGLISH,
        "program": program_interface(loop),
        "petri-net": petri_interface(loop),
    }


def perflint_bundle(loop: int = 8):
    """Everything the perf-lint toolchain audits for this accelerator
    (``python -m repro.tools.perflint bitcoin``).  The miner is
    configuration-sensitive, so the audited net is one representative
    synthesis point; the program functions cover every Loop."""
    from repro.lint import InterfaceBundle

    return InterfaceBundle(
        accelerator="bitcoin-miner",
        english=ENGLISH,
        program=program_interface(loop),
        program_fns={
            "latency": latency_miner,
            "attempt-latency": latency_attempt,
            "throughput": tput_miner,
            "area": area_miner,
            "mining-cycles": mining_cycles,
        },
        pnet_text=MINER_PNET_TEMPLATE.format(loop=loop),
        pnet_file="src/repro/accel/bitcoin/interfaces.py#MINER_PNET_TEMPLATE",
    )


def area_latency_frontier() -> list[dict[str, float]]:
    """The design-space table an SoC designer reads off the interface:
    every legal Loop with its pass latency, hashrate, and area."""
    from .model import VALID_LOOPS

    rows = []
    for loop in VALID_LOOPS:
        model = BitcoinMinerModel(loop)
        rows.append(
            {
                "loop": float(loop),
                "latency": float(model.pass_latency()),
                "hashrate": model.hashrate(),
                "area": model.area(),
            }
        )
    return rows
