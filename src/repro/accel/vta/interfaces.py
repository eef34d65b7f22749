"""Performance interfaces for VTA.

The paper's Table 1 row "VTA" is a Petri-net interface: a net whose
places mirror VTA's command and dependency-token queues and whose
transitions execute instructions with data-dependent delays.  GEMM and
ALU delays are exact functions of the instruction; DMA delays use a
*fitted average* DRAM service estimate instead of the model's live DRAM
(bank state, refresh, and port contention are the deliberately-cut
corners, per paper §3), which is where its ~1-2% error comes from.

A simple roofline-style program interface is also provided (not in the
paper, which only built Petri nets for VTA); the auto-tuner benchmarks
use it as a cheap third profiler tier.
"""

from __future__ import annotations

import itertools

from repro.core.nl import EnglishInterface, PerformanceStatement, Relation
from repro.core.petrinet import Injection, PetriNetInterface
from repro.core.program import ProgramInterface
from repro.petri import PetriNet

from .isa import Instruction, Module, Opcode, Program
from .model import VtaConfig

# ----------------------------------------------------------------------
# Fitted DMA estimate (the "avg_mem_latency" of this accelerator)
# ----------------------------------------------------------------------
def stream_estimate(size: int, config: VtaConfig | None = None) -> float:
    """Expected cycles for one DMA stream of ``size`` bytes.

    Uses the DRAM's average service profile (CAS + activate + beats +
    row re-activates, scaled by the refresh duty cycle); the *when* of
    refresh windows and the realized bank/row pattern are the cut
    corners.  Port contention is not folded in here — the net models it
    structurally with the ``dram_port`` mutex place.
    """
    cfg = (config or VtaConfig()).dram
    beats = cfg.burst_beats(size)
    rows = max(0, (size - 1) // cfg.row_size)
    base = cfg.cas_latency + cfg.row_miss_penalty + beats + rows * 4
    refresh_duty = 1.0 + cfg.refresh_duration / cfg.refresh_interval
    return base * refresh_duty


def service_cycles(insn: Instruction, config: VtaConfig) -> float:
    """Interface-side service time for one instruction."""
    if insn.op is Opcode.LOAD:
        return config.load_setup + stream_estimate(insn.size, config)
    if insn.op is Opcode.STORE:
        return config.store_setup + stream_estimate(insn.size, config)
    if insn.op is Opcode.GEMM:
        return config.gemm_setup + insn.gemm_macs
    if insn.op is Opcode.ALU:
        lanes = config.vector_lanes
        per_iter = -(-insn.vector_len // lanes) * (1 if insn.use_imm else 2)
        return config.alu_setup + insn.iterations * per_iter
    return config.finish_cycles


# ----------------------------------------------------------------------
# Representation 3: the Petri-net IR (paper Table 1, row "VTA")
# ----------------------------------------------------------------------
_MODULE_FLAGS = {
    Module.LOAD: ("pop_next", "push_next"),
    Module.COMPUTE: ("pop_prev", "pop_next", "push_prev", "push_next"),
    Module.STORE: ("pop_prev", "push_prev"),
}
_POP_QUEUE = {
    (Module.LOAD, "pop_next"): "c2l",
    (Module.COMPUTE, "pop_prev"): "l2c",
    (Module.COMPUTE, "pop_next"): "s2c",
    (Module.STORE, "pop_prev"): "c2s",
}
_PUSH_QUEUE = {
    (Module.LOAD, "push_next"): "l2c",
    (Module.COMPUTE, "push_prev"): "c2l",
    (Module.COMPUTE, "push_next"): "c2s",
    (Module.STORE, "push_prev"): "s2c",
}


def build_vta_net(
    config: VtaConfig | None = None, *, model_port: bool = True
) -> PetriNet:
    """Construct the VTA performance-IR net.

    ``model_port=False`` drops the shared-memory-port mutex (every DMA
    stream then proceeds as if it had the port to itself) — an ablation
    knob used to quantify how much accuracy that structural detail buys
    (see ``benchmarks/bench_ablation_petri.py``).

    Structure: one command-queue place and one serialization ("free")
    place per module, the four dependency-token queues, a ``dram_port``
    mutex shared by every DMA transition (load, store, and compute-side
    UOP/ACC loads all contend for one memory port, as in the hardware),
    and one transition per (module, dependency-flag combination, DMA or
    not), guarded on the instruction at the head of the command queue
    and keyed on the dispatch key its guard compares.
    """
    config = config or VtaConfig()
    net = PetriNet("vta")
    for m in Module:
        net.add_place(f"cmd_{m.value}")
        # The single resident token makes the place a mutex; capacity is
        # left unbounded because a transition that both consumes and
        # reproduces the token could never reserve a slot in a full
        # capacity-1 place (reserve-at-start semantics).
        net.add_place(f"free_{m.value}")
    net.add_place("dram_port")
    for q in ("l2c", "c2l", "c2s", "s2c"):
        net.add_place(q)
    net.add_place("out")

    def is_dma(insn: Instruction) -> bool:
        return insn.op in (Opcode.LOAD, Opcode.STORE)

    def full_delay(consumed):
        return service_cycles(_head_insn(consumed), config)

    def setup_delay(consumed):
        insn = _head_insn(consumed)
        return config.store_setup if insn.op is Opcode.STORE else config.load_setup

    def stream_delay(consumed):
        return stream_estimate(_head_insn(consumed).size, config)

    # All DMA setup stages feed one shared request place, so the port
    # is granted in request order (FCFS) across modules, matching the
    # memory controller's arbitration.
    net.add_place("port_req")

    for module in Module:
        pop_flags = [f for f in _MODULE_FLAGS[module] if f.startswith("pop")]
        push_flags = [f for f in _MODULE_FLAGS[module] if f.startswith("push")]

        cmd_place = f"cmd_{module.value}"

        # --- DMA, stage 1: descriptor setup (module held, port free).
        # Guards compare the precomputed dispatch keys in the token
        # payload (see dispatch_payload), and each transition declares
        # the key value its guard accepts, so the engine checks only the
        # one transition a head token selects: this is the hot path of
        # the whole IR.
        for combo in itertools.product((False, True), repeat=len(pop_flags)):
            setting = dict(zip(pop_flags, combo, strict=True))
            inputs = [cmd_place, f"free_{module.value}"]
            inputs += [_POP_QUEUE[(module, f)] for f, on in setting.items() if on]
            want = (True, _full_pops(setting))

            def setup_guard(consumed, cmd_place=cmd_place, want=want):
                return consumed[cmd_place][0].payload["cmd_key"] == want

            tag = "".join("1" if on else "0" for on in combo)
            net.add_transition(
                f"{module.value}_dma_setup_{tag}",
                inputs,
                ["port_req"],
                delay=setup_delay,
                guard=setup_guard,
                servers=1,
                key=(cmd_place, "cmd_key", want),
            )

        # --- DMA, stage 2: the stream itself (module and port held).
        for combo in itertools.product((False, True), repeat=len(push_flags)):
            setting = dict(zip(push_flags, combo, strict=True))
            outputs = [f"free_{module.value}", "out"]
            if model_port:
                outputs.insert(1, "dram_port")
            outputs += [_PUSH_QUEUE[(module, f)] for f, on in setting.items() if on]
            want = (module.value, _full_pushes(setting))

            def stream_guard(consumed, want=want):
                return consumed["port_req"][0].payload["port_key"] == want

            tag = "".join("1" if on else "0" for on in combo)
            net.add_transition(
                f"{module.value}_dma_stream_{tag}",
                ["port_req", "dram_port"] if model_port else ["port_req"],
                outputs,
                delay=stream_delay,
                guard=stream_guard,
                servers=1,
                key=("port_req", "port_key", want),
            )

        # --- Non-DMA instructions (compute only: GEMM/ALU/FINISH).
        if module is Module.COMPUTE:
            flags = _MODULE_FLAGS[module]
            for combo in itertools.product((False, True), repeat=len(flags)):
                setting = dict(zip(flags, combo, strict=True))
                inputs = [cmd_place, f"free_{module.value}"]
                outputs = [f"free_{module.value}", "out"]
                for flag, on in setting.items():
                    if not on:
                        continue
                    if flag.startswith("pop"):
                        inputs.append(_POP_QUEUE[(module, flag)])
                    else:
                        outputs.append(_PUSH_QUEUE[(module, flag)])
                want = (False, _full_pops(setting), _full_pushes(setting))

                def guard(consumed, want=want):
                    return consumed["cmd_compute"][0].payload["cmd_key"] == want

                tag = "".join("1" if on else "0" for on in combo)
                net.add_transition(
                    f"compute_{tag}",
                    inputs,
                    outputs,
                    delay=full_delay,
                    guard=guard,
                    servers=1,
                    key=(cmd_place, "cmd_key", want),
                )
    return net


def _full_pops(setting: dict) -> tuple[bool, bool]:
    return (setting.get("pop_prev", False), setting.get("pop_next", False))


def _full_pushes(setting: dict) -> tuple[bool, bool]:
    return (setting.get("push_prev", False), setting.get("push_next", False))


#: ``(cmd_key, port_key)`` per instruction flag combination ``(module,
#: dma, pop_prev, pop_next, push_prev, push_next)``, built once so that
#: every payload with the same flags shares the same two key tuples.
_DISPATCH_KEYS = {
    (module, dma, *pops, *pushes): (
        (True, pops) if dma else (False, pops, pushes),
        (module, pushes),
    )
    for module in (m.value for m in Module)
    for dma in (False, True)
    for pops in itertools.product((False, True), repeat=2)
    for pushes in itertools.product((False, True), repeat=2)
}


def dispatch_payload(insn: Instruction, idx: int, copy: int = 0) -> dict:
    """The instruction plus the two dispatch keys the net's guards and
    transition keys read: ``cmd_key`` selects the command-queue
    transition, ``(True, pops)`` for a DMA instruction and
    ``(False, pops, pushes)`` otherwise; ``port_key`` selects the DMA
    stream transition, ``(module, pushes)``."""
    cmd_key, port_key = _DISPATCH_KEYS[
        insn.module.value,
        insn.op in (Opcode.LOAD, Opcode.STORE),
        insn.pop_prev,
        insn.pop_next,
        insn.push_prev,
        insn.push_next,
    ]
    return {"insn": insn, "idx": idx, "copy": copy, "cmd_key": cmd_key, "port_key": port_key}


def _head_insn(consumed) -> Instruction:
    for place, tokens in consumed.items():
        if (place.startswith("cmd_") or place == "port_req") and tokens:
            return tokens[0].payload["insn"]
    raise ValueError("no command token consumed")


def tokenize_program(
    program: Program, *, dispatch: float = 1.0, copy: int = 0, offset: float = 0.0
) -> list[Injection]:
    """One token per instruction into its module's command queue, at the
    fetch module's one-per-cycle dispatch times, plus the three 'module
    free' tokens that serialize each engine (only for copy 0)."""
    injections = []
    if copy == 0:
        for m in Module:
            injections.append(Injection(f"free_{m.value}", payload={"insn": None}, at=0.0))
        injections.append(Injection("dram_port", payload={"insn": None}, at=0.0))
    base = offset
    for idx, insn in enumerate(program.instructions):
        injections.append(
            Injection(
                f"cmd_{insn.module.value}",
                payload=dispatch_payload(insn, idx, copy),
                at=base + (idx + 1) * dispatch,
            )
        )
    return injections


class VtaPetriInterface(PetriNetInterface[Program]):
    """Petri-net interface with VTA-specific streaming throughput."""

    def __init__(self, config: VtaConfig | None = None):
        self._config = config or VtaConfig()
        super().__init__(
            "vta",
            net_factory=lambda: build_vta_net(self._config),
            tokenize=tokenize_program,
            sink="out",
            expected_completions=len,  # one completion per instruction
        )

    #: Matches VtaModel.THROUGHPUT_WARMUP: same measurement protocol.
    THROUGHPUT_WARMUP = 2

    def throughput(self, item: Program, repeat: int = 6) -> float:
        """Back-to-back program streaming, mirroring the model's
        measure_throughput: dispatch the program ``repeat`` times and
        read the steady-state period off per-copy completion times,
        after the same warm-up prefix the model excludes."""
        if repeat < 1:
            raise ValueError("repeat must be >= 1")
        if repeat <= self.THROUGHPUT_WARMUP + 1:
            return 1.0 / self.latency(item)
        n = len(item.instructions)
        combined = item.streamed(repeat)
        injections = tokenize_program(combined)
        for inj in injections:
            if inj.payload.get("insn") is not None:
                inj.payload["copy"] = inj.payload["idx"] // n
        result = self._run(injections, n * repeat, self.tracer)
        ends = [0.0] * repeat
        for completion in result.sink("out"):
            payload = completion.token.payload
            if payload and payload.get("insn") is not None:
                c = payload["copy"]
                ends[c] = max(ends[c], completion.time)
        skip = self.THROUGHPUT_WARMUP
        return (repeat - 1 - skip) / (ends[-1] - ends[skip])


def petri_interface(config: VtaConfig | None = None) -> VtaPetriInterface:
    return VtaPetriInterface(config)


# ----------------------------------------------------------------------
# Bonus: roofline-style program interface (third profiler tier)
# ----------------------------------------------------------------------


def latency_vta_roofline(program: Program, config: VtaConfig | None = None) -> float:
    """Latency as the slowest of three saturated resources: the compute
    core, the DMA port, and instruction dispatch.  Much cruder than the
    net — no dependency stalls — but essentially free to evaluate."""
    config = config or VtaConfig()
    per_module = {m: 0.0 for m in Module}
    for insn in program.instructions:
        per_module[insn.module] += service_cycles(insn, config)
    dispatch = len(program) * config.dispatch_cycles
    return max(max(per_module.values()), dispatch) + config.gemm_setup


PROGRAM = ProgramInterface("vta", latency_fn=latency_vta_roofline)

ENGLISH = EnglishInterface(
    accelerator="vta",
    statements=(
        PerformanceStatement(
            metric="Latency",
            relation=Relation.INCREASES_WITH,
            quantity="the schedule's total micro-op count",
            accessor=lambda p: float(p.total_macs),
        ),
        PerformanceStatement(
            metric="Throughput",
            relation=Relation.DECREASES_WITH,
            quantity="DRAM bytes moved per output tile",
            accessor=lambda p: float(p.dram_bytes),
        ),
    ),
)


#: Injection points of the programmatic net (it carries no ``inject``
#: clauses): command queues take the workload, the free/port places
#: take the resident bookkeeping tokens.
VTA_INJECTED = {
    **{f"cmd_{m.value}": None for m in Module},
    **{f"free_{m.value}": None for m in Module},
    "dram_port": None,
}


def perflint_bundle():
    """Everything the perf-lint toolchain audits for this accelerator
    (``python -m repro.tools.perflint vta``)."""
    from repro.lint import InterfaceBundle

    from .workload import GemmWorkload, legal_tilings, tiled_gemm_program

    # A sweep where only the problem size varies, so the cross-checks
    # see the named property move without confounders.
    samples = []
    for dim in (2, 4, 6, 8, 12):
        work = GemmWorkload(m=dim, k=dim, n=dim)
        samples.append(tiled_gemm_program(work, legal_tilings(work)[0]))
    return InterfaceBundle(
        accelerator="vta",
        english=ENGLISH,
        program=PROGRAM,
        program_fns={"latency": latency_vta_roofline},
        workload_type=Program,
        net_factory=build_vta_net,
        pnet_file="src/repro/accel/vta/interfaces.py#build_vta_net",
        injected=VTA_INJECTED,
        samples=samples,
        petri_latency_fn=petri_interface().latency,
        # The verifier cannot bound this net symbolically: every delay
        # is a Python callable decoding the instruction stream, so the
        # contract is honestly *opaque* (VR001 says so) and consumers
        # price VTA by simulation.  Declaring the compute queue as the
        # entry keeps the traversal meaningful for the opacity report.
        entry=f"cmd_{Module.COMPUTE.value}",
        sink="out",
    )
