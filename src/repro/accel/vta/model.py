"""Ground-truth model of the VTA deep-learning accelerator.

Four engines run concurrently as communicating processes
(:mod:`repro.hw.proc`):

* **fetch** dispatches one instruction per cycle into per-module
  command queues (depth 512);
* **load** DMAs input/weight tiles from DRAM;
* **compute** executes GEMM and ALU instructions (one micro-op per
  cycle in the GEMM core) and also performs UOP/ACC loads;
* **store** DMAs results back to DRAM.

They synchronize only through the four dependency-token queues, exactly
as in the VTA microarchitecture, which reproduces the paper's listed
complexities: "internal queuing, parallelism, and deep pipelines".

All DMA goes through one shared :class:`repro.hw.Dram` streaming port,
so load/store/microcode traffic *contends* — the micro-effect the
Petri-net interface summarizes with a fitted average factor, and the
main source of its ~1-2% error (DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accel.base import AcceleratorModel
from repro.hw import Dram, DramConfig, EventSim
from repro.hw.kernel import SimError
from repro.hw.proc import Delay, Get, ProcQueue, Put, spawn

from .isa import DEP_QUEUES, DEP_WIRING, Buffer, Instruction, Module, Opcode, Program, token_balance


@dataclass(frozen=True)
class VtaConfig:
    """Microarchitectural parameters (defaults follow the de10-nano-ish
    VTA configuration, scaled to byte units)."""

    dispatch_cycles: float = 1.0
    cmd_queue_depth: int = 512
    gemm_setup: int = 16        # pipeline fill of the GEMM core
    alu_setup: int = 8
    vector_lanes: int = 16
    load_setup: int = 12        # DMA descriptor + SRAM handshake
    store_setup: int = 12
    finish_cycles: int = 1
    inp_buffer: int = 32 << 10
    wgt_buffer: int = 256 << 10
    acc_buffer: int = 128 << 10
    uop_buffer: int = 8 << 10
    dram: DramConfig = field(default_factory=DramConfig)

    def buffer_capacity(self, buffer: Buffer) -> int:
        return {
            Buffer.INP: self.inp_buffer,
            Buffer.WGT: self.wgt_buffer,
            Buffer.ACC: self.acc_buffer,
            Buffer.UOP: self.uop_buffer,
        }[buffer]


@dataclass
class VtaRunResult:
    """Timing of one simulated run."""

    cycles: float
    insn_end: list[float]          # completion time per instruction (program order)
    module_busy: dict[str, float]  # busy time per module
    dram_accesses: int

    def copy_ends(self, copies: int) -> list[float]:
        """For a run of N concatenated copies, the end time of each."""
        if copies < 1 or len(self.insn_end) % copies:
            raise ValueError("instruction count must divide into copies")
        per = len(self.insn_end) // copies
        return [max(self.insn_end[k * per : (k + 1) * per]) for k in range(copies)]


class VtaModel(AcceleratorModel[Program]):
    """Cycle-level VTA: the reproduction's ground truth for Table 1/E5-E6."""

    name = "vta"

    def __init__(self, config: VtaConfig | None = None):
        self.config = config or VtaConfig()

    # ------------------------------------------------------------------
    # Instruction service times (excluding DMA, which is live DRAM)
    # ------------------------------------------------------------------
    def gemm_cycles(self, insn: Instruction) -> float:
        return self.config.gemm_setup + insn.gemm_macs

    def alu_cycles(self, insn: Instruction) -> float:
        lanes = self.config.vector_lanes
        per_iter = -(-insn.vector_len // lanes) * (1 if insn.use_imm else 2)
        return self.config.alu_setup + insn.iterations * per_iter

    # ------------------------------------------------------------------
    def run(self, program: Program) -> VtaRunResult:
        """Simulate one program from a cold start; validates first."""
        balance = token_balance(program)
        negative = {q: b for q, b in balance.items() if b < 0}
        if negative:
            raise SimError(
                f"program {program.name!r} pops tokens never pushed: {negative}"
            )
        cfg = self.config
        sim = EventSim()
        dram = Dram(cfg.dram)

        cmd: dict[Module, ProcQueue] = {
            m: ProcQueue(sim, cfg.cmd_queue_depth, f"cmd_{m.value}") for m in Module
        }
        dep = {queue: ProcQueue(sim, None, queue) for queue in DEP_QUEUES}
        insn_end = [0.0] * len(program)
        busy = {m.value: 0.0 for m in Module}

        def fetch() -> ProcGen:  # noqa: F821 - doc type only
            for idx, insn in enumerate(program.instructions):
                yield Delay(cfg.dispatch_cycles)
                yield Put(cmd[insn.module], (idx, insn))

        def module_proc(module: Module):
            pops, pushes = DEP_WIRING[module]
            count = len(program.by_module(module))
            for _ in range(count):
                idx, insn = yield Get(cmd[module])
                for flag, queue in pops:
                    if getattr(insn, flag):
                        yield Get(dep[queue])
                start = sim.now
                if insn.op in (Opcode.LOAD, Opcode.STORE):
                    setup = (
                        cfg.store_setup if insn.op is Opcode.STORE else cfg.load_setup
                    )
                    yield Delay(setup)
                    end = dram.stream(insn.addr, sim.now, insn.size)
                    yield Delay(end - sim.now)
                elif insn.op is Opcode.GEMM:
                    yield Delay(self.gemm_cycles(insn))
                elif insn.op is Opcode.ALU:
                    yield Delay(self.alu_cycles(insn))
                else:  # FINISH
                    yield Delay(cfg.finish_cycles)
                busy[module.value] += sim.now - start
                insn_end[idx] = sim.now
                for flag, queue in pushes:
                    if getattr(insn, flag):
                        yield Put(dep[queue], 1)

        statuses = [spawn(sim, fetch(), name="fetch")]
        for m in Module:
            statuses.append(spawn(sim, module_proc(m), name=m.value))
        sim.run()
        stuck = [s["name"] for s in statuses if not s["done"]]
        if stuck:
            raise SimError(
                f"program {program.name!r} deadlocked; stuck modules: {stuck}"
            )
        return VtaRunResult(
            cycles=max(insn_end),
            insn_end=insn_end,
            module_busy=busy,
            dram_accesses=dram.accesses,
        )

    # ------------------------------------------------------------------
    # AcceleratorModel contract
    # ------------------------------------------------------------------
    def measure_latency(self, item: Program) -> float:
        return self.run(item).cycles

    #: Copies excluded from the throughput measurement while the
    #: pipeline warms up (buffers fill, DRAM rows open).
    THROUGHPUT_WARMUP = 2

    def measure_throughput(self, item: Program, repeat: int = 6) -> float:
        """Programs stream back-to-back; modules overlap across copies.
        The steady-state period is measured after a warm-up prefix."""
        if repeat < 1:
            raise ValueError("repeat must be >= 1")
        if repeat <= self.THROUGHPUT_WARMUP + 1:
            return 1.0 / self.measure_latency(item)
        combined = item.streamed(repeat)
        result = self.run(combined)
        ends = result.copy_ends(repeat)
        skip = self.THROUGHPUT_WARMUP
        return (repeat - 1 - skip) / (ends[-1] - ends[skip])
