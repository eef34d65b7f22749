"""A cycle-ticking VTA simulator: the stand-in for Verilator.

The paper's TVM case study (§3) compares profiling with the Petri-net
interface against *cycle-accurate simulation*, whose cost grows with
the number of simulated cycles.  Our event-driven :class:`VtaModel`
jumps between events, so its wall-clock cost grows with the instruction
count instead — great for ground truth, wrong cost model for this
comparison.  This module therefore implements the same
microarchitecture as a synchronous simulator that evaluates every
module every cycle, exactly like RTL simulation does.

Semantics match :class:`VtaModel` (the equivalence test in
``tests/accel/test_vta_ticksim.py`` holds them together); wall-clock
cost is O(cycles), which is the property the E6 benchmark needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.hw import Dram
from repro.hw.kernel import SimError

from .isa import DEP_QUEUES, DEP_WIRING, Instruction, Module, Opcode, Program, token_balance
from .model import VtaConfig, VtaRunResult


class _Phase(Enum):
    IDLE = "idle"
    SETUP = "setup"   # DMA descriptor setup in progress
    STREAM = "stream"  # DMA transfer in progress
    EXEC = "exec"      # GEMM/ALU/FINISH in progress


@dataclass
class _ModuleState:
    module: Module
    phase: _Phase = _Phase.IDLE
    busy_until: int = 0
    current: tuple[int, Instruction] | None = None


class TickVtaSimulator:
    """Synchronous (per-cycle) VTA simulation."""

    def __init__(self, config: VtaConfig | None = None):
        self.config = config or VtaConfig()

    def run(self, program: Program, *, max_cycles: int = 200_000_000) -> VtaRunResult:
        negative = {q: b for q, b in token_balance(program).items() if b < 0}
        if negative:
            raise SimError(
                f"program {program.name!r} pops tokens never pushed: {negative}"
            )
        cfg = self.config
        dram = Dram(cfg.dram)
        event_model = None  # lazily built: shares service-time formulas

        from collections import deque

        # Command queues hold (index, instruction); dependency-token
        # queues are plain counters (tokens carry no data).
        cmd: dict[Module, deque] = {m: deque() for m in Module}
        deps = dict.fromkeys(DEP_QUEUES, 0)

        states = {m: _ModuleState(m) for m in Module}
        insn_end = [0] * len(program)
        busy = {m.value: 0.0 for m in Module}

        fetch_idx = 0
        fetch_ready = 1  # fetch spawns at 0, first dispatch after Delay(1)
        n = len(program)

        cycle = 0
        done = 0
        while done < n:
            if cycle > max_cycles:
                raise SimError(f"tick simulation exceeded {max_cycles} cycles")
            # Intra-cycle fixpoint: completions, pushes, pops, dispatch
            # all cascade within one cycle, matching the event model's
            # zero-delay handoffs.
            progress = True
            while progress:
                progress = False

                # Fetch dispatch: one instruction per cycle when the
                # target command queue has space.
                if (
                    fetch_idx < n
                    and cycle >= fetch_ready
                    and len(cmd[program.instructions[fetch_idx].module])
                    < cfg.cmd_queue_depth
                ):
                    insn = program.instructions[fetch_idx]
                    cmd[insn.module].append((fetch_idx, insn))
                    fetch_idx += 1
                    fetch_ready = cycle + 1
                    progress = True

                for m in Module:
                    st = states[m]
                    pops, pushes = DEP_WIRING[m]

                    # Phase transitions at the completion instant.
                    if st.phase is _Phase.SETUP and st.busy_until == cycle:
                        _, insn = st.current
                        end = dram.stream(insn.addr, cycle, insn.size)
                        st.phase = _Phase.STREAM
                        st.busy_until = int(end)
                        busy[m.value] += st.busy_until - cycle
                        progress = True
                    if (
                        st.phase in (_Phase.STREAM, _Phase.EXEC)
                        and st.busy_until == cycle
                    ):
                        idx, insn = st.current
                        insn_end[idx] = cycle
                        for flag, qname in pushes:
                            if getattr(insn, flag):
                                deps[qname] += 1
                        st.phase = _Phase.IDLE
                        st.current = None
                        done += 1
                        progress = True

                    # Start the next instruction.
                    if st.phase is _Phase.IDLE and cmd[m]:
                        idx, insn = cmd[m][0]
                        needed = [
                            qname for flag, qname in pops if getattr(insn, flag)
                        ]
                        if all(deps[q] >= 1 for q in needed):
                            cmd[m].popleft()
                            for q in needed:
                                deps[q] -= 1
                            st.current = (idx, insn)
                            start = cycle
                            if insn.op in (Opcode.LOAD, Opcode.STORE):
                                setup = (
                                    cfg.store_setup
                                    if insn.op is Opcode.STORE
                                    else cfg.load_setup
                                )
                                st.phase = _Phase.SETUP
                                st.busy_until = cycle + setup
                            else:
                                if event_model is None:
                                    from .model import VtaModel

                                    event_model = VtaModel(cfg)
                                dur = (
                                    event_model.gemm_cycles(insn)
                                    if insn.op is Opcode.GEMM
                                    else event_model.alu_cycles(insn)
                                    if insn.op is Opcode.ALU
                                    else cfg.finish_cycles
                                )
                                st.phase = _Phase.EXEC
                                st.busy_until = cycle + int(dur)
                            busy[m.value] += st.busy_until - start
                            progress = True
            cycle += 1

        # busy accounting above misses the stream extension; fold it in.
        return VtaRunResult(
            cycles=float(max(insn_end)),
            insn_end=[float(x) for x in insn_end],
            module_busy=busy,
            dram_accesses=dram.accesses,
        )

    def measure_latency(self, program: Program) -> float:
        return self.run(program).cycles
