"""VTA program generation: tiled GEMM schedules and random sequences.

The paper profiles VTA with "1500 random code sequences" produced by
TVM's auto-tuner.  Auto-tuner candidates are not instruction soup —
they are *valid tiled GEMM schedules* with varying tile shapes — so our
random workload draws random matmul problems and random legal tilings
and lowers them with :func:`tiled_gemm_program`, the same lowering the
auto-tuner in :mod:`repro.autotune` uses.

Lowering follows VTA's canonical double-buffered pipeline: input/weight
loads for tile *t+2* overlap the GEMM of tile *t* (credit tokens via
c2l), and accumulator tiles are reclaimed from the store module via
s2c before reuse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .isa import AluOp, Buffer, Instruction, Opcode, Program

#: Native GEMM block: 16x16x16 int8 MACs per micro-op row.
BLOCK = 16
INP_TILE_BYTES = BLOCK * BLOCK      # 1 B elements
WGT_TILE_BYTES = BLOCK * BLOCK      # 1 B elements
OUT_TILE_BYTES = BLOCK * BLOCK      # 1 B results
ACC_TILE_BYTES = BLOCK * BLOCK * 4  # 32-bit accumulators

# Synthetic DRAM regions (keeps load/store streams in distinct rows).
INP_REGION = 0x0000_0000
WGT_REGION = 0x1000_0000
OUT_REGION = 0x2000_0000
UOP_REGION = 0x3000_0000


@dataclass(frozen=True)
class GemmWorkload:
    """A matmul problem in units of native 16-element blocks."""

    m: int  # output rows / BLOCK
    k: int  # reduction / BLOCK
    n: int  # output cols / BLOCK

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n) < 1:
            raise ValueError("workload dims must be >= 1 block")

    @property
    def macs(self) -> int:
        """Total native-block micro-ops (BLOCK rows per block matmul)."""
        return self.m * self.k * self.n * BLOCK


@dataclass(frozen=True)
class Tiling:
    """On-chip tile shape, in native blocks."""

    tm: int
    tk: int
    tn: int

    def __post_init__(self) -> None:
        if min(self.tm, self.tk, self.tn) < 1:
            raise ValueError("tile dims must be >= 1")

    def fits(self, *, inp_limit: int = 64, wgt_limit: int = 512, acc_limit: int = 64) -> bool:
        """Double-buffered SRAM feasibility (limits in native tiles)."""
        return (
            self.tm * self.tk <= inp_limit
            and self.tk * self.tn <= wgt_limit
            and self.tm * self.tn <= acc_limit
        )


def legal_tilings(work: GemmWorkload, **limits) -> list[Tiling]:
    """All SRAM-feasible tilings whose dims divide the workload dims."""

    def divisors(x: int) -> list[int]:
        return [d for d in range(1, x + 1) if x % d == 0]

    out = []
    for tm in divisors(work.m):
        for tk in divisors(work.k):
            for tn in divisors(work.n):
                t = Tiling(tm, tk, tn)
                if t.fits(**limits):
                    out.append(t)
    return out


def tiled_gemm_program(
    work: GemmWorkload,
    tiling: Tiling,
    *,
    alu_relu: bool = True,
    uop_reload_every: int = 0,
    name: str | None = None,
    warm_start: bool = False,
) -> Program:
    """Lower a (workload, tiling) pair to VTA instructions.

    Args:
        alu_relu: Append a vector ReLU (max) after each output tile's
            accumulation, as inference schedules do.
        uop_reload_every: Reload the microcode buffer every N output
            tiles (0 = load once up front); exercises compute-side DMA.
        warm_start: Generate the steady-state flag pattern — every
            double-buffering pop is armed because a previous iteration
            already primed the buffers.  A cold-start program records
            the pops this arms in ``Program.warm_pops``, and
            ``Program.streamed`` arms them in every copy after the
            first, so streaming never lowers the schedule twice.
    """
    if work.m % tiling.tm or work.k % tiling.tk or work.n % tiling.tn:
        raise ValueError("tiling must divide the workload dimensions")
    mo, ko, no = work.m // tiling.tm, work.k // tiling.tk, work.n // tiling.tn
    tm, tk, tn = tiling.tm, tiling.tk, tiling.tn

    insns: list[Instruction] = [
        Instruction(
            Opcode.LOAD, buffer=Buffer.UOP, size=tm * tn * 8, addr=UOP_REGION
        )
    ]
    warm_pops: list[int] = []
    load_index = 0
    out_index = 0
    inp_addr = INP_REGION
    wgt_addr = WGT_REGION
    out_addr = OUT_REGION

    for i in range(mo):
        for j in range(no):
            if uop_reload_every and out_index and out_index % uop_reload_every == 0:
                insns.append(
                    Instruction(
                        Opcode.LOAD, buffer=Buffer.UOP, size=tm * tn * 8,
                        addr=UOP_REGION + out_index * 64,
                    )
                )
            for kk in range(ko):
                # Double buffering: from the third tile on, wait for the
                # GEMM two tiles back to free the input/weight buffers.
                armed = warm_start or load_index >= 2
                if not armed:
                    warm_pops.append(len(insns))
                insns.append(
                    Instruction(
                        Opcode.LOAD,
                        buffer=Buffer.INP,
                        size=tm * tk * INP_TILE_BYTES,
                        addr=inp_addr,
                        pop_next=armed,
                    )
                )
                inp_addr += tm * tk * INP_TILE_BYTES
                insns.append(
                    Instruction(
                        Opcode.LOAD,
                        buffer=Buffer.WGT,
                        size=tk * tn * WGT_TILE_BYTES,
                        addr=wgt_addr,
                        push_next=True,
                    )
                )
                wgt_addr += tk * tn * WGT_TILE_BYTES
                # Reclaim the acc tile from the store module before
                # starting a new output tile (2-deep).
                reclaim = kk == 0 and (warm_start or out_index >= 2)
                if kk == 0 and not reclaim:
                    warm_pops.append(len(insns))
                insns.append(
                    Instruction(
                        Opcode.GEMM,
                        uop_count=tm * tn,
                        lp0=tk,
                        lp1=BLOCK,
                        pop_prev=True,
                        push_prev=True,
                        pop_next=reclaim,
                        push_next=(kk == ko - 1 and not alu_relu),
                    )
                )
                load_index += 1
            if alu_relu:
                insns.append(
                    Instruction(
                        Opcode.ALU,
                        alu_op=AluOp.MAX,
                        vector_len=tm * tn * BLOCK,
                        iterations=BLOCK,
                        use_imm=True,
                        push_next=True,
                    )
                )
            insns.append(
                Instruction(
                    Opcode.STORE,
                    size=tm * tn * OUT_TILE_BYTES,
                    addr=out_addr,
                    pop_prev=True,
                    push_prev=True,
                )
            )
            out_addr += tm * tn * OUT_TILE_BYTES
            out_index += 1

    # FINISH is a plain end marker: it must not steal an s2c credit
    # (with a single output tile the acc-reclaim pop of the next
    # streamed iteration would starve).  Program completion is defined
    # as all instructions done, so nothing needs to wait on it.
    insns.append(Instruction(Opcode.FINISH))
    label = name or f"gemm_{work.m}x{work.k}x{work.n}_t{tm}.{tk}.{tn}"
    return Program(tuple(insns), name=label, warm_pops=tuple(warm_pops))


def random_program(
    rng: np.random.Generator,
    *,
    max_dim: int = 16,
    name: str | None = None,
) -> Program:
    """One random auto-tuner-style candidate: random problem, random
    legal tiling, random post-ops."""
    work = GemmWorkload(
        m=int(rng.integers(1, max_dim + 1)),
        k=int(rng.integers(1, max_dim + 1)),
        n=int(rng.integers(1, max_dim + 1)),
    )
    tilings = legal_tilings(work)
    tiling = tilings[int(rng.integers(0, len(tilings)))]
    return tiled_gemm_program(
        work,
        tiling,
        alu_relu=bool(rng.integers(0, 2)),
        uop_reload_every=int(rng.choice([0, 0, 2, 4])),
        name=name,
    )


def random_programs(seed: int, count: int, **kwargs) -> list[Program]:
    """The paper's "N random code sequences" workload, reproducibly."""
    rng = np.random.default_rng(seed)
    return [random_program(rng, name=f"seq{k}", **kwargs) for k in range(count)]
