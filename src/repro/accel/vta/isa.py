"""The VTA instruction set (as much of it as performance depends on).

VTA (the Versatile Tensor Accelerator behind TVM) executes four
instruction classes on four concurrently-running modules:

* ``LOAD``  — DMA a tensor tile from DRAM into an on-chip buffer.
  Input/weight loads run on the *load* module; microcode (UOP) and
  accumulator loads run on the *compute* module, sharing its time.
* ``GEMM``  — the matrix-multiply core: a microcoded loop nest
  executing one micro-op per cycle.
* ``ALU``   — vector ALU over the accumulator (add/max/min/shift).
* ``STORE`` — DMA an output tile from the accumulator to DRAM, on the
  *store* module.

Modules synchronize through four single-bit dependency-token queues
(load→compute, compute→load, compute→store, store→compute).  Each
instruction carries four flags saying which tokens it pops before
executing and pushes after: exactly VTA's microarchitecture, and the
thing that makes its performance non-trivial to predict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace


class Opcode(enum.Enum):
    LOAD = "load"
    GEMM = "gemm"
    ALU = "alu"
    STORE = "store"
    FINISH = "finish"


class Buffer(enum.Enum):
    """On-chip SRAM targets of LOAD."""

    INP = "inp"
    WGT = "wgt"
    ACC = "acc"
    UOP = "uop"


class AluOp(enum.Enum):
    ADD = "add"
    MAX = "max"
    MIN = "min"
    SHR = "shr"


class Module(enum.Enum):
    LOAD = "load"
    COMPUTE = "compute"
    STORE = "store"

    # Members are singletons compared by identity, so they hash by
    # identity too: in C, where ``Enum.__hash__`` runs Python code.  The
    # tokenizer and the model key dicts on a module once per instruction.
    __hash__ = object.__hash__


#: The four dependency-token flags of an instruction, in field order.
DEP_FLAGS = ("pop_prev", "pop_next", "push_prev", "push_next")
#: VTA's dependency wiring, the one statement of it: per module, the
#: ``(flag, queue)`` pairs it pops before executing and those it pushes
#: after, in the order the hardware takes them.  Compute sits in the
#: middle: its ``prev`` queues face load, its ``next`` queues store.  A
#: flag a module does not list names no queue (the assembler rejects it).
DEP_WIRING = {
    Module.LOAD: ((("pop_next", "c2l"),), (("push_next", "l2c"),)),
    Module.COMPUTE: (
        (("pop_prev", "l2c"), ("pop_next", "s2c")),
        (("push_prev", "c2l"), ("push_next", "c2s")),
    ),
    Module.STORE: ((("pop_prev", "c2s"),), (("push_prev", "s2c"),)),
}
#: The four dependency queues, each named once by its pushing module:
#: load→compute, compute→load, compute→store, store→compute.
DEP_QUEUES = tuple(queue for _, pushes in DEP_WIRING.values() for _, queue in pushes)


@dataclass(frozen=True, init=False)
class Instruction:
    """One VTA instruction.

    Only the fields that drive performance are modeled; addresses are
    synthetic tile coordinates resolved by the model's DMA engine.

    ``module``, the engine that executes the instruction (VTA's dispatch
    rule: input/weight loads run on the load module, stores on the
    store module, everything else on compute), is derived once when the
    instruction is built.  It is an attribute, not a field, so equality,
    hashing and cache keys see only the fields.

    The constructor validates its arguments and fills the instance in
    one step: a frozen dataclass's generated ``__init__`` pays one
    ``object.__setattr__`` per field, and a tuned program builds tens of
    thousands of instructions.  Its parameters are the fields, in field
    order, with the fields' defaults.
    """

    op: Opcode
    # Dependency-token flags (see module docstring).
    pop_prev: bool = False
    pop_next: bool = False
    push_prev: bool = False
    push_next: bool = False
    # LOAD / STORE operands.
    buffer: Buffer | None = None
    size: int = 0          # bytes moved
    addr: int = 0          # DRAM byte address
    # GEMM operands: a microcoded loop nest uop_count x lp0 x lp1.
    uop_count: int = 0
    lp0: int = 1
    lp1: int = 1
    # ALU operands.
    alu_op: AluOp | None = None
    vector_len: int = 0
    iterations: int = 1
    use_imm: bool = False

    def __init__(
        self,
        op: Opcode,
        pop_prev: bool = False,
        pop_next: bool = False,
        push_prev: bool = False,
        push_next: bool = False,
        buffer: Buffer | None = None,
        size: int = 0,
        addr: int = 0,
        uop_count: int = 0,
        lp0: int = 1,
        lp1: int = 1,
        alu_op: AluOp | None = None,
        vector_len: int = 0,
        iterations: int = 1,
        use_imm: bool = False,
    ) -> None:
        if op is Opcode.LOAD:
            if buffer is None or size <= 0:
                raise ValueError("LOAD needs a buffer and a positive size")
            module = Module.LOAD if buffer in (Buffer.INP, Buffer.WGT) else Module.COMPUTE
        elif op is Opcode.STORE:
            if size <= 0:
                raise ValueError("STORE needs a positive size")
            module = Module.STORE
        else:
            if op is Opcode.GEMM:
                if uop_count <= 0 or lp0 <= 0 or lp1 <= 0:
                    raise ValueError("GEMM needs positive uop_count/lp0/lp1")
            elif op is Opcode.ALU and (alu_op is None or vector_len <= 0 or iterations <= 0):
                raise ValueError("ALU needs an op, vector_len, and iterations")
            module = Module.COMPUTE
        # The whole instance dict in one step, past the frozen guard.
        object.__setattr__(self, "__dict__", {
            "op": op, "pop_prev": pop_prev, "pop_next": pop_next,
            "push_prev": push_prev, "push_next": push_next,
            "buffer": buffer, "size": size, "addr": addr,
            "uop_count": uop_count, "lp0": lp0, "lp1": lp1,
            "alu_op": alu_op, "vector_len": vector_len,
            "iterations": iterations, "use_imm": use_imm,
            "module": module,
        })

    @property
    def gemm_macs(self) -> int:
        """Micro-op iterations a GEMM performs (1/cycle in the core)."""
        if self.op is not Opcode.GEMM:
            return 0
        return self.uop_count * self.lp0 * self.lp1

    def describe(self) -> str:
        flags = "".join(
            ch if on else "-"
            for ch, on in zip(
                "PNpn", (self.pop_prev, self.pop_next, self.push_prev, self.push_next),
                strict=True,
            )
        )
        if self.op is Opcode.LOAD:
            body = f"LOAD {self.buffer.value} {self.size}B"
        elif self.op is Opcode.STORE:
            body = f"STORE {self.size}B"
        elif self.op is Opcode.GEMM:
            body = f"GEMM {self.uop_count}x{self.lp0}x{self.lp1}"
        elif self.op is Opcode.ALU:
            body = f"ALU {self.alu_op.value} len={self.vector_len} it={self.iterations}"
        else:
            body = "FINISH"
        return f"{body} [{flags}]"


@dataclass(frozen=True)
class Program:
    """An instruction sequence plus bookkeeping helpers.

    ``warm_pops`` indexes the instructions whose double-buffering pop
    (``pop_next``) only a cold start leaves unarmed: once an earlier
    copy has primed the pipeline, they wait for the credits it left
    behind.  :meth:`streamed` arms them in every copy after the first
    (see ``VtaModel.measure_throughput``).
    :func:`~repro.accel.vta.workload.tiled_gemm_program` records them
    while lowering; a program built any other way has none and streams
    as plain repeats.  A few indices, not a second program: a cache key
    over a program encodes one instruction sequence.
    """

    instructions: tuple[Instruction, ...]
    name: str = "program"
    warm_pops: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.instructions:
            raise ValueError("a program needs at least one instruction")

    def __len__(self) -> int:
        return len(self.instructions)

    def by_module(self, module: Module) -> list[Instruction]:
        return [i for i in self.instructions if i.module is module]

    @property
    def total_macs(self) -> int:
        return sum(i.gemm_macs for i in self.instructions)

    @property
    def dram_bytes(self) -> int:
        return sum(
            i.size for i in self.instructions if i.op in (Opcode.LOAD, Opcode.STORE)
        )

    def listing(self) -> str:
        return "\n".join(
            f"{k:4d}  {insn.describe()}" for k, insn in enumerate(self.instructions)
        )

    def streamed(self, copies: int) -> Program:
        """Concatenate ``copies`` back-to-back iterations: the first is
        this (cold-start) program, the rest arm its ``warm_pops``, so
        double-buffering credits carry across iterations exactly as a
        compiler's steady-state loop would."""
        if copies < 1:
            raise ValueError("copies must be >= 1")
        tail = list(self.instructions)
        for k in self.warm_pops:
            tail[k] = replace(tail[k], pop_next=True)
        insns = self.instructions + tuple(tail) * (copies - 1)
        return Program(insns, name=f"{self.name}x{copies}")


def token_balance(program: Program) -> dict[str, int]:
    """Net pushes minus pops per dependency queue.

    A program with a *negative* balance on any queue pops tokens that
    are never pushed and will deadlock; the assembler rejects those.
    Positive leftovers are legal (tokens simply remain).
    """
    balance = dict.fromkeys(DEP_QUEUES, 0)
    for insn in program.instructions:
        pops, pushes = DEP_WIRING[insn.module]
        for flag, queue in pushes:
            if getattr(insn, flag):
                balance[queue] += 1
        for flag, queue in pops:
            if getattr(insn, flag):
                balance[queue] -= 1
    return balance
