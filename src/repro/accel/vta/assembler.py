"""Static validation and a textual assembly format for VTA programs.

The model refuses structurally-deadlocking programs at run time; the
assembler catches the same problems (and SRAM overflows) *before*
running, and gives programs a human-readable round-trippable text form
used by the examples.
"""

from __future__ import annotations

from .isa import DEP_FLAGS, DEP_WIRING, AluOp, Buffer, Instruction, Opcode, Program, token_balance
from .model import VtaConfig


class AssemblyError(Exception):
    """A program failed static validation or text parsing."""


def validate(program: Program, config: VtaConfig | None = None) -> list[str]:
    """Return a list of problems (empty = valid).

    Checks: dependency-token balance, per-load SRAM fit, FINISH
    placement, and flag legality per module: a flag the module's
    :data:`~repro.accel.vta.isa.DEP_WIRING` does not list names no queue
    (e.g. a load-module instruction cannot reference a ``prev`` queue).
    """
    config = config or VtaConfig()
    problems: list[str] = []

    balance = token_balance(program)
    for queue, net in balance.items():
        if net < 0:
            problems.append(f"queue {queue}: {-net} pops have no matching push")

    for k, insn in enumerate(program.instructions):
        if insn.op is Opcode.LOAD:
            cap = config.buffer_capacity(insn.buffer)
            if insn.size > cap:
                problems.append(
                    f"insn {k}: LOAD {insn.buffer.value} of {insn.size}B exceeds "
                    f"the {cap}B buffer"
                )
        wired = {flag for side in DEP_WIRING[insn.module] for flag, _ in side}
        for end in ("prev", "next"):
            if any(getattr(insn, f) for f in (f"pop_{end}", f"push_{end}") if f not in wired):
                problems.append(f"insn {k}: {insn.module.value} module has no {end!r} queue")

    finishes = [k for k, i in enumerate(program.instructions) if i.op is Opcode.FINISH]
    if len(finishes) > 1:
        problems.append(f"multiple FINISH instructions at {finishes}")
    if finishes and finishes[0] != len(program) - 1:
        problems.append("FINISH must be the last instruction")
    return problems


def assert_valid(program: Program, config: VtaConfig | None = None) -> None:
    problems = validate(program, config)
    if problems:
        raise AssemblyError(
            f"program {program.name!r} invalid:\n  " + "\n  ".join(problems)
        )


# ----------------------------------------------------------------------
# Text form
# ----------------------------------------------------------------------


def to_text(program: Program) -> str:
    """Serialize to assembly text (one instruction per line)."""
    lines = [f".program {program.name}"]
    for insn in program.instructions:
        flags = ",".join(name for name in DEP_FLAGS if getattr(insn, name))
        flag_part = f" !{flags}" if flags else ""
        if insn.op is Opcode.LOAD:
            lines.append(
                f"load {insn.buffer.value} size={insn.size} addr={insn.addr}{flag_part}"
            )
        elif insn.op is Opcode.STORE:
            lines.append(f"store size={insn.size} addr={insn.addr}{flag_part}")
        elif insn.op is Opcode.GEMM:
            lines.append(
                f"gemm uops={insn.uop_count} lp0={insn.lp0} lp1={insn.lp1}{flag_part}"
            )
        elif insn.op is Opcode.ALU:
            imm = " imm" if insn.use_imm else ""
            lines.append(
                f"alu {insn.alu_op.value} len={insn.vector_len} "
                f"iters={insn.iterations}{imm}{flag_part}"
            )
        else:
            lines.append(f"finish{flag_part}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Program:
    """Parse the :func:`to_text` format back into a program."""
    name = "program"
    insns: list[Instruction] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(".program"):
            parts = line.split()
            if len(parts) != 2:
                raise AssemblyError(f"line {line_no}: usage: .program NAME")
            name = parts[1]
            continue
        flags: dict[str, bool] = {}
        if "!" in line:
            line, _, flag_str = line.partition("!")
            line = line.strip()
            for f in flag_str.strip().split(","):
                if f not in DEP_FLAGS:
                    raise AssemblyError(f"line {line_no}: unknown flag {f!r}")
                flags[f] = True
        fields = line.split()
        kv = {}
        positional = []
        for part in fields[1:]:
            if "=" in part:
                key, _, val = part.partition("=")
                kv[key] = int(val)
            else:
                positional.append(part)
        try:
            insns.append(_parse_insn(fields[0], positional, kv, flags))
        except (KeyError, ValueError) as exc:
            raise AssemblyError(f"line {line_no}: {exc}") from exc
    if not insns:
        raise AssemblyError("program has no instructions")
    return Program(tuple(insns), name=name)


def _parse_insn(
    mnemonic: str, positional: list[str], kv: dict[str, int], flags: dict[str, bool]
) -> Instruction:
    if mnemonic == "load":
        return Instruction(
            Opcode.LOAD,
            buffer=Buffer(positional[0]),
            size=kv["size"],
            addr=kv.get("addr", 0),
            **flags,
        )
    if mnemonic == "store":
        return Instruction(Opcode.STORE, size=kv["size"], addr=kv.get("addr", 0), **flags)
    if mnemonic == "gemm":
        return Instruction(
            Opcode.GEMM, uop_count=kv["uops"], lp0=kv["lp0"], lp1=kv["lp1"], **flags
        )
    if mnemonic == "alu":
        return Instruction(
            Opcode.ALU,
            alu_op=AluOp(positional[0]),
            vector_len=kv["len"],
            iterations=kv["iters"],
            use_imm="imm" in positional,
            **flags,
        )
    if mnemonic == "finish":
        return Instruction(Opcode.FINISH, **flags)
    raise ValueError(f"unknown mnemonic {mnemonic!r}")
