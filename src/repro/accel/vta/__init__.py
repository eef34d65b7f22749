"""VTA deep-learning accelerator: ISA, concurrent-module model,
assembler, schedule lowering, and performance interfaces."""

from .assembler import AssemblyError, assert_valid, from_text, to_text, validate
from .executor import SemanticsError, execute_gemm, random_operands, reference_gemm
from .interfaces import (
    ENGLISH,
    PROGRAM,
    VtaPetriInterface,
    build_vta_net,
    latency_vta_roofline,
    petri_interface,
    service_cycles,
    stream_estimate,
    tokenize_program,
)
from .isa import (
    AluOp,
    Buffer,
    Instruction,
    Module,
    Opcode,
    Program,
    dep_problems,
    token_balance,
)
from .model import VtaConfig, VtaModel, VtaRunResult
from .ticksim import TickVtaSimulator
from .workload import (
    BLOCK,
    GemmWorkload,
    Tiling,
    legal_tilings,
    random_program,
    random_programs,
    tiled_gemm_program,
)

__all__ = [
    "BLOCK",
    "ENGLISH",
    "PROGRAM",
    "AluOp",
    "AssemblyError",
    "Buffer",
    "GemmWorkload",
    "Instruction",
    "Module",
    "Opcode",
    "Program",
    "SemanticsError",
    "TickVtaSimulator",
    "Tiling",
    "execute_gemm",
    "random_operands",
    "reference_gemm",
    "VtaConfig",
    "VtaModel",
    "VtaPetriInterface",
    "VtaRunResult",
    "assert_valid",
    "build_vta_net",
    "dep_problems",
    "from_text",
    "latency_vta_roofline",
    "legal_tilings",
    "petri_interface",
    "random_program",
    "random_programs",
    "service_cycles",
    "stream_estimate",
    "tiled_gemm_program",
    "to_text",
    "token_balance",
    "tokenize_program",
    "validate",
]
