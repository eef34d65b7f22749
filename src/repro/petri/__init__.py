"""Timed, colored Petri nets: the performance IR for accelerators.

This package is the reusable engine behind the paper's third interface
representation.  A net built here (or parsed from ``.pnet`` text) is a
circuit that is *performance-equivalent* to an accelerator: simulating
it over a workload predicts the accelerator's latency and throughput
without computing any of its functional outputs.

Typical use::

    from repro.petri import PetriNet, make_simulator

    net = PetriNet("adder")
    net.add_place("in")
    net.add_place("out")
    net.add_transition("alu", ["in"], ["out"], delay=3)

    sim = make_simulator(net, sinks=["out"])
    sim.inject_stream("in", range(100))
    result = sim.run()
    result.latencies()    # -> per-item end-to-end cycles

:func:`make_simulator` returns the compiled engine; the reference
:class:`Simulator` is the oracle :mod:`repro.petri.differential` checks
it against.
"""

from .components import (
    add_bounded_stage,
    add_fcfs_port,
    add_mutex,
    mutex_injections,
)
from .analysis import (
    CycleList,
    StructureReport,
    analyze_structure,
    bottleneck_estimate,
    covers_all_positive,
    find_cycles,
    incidence_matrix,
    maximal_siphon,
    p_invariants,
    t_invariants,
)
from .batched import (
    BATCH_ENGINES,
    BatchEvaluator,
    BatchItemResult,
    TokenColumns,
    chain_spec,
    chain_unsupported_reasons,
    codegen_supported,
)
from .compiled import CompiledNet, CompiledSimulator, make_simulator
from .dot import to_dot
from .dsl import parse, to_pnet
from .errors import (
    AnalysisError,
    CapacityError,
    DeadlineError,
    DeadlockError,
    DefinitionError,
    DslError,
    KeyRuleError,
    PetriError,
    SimulationError,
)
from .net import Arc, PetriNet, Place, Transition, chain
from .simulate import Completion, SimResult, Simulator, run_workload
from .token import Token

__all__ = [
    "BATCH_ENGINES",
    "AnalysisError",
    "Arc",
    "BatchEvaluator",
    "BatchItemResult",
    "CapacityError",
    "Completion",
    "CompiledNet",
    "CompiledSimulator",
    "CycleList",
    "DeadlineError",
    "DeadlockError",
    "DefinitionError",
    "DslError",
    "KeyRuleError",
    "PetriError",
    "PetriNet",
    "Place",
    "SimResult",
    "SimulationError",
    "Simulator",
    "StructureReport",
    "Token",
    "TokenColumns",
    "Transition",
    "add_bounded_stage",
    "add_fcfs_port",
    "add_mutex",
    "analyze_structure",
    "bottleneck_estimate",
    "chain",
    "chain_spec",
    "chain_unsupported_reasons",
    "codegen_supported",
    "covers_all_positive",
    "find_cycles",
    "incidence_matrix",
    "make_simulator",
    "maximal_siphon",
    "mutex_injections",
    "p_invariants",
    "parse",
    "run_workload",
    "t_invariants",
    "to_dot",
    "to_pnet",
]
