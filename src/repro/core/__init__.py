"""The paper's contribution: performance interfaces and their tooling.

Three representations (:mod:`.nl`, :mod:`.program`, :mod:`.petrinet`),
the validation harness that scores them against ground truth
(:mod:`.validation`), the Table 1 complexity metric (:mod:`.complexity`),
design-stage selection tooling (:mod:`.selection`), and the §5
record/replay offload estimator (:mod:`.offload`).
"""

from .complexity import (
    ComplexityReport,
    interface_complexity,
    loc_of_module,
    loc_of_text,
)
from .errors import OffloadError, ReplayDivergence
from .interface import BoundsOnlyInterface, LatencyBounds, PerformanceInterface
from .nl import EnglishInterface, PerformanceStatement, Relation
from .offload import (
    OffloadEstimate,
    OffloadEstimator,
    RecordingDevice,
    ReplayDevice,
    VirtualDevice,
)
from .petrinet import Injection, PetriNetInterface
from .program import ProgramInterface
from .selection import (
    Candidate,
    DesignPoint,
    Ranking,
    mean_workload_latency,
    offload_speedup,
    pareto_frontier,
    pick_under_area_budget,
    rank_by_latency,
    rank_by_speedup_per_dollar,
)
from .validation import (
    BoundsReport,
    InterfaceReport,
    accuracy_gain,
    compare_representations,
    validate_interface,
)

__all__ = [
    "BoundsOnlyInterface",
    "BoundsReport",
    "Candidate",
    "ComplexityReport",
    "DesignPoint",
    "EnglishInterface",
    "Injection",
    "InterfaceReport",
    "LatencyBounds",
    "OffloadError",
    "OffloadEstimate",
    "OffloadEstimator",
    "PerformanceInterface",
    "PerformanceStatement",
    "PetriNetInterface",
    "ProgramInterface",
    "Ranking",
    "RecordingDevice",
    "Relation",
    "ReplayDevice",
    "ReplayDivergence",
    "VirtualDevice",
    "accuracy_gain",
    "compare_representations",
    "interface_complexity",
    "loc_of_module",
    "loc_of_text",
    "mean_workload_latency",
    "offload_speedup",
    "pareto_frontier",
    "pick_under_area_budget",
    "rank_by_latency",
    "rank_by_speedup_per_dollar",
    "validate_interface",
]
