"""Validation harness: compare an interface's predictions to ground truth.

This is the machinery behind every accuracy number in the paper's §3:
run a workload through the accelerator model, run the same workload
through the interface, and report average/maximum relative error — plus
bound-satisfaction for interfaces that promise intervals instead of
points (Protoacc's latency).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generic, TypeVar

from repro.accel.base import AcceleratorModel
from repro.hw.stats import ErrorReport

from .interface import PerformanceInterface

if TYPE_CHECKING:
    from repro.perf import EvalCache

ItemT = TypeVar("ItemT")


@dataclass(frozen=True)
class BoundsReport:
    """Outcome of checking guaranteed latency intervals."""

    total: int
    violations: int
    worst_item: int | None  # index of the worst violator, if any

    @property
    def all_within(self) -> bool:
        return self.violations == 0


@dataclass(frozen=True)
class InterfaceReport(Generic[ItemT]):
    """Accuracy of one interface over one workload."""

    accelerator: str
    representation: str
    items: int
    latency: ErrorReport | None = None
    throughput: ErrorReport | None = None
    bounds: BoundsReport | None = None
    #: Evaluation-cache accounting for this run (see repro.perf), e.g.
    #: "cache: 40/50 hits (80%)".  None when no cache was used.
    cache_stats: str | None = None

    def summary(self) -> str:
        parts = [f"{self.accelerator}/{self.representation} (n={self.items})"]
        if self.latency is not None:
            parts.append(f"latency {self.latency.as_percent()}")
        if self.throughput is not None:
            parts.append(f"throughput {self.throughput.as_percent()}")
        if self.bounds is not None:
            parts.append(
                "bounds: all within"
                if self.bounds.all_within
                else f"bounds: {self.bounds.violations}/{self.bounds.total} outside"
            )
        if self.cache_stats is not None:
            parts.append(self.cache_stats)
        return " | ".join(parts)


def validate_interface(
    interface: PerformanceInterface[ItemT],
    model: AcceleratorModel[ItemT],
    workload: Sequence[ItemT],
    *,
    check_latency: bool = True,
    check_throughput: bool = True,
    check_bounds: bool = False,
    throughput_repeat: int = 8,
    cache: "EvalCache | None" = None,
) -> InterfaceReport[ItemT]:
    """Measure the model and score the interface on ``workload``.

    ``check_bounds`` verifies measured latency lies within the
    interface's guaranteed interval for every item (instead of scoring
    a point latency prediction — use for bounds-style interfaces).

    ``cache`` memoizes interface evaluations (attached to interfaces that
    expose a ``cache`` attribute, e.g. :class:`~.petrinet.PetriNetInterface`);
    the report's ``cache_stats`` records the hit rate this run contributed.
    It changes no reported error number — only how often points are
    evaluated.
    """
    if not workload:
        raise ValueError("workload must not be empty")

    if cache is not None and hasattr(interface, "cache"):
        interface.cache = cache
    stats0 = (cache.stats.hits, cache.stats.lookups) if cache is not None else None

    latency_report = None
    bounds_report = None
    if check_latency or check_bounds:
        actual_lat = [model.measure_latency(item) for item in workload]
        if check_latency:
            # The batched path when the interface has one (identical
            # numbers, proven by repro.petri.differential), a plain
            # latency loop otherwise.
            predicted = interface.evaluate_batch(workload)
            latency_report = ErrorReport.of(predicted, actual_lat)
        if check_bounds:
            violations = 0
            worst = None
            worst_excess = 0.0
            for idx, (item, actual) in enumerate(zip(workload, actual_lat, strict=True)):
                bounds = interface.latency_bounds(item)
                if not bounds.contains(actual):
                    violations += 1
                    excess = max(bounds.lower - actual, actual - bounds.upper)
                    if excess > worst_excess:
                        worst_excess = excess
                        worst = idx
            bounds_report = BoundsReport(
                total=len(workload), violations=violations, worst_item=worst
            )

    throughput_report = None
    if check_throughput:
        actual_tp = [
            model.measure_throughput(item, repeat=throughput_repeat)
            for item in workload
        ]
        predicted_tp = [interface.throughput(item) for item in workload]
        throughput_report = ErrorReport.of(predicted_tp, actual_tp)

    cache_stats = None
    if cache is not None:
        hits = cache.stats.hits - stats0[0]
        lookups = cache.stats.lookups - stats0[1]
        rate = hits / lookups if lookups else 0.0
        cache_stats = f"cache: {hits}/{lookups} hits ({rate:.0%})"

    return InterfaceReport(
        accelerator=interface.accelerator,
        representation=interface.representation,
        items=len(workload),
        latency=latency_report,
        throughput=throughput_report,
        bounds=bounds_report,
        cache_stats=cache_stats,
    )


def compare_representations(
    interfaces: dict[str, PerformanceInterface[ItemT]],
    model: AcceleratorModel[ItemT],
    workload: Sequence[ItemT],
    **kwargs,
) -> dict[str, InterfaceReport[ItemT]]:
    """Validate several representations of the same accelerator on the
    same workload — the comparison behind "the Petri net is ~20x more
    accurate than the Python program"."""
    return {
        name: validate_interface(iface, model, workload, **kwargs)
        for name, iface in interfaces.items()
    }


def accuracy_gain(
    better: InterfaceReport, worse: InterfaceReport, metric: str = "latency"
) -> float:
    """How many times lower ``better``'s average error is."""
    a = getattr(better, metric)
    b = getattr(worse, metric)
    if a is None or b is None:
        raise ValueError(f"both reports need a {metric} measurement")
    if a.avg == 0:
        return float("inf")
    return b.avg / a.avg
