"""Perfscope: unified tracing, metrics, and drift observation.

The paper's promise is that a performance interface lets an operator
*predict* the hardware; this package is the matching ability to *watch*
it.  Three pieces, one bundle:

* :class:`~repro.obs.trace.Tracer` — spans on the virtual and wall
  clocks from every layer (Petri transition firings, DRAM accesses,
  device offloads/retries/breaker trips, admission-queue waits),
  exported as Chrome/Perfetto ``trace_event`` JSON.
* :class:`~repro.obs.metrics.MetricsRegistry` — labeled counters,
  gauges, and fixed-bucket histograms with a snapshot dict and text
  exposition.
* :class:`~repro.obs.drift.DriftObservatory` — rolling
  predicted-vs-observed relative-error quantiles per
  (device, rpc-class), feeding the runtime's drift detector.

:class:`Obs` carries the three together; instrumented constructors take
``obs=None`` (or a bare ``tracer=None`` at the lowest layers) and pay
nothing when not observed.  ``docs/observability.md`` is the operator
guide; ``python -m repro.tools.perfscope`` is the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

from .drift import (
    DEFAULT_SIZE_CLASSES,
    DriftObservatory,
    SizeClasses,
    rpc_size_class,
)
from .metrics import (
    DEFAULT_CYCLE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    watch_fifo,
)
from .attribution import (
    LatencyAttribution,
    Segment,
    attribute,
    attribute_records,
    score_mispredictions,
)
from .trace import Tracer, active
from .tsdb import TimeSeriesStore

__all__ = [
    "DEFAULT_CYCLE_BUCKETS",
    "DEFAULT_SIZE_CLASSES",
    "Counter",
    "DriftObservatory",
    "Gauge",
    "Histogram",
    "LatencyAttribution",
    "MetricsRegistry",
    "Obs",
    "Segment",
    "SizeClasses",
    "TimeSeriesStore",
    "Tracer",
    "active",
    "attribute",
    "attribute_records",
    "rpc_size_class",
    "score_mispredictions",
    "watch_fifo",
]


@dataclass
class Obs:
    """The observability bundle handed to instrumented constructors.

    Any field may be ``None`` — tracing, metrics, and the drift
    observatory opt in independently.  ``Obs()`` (all ``None``) is
    equivalent to not observing at all.
    """

    tracer: Tracer | None = None
    metrics: MetricsRegistry | None = None
    observatory: DriftObservatory | None = None
    tsdb: TimeSeriesStore | None = None

    @classmethod
    def enabled(
        cls,
        *,
        tracing: bool = True,
        metrics: bool = True,
        drift: bool = True,
        tsdb: bool = False,
        max_events: int = 1_000_000,
    ) -> Obs:
        """Build a fully wired bundle (the common case for benchmarks
        and the perfscope CLI).  ``tsdb`` opts into the embedded
        time-series store (off by default: the serving loop then folds
        the metrics registry into it periodically)."""
        registry = MetricsRegistry() if metrics else None
        return cls(
            tracer=Tracer(max_events=max_events) if tracing else None,
            metrics=registry,
            observatory=(
                DriftObservatory(metrics=registry) if drift else None
            ),
            tsdb=TimeSeriesStore() if tsdb else None,
        )

    def active_tracer(self) -> Tracer | None:
        """The tracer iff it exists and is enabled (hot-path guard)."""
        return active(self.tracer)
