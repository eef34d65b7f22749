"""Process-local metrics: counters, gauges, and fixed-bucket histograms.

The repo's subsystems each grew their own counters — ``CacheStats``
hit/miss, breaker transition lists, FIFO high-water marks, shed/drop
ledgers.  :class:`MetricsRegistry` gives them one schema: named
instruments with sorted label sets (Prometheus-style identity), a
:meth:`~MetricsRegistry.snapshot` dict for programmatic consumers, and
a text exposition for operators (``python -m repro.tools.perfscope
metrics``).

Naming conventions (see ``docs/observability.md``):

* ``snake_case`` metric names, suffixed ``_total`` for counters and
  ``_cycles``/``_seconds`` for histograms of durations;
* labels identify *which* — ``device``, ``accelerator``, ``policy``,
  ``path`` — never unbounded values (no request payloads, no
  timestamps).

Everything is process-local and lock-free: the repo's virtual-clock
simulations are single-threaded, and the process-pool sweeps aggregate
results (not metrics) across workers.

Like :mod:`repro.obs.trace`, this module imports nothing from the rest
of the repo, so every layer can bind to a registry without cycles.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Sequence
from typing import Any

#: Default buckets for virtual-cycle latency histograms: log-ish spacing
#: from "L1-hit cheap" to "watchdog territory".
DEFAULT_CYCLE_BUCKETS: tuple[float, ...] = (
    100.0,
    300.0,
    1_000.0,
    3_000.0,
    10_000.0,
    30_000.0,
    100_000.0,
    300_000.0,
    1_000_000.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in key) + "}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that goes both ways (queue depth, breaker state)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-boundary histogram with cumulative-count exposition.

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches
    the rest.  ``observe`` costs one bisect + one increment.
    """

    __slots__ = ("buckets", "counts", "count", "sum")

    def __init__(self, buckets: Sequence[float] = DEFAULT_CYCLE_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be strictly increasing")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the
        bucket holding the q-th sample; ``inf`` when it lands in the
        overflow bucket).  Coarse by design — for accurate tails use a
        :class:`~repro.hw.stats.Reservoir`."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank and c:
                return self.buckets[i] if i < len(self.buckets) else float("inf")
        return float("inf")

    def snapshot(self) -> dict[str, Any]:
        cumulative: dict[str, int] = {}
        running = 0
        for bound, c in zip(self.buckets, self.counts, strict=False):
            running += c
            cumulative[f"{bound:g}"] = running
        cumulative["+Inf"] = self.count
        return {"count": self.count, "sum": self.sum, "buckets": cumulative}


Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create registry of labeled instruments.

    A metric name belongs to exactly one instrument kind; asking for
    the same name with a different kind (or different histogram
    buckets) is a programming error and raises.

    Each instrument's series key (``name{label="v"}``) is rendered once,
    when the instrument is created.  A repeated lookup with the same
    plain-string labels, passed in the same order, is one dict hit; any
    other lookup is validated and canonicalised (labels sorted, values
    ``str``-ed).
    """

    def __init__(self) -> None:
        #: ``(name, sorted labels)`` -> ``(series key, instrument)``, in
        #: creation order.
        self._metrics: dict[tuple[str, LabelKey], tuple[str, Instrument]] = {}
        self._kinds: dict[str, str] = {}
        #: ``(kind, name, buckets, *label items as passed)`` -> instrument.
        self._lookups: dict[tuple, Instrument] = {}
        self._probes: list[Callable[[MetricsRegistry], None]] = []

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def _get(self, kind: str, name: str, labels: dict[str, Any], buckets=None):
        lookup = (kind, name, buckets, *labels.items())
        try:
            instrument = self._lookups.get(lookup)
        except TypeError:  # an unhashable label value or bucket list
            instrument = lookup = None
        if instrument is not None:
            return instrument
        if kind == "histogram":
            bounds = tuple(buckets) if buckets is not None else DEFAULT_CYCLE_BUCKETS
        known = self._kinds.setdefault(name, kind)
        if known != kind:
            raise ValueError(f"metric {name!r} is a {known}, not a {kind}")
        key = (name, _label_key(labels))
        entry = self._metrics.get(key)
        if entry is None:
            if kind == "histogram":
                instrument = Histogram(bounds)
            else:
                instrument = Counter() if kind == "counter" else Gauge()
            self._metrics[key] = (f"{name}{_render_labels(key[1])}", instrument)
        else:
            instrument = entry[1]
            if kind == "histogram" and instrument.buckets != tuple(float(b) for b in bounds):
                raise ValueError(
                    f"histogram {name!r} already registered with different buckets"
                )
        # Remembered as passed only when that is sound: label values of
        # other types than str can be equal yet render differently (1,
        # 1.0 and True), and buckets other than a tuple (an iterator)
        # would be a new key on every call.
        if (
            lookup is not None
            and (buckets is None or type(buckets) is tuple)
            and all(type(v) is str for v in labels.values())
        ):
            self._lookups[lookup] = instrument
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(
        self, name: str, *, buckets: Sequence[float] | None = None, **labels: Any
    ) -> Histogram:
        return self._get("histogram", name, labels, buckets)

    # ------------------------------------------------------------------
    # Probes: pull-style gauges sampled at snapshot time
    # ------------------------------------------------------------------
    def add_probe(self, probe: Callable[[MetricsRegistry], None]) -> None:
        """Register a callback run at every :meth:`snapshot`/
        :meth:`render_text`/:meth:`series` — the place to mirror
        externally owned state (FIFO depths, cache sizes) into gauges
        without polling."""
        self._probes.append(probe)

    def _run_probes(self) -> None:
        for probe in self._probes:
            probe(self)

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def series(self) -> list[tuple[str, Instrument]]:
        """Run the probes, then every ``(series key, instrument)`` pair
        in creation order — what a time-series store folds without
        rendering a key or building a snapshot."""
        self._run_probes()
        return list(self._metrics.values())

    def snapshot(self) -> dict[str, Any]:
        """``{"name{label=\"v\"}": value-or-histogram-dict}``, sorted."""
        self._run_probes()
        out: dict[str, Any] = {}
        for _, (series, instrument) in sorted(self._metrics.items()):
            if isinstance(instrument, Histogram):
                out[series] = instrument.snapshot()
            else:
                out[series] = instrument.value
        return out

    def render_text(self) -> str:
        """Prometheus-flavored text exposition (types + samples)."""
        self._run_probes()
        lines: list[str] = []
        by_name: dict[str, list[tuple[LabelKey, str, Instrument]]] = {}
        for (name, key), (series, instrument) in sorted(self._metrics.items()):
            by_name.setdefault(name, []).append((key, series, instrument))
        for name, rows in by_name.items():
            lines.append(f"# TYPE {name} {self._kinds[name]}")
            for key, series, instrument in rows:
                if isinstance(instrument, Histogram):
                    labels = series[len(name) :]
                    snap = instrument.snapshot()
                    for bound, cum in snap["buckets"].items():
                        le = _render_labels(key + (("le", bound),))
                        lines.append(f"{name}_bucket{le} {cum}")
                    lines.append(f"{name}_sum{labels} {snap['sum']:g}")
                    lines.append(f"{name}_count{labels} {snap['count']}")
                else:
                    lines.append(f"{series} {instrument.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")


def watch_fifo(registry: MetricsRegistry, fifo) -> None:
    """Probe mirroring a :class:`~repro.hw.fifo.Fifo`'s occupancy stats
    into gauges (sampled at snapshot time, zero per-push cost)."""

    def probe(reg: MetricsRegistry) -> None:
        labels = {"fifo": fifo.name}
        reg.gauge("fifo_depth", **labels).set(len(fifo))
        reg.gauge("fifo_high_water", **labels).set(fifo.high_water)
        reg.gauge("fifo_pushes", **labels).set(fifo.pushes)
        reg.gauge("fifo_pops", **labels).set(fifo.pops)

    registry.add_probe(probe)
