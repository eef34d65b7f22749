"""An embedded time-series store for the observability plane.

The :class:`~repro.obs.metrics.MetricsRegistry` answers "what is the
value *now*"; this module answers "what was it *then*" — without which
an SLO verdict, an autoscaler decision, or a drift arc cannot be
reconstructed after the fact.  :class:`TimeSeriesStore` is the smallest
store that earns that: one fixed-size ring of raw points per series
(bounded memory, oldest points retired first) and a bounded event log
for instants (scale events, brownout transitions, heal transitions).
Its queries are windowed :meth:`~TimeSeriesStore.points` and
:meth:`~TimeSeriesStore.events` (what ``perfscope timeline`` reads),
plus ``latest`` and ``rate``.

Timestamps are virtual cycles, same as every clock in the repo, so a
stored run is deterministic: same seeds, same workload ⇒ identical
series.  Feeding happens two ways:

* :meth:`pump` folds every instrument of a ``MetricsRegistry`` into
  the store (counters/gauges one point each; histograms as ``:count``
  and ``:sum`` series), throttled by :meth:`maybe_pump` so the serving
  hot loop pays one float comparison per arrival when it is too early.
  Each instrument is bound to its series the first time a pump sees
  it; later pumps append its values directly, rendering and sorting
  nothing.
* :meth:`record` / :meth:`event` take direct samples and instants from
  the scale/heal/brownout layers.

Like :mod:`repro.obs.trace`, this module imports nothing from the rest
of the repo — it sits at the bottom of the dependency order so any
layer can write into it.
"""

from __future__ import annotations

from typing import Any

__all__ = ["TimeSeriesStore", "series_key"]


def series_key(name: str, labels: dict[str, Any] | None = None) -> str:
    """Render ``name`` + labels the way the metrics registry does
    (``name{a="1",b="x"}``), so pumped and recorded series line up."""
    if not labels:
        return name
    rendered = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{rendered}}}"


class _Ring:
    """Fixed-capacity ring of ``(at, value)`` points, oldest evicted."""

    __slots__ = ("capacity", "_points", "_head", "total")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._points: list[tuple[float, float]] = []
        self._head = 0  # next write slot once full
        self.total = 0  # points ever written (retention accounting)

    def append(self, at: float, value: float) -> None:
        self.total += 1
        if len(self._points) < self.capacity:
            self._points.append((at, value))
        else:
            self._points[self._head] = (at, value)
            self._head = (self._head + 1) % self.capacity

    def items(self) -> list[tuple[float, float]]:
        """Points in time order (ring unrolled)."""
        if len(self._points) < self.capacity:
            return list(self._points)
        return self._points[self._head :] + self._points[: self._head]

    def __len__(self) -> int:
        return len(self._points)


class TimeSeriesStore:
    """Bounded, zero-dependency time-series storage: a raw ring per
    series plus an event log.

    Args:
        capacity: raw points retained per series (ring buffer).
        event_capacity: instants retained in the event log.
        pump_interval: minimum cycles between :meth:`maybe_pump` folds
            of the metrics registry.
    """

    def __init__(
        self,
        *,
        capacity: int = 1024,
        event_capacity: int = 2048,
        pump_interval: float = 1_000.0,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.event_capacity = event_capacity
        self.pump_interval = pump_interval
        self.pumps = 0
        self.last_pump_at: float | None = None
        self.last_at: float | None = None
        self.dropped_events = 0
        self._series: dict[str, _Ring] = {}
        self._events: list[tuple[float, str, dict[str, Any]]] = []
        # Pumped instrument -> its series (a histogram: its ``:count``
        # and ``:sum`` series).
        self._bound: dict[Any, _Ring | tuple[_Ring, _Ring]] = {}

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def record(self, name: str, at: float, value: float, **labels: Any) -> None:
        """Append one point to series ``name`` (labels rendered into the
        series key, metrics-registry style)."""
        self._get_series(series_key(name, labels)).append(at, float(value))
        if self.last_at is None or at > self.last_at:
            self.last_at = at

    def _get_series(self, key: str) -> _Ring:
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _Ring(self.capacity)
        return series

    def event(self, name: str, at: float, **fields: Any) -> None:
        """Append one instant (scale event, brownout transition, heal
        transition) to the bounded event log."""
        if len(self._events) >= self.event_capacity:
            self.dropped_events += 1
            return
        self._events.append((at, name, fields))
        if self.last_at is None or at > self.last_at:
            self.last_at = at

    def pump(self, metrics, at: float) -> int:
        """Fold every instrument of a ``MetricsRegistry`` into the store.

        Counters and gauges become one point each; histograms become
        ``<name>:count`` and ``<name>:sum`` points (the bucket vector is
        already cumulative in the registry — re-storing it per pump
        would be all cost, no query).  The points are the values
        ``metrics.snapshot()`` would report now, under the same keys;
        a key also written by :meth:`record` is the same series.
        Returns the number of points written."""
        if metrics is None:
            return 0
        bound = self._bound
        written = 0
        for key, instrument in metrics.series():
            series = bound.get(instrument)
            if series is None:  # first sight: a histogram has no ``value``
                series = bound[instrument] = (
                    self._get_series(key)
                    if hasattr(instrument, "value")
                    else (
                        self._get_series(f"{key}:count"),
                        self._get_series(f"{key}:sum"),
                    )
                )
            if type(series) is tuple:
                series[0].append(at, float(instrument.count))
                series[1].append(at, float(instrument.sum))
                written += 2
            else:
                series.append(at, float(instrument.value))
                written += 1
        if written and (self.last_at is None or at > self.last_at):
            self.last_at = at
        self.pumps += 1
        self.last_pump_at = at
        return written

    def maybe_pump(self, metrics, at: float) -> int:
        """Throttled :meth:`pump` — no-op unless ``pump_interval``
        cycles have passed since the last fold."""
        if (
            self.last_pump_at is not None
            and at - self.last_pump_at < self.pump_interval
        ):
            return 0
        return self.pump(metrics, at)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def series_names(self) -> list[str]:
        return sorted(self._series)

    def points(
        self,
        name: str,
        *,
        since: float | None = None,
        until: float | None = None,
    ) -> list[tuple[float, float]]:
        """Raw retained points for one series, time-ordered, optionally
        windowed to ``[since, until]`` inclusive."""
        series = self._series.get(name)
        if series is None:
            return []
        out = series.items()
        if since is not None:
            out = [p for p in out if p[0] >= since]
        if until is not None:
            out = [p for p in out if p[0] <= until]
        return out

    def latest(self, name: str) -> tuple[float, float] | None:
        series = self._series.get(name)
        if series is None or len(series) == 0:
            return None
        return series.items()[-1]

    def rate(self, name: str, *, window: float | None = None) -> float | None:
        """Per-cycle rate of change over the retained window (for
        counter-shaped series: last-first over elapsed).  ``window``
        restricts to the trailing ``window`` cycles.  ``None`` until
        two points span nonzero time."""
        points = self.points(name)
        if window is not None and points:
            horizon = points[-1][0] - window
            points = [p for p in points if p[0] >= horizon]
        if len(points) < 2:
            return None
        (t0, v0), (t1, v1) = points[0], points[-1]
        if t1 <= t0:
            return None
        return (v1 - v0) / (t1 - t0)

    def events(
        self,
        name_prefix: str | None = None,
        *,
        since: float | None = None,
        until: float | None = None,
    ) -> list[tuple[float, str, dict[str, Any]]]:
        """Logged instants in time order, optionally filtered by name
        prefix and window."""
        out = sorted(self._events, key=lambda e: e[0])
        if name_prefix is not None:
            out = [e for e in out if e[1].startswith(name_prefix)]
        if since is not None:
            out = [e for e in out if e[0] >= since]
        if until is not None:
            out = [e for e in out if e[0] <= until]
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Freshness excerpt for pool snapshots and operator reports."""
        return {
            "series": len(self._series),
            "points": sum(s.total for s in self._series.values()),
            "events": len(self._events),
            "dropped_events": self.dropped_events,
            "pumps": self.pumps,
            "last_pump_at": self.last_pump_at,
            "last_at": self.last_at,
        }
