"""Zero-dependency tracing: spans on the virtual clock and the wall clock.

The repo runs everything on deterministic *virtual* clocks (cycles), so
a trace of a simulation or a pool run is itself deterministic: same
seeds, same workload ⇒ byte-identical span lists.  :class:`Tracer`
collects those spans with near-zero overhead (one list append per
event) and exports them as Chrome/Perfetto ``trace_event`` JSON via
:meth:`Tracer.export_chrome_trace`, so a fault-storm serving run can be
opened in ``chrome://tracing`` or https://ui.perfetto.dev.

Two clocks, two trace processes:

* **virtual** — timestamps are simulation cycles (rendered as µs in the
  viewer; 1 cycle = 1 µs of display time).  Petri transition firings,
  DRAM accesses, device offloads, and queue waits live here.
* **wall** — timestamps are real microseconds since the tracer was
  created.  Host-side work timed with :meth:`Tracer.wall_span` lives
  here; nothing in the repository emits wall-clock spans today.

Pay-for-what-you-use: instrumented code takes ``tracer=None`` and
guards each emission with ``if tracer is not None`` — no tracer, no
work.  A constructed-but-disabled tracer (``Tracer(enabled=False)``)
drops events at the first branch, so it can be threaded everywhere and
switched centrally.

This module imports nothing from the rest of the repo — it sits below
``hw``, ``petri``, and ``runtime`` in the dependency order, which is
what lets all three layers emit into one timeline.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any

#: Trace-process ids in the exported file (Chrome groups rows by pid).
VIRTUAL_PID = 1
WALL_PID = 2

# Event record layout (plain tuples; a dataclass per span would double
# the tracing cost): (ph, name, cat, ts, dur, tid, wall, args)
_SPAN, _INSTANT, _COUNTER = "X", "i", "C"


class Tracer:
    """Collects spans/instants/counters; exports Chrome ``trace_event`` JSON.

    Args:
        enabled: a disabled tracer accepts every call and records
            nothing — the switch for "instrument everywhere, pay
            nowhere".
        max_events: hard cap on retained events; beyond it new events
            are counted in :attr:`dropped` instead of stored, so a
            runaway sweep cannot eat the host's memory.
    """

    __slots__ = ("enabled", "max_events", "dropped", "_events", "_wall0")

    def __init__(self, *, enabled: bool = True, max_events: int = 1_000_000):
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.enabled = enabled
        self.max_events = max_events
        self.dropped = 0
        self._events: list[tuple] = []
        self._wall0 = time.perf_counter_ns()

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        cat: str = "",
        tid: str = "main",
        args: dict[str, Any] | None = None,
    ) -> None:
        """One complete span on the virtual clock (cycles)."""
        if not self.enabled:
            return
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        self._events.append((_SPAN, name, cat, start, end - start, tid, False, args))

    def instant(
        self,
        name: str,
        at: float,
        *,
        cat: str = "",
        tid: str = "main",
        args: dict[str, Any] | None = None,
    ) -> None:
        """A zero-duration marker on the virtual clock (breaker trips,
        sheds, drops)."""
        if not self.enabled:
            return
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        self._events.append((_INSTANT, name, cat, at, 0.0, tid, False, args))

    def counter(
        self, name: str, at: float, value: float, *, tid: str = "main"
    ) -> None:
        """A counter sample (rendered as a stacked area track)."""
        if not self.enabled:
            return
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        self._events.append(
            (_COUNTER, name, "", at, 0.0, tid, False, {"value": value})
        )

    @contextmanager
    def wall_span(
        self,
        name: str,
        *,
        cat: str = "",
        tid: str = "host",
        args: dict[str, Any] | None = None,
    ):
        """Context manager timing a host-side block on the wall clock."""
        if not self.enabled:
            yield
            return
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            if len(self._events) >= self.max_events:
                self.dropped += 1
            else:
                start_us = (t0 - self._wall0) / 1_000.0
                dur_us = (time.perf_counter_ns() - t0) / 1_000.0
                self._events.append(
                    (_SPAN, name, cat, start_us, dur_us, tid, True, args)
                )

    # ------------------------------------------------------------------
    # Introspection (tests, the differential harness, perfscope)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    def categories(self) -> set[str]:
        return {e[2] for e in self._events if e[2]}

    def spans(self, cat_prefix: str | None = None) -> list[tuple]:
        """Span tuples ``(name, start, end, cat, tid)`` in emission order.

        ``cat_prefix`` filters by category (``"petri"`` matches
        ``"petri.fire"`` and ``"petri.timeout"``).  Deterministic given
        deterministic instrumentation, so two engines tracing the same
        run can be compared span-for-span.
        """
        out = []
        for ph, name, cat, ts, dur, tid, _wall, _args in self._events:
            if ph != _SPAN:
                continue
            if cat_prefix is not None and not cat.startswith(cat_prefix):
                continue
            out.append((name, ts, ts + dur, cat, tid))
        return out

    def span_events(self, cat_prefix: str | None = None) -> list[tuple]:
        """Like :meth:`spans` but args-including:
        ``(name, start, end, cat, tid, args)`` in emission order.

        The attribution layer (:mod:`repro.obs.attribution`) needs the
        per-span payload (attempt outcome, observed latency, fault
        kind) that :meth:`spans` — kept stable for the differential
        harness — drops.
        """
        out = []
        for ph, name, cat, ts, dur, tid, _wall, args in self._events:
            if ph != _SPAN:
                continue
            if cat_prefix is not None and not cat.startswith(cat_prefix):
                continue
            out.append((name, ts, ts + dur, cat, tid, args))
        return out

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export_chrome_trace(self, path: str | Path | None = None) -> dict | Path:
        """Render the Chrome/Perfetto ``trace_event`` document.

        Returns the document dict, or — when ``path`` is given — writes
        it there as JSON and returns the path.  Virtual-clock events
        land in one trace process, wall-clock events in another, with
        named threads per ``tid``.
        """
        events: list[dict[str, Any]] = []
        tids: dict[tuple[int, str], int] = {}

        def tid_for(pid: int, tid: str) -> int:
            key = (pid, tid)
            if key not in tids:
                tids[key] = len(tids) + 1
                events.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": pid,
                        "tid": len(tids),
                        "args": {"name": tid},
                    }
                )
            return tids[key]

        for pid, label in (
            (VIRTUAL_PID, "virtual clock (cycles)"),
            (WALL_PID, "wall clock"),
        ):
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": label},
                }
            )

        for ph, name, cat, ts, dur, tid, wall, args in self._events:
            pid = WALL_PID if wall else VIRTUAL_PID
            event: dict[str, Any] = {
                "ph": ph,
                "name": name,
                "pid": pid,
                "tid": tid_for(pid, tid),
                "ts": ts,
            }
            if cat:
                event["cat"] = cat
            if ph == _SPAN:
                event["dur"] = dur
            elif ph == _INSTANT:
                event["s"] = "t"
            if args:
                event["args"] = args
            events.append(event)

        document = {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {"dropped_events": self.dropped},
        }
        if path is None:
            return document
        path = Path(path)
        path.write_text(json.dumps(document))
        return path


def active(tracer: Tracer | None) -> Tracer | None:
    """Normalize "no tracing": returns ``tracer`` only when it exists
    and is enabled, else ``None`` — so hot loops test one local against
    ``None`` instead of two attributes per event."""
    if tracer is not None and tracer.enabled:
        return tracer
    return None
