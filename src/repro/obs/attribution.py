"""Causal latency attribution: where did this request's cycles go?

The PR 5 decomposition (:class:`~repro.runtime.serving.RequestBreakdown`)
partitions a served request's end-to-end latency into four coarse
components.  This module refines it to *causal-path* granularity by
reading the Tracer's span record back: admission wait → device FIFO →
failed attempts → backoff → the successful attempt, with the successful
attempt itself split into memory stalls (fault-injected DRAM stall
windows plus the ground-truth model's ``hw.dram`` bursts), invocation
overhead, and residual compute.

The load-bearing invariant, property-tested in
``tests/obs/test_attribution.py`` and asserted over every request of
the E15 storm run: **segment cycles sum bit-exactly to the observed
end-to-end cycles** (``sum(s.cycles for s in a.segments) ==
a.end_to_end``, ``==`` on floats, no tolerance).  Exactness is what
makes the numbers trustworthy — a decomposition that "approximately"
adds up is hiding a stage.  The residual compute segment is placed last
and nudged (:func:`exact_residual`) so left-to-right float accumulation
lands on the total exactly.

:func:`score_mispredictions` then closes the paper's loop: it aligns
each observed attribution against the interface's *predicted* stage
decomposition (:meth:`~repro.core.petrinet.PetriNetInterface.predict_decomposition`)
and feeds per-(device, size-class, stage) errors into the
:class:`~repro.obs.drift.DriftObservatory`, giving the healing loop
stage-level refit hints and ``perfscope explain`` its
predicted-vs-observed table.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.core.petrinet import exact_residual, fold

if TYPE_CHECKING:
    from repro.runtime.serving import ServeResult

__all__ = [
    "STAGES",
    "LatencyAttribution",
    "Segment",
    "attribute",
    "attribute_records",
    "exact_residual",
    "score_mispredictions",
]

#: The stage vocabulary segments are labeled with (shared with
#: ``predict_decomposition`` so predicted and observed stages align).
STAGES = ("queue", "retry", "memory", "overhead", "compute")


class Segment(NamedTuple):
    """One labeled slice of a request's end-to-end cycles."""

    name: str  # e.g. "admission_wait", "backoff", "memory"
    stage: str  # one of :data:`STAGES`
    cycles: float


class LatencyAttribution(NamedTuple):
    """One request's causal path, segments summing exactly end-to-end."""

    seq: int  # index into ``ServeResult.served``
    request: Any
    device: str
    path: str  # "accel", "cpu", or "failed"
    hedges: int
    arrival: float
    completed: float
    segments: tuple[Segment, ...]

    @property
    def end_to_end(self) -> float:
        return self.completed - self.arrival

    @property
    def total(self) -> float:
        """Left-to-right sum of the segments; bit-equal to
        :attr:`end_to_end` by construction."""
        return fold(s.cycles for s in self.segments)

    def stages(self) -> dict[str, float]:
        """Cycles per stage label (segments folded)."""
        out: dict[str, float] = {}
        for s in self.segments:
            out[s.stage] = out.get(s.stage, 0.0) + s.cycles
        return out

    def segment(self, name: str) -> float:
        """Cycles of one named segment (0.0 when absent)."""
        for s in self.segments:
            if s.name == name:
                return s.cycles
        return 0.0


def _build_segments(
    *,
    admission: float,
    device_queue: float,
    retry: float,
    backoff: float,
    memory: float,
    overhead: float,
    end_to_end: float,
) -> tuple[Segment, ...]:
    """Assemble the canonical segment list with the compute residual
    nudged so the fold is bit-exact."""
    prefix = [admission, device_queue, retry, backoff, memory, overhead]
    compute = exact_residual(prefix, end_to_end)
    return (
        Segment("admission_wait", "queue", admission),
        Segment("device_queue", "queue", device_queue),
        Segment("retry", "retry", retry),
        Segment("backoff", "retry", backoff),
        Segment("memory", "memory", memory),
        Segment("overhead", "overhead", overhead),
        Segment("compute", "compute", compute),
    )


def _span_streams(tracer) -> dict[str, dict[str, deque]]:
    """Per-category, per-tid FIFO queues of ``(start, end, args)``.

    Devices serve FIFO-sequentially on the virtual clock, so per-device
    emission order *is* serving order — which is what lets spans be
    matched to requests by popping instead of searching."""
    streams: dict[str, dict[str, deque]] = {
        "runtime.offload": {},
        "runtime.attempt": {},
        "runtime.backoff": {},
        "runtime.stall": {},
        "hw.dram": {},
    }
    for _name, start, end, cat, tid, args in tracer.span_events():
        bucket = streams.get(cat)
        if bucket is None:
            continue
        bucket.setdefault(tid, deque()).append((start, end, args or {}))
    return streams


def _pop_contained(stream: deque | None, start: float, end: float) -> list[tuple]:
    """Pop the leading spans of ``stream`` that fall inside
    ``[start, end]`` (FIFO: anything before the window was a previous
    request's and is discarded)."""
    out = []
    if stream is None:
        return out
    while stream and stream[0][0] < start - 1e-9:
        stream.popleft()  # earlier request's span nobody claimed
    while stream and stream[0][0] >= start - 1e-9 and stream[0][1] <= end + 1e-9:
        out.append(stream.popleft())
    return out


def _pop_one(stream: deque | None, start: float, end: float):
    """Pop the first span inside ``[start, end]``, or ``None``.  Used
    for offload spans, where one request owns exactly one span per hop
    — a wide request window must not swallow its successors'."""
    if stream is None:
        return None
    while stream and stream[0][0] < start - 1e-9:
        stream.popleft()
    if stream and stream[0][0] >= start - 1e-9 and stream[0][1] <= end + 1e-9:
        return stream.popleft()
    return None


def _dram_within(
    streams: dict[str, deque],
    start: float,
    end: float,
    tid: str | None = None,
) -> float:
    """Total ``hw.dram`` span cycles inside ``[start, end]``.

    With ``tid`` (the device model's dram trace tid), only that
    stream's spans count — concurrent devices' serving windows overlap
    on the shared virtual clock, so unscoped containment would charge
    one device's bursts to another's request.  Without a tid the match
    falls back to every stream; two same-model twins still share a tid
    there, so in the (rare) case their windows overlap a burst can land
    on the wrong twin — a second-order error the memory clamp bounds."""
    total = 0.0
    if tid is not None:
        selected = [streams[tid]] if tid in streams else []
    else:
        selected = list(streams.values())
    for stream in selected:
        for s, e, _args in stream:
            if s >= start - 1e-9 and e <= end + 1e-9:
                total += e - s
    return total


def _dram_tids(pool) -> dict[str, str]:
    """Map pool device names to their model's ``hw.dram`` trace tid
    (``f"{model.name}.dram"`` — see the accelerator models' ``_dram``
    constructors).  Devices whose models never touch DRAM map to a tid
    that simply never appears in the trace, which is the point: they
    must not absorb another device's bursts."""
    tids: dict[str, str] = {}
    for pooled in getattr(pool, "devices", []):
        model = getattr(getattr(pooled, "device", None), "model", None)
        name = getattr(model, "name", None)
        if name is not None:
            tids[pooled.name] = f"{name}.dram"
    return tids


def attribute(
    result: "ServeResult", tracer, pool=None
) -> list[LatencyAttribution]:
    """Reconstruct every served request's causal path from the trace.

    ``result`` must be the run the tracer watched, with the pool fresh
    at the start (span streams are matched to requests positionally —
    per-device FIFO order).  Requests whose spans are missing (tracer
    ``max_events`` overflow, tracing disabled) degrade gracefully to
    the coarse :class:`~repro.runtime.serving.RequestBreakdown`
    decomposition; the exact-sum invariant holds either way.

    Pass the serving ``pool`` when available: it scopes ``hw.dram``
    matching to each device's own model tid, so one device's memory
    bursts can never be charged to a concurrent request on another.
    """
    streams = (
        _span_streams(tracer)
        if tracer is not None and hasattr(tracer, "span_events")
        else {}
    )
    offloads = streams.get("runtime.offload", {})
    attempts = streams.get("runtime.attempt", {})
    backoffs = streams.get("runtime.backoff", {})
    stalls = streams.get("runtime.stall", {})
    dram = streams.get("hw.dram", {})
    dram_tids = _dram_tids(pool) if pool is not None else {}

    out: list[LatencyAttribution] = []
    for seq, (served, breakdown) in enumerate(
        zip(result.served, result.breakdowns)
    ):
        backoff_sum = 0.0
        memory = 0.0
        overhead = 0.0
        for device_name in served.devices_tried:
            window = _pop_one(
                offloads.get(device_name), breakdown.arrival, served.completed
            )
            if window is None:
                continue  # spans dropped: coarse fallback for this hop
            o_start, o_end, _o_args = window
            hop_attempts = _pop_contained(attempts.get(device_name), o_start, o_end)
            for _s, _e, _args in _pop_contained(
                backoffs.get(device_name), o_start, o_end
            ):
                backoff_sum += _e - _s
            hop_stall = fold(
                e - s
                for s, e, _a in _pop_contained(stalls.get(device_name), o_start, o_end)
            )
            success = next(
                (a for a in hop_attempts if a[2].get("ok")), None
            )
            if success is not None:
                a_start, a_end, a_args = success
                observed = a_args.get("observed")
                if observed is None:
                    observed = a_end - a_start
                overhead = max(0.0, (a_end - a_start) - observed)
                memory = min(
                    hop_stall
                    + _dram_within(
                        dram,
                        a_start,
                        a_start + observed,
                        dram_tids.get(device_name) if dram_tids else None,
                    ),
                    observed,
                )
        retry = max(0.0, breakdown.retry - backoff_sum)
        out.append(
            LatencyAttribution(
                seq=seq,
                request=served.request,
                device=served.device,
                path=served.path,
                hedges=served.hedges,
                arrival=breakdown.arrival,
                completed=served.completed,
                segments=_build_segments(
                    admission=breakdown.queue_wait,
                    device_queue=breakdown.device_queue,
                    retry=retry,
                    backoff=backoff_sum,
                    memory=memory,
                    overhead=overhead,
                    end_to_end=breakdown.end_to_end,
                ),
            )
        )
    return out


def score_mispredictions(
    attributions: list[LatencyAttribution],
    pool,
    observatory,
) -> list[dict[str, Any]]:
    """Align observed attributions with predicted stage decompositions.

    For every accelerator-served request whose pricing interface can
    :meth:`~repro.core.petrinet.PetriNetInterface.predict_decomposition`,
    compare predicted vs observed cycles for the ``memory`` and
    ``compute`` stages and feed the errors into
    ``observatory.observe_stage`` (per device × size-class × stage).
    Returns one comparison dict per scored request, aligned with the
    scored subset of ``attributions`` — the raw material for
    ``perfscope explain``'s predicted-vs-observed table.
    """
    comparisons: list[dict[str, Any]] = []
    decomposers: dict[str, Any] = {}
    for pooled in getattr(pool, "devices", []):
        fn = getattr(pooled.price_interface, "predict_decomposition", None)
        if fn is not None:
            decomposers[pooled.name] = fn
    for attr in attributions:
        decompose = decomposers.get(attr.device)
        if decompose is None or attr.path != "accel":
            continue
        decomp = decompose(attr.request)
        predicted_memory = decomp.stages.get("memory", 0.0)
        predicted_compute = decomp.total - predicted_memory
        stages = attr.stages()
        observed_memory = stages.get("memory", 0.0)
        observed_compute = stages.get("compute", 0.0)
        rpc_class = (
            observatory.classifier(attr.request)
            if observatory is not None
            else type(attr.request).__name__
        )
        if observatory is not None:
            observatory.observe_stage(
                attr.device,
                rpc_class,
                "memory",
                predicted_memory,
                observed_memory,
                at=attr.completed,
            )
            observatory.observe_stage(
                attr.device,
                rpc_class,
                "compute",
                predicted_compute,
                observed_compute,
                at=attr.completed,
            )
        comparisons.append(
            {
                "seq": attr.seq,
                "device": attr.device,
                "rpc_class": rpc_class,
                "end_to_end": attr.end_to_end,
                "predicted": {
                    "memory": predicted_memory,
                    "compute": predicted_compute,
                    "total": decomp.total,
                },
                "observed": {
                    "memory": observed_memory,
                    "compute": observed_compute,
                    "total": attr.end_to_end,
                },
            }
        )
    return comparisons


def attribute_records(
    records,
    *,
    interface=None,
    classes=None,
) -> list[LatencyAttribution]:
    """Offline attribution of a device tape (no live pool, no tracer).

    Each :class:`~repro.runtime.device.CallRecord` splits into retry
    (``cycles - service_cycles``) and service; service further splits
    into memory vs compute by comparing against a per-class baseline —
    the interface's prediction when ``interface`` is given, else the
    median service of the record's *fault-free* class peers.  Records
    carrying DRAM-flavored faults (refresh storms, latency spikes)
    attribute their excess-over-baseline service to the memory stage.
    The exact-sum invariant holds per record, same as the live path.
    """
    from repro.runtime.faults import FaultKind

    if classes is None:
        from repro.obs.drift import DEFAULT_SIZE_CLASSES

        classes = DEFAULT_SIZE_CLASSES
    classify = classes.classify if hasattr(classes, "classify") else classes

    dram_kinds = {FaultKind.REFRESH_STORM, FaultKind.LATENCY_SPIKE}
    baselines: dict[str, float] = {}
    if interface is None:
        clean: dict[str, list[float]] = {}
        for r in records:
            if r.path == "accel" and not r.faults and r.service_cycles > 0:
                clean.setdefault(classify(r.request), []).append(r.service_cycles)
        for label, values in clean.items():
            values.sort()
            baselines[label] = values[len(values) // 2]

    out: list[LatencyAttribution] = []
    for seq, r in enumerate(records):
        service = r.service_cycles
        memory = 0.0
        if (
            r.path == "accel"
            and service > 0
            and any(k in dram_kinds for k in r.faults)
        ):
            label = classify(r.request)
            if interface is not None:
                baseline = interface.latency(r.request)
            else:
                baseline = baselines.get(label, service)
            memory = min(max(0.0, service - baseline), service)
        retry = max(0.0, r.cycles - service)
        out.append(
            LatencyAttribution(
                seq=seq,
                request=r.request,
                device="",
                path=r.path,
                hedges=0,
                arrival=0.0,
                completed=r.cycles,
                segments=_build_segments(
                    admission=0.0,
                    device_queue=0.0,
                    retry=retry,
                    backoff=0.0,
                    memory=memory,
                    overhead=0.0,
                    end_to_end=r.cycles,
                ),
            )
        )
    return out
