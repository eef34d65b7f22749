"""Open-loop serving on top of the device pool.

The §5 estimators and the E14 degradation benchmark drive devices
*closed-loop*: the next request starts when the previous one finishes,
so overload is invisible.  Real RPC servers are open-loop — requests
arrive when clients send them (Poisson arrivals,
:meth:`~repro.workloads.rpc.RpcMix.sample_open`), and when the fleet
cannot keep up the server must *drop* work, not pretend time stopped.

:class:`OpenLoopServer` is that front end, simulated event-driven on
the pool's virtual clocks:

* a **bounded admission queue** — an arrival finding the queue full is
  dropped on the floor immediately (``dropped``);
* **deadline shedding** — a queued request whose age exceeds the
  deadline by the time a dispatch slot frees is shed *without ever
  touching a device* (``shed``), so a backlogged fleet spends its
  cycles only on requests that can still make it;
* a **dispatch width** — at most ``max_inflight`` requests
  outstanding across the pool; freed slots pull from the queue in FIFO
  order and route through the pool's policy
  (:mod:`repro.runtime.pool`), hedging included.

The output (:class:`ServeResult`) carries every admitted request's
:class:`~repro.runtime.pool.PoolResult` plus the drop/shed ledger, so
a rate sweep yields the drop-rate/latency tradeoff curves the E15
benchmark tabulates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Generic, TypeVar

from repro.hw.stats import Summary

from .pool import DevicePool, PoolResult

RequestT = TypeVar("RequestT")

# ----------------------------------------------------------------------
# Rejection reasons.  Every refusal carries exactly one of these named
# constants (free-text reasons drift apart between emitters and make
# the `reason` metric label unaggregatable).
# ----------------------------------------------------------------------
#: The admission queue was full when the request arrived.
REASON_QUEUE_FULL = "queue_full"
#: The request aged past its deadline before a dispatch slot freed.
REASON_DEADLINE_EXCEEDED = "deadline_exceeded"
#: Brownout: the ladder is shedding this request's priority class.
REASON_PRIORITY_SHED = "priority_shed"
#: Brownout: the ladder is rejecting (almost) everything at admission.
REASON_ADMISSION_REJECTED = "admission_rejected"

#: All reasons a :class:`Rejection` may carry.
REJECTION_REASONS = (
    REASON_QUEUE_FULL,
    REASON_DEADLINE_EXCEEDED,
    REASON_PRIORITY_SHED,
    REASON_ADMISSION_REJECTED,
)

#: Priority class assigned when no ``priority_fn`` is configured.
DEFAULT_PRIORITY = "normal"


@dataclass(frozen=True)
class Rejection(Generic[RequestT]):
    """A request the server refused to serve."""

    request: RequestT
    arrival: float
    time: float  # when the refusal happened
    reason: str  # one of :data:`REJECTION_REASONS`
    priority: str = DEFAULT_PRIORITY  # the request's priority class


@dataclass(frozen=True)
class RequestBreakdown:
    """Where one served request's end-to-end cycles went.

    The four components partition the wall exactly:
    ``queue_wait + device_queue + service + retry == completed - arrival``
    (asserted in ``tests/runtime/test_serving.py``).  ``queue_wait`` is
    server-side (admission queue + dispatch-width backlog before the
    pool ever saw the request); the rest is the pool-side decomposition
    from :class:`~repro.runtime.pool.PoolResult`.
    """

    arrival: float
    completed: float
    queue_wait: float  # admission queue, before dispatch
    device_queue: float  # device FIFO backlog, after dispatch
    service: float  # the successful attempt / fallback work
    retry: float  # failed attempts, backoff, watchdog waits, hedging

    @property
    def end_to_end(self) -> float:
        return self.completed - self.arrival

    @property
    def total(self) -> float:
        """Sum of the components; equals :attr:`end_to_end`."""
        return self.queue_wait + self.device_queue + self.service + self.retry


@dataclass
class ServeResult(Generic[RequestT]):
    """One open-loop run: who was served, who was refused, and how."""

    offered: int
    served: list[PoolResult[RequestT]] = field(default_factory=list)
    dropped: list[Rejection[RequestT]] = field(default_factory=list)  # queue full
    shed: list[Rejection[RequestT]] = field(default_factory=list)  # too old
    #: Aligned 1:1 with :attr:`served`.
    breakdowns: list[RequestBreakdown] = field(default_factory=list)

    @property
    def answered(self) -> list[PoolResult[RequestT]]:
        return [r for r in self.served if r.ok]

    @property
    def losses(self) -> int:
        """Requests that never got an answer.  The three loss ledgers
        are disjoint by construction — a rejected request (``dropped``
        or ``shed``) never reaches the pool, and a pool-level
        ``path="failed"`` result appears only in ``served`` — so each
        lost request is counted exactly once (regression-tested in
        ``tests/runtime/test_serving.py``)."""
        failed = sum(not r.ok for r in self.served)
        return len(self.dropped) + len(self.shed) + failed

    @property
    def loss_rate(self) -> float:
        """Fraction of offered requests that never got an answer
        (queue-full drops, deadline/brownout sheds, and pool-level
        failures).  An empty run has lost nothing."""
        if self.offered == 0:
            return 0.0
        return self.losses / self.offered

    def latency_summary(self) -> Summary:
        return Summary.of([r.cycles for r in self.answered])

    def hedge_count(self) -> int:
        return sum(r.hedges for r in self.served)


class OpenLoopServer(Generic[RequestT]):
    """Poisson-arrival front end over a :class:`DevicePool`.

    Args:
        pool: the routing fleet; its policy and breakers do the rest.
        queue_limit: admission-queue capacity; arrivals beyond it drop.
        deadline: relative per-request deadline in cycles.  Checked at
            dequeue (a request older than this is shed un-dispatched)
            and passed through to the pool so hedging stops once a
            request is already late.  ``None`` disables shedding.
        max_inflight: dispatch width — outstanding requests across the
            fleet.  Defaults to two per device, enough backlog for the
            queue-aware policies to have something to see.
        priority_fn: maps a request to its priority class label (e.g.
            ``"low"``/``"normal"``/``"high"``).  The label rides on
            every :class:`Rejection` and is what brownout
            priority-shedding keys on.  ``None`` labels everything
            :data:`DEFAULT_PRIORITY`.
        controller: optional live control plane (duck-typed; see
            :class:`repro.scale.ScaleController`).  The server calls,
            when present: ``attach(server)`` once at construction,
            ``tick(now, queue_depth)`` at every arrival,
            ``admission_reason(request, priority, now, queue_depth)``
            before enqueueing (a non-``None`` reason refuses the
            request), ``observe(result, breakdown)`` after each
            dispatch, and ``observe_loss(reason, now)`` on each
            refusal.  All methods are optional.
        obs: :class:`repro.obs.Obs` bundle; defaults to the pool's own.
            The server emits admission-queue-wait spans and shed/drop
            instants into the tracer and outcome counters into the
            metrics registry.
    """

    def __init__(
        self,
        pool: DevicePool,
        *,
        queue_limit: int = 64,
        deadline: float | None = None,
        max_inflight: int | None = None,
        priority_fn=None,
        controller=None,
        obs=None,
    ):
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        self.pool = pool
        self.queue_limit = queue_limit
        self.deadline = deadline
        self.max_inflight = (
            max_inflight if max_inflight is not None else 2 * len(pool.devices)
        )
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.priority_fn = priority_fn
        self.controller = controller
        self.obs = obs if obs is not None else getattr(pool, "obs", None)
        tracer = getattr(self.obs, "tracer", None)
        self._tracer = (
            tracer if tracer is not None and getattr(tracer, "enabled", True) else None
        )
        self._metrics = getattr(self.obs, "metrics", None)
        self._tsdb = getattr(self.obs, "tsdb", None)
        attach = getattr(controller, "attach", None)
        if attach is not None:
            attach(self)

    def run(
        self,
        requests: list[RequestT],
        arrivals: list[float],
    ) -> ServeResult[RequestT]:
        """Serve the open-loop trace (absolute Poisson arrival times,
        e.g. from ``RpcMix.sample_open``) to completion."""
        if len(requests) != len(arrivals):
            raise ValueError("requests and arrivals must align")
        result: ServeResult[RequestT] = ServeResult(offered=len(requests))
        waiting: deque[tuple[float, RequestT, str]] = deque()
        inflight: list[float] = []  # min-heap of completion times
        tracer = self._tracer
        metrics = self._metrics
        controller = self.controller
        observe = getattr(controller, "observe", None)
        observe_loss = getattr(controller, "observe_loss", None)
        admission_reason = getattr(controller, "admission_reason", None)
        ctick = getattr(controller, "tick", None)

        def count(outcome: str, reason: str | None = None) -> None:
            if metrics is not None:
                labels = {"outcome": outcome}
                if reason is not None:
                    labels["reason"] = reason
                metrics.counter("server_requests_total", **labels).inc()

        def lost(kind: str, rejection: Rejection[RequestT]) -> None:
            """Record one refusal everywhere it is consumed."""
            outcome = "shed" if kind == "shed" else "dropped"
            if tracer is not None:
                tracer.instant(
                    kind,
                    rejection.time,
                    cat="runtime.server",
                    tid="server",
                    args={
                        "reason": rejection.reason,
                        "priority": rejection.priority,
                        "waited": rejection.time - rejection.arrival,
                    },
                )
            count(outcome, rejection.reason)
            if observe_loss is not None:
                observe_loss(rejection.reason, rejection.time)

        def pump(now: float) -> None:
            """Pull from the queue while dispatch slots are free."""
            while waiting and len(inflight) < self.max_inflight:
                arrived, request, priority = waiting.popleft()
                start = max(now, arrived)
                if self.deadline is not None and start - arrived > self.deadline:
                    rejection = Rejection(
                        request, arrived, start, REASON_DEADLINE_EXCEEDED, priority
                    )
                    result.shed.append(rejection)
                    lost("shed", rejection)
                    continue
                if tracer is not None and start > arrived:
                    tracer.add_span(
                        "admission_wait",
                        arrived,
                        start,
                        cat="runtime.server",
                        tid="server",
                    )
                absolute = arrived + self.deadline if self.deadline else None
                served = self.pool.dispatch(request, start, deadline=absolute)
                result.served.append(served)
                breakdown = RequestBreakdown(
                    arrival=arrived,
                    completed=served.completed,
                    queue_wait=start - arrived,
                    device_queue=served.queue_cycles,
                    service=served.service_cycles,
                    retry=served.retry_cycles,
                )
                result.breakdowns.append(breakdown)
                if metrics is not None:
                    metrics.histogram("server_queue_wait_cycles").observe(
                        start - arrived
                    )
                count("served" if served.ok else "failed")
                if observe is not None:
                    observe(served, breakdown)
                heappush(inflight, served.completed)

        def retire(until: float) -> None:
            """Free completed slots up to ``until``, pumping at each."""
            while inflight and inflight[0] <= until:
                pump(heappop(inflight))

        tsdb = self._tsdb
        for request, arrived in zip(requests, arrivals, strict=True):
            retire(arrived)
            if tsdb is not None:
                # Throttled: one float comparison per arrival when it is
                # too early to fold another metrics snapshot.
                tsdb.maybe_pump(metrics, arrived)
                tsdb.record("server_queue_depth", arrived, len(waiting))
            priority = (
                self.priority_fn(request)
                if self.priority_fn is not None
                else DEFAULT_PRIORITY
            )
            if ctick is not None:
                ctick(arrived, len(waiting))
            if admission_reason is not None:
                reason = admission_reason(request, priority, arrived, len(waiting))
                if reason is not None:
                    rejection = Rejection(request, arrived, arrived, reason, priority)
                    # Brownout sheds a class on purpose; everything else
                    # refused at the door is a drop.
                    if reason == REASON_PRIORITY_SHED:
                        result.shed.append(rejection)
                        lost("shed", rejection)
                    else:
                        result.dropped.append(rejection)
                        lost("drop", rejection)
                    continue
            if len(waiting) >= self.queue_limit:
                rejection = Rejection(
                    request, arrived, arrived, REASON_QUEUE_FULL, priority
                )
                result.dropped.append(rejection)
                lost("drop", rejection)
                continue
            waiting.append((arrived, request, priority))
            pump(arrived)

        while inflight or waiting:  # drain: no more arrivals
            if inflight:
                pump(heappop(inflight))
            else:  # every slot free: the rest of the queue pumps out
                pump(waiting[0][0])
        if tsdb is not None:
            # Final fold so the stored run ends at the run's end state:
            # after the last completion and after the last arrival (the
            # run may end on refusals, or serve nothing at all), so it
            # never lands before an earlier fold.
            last = max(
                max((r.completed for r in result.served), default=0.0),
                max(arrivals, default=0.0),
            )
            tsdb.pump(metrics, last)
        return result
