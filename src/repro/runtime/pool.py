"""Heterogeneous device pool: breaker-aware failover routing.

One :class:`~repro.runtime.device.ResilientDevice` degrades to its own
host's CPU when the accelerator misbehaves.  A serving fleet can do
better: when Protoacc trips its breaker, the request is usually worth
*re-routing* — to an Optimus Prime card, or to a software server — not
worth absorbing locally.  :class:`DevicePool` is that layer: a front
door over heterogeneous resilient devices, each with its own fault
plan, circuit breaker, and retry policy, plus a pluggable router that
only ever considers devices whose breakers would admit the call.

Routing policies (:data:`ROUTING_POLICIES`):

* ``round_robin`` — rotate over admitting devices; the classic
  load-spreading baseline, blind to heterogeneity.
* ``least_outstanding`` — pick the admitting device with the fewest
  requests still in flight (join-the-shortest-queue).
* ``interface_predicted`` — the headline policy: price each admitting
  device as *backlog drain + interface-predicted service time +
  invocation overhead*, using the device's own performance interface
  (the Petri-net IR through its lowered batch engine, with a shared
  :class:`~repro.perf.EvalCache` across devices), and pick the minimum.
  This is the paper's thesis operationalized: performance interfaces
  make placement decisions mechanical.

When a device fails a dispatched request mid-flight (its breaker trips
while the call retries, or attempts exhaust), the pool *hedges*: the
failed call's burned cycles are charged to the request and it is
re-dispatched at the failure time to the best remaining device, never
returning to one it already failed on.

Everything runs on the repo's virtual clocks — deterministic,
replayable, and instant.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Generic, TypeVar

from repro.hw.stats import Summary

from .device import CallRecord, ResilientDevice
from .faults import FaultKind

RequestT = TypeVar("RequestT")
ResponseT = TypeVar("ResponseT")


@dataclass(frozen=True)
class PoolResult(Generic[RequestT]):
    """One request's journey through the pool."""

    request: RequestT
    arrival: float  # when the pool accepted the request
    completed: float  # when the final device answered (or gave up)
    device: str  # device that produced the outcome ("" if none admitted)
    path: str  # "accel", "cpu", or "failed"
    hedges: int  # re-dispatches after a mid-flight device failure
    devices_tried: tuple[str, ...]
    faults: tuple[FaultKind, ...]
    #: Where the cycles went.  Exact decomposition:
    #: ``queue_cycles + service_cycles + retry_cycles == cycles``.
    queue_cycles: float = 0.0  # waiting in device FIFOs before service
    service_cycles: float = 0.0  # the successful attempt / fallback work
    retry_cycles: float = 0.0  # failed attempts, backoff, watchdog waits

    @property
    def cycles(self) -> float:
        """End-to-end latency: queueing + service + hedging, in cycles."""
        return self.completed - self.arrival

    @property
    def ok(self) -> bool:
        return self.path != "failed"


class PooledDevice(Generic[RequestT, ResponseT]):
    """A :class:`ResilientDevice` plus the pool-side bookkeeping the
    router needs: a name, a pricing interface, and the in-flight ledger.

    Args:
        name: unique routing name within the pool.
        device: the served endpoint (keeps its own breaker/faults/tape).
        price_interface: interface used by ``interface_predicted``
            routing; defaults to the device's own serving interface.
        contract: optional :class:`~repro.lint.PerfContract` for the
            pricing interface.  The pool statically checks it at
            registration (see :class:`DevicePool`) and exposes it in
            :meth:`DevicePool.snapshot`.
    """

    def __init__(
        self,
        name: str,
        device: ResilientDevice[RequestT, ResponseT],
        *,
        price_interface=None,
        contract=None,
    ):
        self.name = name
        self.device = device
        self.price_interface = price_interface or device.interface
        self.contract = contract
        self.dispatched = 0
        self._completions: list[float] = []  # sorted completion times
        #: Brownout mode (set via :meth:`DevicePool.set_coarse_pricing`):
        #: price from the per-size-class cache instead of evaluating the
        #: interface per request.
        self.coarse_pricing = False
        self._coarse_prices: dict[str, float] = {}

    def available(self, now: float) -> bool:
        """Would this device's breaker admit a call at ``now``?"""
        return self.device.available(now)

    def busy_until(self, now: float) -> float:
        """When the device could *start* a request arriving at ``now``
        (its FIFO backlog drains at ``device.clock``)."""
        return max(self.device.clock, now)

    def outstanding(self, now: float) -> int:
        """Dispatched requests not yet completed at ``now``."""
        done = bisect_right(self._completions, now)
        if done:  # prune the settled prefix; queries move forward in time
            del self._completions[:done]
        return len(self._completions)

    def price(self, request: RequestT, now: float) -> float:
        """Predicted completion time of ``request`` on this device:
        backlog drain + interface-predicted service + offload overhead.

        Under brownout coarse pricing (:attr:`coarse_pricing`) the
        service+overhead term comes from a per-size-class cache — the
        first request of each class is priced exactly and every later
        one reuses that number, so a browned-out router spends zero
        engine cycles per decision."""
        if self.coarse_pricing:
            return self.busy_until(now) + self._coarse_service(request)
        overhead = (
            self.device.invocation_overhead(request)
            if self.device.invocation_overhead is not None
            else 0.0
        )
        return self.busy_until(now) + self.price_interface.latency(request) + overhead

    def _coarse_service(self, request: RequestT) -> float:
        """Cached service+overhead estimate keyed by RPC size class."""
        from repro.obs.drift import rpc_size_class

        label = rpc_size_class(request)
        cached = self._coarse_prices.get(label)
        if cached is None:
            overhead = (
                self.device.invocation_overhead(request)
                if self.device.invocation_overhead is not None
                else 0.0
            )
            cached = self.price_interface.latency(request) + overhead
            self._coarse_prices[label] = cached
        return cached

    def price_batch(self, requests: Sequence[RequestT], now: float) -> list[float]:
        """Predicted completion time for every request, priced as a batch.

        Same numbers as ``[self.price(r, now) for r in requests]`` — the
        interface's ``evaluate_batch`` is bit-identical to its per-item
        path — but the service predictions come from one engine pass
        (and, with a cache attached, one batched lookup), which is what
        makes scoring a large candidate matrix against the whole pool
        affordable.
        """
        start = self.busy_until(now)
        latencies = self.price_interface.evaluate_batch(requests)
        if self.device.invocation_overhead is not None:
            return [
                start + lat + self.device.invocation_overhead(request)
                for lat, request in zip(latencies, requests)
            ]
        return [start + lat for lat in latencies]

    def serve(self, request: RequestT, now: float) -> CallRecord[RequestT, ResponseT]:
        """Run the request through the device's full serving loop,
        starting no earlier than ``now`` (joins the device's FIFO)."""
        self.device.clock = self.busy_until(now)
        record = self.device.offload(request)
        insort(self._completions, self.device.clock)
        self.dispatched += 1
        return record


# ----------------------------------------------------------------------
# Routing policies
# ----------------------------------------------------------------------
class RoutingPolicy:
    """Picks one device among the breaker-admitting candidates.

    The pool guarantees ``candidates`` is non-empty and every member is
    ``available(now)``; a policy must return one of them (anything else
    counts as a routing-invariant violation and is overridden)."""

    name = "abstract"

    def pick(
        self,
        candidates: Sequence[PooledDevice],
        request,
        now: float,
    ) -> PooledDevice:
        raise NotImplementedError


class RoundRobinPolicy(RoutingPolicy):
    """Rotate over the admitting devices, blind to load and size."""

    name = "round_robin"

    def __init__(self):
        self._cursor = 0

    def pick(self, candidates, request, now):
        choice = candidates[self._cursor % len(candidates)]
        self._cursor += 1
        return choice


class LeastOutstandingPolicy(RoutingPolicy):
    """Join the shortest queue: fewest in-flight requests wins, ties
    broken by whoever frees up first."""

    name = "least_outstanding"

    def pick(self, candidates, request, now):
        return min(candidates, key=lambda d: (d.outstanding(now), d.busy_until(now)))


class InterfacePredictedPolicy(RoutingPolicy):
    """Minimize the *interface-predicted* completion time.

    The only policy that sees heterogeneity: a large pointer-heavy
    message prices high on Optimus Prime and low on Protoacc, so it
    lands where the hardware actually serves it fastest."""

    name = "interface_predicted"

    def pick(self, candidates, request, now):
        return min(candidates, key=lambda d: d.price(request, now))


ROUTING_POLICIES = {
    policy.name: policy
    for policy in (RoundRobinPolicy, LeastOutstandingPolicy, InterfacePredictedPolicy)
}


def make_routing_policy(spec: str | RoutingPolicy) -> RoutingPolicy:
    """Resolve a policy name (or pass an instance through).  Policies
    are stateful (round-robin keeps a cursor), so each pool gets a
    fresh instance."""
    if isinstance(spec, RoutingPolicy):
        return spec
    try:
        return ROUTING_POLICIES[spec]()
    except KeyError:
        known = ", ".join(sorted(ROUTING_POLICIES))
        raise ValueError(f"unknown routing policy {spec!r} (known: {known})") from None


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class DevicePool(Generic[RequestT, ResponseT]):
    """Breaker-aware failover front door over heterogeneous devices.

    Args:
        devices: the pooled endpoints; names must be unique.  Include a
            breaker-less CPU device to guarantee the pool always has an
            admitting member.
        policy: routing policy name or instance (see
            :data:`ROUTING_POLICIES`).
        cache: the shared :class:`~repro.perf.EvalCache` the devices'
            pricing interfaces use, if any — kept so :meth:`snapshot`
            can report hit rates alongside serving health.
        obs: an :class:`repro.obs.Obs` bundle; the pool emits dispatch
            spans, per-hop queue-wait spans, hedge instants, and
            request/hedge counters into it.
    """

    def __init__(
        self,
        devices: Sequence[PooledDevice[RequestT, ResponseT]],
        policy: str | RoutingPolicy = "round_robin",
        *,
        cache=None,
        obs=None,
    ):
        names = [d.name for d in devices]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate device names in pool: {names}")
        if not devices:
            raise ValueError("a pool needs at least one device")
        for d in devices:
            self._check_contract(d)
        self.devices = list(devices)
        self.policy = make_routing_policy(policy)
        self.cache = cache
        self.obs = obs
        tracer = getattr(obs, "tracer", None)
        self._tracer = (
            tracer if tracer is not None and getattr(tracer, "enabled", True) else None
        )
        self._metrics = getattr(obs, "metrics", None)
        #: Set by :meth:`repro.heal.HealingManager.attach`; when present
        #: the lifecycle view rides along in :meth:`snapshot`.
        self.healer = None
        #: Set by :class:`repro.scale.ScaleController`; when present the
        #: brownout-ladder and autoscaler views ride in :meth:`snapshot`.
        self.ladder = None
        self.scaler = None
        #: Brownout switch (rung 1 of the degradation ladder): when
        #: False, a mid-flight device failure is reported as-is instead
        #: of being re-dispatched to another device.
        self.hedging_enabled = True
        self.results: list[PoolResult[RequestT]] = []
        #: Routing-invariant breaches (policy picked outside the
        #: admitting set, or an "admitting" device rejected at its
        #: breaker).  A healthy pool keeps this at zero; CI asserts it.
        self.invariant_violations = 0

    def device(self, name: str) -> PooledDevice[RequestT, ResponseT]:
        for d in self.devices:
            if d.name == name:
                return d
        raise KeyError(name)

    @staticmethod
    def _check_contract(pooled: PooledDevice) -> None:
        contract = getattr(pooled, "contract", None)
        if contract is None:
            return
        problems = contract.validate()
        if problems:
            raise ValueError(
                f"device {pooled.name!r} registered with an invalid "
                f"performance contract: " + "; ".join(problems)
            )

    # ------------------------------------------------------------------
    # Membership (the autoscaler's surface)
    # ------------------------------------------------------------------
    def add_device(self, pooled: PooledDevice[RequestT, ResponseT]) -> None:
        """Admit a new device to the routing set, mid-serve.

        The same gates as construction apply: unique name, valid
        performance contract.  The next dispatch can route to it."""
        if any(d.name == pooled.name for d in self.devices):
            raise ValueError(f"duplicate device name {pooled.name!r}")
        self._check_contract(pooled)
        pooled.coarse_pricing = any(d.coarse_pricing for d in self.devices)
        self.devices.append(pooled)
        if self._metrics is not None:
            self._metrics.gauge("pool_devices").set(len(self.devices))

    def remove_device(self, name: str) -> PooledDevice[RequestT, ResponseT]:
        """Retire a device from the routing set and return it.

        Routing-only: the device object (clock, breaker, tape) is
        untouched, so its records stay replayable and it can rejoin
        later via :meth:`add_device`."""
        if len(self.devices) == 1:
            raise ValueError("cannot remove the last device from a pool")
        pooled = self.device(name)
        self.devices.remove(pooled)
        if self._metrics is not None:
            self._metrics.gauge("pool_devices").set(len(self.devices))
        return pooled

    def set_coarse_pricing(self, enabled: bool) -> None:
        """Flip brownout coarse pricing on every pooled device (see
        :meth:`PooledDevice.price`).  Re-enabling exact pricing clears
        the caches so a later brownout re-prices from current
        interfaces (a hot-swap may have changed them)."""
        for d in self.devices:
            d.coarse_pricing = enabled
            if not enabled:
                d._coarse_prices.clear()

    def available_devices(
        self, now: float, *, exclude: Sequence[str] = ()
    ) -> list[PooledDevice[RequestT, ResponseT]]:
        """Devices whose breakers would admit a call at ``now``."""
        return [
            d for d in self.devices if d.name not in exclude and d.available(now)
        ]

    def dispatch(
        self,
        request: RequestT,
        now: float,
        *,
        deadline: float | None = None,
    ) -> PoolResult[RequestT]:
        """Serve one request, hedging across devices on mid-flight
        failure.  ``deadline`` (absolute cycles) stops hedging once the
        request is already late — the pool reports it failed rather
        than burn a healthy device on a dead request."""
        tracer = self._tracer
        tried: list[str] = []
        faults: list[FaultKind] = []
        hedges = 0
        t = now
        final_path = "failed"
        final_device = ""
        queue = 0.0
        service = 0.0
        retry = 0.0

        while True:
            candidates = self.available_devices(t, exclude=tried)
            if not candidates:
                break  # nobody will admit it: pool-level failure
            choice = self.policy.pick(candidates, request, t)
            if choice not in candidates:
                self.invariant_violations += 1
                choice = candidates[0]
            tried.append(choice.name)
            start = choice.busy_until(t)
            if start > t:
                queue += start - t
                if tracer is not None:
                    tracer.add_span(
                        "queue",
                        t,
                        start,
                        cat="runtime.queue",
                        tid=choice.name,
                        args={"backlog": choice.outstanding(t)},
                    )
            record = choice.serve(request, t)
            faults.extend(record.faults)
            service += record.service_cycles
            # Subtraction of two accumulated floats can land a hair
            # below zero; the component must stay non-negative.
            retry += max(0.0, record.cycles - record.service_cycles)
            t = choice.device.clock  # completion (or give-up) time
            if record.attempts == 0 and record.path == "failed":
                # The router saw an admitting device but its breaker
                # refused at serve time: the availability check and the
                # breaker disagree.  Never expected; counted for CI.
                self.invariant_violations += 1
            if record.path != "failed":
                final_path = record.path
                final_device = choice.name
                break
            final_device = choice.name
            if deadline is not None and t >= deadline:
                break  # already late: don't hedge a dead request
            if not self.hedging_enabled:
                break  # browned out: surface the failure, save the fleet
            hedges += 1
            if tracer is not None:
                tracer.instant(
                    "hedge",
                    t,
                    cat="runtime.pool",
                    tid="pool",
                    args={"failed_on": choice.name, "hedge": hedges},
                )

        result = PoolResult(
            request=request,
            arrival=now,
            completed=t,
            device=final_device,
            path=final_path,
            hedges=hedges,
            devices_tried=tuple(tried),
            faults=tuple(faults),
            queue_cycles=queue,
            service_cycles=service,
            retry_cycles=retry,
        )
        self.results.append(result)
        if tracer is not None:
            tracer.add_span(
                "dispatch",
                now,
                t,
                cat="runtime.pool",
                tid="pool",
                args={
                    "device": final_device,
                    "path": final_path,
                    "hedges": hedges,
                    "seq": len(self.results) - 1,
                },
            )
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(
                "pool_requests_total", policy=self.policy.name, path=final_path
            ).inc()
            if hedges:
                metrics.counter("pool_hedges_total", policy=self.policy.name).inc(
                    hedges
                )
            metrics.histogram(
                "pool_request_cycles", policy=self.policy.name
            ).observe(t - now)
        return result

    def price_matrix(
        self, requests: Sequence[RequestT], now: float
    ) -> dict[str, list[float]]:
        """Interface-predicted completion time of every request on every
        currently-admitting device — the scoring table capacity planners
        and hedging analyses read.  Each row is one batched interface
        pass (see :meth:`PooledDevice.price_batch`), so a 1000-request
        matrix over a heterogeneous pool costs a handful of engine
        passes instead of ``len(requests) * len(devices)`` simulations.
        """
        return {
            d.name: d.price_batch(requests, now)
            for d in self.available_devices(now)
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def device_loads(self) -> dict[str, int]:
        """Requests dispatched per device (hedged retries included)."""
        return {d.name: d.dispatched for d in self.devices}

    def latencies(self) -> list[float]:
        """End-to-end cycles of the *answered* requests."""
        return [r.cycles for r in self.results if r.ok]

    def failure_fraction(self) -> float:
        if not self.results:
            return 0.0
        return sum(not r.ok for r in self.results) / len(self.results)

    def hedge_count(self) -> int:
        return sum(r.hedges for r in self.results)

    def summary(self) -> Summary:
        return Summary.of(self.latencies())

    def snapshot(self) -> dict:
        """One structured health snapshot: serving outcomes, per-device
        breaker state and load, and the shared eval-cache hit rate —
        what ``perfscope report`` (and an operator dashboard) reads."""
        devices = {}
        for d in self.devices:
            breaker = d.device.breaker
            devices[d.name] = {
                "dispatched": d.dispatched,
                "clock": d.device.clock,
                "breaker": breaker.state.value if breaker is not None else None,
                "breaker_transitions": (
                    len(breaker.transitions) if breaker is not None else 0
                ),
                "fallback_fraction": d.device.fallback_fraction(),
                "faults": d.device.fault_count(),
            }
            if d.contract is not None:
                c = d.contract
                devices[d.name]["contract"] = {
                    "evaluability": c.evaluability,
                    "min_latency": c.min_latency,
                    "max_latency": (
                        c.max_latency if c.max_latency != float("inf") else "inf"
                    ),
                    "proven_monotone": sorted(
                        m.feature for m in c.monotone if m.proven
                    ),
                }
        snap = {
            "requests": len(self.results),
            "policy": self.policy.name,
            "failure_fraction": self.failure_fraction(),
            "hedges": self.hedge_count(),
            "invariant_violations": self.invariant_violations,
            "devices": devices,
        }
        if self.cache is not None:
            stats = self.cache.stats
            snap["eval_cache"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "uncacheable": stats.uncacheable,
                "hit_rate": stats.hit_rate,
            }
        if self.healer is not None:
            snap["healing"] = self.healer.snapshot()
        if self.ladder is not None:
            snap["brownout"] = self.ladder.snapshot()
        if self.scaler is not None:
            snap["scaling"] = self.scaler.snapshot()
        observatory = getattr(self.obs, "observatory", None)
        if observatory is not None and hasattr(observatory, "top_mispredicted_stage"):
            attribution = {}
            for d in self.devices:
                top = observatory.top_mispredicted_stage(d.name)
                if top is not None:
                    attribution[d.name] = {"stage": top[0], "err_mean": top[1]}
            if attribution:
                snap["attribution"] = attribution
        tsdb = getattr(self.obs, "tsdb", None)
        if tsdb is not None:
            snap["tsdb"] = tsdb.snapshot()
        return snap


# ----------------------------------------------------------------------
# The standard RPC-serialization pool scenario
# ----------------------------------------------------------------------
_CONTRACT_CACHE: dict[str, object] = {}


def _accel_contracts() -> dict:
    """Verified performance contracts for the fleet's accelerators,
    derived once per process — :func:`repro.lint.analyze_bundle` runs
    the full symbolic-bound analysis, which is too slow to repeat per
    pool construction."""
    if not _CONTRACT_CACHE:
        from repro.accel.optimusprime.interfaces import (
            perf_contract as optimus_contract,
        )
        from repro.accel.protoacc.interfaces import (
            perf_contract as protoacc_contract,
        )

        _CONTRACT_CACHE["protoacc"] = protoacc_contract()
        _CONTRACT_CACHE["optimus-prime"] = optimus_contract()
    return _CONTRACT_CACHE


#: Device kinds :func:`rpc_device` can build, with the relative
#: fleet cost the capacity planner prices compositions by (arbitrary
#: "price units" per device: the accelerator cards cost more than a
#: software server, Protoacc more than Optimus Prime).
RPC_DEVICE_KINDS = ("protoacc", "optimus-prime", "cpu")
RPC_DEVICE_COSTS = {"protoacc": 3.0, "optimus-prime": 2.0, "cpu": 1.0}


def rpc_device(
    kind: str,
    *,
    name: str | None = None,
    seed: int = 17,
    cache=None,
    obs=None,
    fault_plan=None,
    with_breaker: bool = True,
) -> PooledDevice:
    """Build one pooled device of the standard RPC-serialization fleet.

    The single construction path shared by :func:`rpc_pool`, the
    autoscaler's scale-out templates, and the capacity planner's
    costing candidates — all three must price and serve identically or
    a planned fleet would not behave like the deployed one.

    ``kind`` is one of :data:`RPC_DEVICE_KINDS`.  Accelerator kinds are
    priced through their Petri-net interfaces (sharing ``cache``) and
    carry their verified :class:`~repro.lint.PerfContract`; the CPU
    software server is its own ground truth and ships breaker-less (it
    always admits), so a pool containing one is never without a device.
    """
    from repro.accel.cpu import CpuSerializerModel, offload_overhead
    from repro.core.program import ProgramInterface
    from repro.perf import EvalCache

    from .breaker import BreakerConfig, CircuitBreaker
    from .degrade import rpc_cpu_fallback
    from .retry import RetryPolicy
    from .watchdog import Watchdog

    cache = cache if cache is not None else EvalCache()
    tracer = getattr(obs, "tracer", None)
    fallback = rpc_cpu_fallback()
    name = name or kind

    def breaker() -> CircuitBreaker | None:
        if not with_breaker:
            return None
        return CircuitBreaker(
            BreakerConfig(
                failure_threshold=4,
                recovery_cycles=200_000.0,
                probe_successes=2,
            )
        )

    if kind == "protoacc":
        from repro.accel.protoacc import ProtoaccSerializerModel
        from repro.accel.protoacc import petri_interface as protoacc_petri

        device = ResilientDevice(
            ProtoaccSerializerModel(tracer=tracer),
            protoacc_petri(cache=cache, tracer=tracer),
            fallback,
            fault_plan=fault_plan,
            watchdog=Watchdog(budget=20_000.0),
            retry=RetryPolicy(max_attempts=2, seed=seed),
            breaker=breaker(),
            invocation_overhead=offload_overhead,
            name=name,
            obs=obs,
        )
        return PooledDevice(name, device, contract=_accel_contracts()["protoacc"])
    if kind == "optimus-prime":
        from repro.accel.optimusprime import OptimusPrimeModel
        from repro.accel.optimusprime import petri_interface as optimus_petri

        device = ResilientDevice(
            OptimusPrimeModel(),
            optimus_petri(cache=cache, tracer=tracer),
            fallback,
            fault_plan=fault_plan,
            watchdog=Watchdog(budget=20_000.0),
            retry=RetryPolicy(max_attempts=2, seed=seed),
            breaker=breaker(),
            invocation_overhead=offload_overhead,
            name=name,
            obs=obs,
        )
        return PooledDevice(
            name, device, contract=_accel_contracts()["optimus-prime"]
        )
    if kind == "cpu":
        cpu_model = CpuSerializerModel()
        device = ResilientDevice(
            cpu_model,
            # Software is its own ground truth: a perfect interface.
            ProgramInterface("xeon-sw", latency_fn=cpu_model.measure_latency),
            fallback,
            fault_plan=fault_plan,
            # No faults, no breaker: the software server always admits
            # and always answers.
            name=name,
            obs=obs,
        )
        return PooledDevice(name, device)
    raise ValueError(
        f"unknown device kind {kind!r} (known: {', '.join(RPC_DEVICE_KINDS)})"
    )


def rpc_pool(
    policy: str | RoutingPolicy = "interface_predicted",
    *,
    faults: str = "none",
    seed: int = 17,
    cache=None,
    obs=None,
) -> DevicePool:
    """The benchmark/example fleet: Protoacc + Optimus Prime + a CPU
    software server, each wrapped as a :class:`ResilientDevice` with
    its own fault plan, breaker, and retry policy.

    ``faults``:

    * ``"none"`` — every device serves faultlessly (heterogeneity and
      queueing still apply).
    * ``"storm"`` — Protoacc takes a hang/drop/corrupt storm severe
      enough to trip its breaker; Optimus Prime sees background latency
      spikes; the CPU stays clean.  The pool must keep answering.
    * ``"dram"`` — Protoacc suffers frequent DRAM refresh storms: the
      device keeps *answering* (no hangs, no breaker trips — the storm
      cycles stay under the watchdog budget) but its memory stage
      silently inflates, which is exactly the misprediction shape the
      attribution layer exists to localize (``perfscope explain``
      names the memory stage; asserted in
      ``tests/integration/test_attribution_bottleneck.py``).

    All accelerator devices are priced through their Petri-net
    interfaces, sharing one
    :class:`~repro.perf.EvalCache` (pass ``cache`` to share it wider,
    e.g. across the policies of a sweep).

    ``obs`` (an :class:`repro.obs.Obs` bundle) instruments the whole
    stack: the tracer is threaded into the Protoacc ground-truth model
    (DRAM spans), both Petri-net pricing interfaces (firing spans on
    cache misses), and every device's serving loop; the metrics
    registry and drift observatory ride along on each device and on
    the pool itself.
    """
    from repro.perf import EvalCache

    from .faults import FaultPlan, FaultSpec

    if faults not in ("none", "storm", "dram"):
        raise ValueError(
            f"faults must be 'none', 'storm', or 'dram', got {faults!r}"
        )
    cache = cache if cache is not None else EvalCache()
    metrics = getattr(obs, "metrics", None)
    if metrics is not None:
        cache.bind_metrics(metrics, cache="pool")

    storm_spec = FaultSpec(hang_rate=0.25, drop_rate=0.10, corrupt_rate=0.05)
    background_spec = FaultSpec(spike_rate=0.02, spike_scale=3.0)
    # Storm cycles sit far under the 20k-cycle watchdog budget, so the
    # device answers every call — slower, not broken.
    dram_spec = FaultSpec(storm_rate=0.45, storm_cycles=6_000.0)

    protoacc_plan = None
    optimus_plan = None
    if faults == "storm":
        protoacc_plan = FaultPlan(seed, storm_spec)
        optimus_plan = FaultPlan(seed + 1, background_spec)
    elif faults == "dram":
        protoacc_plan = FaultPlan(seed, dram_spec)

    protoacc = rpc_device(
        "protoacc",
        seed=seed,
        cache=cache,
        obs=obs,
        fault_plan=protoacc_plan,
    )
    optimus = rpc_device(
        "optimus-prime",
        seed=seed + 1,
        cache=cache,
        obs=obs,
        fault_plan=optimus_plan,
    )
    cpu = rpc_device("cpu", obs=obs)
    return DevicePool(
        [protoacc, optimus, cpu],
        policy=policy,
        cache=cache,
        obs=obs,
    )
