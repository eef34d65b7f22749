"""The benchmark's four workloads.

Each workload makes its inputs from a seed with the repository's public
generators, builds the fleet or interfaces it drives, and runs one pass
per cache regime:

* ``nocache`` -- pricing or evaluation with no EvalCache attached;
* ``cold``    -- a fresh, empty EvalCache (for serving, the shipped
  E15/E17 configuration);
* ``warm``    -- the same inputs again against the cache the cold pass
  filled (re-opened from its JSONL file where the workload has one).

A pass returns one outcome per operation (a request, an image, a
tuning candidate) plus ``extra`` behaviour that is not per operation
(scale events, best tilings).  Both are virtual-cycle results, so they
must not differ between regimes, rounds, processes, traced and
untraced runs, or from a golden file.  The host CPU a pass takes is
what the benchmark measures.

Repository modules are imported by the child process through
``MODULES`` before inputs are generated, so input generation can be
timed apart from set-up.  Functions the traced run wraps are looked up
on their modules at call time.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager

REGIMES = ("nocache", "cold", "warm")


def detach_cache(pooled):
    """Price a pooled device with no EvalCache: its interface computes
    every latency it is asked for."""
    pooled.price_interface.cache = None
    return pooled


class Meter:
    """Main-thread CPU of the timed calls, optionally switching a span
    recorder on for exactly those calls."""

    def __init__(self, recorder=None):
        self.ns = 0
        self.recorder = recorder

    @contextmanager
    def timed(self):
        if self.recorder is not None:
            self.recorder.active = True
        start = time.thread_time_ns()
        try:
            yield
        finally:
            self.ns += time.thread_time_ns() - start
            if self.recorder is not None:
                self.recorder.active = False


#: Nominal CPU of one calibration job: the speed CPU figures are scaled to.
CALIBRATION_NS = 18_000_000


def calibrate() -> int:
    """Main-thread CPU (ns) of a fixed pure-Python reference job: an
    event-heap simulation over small dicts, float math and string
    hashing -- the kind of work the program's hot paths do, in code no
    change to the program can touch.  The collector is off, so the
    figure does not depend on how many objects the program keeps."""
    import gc
    import hashlib
    import heapq

    gc.disable()
    start = time.thread_time_ns()
    try:
        jobs = [{"id": i, "size": (i * 7919) % 613, "at": float(i % 97)} for i in range(6_000)]
        heap = [(job["at"], job["id"]) for job in jobs]
        heapq.heapify(heap)
        clock, busy = 0.0, {}
        while heap:
            at, i = heapq.heappop(heap)
            job = jobs[i]
            clock = max(clock, at) + job["size"] * 0.25 + 1.0
            busy[job["size"] % 31] = busy.get(job["size"] % 31, 0.0) + clock - at
        digest = hashlib.sha256()
        for key in sorted(busy):
            digest.update(f"{key}:{busy[key]!r}".encode())
        digest.hexdigest()
        return time.thread_time_ns() - start
    finally:
        gc.enable()


class Workload:
    """One workload: inputs, set-up, and a pass per cache regime."""

    name = ""
    MODULES: tuple[str, ...] = ()

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.items: list = []

    def index(self) -> dict[int, int]:
        """``id()`` of each input item -> its position (outcome order,
        span tagging)."""
        return {id(item): i for i, item in enumerate(self.items)}

    def setup(self) -> None:
        """Build what every pass reuses and finish lazy one-off work
        (imports inside functions, contract derivation, lowering)."""

    def run(self, regime: str, meter: Meter) -> tuple[list, dict, list[str]]:
        """One pass: ``(outcomes, extra, invariant breaches)``; only the
        measured calls run inside ``meter.timed()``."""
        raise NotImplementedError

    def summary(self, outcomes: list, extra: dict) -> dict:
        """Readable behaviour derived from a pass, kept in golden files."""
        return {}


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class _Serving(Workload):
    """Outcome extraction and summary shared by the serving workloads."""

    def serve_outcomes(self, result, pool) -> tuple[list, list[str]]:
        """Per offered request, in arrival order: ``[device, path,
        completed, hedges]`` when served, ``[ledger, reason, time]``
        when dropped or shed."""
        index = self.index()
        outcomes: list = [None] * len(self.items)
        seen = [0] * len(self.items)
        breaches: list[str] = []
        for served, b in zip(result.served, result.breakdowns, strict=True):
            i = index[id(served.request)]
            seen[i] += 1
            outcomes[i] = [served.device, served.path, served.completed, served.hedges]
            parts = b.queue_wait + b.device_queue + b.service + b.retry
            if not math.isclose(parts, b.end_to_end, rel_tol=1e-9, abs_tol=1e-6):
                breaches.append(
                    f"request {i}: queue+service+retry {parts!r} != "
                    f"end-to-end {b.end_to_end!r}"
                )
        for ledger, rejections in (("dropped", result.dropped), ("shed", result.shed)):
            for r in rejections:
                i = index[id(r.request)]
                seen[i] += 1
                outcomes[i] = [ledger, r.reason, r.time]
        breaches += [
            f"request {i}: in {n} of served/dropped/shed"
            for i, n in enumerate(seen)
            if n != 1
        ]
        if result.offered != len(self.items):
            breaches.append(f"offered {result.offered} != {len(self.items)} requests")
        if pool.invariant_violations:
            breaches.append(f"pool invariant_violations={pool.invariant_violations}")
        return outcomes, breaches

    def summary(self, outcomes, extra):
        import numpy as np

        served = [
            (o, self.arrivals[i])
            for i, o in enumerate(outcomes)
            if o[0] not in ("dropped", "shed")
        ]
        latencies = [o[2] - at for o, at in served]
        lost = len(outcomes) - len(served) + sum(o[1] == "failed" for o, _ in served)

        def pct(q: float) -> float | None:
            # SloMonitor.evaluate's quantile: every served request.
            return float(np.percentile(latencies, q)) if latencies else None

        return {
            "served": len(served),
            "dropped": sum(o[0] == "dropped" for o in outcomes),
            "shed": sum(o[0] == "shed" for o in outcomes),
            "loss_rate": lost / len(outcomes),
            "hedges": sum(o[3] for o, _ in served),
            "p50": pct(50),
            "p95": pct(95),
            "p99": pct(99),
        }


class ServeFixed(_Serving):
    """E15's no-fault fleet: Protoacc, Optimus Prime and a CPU server
    behind interface-predicted routing, no Obs, 600-cycle mean gap."""

    name = "serve_fixed"
    MODULES = ("repro.workloads", "repro.perf", "repro.runtime", "repro.runtime.pool")
    COUNT = 400
    MEAN_GAP = 600.0
    QUEUE_LIMIT = 48
    DEADLINE = 60_000.0

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        from repro.workloads import ENTERPRISE_MIX

        self.items, self.arrivals = ENTERPRISE_MIX.sample_open(
            seed=seed, count=self.COUNT, mean_gap=self.MEAN_GAP
        )
        self._warmup = ENTERPRISE_MIX.sample_open(
            seed=seed + 1, count=16, mean_gap=self.MEAN_GAP
        )
        self._cache = None

    def _pool(self, cache):
        from repro.runtime import pool

        return pool.rpc_pool(
            "interface_predicted", faults="none", seed=self.seed, cache=cache
        )

    def setup(self):
        from repro.runtime import OpenLoopServer

        # The first fleet a process builds derives the accelerators'
        # contracts, imports the device modules and parses the nets.
        OpenLoopServer(self._pool(None), queue_limit=self.QUEUE_LIMIT).run(
            *self._warmup
        )

    def run(self, regime, meter):
        from repro.perf import EvalCache
        from repro.runtime import OpenLoopServer

        if regime == "cold":
            self._cache = EvalCache()
        pool = self._pool(self._cache if regime != "nocache" else None)
        if regime == "nocache":
            for d in pool.devices:
                detach_cache(d)
        server = OpenLoopServer(
            pool, queue_limit=self.QUEUE_LIMIT, deadline=self.DEADLINE
        )
        with meter.timed():
            result = server.run(self.items, self.arrivals)
        outcomes, breaches = self.serve_outcomes(result, pool)
        return outcomes, {}, breaches


class ServeAutoscaled(_Serving):
    """E17's arc at E17's settings, composed from its parts so that only
    the serving run is timed: the diurnal 3.5x storage trace with the
    rolling Protoacc storm, the floor-2 fleet under a ScaleController,
    and metrics, drift observatory and time-series store on (tracer
    off)."""

    name = "serve_autoscaled"
    #: E17's seed: the arrival curve, the storm and the fleet's retry
    #: and fault seeds of every run.  The run's seed draws the messages
    #: and their priority classes, so each seed replays E17's arc with
    #: other traffic; seed 17 is E17 itself.  (Letting the seed redraw
    #: the arc too moves the control plane's work -- devices priced per
    #: request -- by ~20% between seeds.)
    ARC_SEED = 17
    MODULES = (
        "repro.workloads",
        "repro.perf",
        "repro.obs",
        "repro.runtime",
        "repro.runtime.pool",
        "repro.scale",
        "repro.scale.scenario",
    )
    COUNT = 1_000
    BASE_GAP = 2_600.0
    PEAK_FACTOR = 3.5
    QUEUE_LIMIT = 48
    DEADLINE = 80_000.0

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        from repro.scale import diurnal_arrivals, priority_assigner
        from repro.workloads import STORAGE_MIX

        def trace(trace_seed):
            return diurnal_arrivals(
                STORAGE_MIX,
                seed=trace_seed,
                count=self.COUNT,
                base_gap=self.BASE_GAP,
                peak_factor=self.PEAK_FACTOR,
                sharpness=1.0,
            )

        self.items = trace(seed)[0]
        self.arrivals = trace(self.ARC_SEED)[1]
        self.priority_fn = priority_assigner(self.items, seed)
        requests, arrivals = diurnal_arrivals(
            STORAGE_MIX, seed=seed + 1, count=16, base_gap=self.BASE_GAP
        )
        self._warmup = requests, arrivals, priority_assigner(requests, seed + 1)
        self._cache = None

    def _server(self, cache, priority_fn, *, detach=False):
        from repro.obs import Obs
        from repro.runtime import OpenLoopServer
        from repro.runtime.pool import DevicePool
        from repro.scale import ScaleController, SloMonitor, standard_templates
        from repro.scale.autoscaler import DeviceTemplate
        from repro.scale.scenario import (
            SCENARIO_BROWNOUT_POLICY,
            SCENARIO_SCALE_POLICY,
            base_fleet,
        )
        from repro.scale.slo import SLO

        slo = SLO(latency_budget=30_000.0, latency_quantile=0.95, max_loss_rate=0.08)
        obs = Obs.enabled(tracing=False, tsdb=True)
        devices = base_fleet(
            seed=self.ARC_SEED, cache=cache, obs=obs, storm_window=(30, 150)
        )
        templates = standard_templates(seed=self.ARC_SEED + 100, cache=cache, obs=obs)
        if detach:
            devices = [detach_cache(d) for d in devices]
            templates = [
                DeviceTemplate(
                    t.kind, t.cost, lambda name, b=t.build: detach_cache(b(name))
                )
                for t in templates
            ]
        pool = DevicePool(devices, policy="interface_predicted", cache=cache, obs=obs)
        controller = ScaleController(
            pool,
            slo,
            templates=templates,
            monitor=SloMonitor(slo, horizon=40_000.0),
            scale_policy=SCENARIO_SCALE_POLICY,
            brownout_policy=SCENARIO_BROWNOUT_POLICY,
            decision_interval=1_500.0,
            obs=obs,
        )
        server = OpenLoopServer(
            pool,
            queue_limit=self.QUEUE_LIMIT,
            deadline=self.DEADLINE,
            priority_fn=priority_fn,
            controller=controller,
            obs=obs,
        )
        return server, pool, controller

    def setup(self):
        from repro.perf import EvalCache

        requests, arrivals, priority_fn = self._warmup
        server, _, _ = self._server(EvalCache(), priority_fn)
        server.run(requests, arrivals)

    def run(self, regime, meter):
        from repro.perf import EvalCache

        if regime == "cold":
            self._cache = EvalCache()
        cache = self._cache if regime != "nocache" else EvalCache()
        server, pool, controller = self._server(
            cache, self.priority_fn, detach=regime == "nocache"
        )
        with meter.timed():
            result = server.run(self.items, self.arrivals)
        outcomes, breaches = self.serve_outcomes(result, pool)
        extra = {
            "scale_events": [[e.at, e.action, e.device] for e in controller.scaler.events],
            "rung_moves": [[t.at, int(t.to_rung)] for t in controller.ladder.transitions],
        }
        return outcomes, extra, breaches

    def summary(self, outcomes, extra):
        summary = super().summary(outcomes, extra)
        events = extra["scale_events"]
        summary.update(
            scale_outs=sum(e[1] == "out" for e in events),
            scale_ins=sum(e[1] == "in" for e in events),
            rung_moves=len(extra["rung_moves"]),
        )
        return summary


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def e4_block_targets(count: int) -> list[int]:
    """Block counts at ``count`` evenly spaced quantiles of the E4 image
    distribution (``random_image`` defaults: width and height drawn
    independently, log-uniform over 16-512 px, rounded to 8 px).

    Every run samples the same quantiles, which keeps the work per run
    equal across seeds: iid draws from this heavy-tailed distribution
    (mean ~320 blocks, sd ~500) move the mean image size of a 32-image
    sample by ~25% from seed to seed.
    """
    lo, hi = math.log(16), math.log(512)
    side: dict[int, float] = {}
    for j in range(2, 65):  # 8x8 blocks per side
        a, b = max(8 * j - 4, 16), min(8 * j + 4, 512)
        if b > a:
            side[j] = (math.log(b) - math.log(a)) / (hi - lo)
    blocks: dict[int, float] = {}
    for j1, p1 in side.items():
        for j2, p2 in side.items():
            blocks[j1 * j2] = blocks.get(j1 * j2, 0.0) + p1 * p2
    targets: list[int] = []
    acc = 0.0
    for b in sorted(blocks):
        acc += blocks[b]
        while len(targets) < count and acc >= (len(targets) + 0.5) / count:
            targets.append(b)
    return targets


class SweepJpeg(Workload):
    """``evaluate_batch`` of the JPEG Petri-net interface over images of
    the paper's E4 size distribution: with no cache, with a fresh
    persistent cache (every image misses and spills), and with that
    cache re-opened from its file (every image hits, no engine runs)."""

    name = "sweep_jpeg"
    MODULES = ("numpy", "repro.perf", "repro.accel.jpeg", "repro.accel.jpeg.interfaces")
    IMAGES = 32
    POOL = 480  # images drawn per seed to pick the quantile images from

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        from repro.accel.jpeg import random_images

        pool = random_images(seed, self.POOL)
        free = list(range(len(pool)))
        for target in e4_block_targets(self.IMAGES):
            best = min(free, key=lambda i: (abs(pool[i].n_blocks - target), i))
            free.remove(best)
            self.items.append(pool[best])
        self._warmup = random_images(seed + 1, 2, min_dim=64, max_dim=64)
        self.path = os.path.join(scratch, f"{self.name}-{os.getpid()}.jsonl")
        self.iface = None

    def setup(self):
        from repro.accel.jpeg import interfaces

        self.iface = interfaces.petri_interface()
        self.iface.evaluate_batch(self._warmup)  # lowers the net

    def run(self, regime, meter):
        from repro.perf import EvalCache

        if regime == "cold" and os.path.exists(self.path):
            os.remove(self.path)
        with meter.timed():
            self.iface.cache = EvalCache(self.path) if regime != "nocache" else None
            latencies = self.iface.evaluate_batch(self.items)
        cache, self.iface.cache = self.iface.cache, None
        breaches = []
        if regime == "cold" and cache.stats.spills != len(self.items):
            breaches.append(f"cold pass spilled {cache.stats.spills} of {len(self.items)}")
        if regime == "warm":
            os.remove(self.path)
            if cache.stats.misses:
                breaches.append(f"warm pass missed the cache {cache.stats.misses} times")
        return latencies, {}, breaches

    def summary(self, outcomes, extra):
        return {
            "blocks": sum(img.n_blocks for img in self.items),
            "latency_sum": sum(outcomes),
        }


class TuneVta(Workload):
    """``exhaustive_tune`` of small VTA GEMMs through the Petri-net
    profiler, then through a MemoizedProfiler over an empty EvalCache,
    then the same tuning again against the filled cache."""

    name = "tune_vta"
    MODULES = ("numpy", "repro.perf", "repro.autotune", "repro.autotune.tuner")
    SHAPES = ((4, 4, 4), (4, 8, 4), (8, 4, 8), (8, 8, 4))

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        import numpy as np

        from repro.autotune import tuner

        # The seed permutes the (m, k, n) axes of all four GEMMs alike:
        # the shapes stay distinct (no shape is served from another's
        # cache entries) and the candidate count stays 159, while the
        # tilings, programs and cycles differ.
        axes = np.random.default_rng(seed).permutation(3)
        self.shapes = [tuple(shape[j] for j in axes) for shape in self.SHAPES]
        self.work = [tuner.GemmWorkload(*s) for s in self.shapes]
        self.items = [(w, t) for w in self.work for t in tuner.legal_tilings(w)]
        self.profiler = None
        self.memo = None

    def setup(self):
        from repro.autotune import profilers, tuner

        self.profiler = profilers.PetriProfiler()
        tuner.exhaustive_tune(tuner.GemmWorkload(1, 1, 1), self.profiler)  # lowers the net

    def run(self, regime, meter):
        from repro.autotune import profilers, tuner
        from repro.perf import EvalCache

        if regime == "cold":
            self.memo = profilers.MemoizedProfiler(self.profiler, EvalCache())
        profiler = self.memo if regime != "nocache" else self.profiler
        misses = self.memo.cache.stats.misses if regime == "warm" else 0
        with meter.timed():
            results = [tuner.exhaustive_tune(w, profiler) for w in self.work]
        outcomes = [cycles for r in results for _, cycles in r.history]
        extra = {"best": [[r.best.tiling.tm, r.best.tiling.tk, r.best.tiling.tn] for r in results]}
        breaches = []
        if regime == "warm" and self.memo.cache.stats.misses != misses:
            breaches.append(
                f"warm pass missed the cache {self.memo.cache.stats.misses - misses} times"
            )
        return outcomes, extra, breaches

    def summary(self, outcomes, extra):
        return {"shapes": [list(s) for s in self.shapes], "best": extra["best"]}


WORKLOADS = {w.name: w for w in (ServeFixed, ServeAutoscaled, SweepJpeg, TuneVta)}
