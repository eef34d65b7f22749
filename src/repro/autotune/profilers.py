"""Profiler tiers for the auto-tuner (paper §2 example #3).

A profiler answers "how many cycles will this candidate schedule take?"
and keeps a wall-clock account of how long answering took — the
quantity the paper's TVM case study is about: auto-tuning is
bottlenecked by profiling, and a Petri-net interface answers the same
question orders of magnitude faster than cycle-accurate simulation.

Tiers (decreasing fidelity, increasing speed):

1. :class:`CycleAccurateProfiler` — synchronous per-cycle simulation
   (the Verilator stand-in).
2. :class:`EventModelProfiler` — the event-driven ground-truth model.
3. :class:`PetriProfiler` — the Petri-net performance interface.
4. :class:`RooflineProfiler` — the closed-form program interface.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.accel.vta import (
    Program,
    VtaConfig,
    VtaModel,
    latency_vta_roofline,
    petri_interface,
)
from repro.accel.vta.ticksim import TickVtaSimulator

if TYPE_CHECKING:
    from repro.perf import EvalCache


class Profiler(abc.ABC):
    """Latency oracle with wall-clock accounting."""

    name: str = "profiler"

    def __init__(self) -> None:
        self.wall_seconds = 0.0
        self.queries = 0

    def profile(self, program: Program) -> float:
        """Predicted/simulated cycles for ``program`` (wall time logged)."""
        start = time.perf_counter()
        try:
            return self._profile(program)
        finally:
            self.wall_seconds += time.perf_counter() - start
            self.queries += 1

    @abc.abstractmethod
    def _profile(self, program: Program) -> float:
        ...

    def profile_batch(self, programs: list[Program]) -> list[float]:
        """Cycles for every candidate, in input order (wall time logged).

        Default is a per-candidate loop; tiers backed by an interface
        with a batch engine override ``_profile_batch`` to answer the
        whole generation in one pass.
        """
        start = time.perf_counter()
        try:
            return self._profile_batch(programs)
        finally:
            self.wall_seconds += time.perf_counter() - start
            self.queries += len(programs)

    def _profile_batch(self, programs: list[Program]) -> list[float]:
        return [self._profile(p) for p in programs]

    def reset_accounting(self) -> None:
        self.wall_seconds = 0.0
        self.queries = 0

    def fingerprint(self) -> str:
        """Content identity of this tier's answers: two tiers of one
        name with equal fingerprints report equal cycles for every
        candidate.  The default hashes the canonical bytes of the
        tier's :class:`VtaConfig` (``self.config``); a tier that answers
        from anything else overrides it."""
        from repro.perf.fingerprint import workload_key

        return workload_key(self.config)


class CycleAccurateProfiler(Profiler):
    """Per-cycle simulation: cost grows with simulated cycles."""

    name = "cycle-accurate"

    def __init__(self, config: VtaConfig | None = None):
        super().__init__()
        self._sim = TickVtaSimulator(config)
        self.config = self._sim.config

    def _profile(self, program: Program) -> float:
        return self._sim.run(program).cycles


class EventModelProfiler(Profiler):
    """Event-driven ground truth (same timing as cycle-accurate)."""

    name = "event-model"

    def __init__(self, config: VtaConfig | None = None):
        super().__init__()
        self._model = VtaModel(config)
        self.config = self._model.config

    def _profile(self, program: Program) -> float:
        return self._model.run(program).cycles


class PetriProfiler(Profiler):
    """The paper's proposal: profile against the Petri-net interface."""

    name = "petri-net"

    def __init__(self, config: VtaConfig | None = None):
        super().__init__()
        self._iface = petri_interface(config)

    def _profile(self, program: Program) -> float:
        return self._iface.latency(program)

    def _profile_batch(self, programs: list[Program]) -> list[float]:
        # One lowering, one engine pass over the whole generation.
        return self._iface.evaluate_batch(programs)

    def fingerprint(self) -> str:
        """The fingerprint of the net this tier profiles against."""
        from repro.perf.fingerprint import net_fingerprint

        return net_fingerprint(self._iface.net)


class MemoizedProfiler(Profiler):
    """Never profile the same candidate twice (Jung et al.'s "PR" idea).

    Wraps any profiler tier with a content-addressed
    :class:`repro.perf.EvalCache`: candidates are keyed by their program
    content, under a namespace naming the tier and its
    :meth:`~Profiler.fingerprint` (computed once, here), so re-visited
    points in a tuning sweep cost a dictionary lookup instead of a
    simulation, and tiers of different configurations sharing one cache
    never answer each other's candidates.  Wall-clock accounting still
    runs, so ``profiling_speedups`` sees the (near-zero) cost of cache
    hits.
    """

    def __init__(self, inner: Profiler, cache: "EvalCache | None" = None):
        from repro.perf import EvalCache

        super().__init__()
        self.inner = inner
        self.cache = cache if cache is not None else EvalCache()
        self.name = f"memoized({inner.name})"
        self._namespace = f"profiler:{inner.name}:{inner.fingerprint()}"

    def _profile(self, program: Program) -> float:
        return self.cache.get_or_compute(
            self._namespace, program, lambda: self.inner._profile(program)
        )

    def _profile_batch(self, programs: list[Program]) -> list[float]:
        """Look every candidate up first, then batch only the misses
        through the inner tier — so memoization and batching compose."""
        namespace = self._namespace
        out: list[float | None] = [None] * len(programs)
        misses: list[tuple[int, str | None]] = []
        for i, program in enumerate(programs):
            hit = self.cache.get(namespace, program)
            if hit is self.cache.MISS:
                misses.append((i, self.cache.last_key))
            else:
                out[i] = hit
        if misses:
            computed = self.inner._profile_batch([programs[i] for i, _ in misses])
            for (i, key), value in zip(misses, computed, strict=True):
                if key is not None:
                    self.cache.put(namespace, programs[i], value, key=key)
                out[i] = value
        return out  # type: ignore[return-value]

    def cache_summary(self) -> str:
        """Hit/miss accounting for reports (e.g. the E6 table)."""
        return self.cache.stats.summary()


class RooflineProfiler(Profiler):
    """Closed-form estimate: near-free, no dependency stalls."""

    name = "roofline"

    def __init__(self, config: VtaConfig | None = None):
        super().__init__()
        self.config = config or VtaConfig()

    def _profile(self, program: Program) -> float:
        return latency_vta_roofline(program, self.config)


@dataclass(frozen=True)
class SpeedupSample:
    """Profiling-time comparison for one schedule."""

    program: str
    cycles: float
    baseline_seconds: float
    candidate_seconds: float

    @property
    def speedup(self) -> float:
        if self.candidate_seconds == 0:
            return float("inf")
        return self.baseline_seconds / self.candidate_seconds


def profiling_speedups(
    baseline: Profiler, candidate: Profiler, programs: list[Program]
) -> list[SpeedupSample]:
    """Per-program wall-clock speedup of ``candidate`` over ``baseline``
    (the paper's 1312x/2.1x numbers are the max/min of this list)."""
    samples = []
    for program in programs:
        b0, q0 = baseline.wall_seconds, candidate.wall_seconds
        cycles = baseline.profile(program)
        candidate.profile(program)
        samples.append(
            SpeedupSample(
                program=program.name,
                cycles=cycles,
                baseline_seconds=baseline.wall_seconds - b0,
                candidate_seconds=candidate.wall_seconds - q0,
            )
        )
    return samples
