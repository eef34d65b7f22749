"""Schedule search: the auto-tuning loop of the paper's example #3.

Given a GEMM workload, the tuner searches the space of legal tilings
(and post-op choices), asking a :class:`~repro.autotune.profilers.Profiler`
for each candidate's cycles through
:meth:`~repro.autotune.profilers.Profiler.profile_candidates`, which
lowers the candidates it has to profile.  Three strategies:

* :func:`exhaustive_tune` — evaluate every legal tiling.
* :func:`random_tune` — sample a budget of candidates.
* :func:`anneal_tune` — simulated annealing over the tiling lattice
  (deterministic given the seed), like TVM's learning-based search.

The returned record keeps the full profiling-time account, so the E6
benchmark can show the same search completing orders of magnitude
faster when driven by the Petri-net interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accel.vta import (
    GemmWorkload,
    Program,
    Tiling,
    legal_tilings,
    tiled_gemm_program,
)

from .profilers import Profiler


@dataclass(frozen=True)
class Candidate:
    """One point of the search space."""

    tiling: Tiling
    alu_relu: bool = True

    def lower(self, work: GemmWorkload) -> Program:
        return tiled_gemm_program(work, self.tiling, alu_relu=self.alu_relu)


def lowering_fingerprint() -> str:
    """Identity of the code that lowers a :class:`Candidate`: the class
    with its module's source (which holds :meth:`Candidate.lower`), and
    the fingerprint of :func:`tiled_gemm_program` with the code it
    reaches.  Taken from these definitions, not from ``Candidate.lower``
    itself, which a tracing tool may replace with a wrapper that has no
    stable fingerprint."""
    from repro.perf.fingerprint import callable_fingerprint, code_reference, workload_key

    return workload_key((code_reference(Candidate), callable_fingerprint(tiled_gemm_program)))


@dataclass
class TuneResult:
    """Outcome of one search."""

    workload: GemmWorkload
    best: Candidate
    best_cycles: float
    trials: int
    profiling_seconds: float
    history: list[tuple[Candidate, float]] = field(repr=False, default_factory=list)

    def summary(self) -> str:
        t = self.best.tiling
        return (
            f"best tiling {t.tm}x{t.tk}x{t.tn} -> {self.best_cycles:.0f} cycles "
            f"({self.trials} trials, {self.profiling_seconds * 1e3:.1f} ms profiling)"
        )


def _evaluate(
    work: GemmWorkload, candidates: list[Candidate], profiler: Profiler
) -> TuneResult:
    start_wall = profiler.wall_seconds
    # The candidate set is known up front (exhaustive/random search), so
    # profile it as one batch — interface-backed tiers lower their net
    # once and answer the whole generation in a single engine pass.
    # (anneal_tune stays sequential: each step depends on the last.)
    all_cycles = profiler.profile_candidates(work, candidates)
    history = list(zip(candidates, all_cycles))
    best, best_cycles = min(history, key=lambda h: h[1])
    return TuneResult(
        workload=work,
        best=best,
        best_cycles=best_cycles,
        trials=len(history),
        profiling_seconds=profiler.wall_seconds - start_wall,
        history=history,
    )


def exhaustive_tune(work: GemmWorkload, profiler: Profiler) -> TuneResult:
    """Evaluate every legal tiling (feasible with a fast profiler —
    which is exactly what an interface provides)."""
    candidates = [Candidate(t) for t in legal_tilings(work)]
    return _evaluate(work, candidates, profiler)


def random_tune(
    work: GemmWorkload, profiler: Profiler, budget: int, seed: int = 0
) -> TuneResult:
    """Profile ``budget`` uniformly-sampled candidates."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    space = legal_tilings(work)
    picks = rng.choice(len(space), size=min(budget, len(space)), replace=False)
    candidates = [Candidate(space[int(i)]) for i in picks]
    return _evaluate(work, candidates, profiler)


def anneal_tune(
    work: GemmWorkload,
    profiler: Profiler,
    *,
    steps: int = 40,
    seed: int = 0,
    initial_temp: float = 0.3,
) -> TuneResult:
    """Simulated annealing on the tiling lattice.

    Neighbors double/halve one tile dimension (staying legal).  The
    acceptance temperature is relative to the current cycles, so the
    schedule-quality scale is self-normalizing.
    """
    rng = np.random.default_rng(seed)
    space = legal_tilings(work)
    if not space:
        raise ValueError("workload has no legal tilings")
    index = {(t.tm, t.tk, t.tn): t for t in space}

    def neighbors(t: Tiling) -> list[Tiling]:
        out = []
        for dim in ("tm", "tk", "tn"):
            for factor in (2, 0.5):
                new = {d: getattr(t, d) for d in ("tm", "tk", "tn")}
                new[dim] = int(new[dim] * factor)
                cand = index.get((new["tm"], new["tk"], new["tn"]))
                if cand is not None:
                    out.append(cand)
        return out

    start_wall = profiler.wall_seconds
    current = space[int(rng.integers(0, len(space)))]
    cand = Candidate(current)
    current_cycles = profiler.profile_candidates(work, [cand])[0]
    history = [(cand, current_cycles)]
    best, best_cycles = current, current_cycles

    temp = initial_temp
    for _ in range(steps):
        options = neighbors(current)
        if not options:
            break
        nxt = options[int(rng.integers(0, len(options)))]
        cand = Candidate(nxt)
        cycles = profiler.profile_candidates(work, [cand])[0]
        history.append((cand, cycles))
        accept = cycles < current_cycles or rng.random() < np.exp(
            -(cycles - current_cycles) / (temp * current_cycles)
        )
        if accept:
            current, current_cycles = nxt, cycles
            if cycles < best_cycles:
                best, best_cycles = nxt, cycles
        temp *= 0.95
    return TuneResult(
        workload=work,
        best=Candidate(best),
        best_cycles=best_cycles,
        trials=len(history),
        profiling_seconds=profiler.wall_seconds - start_wall,
        history=history,
    )
