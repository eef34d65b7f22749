"""Petri-net performance interfaces (the paper's third representation).

:class:`PetriNetInterface` adapts a :class:`repro.petri.PetriNet` into
the common :class:`~repro.core.interface.PerformanceInterface` contract:
it knows how to turn one workload item into tokens (``tokenize``), run
the net, and read a latency out of the completions.

The net itself is the shippable artifact — authors provide it as
``.pnet`` text (kept in ``pnet_text`` for the Table 1 complexity
metric) or as a programmatic factory.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generic, NamedTuple, TypeVar

from repro.petri import (
    BatchEvaluator,
    CompiledNet,
    PetriNet,
    SimResult,
    make_simulator,
)

from .interface import PerformanceInterface

if TYPE_CHECKING:
    from repro.perf import EvalCache

ItemT = TypeVar("ItemT")

#: One workload item's tokens: ``(place, payload, at)`` triples, as plain
#: tuples or :class:`Injection` objects alike.
Tokens = Sequence[tuple[str, Any, float]]


class Injection(NamedTuple):
    """One token to feed into the net for a workload item.

    The readable spelling of a ``(place, payload, at)`` tuple: every
    layer unpacks tokens by position, so a tokenizer may return either
    form (hot tokenizers return plain tuples, which are cheaper to
    build).
    """

    place: str
    payload: Any
    at: float = 0.0


#: Transition-name substrings that classify a transition into the
#: ``memory`` stage under the default stage map (DRAM bursts, DMA
#: descriptor fetches, loads).  Everything else is ``compute``.
MEMORY_STAGE_HINTS = ("dram", "mem", "dma", "load", "fetch", "read")


def default_stage_map(transition_name: str) -> str:
    """Classify one transition into the attribution stage vocabulary
    (see :data:`repro.obs.attribution.STAGES`)."""
    lowered = transition_name.lower()
    if any(hint in lowered for hint in MEMORY_STAGE_HINTS):
        return "memory"
    return "compute"


@dataclass(frozen=True)
class PredictedDecomposition:
    """The interface's predicted per-stage latency split for one item.

    ``stages`` folds per-transition busy cycles into the shared stage
    vocabulary, plus the interface ``epilogue`` and an ``overlap``
    residual (negative when transitions run concurrently — their busy
    cycles then sum to *more* than the makespan; positive when tokens
    sat in places with no transition busy).  Left-to-right summation of
    ``stages`` values is **bit-identical** to :attr:`total`, which is
    itself bit-identical to ``PetriNetInterface.latency(item)`` — the
    same invariant :mod:`repro.obs.attribution` maintains on the
    observed side, so the two decompositions can be compared stage by
    stage with no float slop.
    """

    accelerator: str
    total: float  # == interface.latency(item), bit-exact
    stages: dict[str, float]  # insertion-ordered; "overlap" last
    transitions: dict[str, float]  # per-transition busy cycles


def fold(values) -> float:
    """Left-to-right accumulation from 0.0 — the association order the
    bit-exact decomposition invariants are defined over (same as
    builtin ``sum``)."""
    total = 0.0
    for v in values:
        total += v
    return total


def exact_residual(prefix: list[float], total: float) -> float:
    """The residual ``r`` such that folding ``prefix + [r]`` left to
    right yields *exactly* ``total``.

    ``total - fold(prefix)`` is only the first guess: float addition is
    not associative, so adding the guess back can land one ulp off.
    The nudge loop feeds the remaining gap back into the residual until
    the fold is bit-exact (converges in a couple of iterations for
    finite inputs; bounded so a pathological input cannot spin).
    Shared by :meth:`PetriNetInterface.predict_decomposition` and
    :mod:`repro.obs.attribution`."""
    residual = total - fold(prefix)
    for _ in range(64):
        current = fold(prefix) + residual
        if current == total:
            return residual
        residual += total - current
    return residual


class PetriNetInterface(PerformanceInterface[ItemT], Generic[ItemT]):
    """Runs a performance-IR net over workload items.

    Args:
        accelerator: Name of the accelerator described.
        net_factory: Builds the net (called once; the simulator resets
            marking between runs).  First use takes a snapshot of the
            net, kept for the interface's life: its lowering and, once a
            cache needs it, its fingerprint (:attr:`namespace`).  So
            mutate ``self.net`` only before first use.  Not caught: an
            interface evaluated without a cache, then mutated, then given
            one keys its old net's answers under the new net's fingerprint.
        tokenize: Maps a workload item to the tokens to inject, as
            ``(place, payload, at)`` tuples or :class:`Injection` objects.
        sink: Place whose completions mark finished work.
        epilogue: Fixed cycles appended after the last completion
            (drain/flush the net does not model).
        expected_completions: How many sink completions one item should
            produce.  Defaults to the number of injected tokens; nets
            with resident bookkeeping tokens (mutexes, credits) override
            this, since those legitimately remain after quiescence.
        cache: Optional :class:`repro.perf.EvalCache`: each item's
            makespan is stored under its (:attr:`namespace`, injections)
            key, so a repeated item — through :meth:`latency` or
            :meth:`evaluate_batch` alike — is answered without running
            the net.  May also be attached later by assigning to
            ``self.cache``.
        tracer: Optional :class:`repro.obs.Tracer`: while it is enabled,
            evaluations run one item at a time and emit per-firing spans
            into it (see :mod:`repro.petri.simulate`).  Cache *hits*
            skip the simulation entirely and therefore emit no spans —
            the trace shows work actually done.  A disabled tracer
            counts as none.
    """

    representation = "petri-net"

    def __init__(
        self,
        accelerator: str,
        net_factory: Callable[[], PetriNet],
        tokenize: Callable[[ItemT], Tokens],
        *,
        sink: str = "out",
        epilogue: float = 0.0,
        pnet_text: str | None = None,
        expected_completions: Callable[[ItemT], int] | None = None,
        cache: "EvalCache | None" = None,
        tracer=None,
    ):
        self.accelerator = accelerator
        self.net = net_factory()
        self.tokenize = tokenize
        self.sink = sink
        self.epilogue = epilogue
        self.pnet_text = pnet_text
        self._expected = expected_completions
        self.cache = cache
        self.tracer = tracer
        # The snapshot first use takes (None = not yet): the lowering and,
        # once a cache needs it, the fingerprint.  The batch engine is
        # built at the first miss, so a warm-cache process never builds it.
        self._compiled: CompiledNet | None = None
        self._namespace: str | None = None
        self._batch: BatchEvaluator | None = None

    def _expected_count(self, item: ItemT, injections: Tokens) -> int:
        return self._expected(item) if self._expected is not None else len(injections)

    def _compiled_net(self) -> CompiledNet:
        if self._compiled is None:
            self._compiled = CompiledNet(self.net)
        return self._compiled

    @property
    def namespace(self) -> str:
        """The fingerprint that namespaces this interface's cache keys,
        taken on first read with the lowering, if that is not taken yet,
        so keys and answers come from one snapshot of the net."""
        if self._namespace is None:
            from repro.perf.fingerprint import net_fingerprint

            self._compiled_net()
            self._namespace = net_fingerprint(self.net)
        return self._namespace

    def _run(self, injections: Tokens, expected: int, tracer) -> SimResult:
        """One per-item simulation on the interface's lowered net,
        checked for ``expected`` sink completions."""
        sim = make_simulator(
            self.net, sinks=(self.sink,), compiled=self._compiled_net(), tracer=tracer
        )
        for place, payload, at in injections:
            sim.inject(place, payload, at=at)
        result = sim.run()
        done = len(result.completions[self.sink])
        if done != expected:
            raise RuntimeError(
                f"net {self.net.name!r} completed {done}/{expected} tokens; "
                f"stuck marking: { {p: n for p, n in self.net.marking().items() if n} }"
            )
        return result

    def latency(self, item: ItemT) -> float:
        """A batch of one: see :meth:`evaluate_batch`."""
        return self.evaluate_batch((item,))[0]

    def predict_decomposition(
        self,
        item: ItemT,
        *,
        stage_map: Callable[[str], str] | dict[str, str] | None = None,
    ) -> PredictedDecomposition:
        """Predict *where* the cycles of one item go, not just how many.

        Runs the net once (per-item engine, no tracer — decomposition
        must never perturb a live trace) and harvests each transition's
        cumulative busy-time delta, then folds the deltas into the
        attribution stage vocabulary via ``stage_map`` (a callable or
        dict over transition names; defaults to
        :func:`default_stage_map`).  The stage values fold left-to-right
        to exactly :meth:`latency`'s scalar prediction — cached under a
        dedicated ``("stages", ...)`` key (JSON-friendly, so it spills
        to the persistent cache tier like makespans do).
        """
        injections = self.tokenize(item)
        expected = self._expected_count(item, injections)

        def harvest() -> list:
            # The harvest needs its own simulation: latency() may be
            # answered from the makespan cache without running the net,
            # and a cache hit leaves busy_time stale.  run() resets the
            # net first, so post-run busy_time IS this run's harvest.
            makespan = self._run(injections, expected, None).makespan()
            return [makespan, [[n, t.busy_time] for n, t in self.net.transitions.items()]]

        if self.cache is None:
            makespan, pairs = harvest()
        else:
            # tuple() turns an Injection into the plain triple it spells,
            # so both forms key alike.
            features = ("stages", expected, list(map(tuple, injections)))
            makespan, pairs = self.cache.get_or_compute(self.namespace, features, harvest)
        per_transition = {str(n): float(c) for n, c in pairs}
        total = makespan + self.epilogue
        if stage_map is None:
            classify: Callable[[str], str] = default_stage_map
        elif isinstance(stage_map, dict):
            classify = lambda name: stage_map.get(name, "compute")  # noqa: E731
        else:
            classify = stage_map
        folded: dict[str, float] = {"memory": 0.0, "compute": 0.0}
        for name, cycles in per_transition.items():
            stage = classify(name)
            folded[stage] = folded.get(stage, 0.0) + cycles
        folded["epilogue"] = self.epilogue
        folded["overlap"] = exact_residual(list(folded.values()), total)
        return PredictedDecomposition(
            accelerator=self.accelerator,
            total=total,
            stages=folded,
            transitions=per_transition,
        )

    # ------------------------------------------------------------------
    # Batched evaluation
    # ------------------------------------------------------------------
    @property
    def batch_evaluator(self) -> BatchEvaluator | None:
        """The batch engine this interface has built, if any (exposes
        ``engine`` / ``items_codegen`` / ``items_columnar`` for tests,
        benches, and reports)."""
        return self._batch

    def _batch_engine(self) -> BatchEvaluator:
        if self._batch is None:
            self._batch = BatchEvaluator(self.net, (self.sink,), compiled=self._compiled_net())
        return self._batch

    def evaluate_batch(self, items: Sequence[ItemT]) -> list[float]:
        """Latency for every item — the interface's one evaluation path
        (:meth:`latency` is a batch of one).

        With a cache attached, each item's makespan is looked up under a
        ``("makespan", ...)`` feature key in :attr:`namespace` whose
        values are plain floats, so they spill to a persistent tier and
        a warm process answers the whole batch with zero engine
        invocations.  The misses run in one pass of the batch engine
        over the interface's lowered net — bit-identical per item to the
        compiled engine (enforced by ``repro.petri.differential``) — and
        are stored (:meth:`repro.perf.EvalCache.get_many`).  They run
        one item at a time instead while an enabled tracer is attached
        (the batch engines emit no spans, and a trace must show the work
        done).
        """
        runs = self._runs(items)
        if self.cache is None:
            makespans = self._makespans(list(runs))
        else:
            makespans = self.cache.get_many(
                self.namespace,
                (("makespan", n, list(map(tuple, injs))) for injs, n in runs),
                lambda missed: self._makespans([(tokens, n) for _, n, tokens in missed]),
            )
        return [makespan + self.epilogue for makespan in makespans]

    def _runs(self, items: Sequence[ItemT]) -> Iterator[tuple[Tokens, int]]:
        """Each item's ``(injections, expected)``, tokenized as consumed."""
        for item in items:
            injections = self.tokenize(item)
            yield injections, self._expected_count(item, injections)

    def _makespans(self, runs: list[tuple[Tokens, int]]) -> list[float]:
        """Makespans of ``(injections, expected)`` runs: one batch-engine
        pass, or one simulation per run while an enabled tracer is
        attached."""
        if not runs:
            return []
        tracer = self.tracer
        if tracer is not None and getattr(tracer, "enabled", True):
            return [self._run(injs, n, tracer).makespan() for injs, n in runs]
        results = self._batch_engine().evaluate([injs for injs, _ in runs])
        makespans = []
        for (injs, expected), res in zip(runs, results, strict=True):
            if res.counts.get(self.sink, 0) != expected:
                # The per-item run raises the canonical completed-n/m
                # error with the stuck marking.
                makespans.append(self._run(injs, expected, None).makespan())
            else:
                makespans.append(res.makespan)
        return makespans

    def describe(self) -> str:
        n_places = len(self.net.places)
        n_trans = len(self.net.transitions)
        return (
            f"petri-net performance interface for {self.accelerator} "
            f"({n_places} places, {n_trans} transitions)"
        )
