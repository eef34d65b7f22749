"""Mega-batch evaluation: lower a net once, evaluate thousands of items.

The compiled engine (:mod:`repro.petri.compiled`) made one simulation
cheap; sweep-shaped consumers — validation, autotuning, capacity
planning, ``interface_predicted`` pricing — still paid the *per-item
dispatch* cost on every point: a fresh :class:`CompiledNet` lowering,
fresh run-state construction, a full ``SimResult`` with ``Completion``
objects, and a write-back into the net, per workload item.  For the
small nets accelerator interfaces actually ship, that fixed cost
dwarfs the event loop.

This module evaluates an entire matrix of workload items against one
net in a single pass.  Two engines, selected per net:

* **codegen** — for the dominant shipped-net shape (a feed-forward
  chain of single-input/single-output, single-server, guardless
  transitions: JPEG, Protoacc, Optimus Prime, bitcoin), the simulation
  collapses to a per-token recurrence::

      fire[i][s]  = max(done[i][s-1], done[i-1][s], fire[i-K_s][s+1])
      done[i][s]  = fire[i][s] + delay(token_i)

  (arrival, single server frees, reserve-at-start backpressure with
  output capacity ``K_s``).  The recurrence is emitted as straight-line
  Python specialized to the net — no event heap, no deques, no Token
  churn — and executed per item.

* **columnar** — every other net: the compiled engine's own
  :class:`~repro.petri.compiled.PlanLoop`, the one firing loop
  :class:`CompiledSimulator` runs too, built on first use per
  ``(CompiledNet, sinks)``.  An item makes one token per injection, runs
  to quiescence, and is reduced from the sinks' completion times; it
  skips what only a per-item run reads (``Completion`` objects, the
  write-back into the net).

Both engines are **bit-identical** to :class:`CompiledSimulator` per
item — same completion times, fired counts, deadlock flags, and error
types/messages — and :mod:`repro.petri.differential` asserts it on
every accelerator net and on seeded random structural and keyed nets,
item for item.  Both engines inherit the compiled engine's contract
that guard/delay callables are pure functions of the peeked tokens'
payloads, and do not keep or mutate their argument.

Batch runs are plain quiescent runs: no ``until``/``max_time``
watchdogs and no tracer (per-item deadline control and traces go
through :class:`CompiledSimulator`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter
from typing import Any

from .compiled import CompiledNet
from .dsl import _SAFE_GLOBALS
from .errors import DefinitionError, SimulationError
from .net import PetriNet
from .token import Token, _token_ids

#: Batch engine selector values (``auto`` = codegen when the net is a
#: supported chain, columnar otherwise).
BATCH_ENGINES: tuple[str, ...] = ("auto", "codegen", "columnar")


class BatchItemResult:
    """One item's outcome inside a batch run.

    A trimmed :class:`~repro.petri.simulate.SimResult`: everything a
    sweep consumer reads (makespan, per-sink completion counts, flags),
    nothing a sweep consumer allocates and throws away (``Completion``
    objects, per-token latencies).  ``completion_times`` and ``fired``
    are populated only when the batch ran with ``collect=True`` (the
    differential harness does; the hot path does not).
    """

    __slots__ = (
        "makespan",
        "end_time",
        "counts",
        "first_injection",
        "deadlocked",
        "residual_tokens",
        "completion_times",
        "fired",
    )

    def __init__(
        self,
        makespan: float,
        end_time: float,
        counts: dict[str, int],
        first_injection: float | None,
        deadlocked: bool = False,
        residual_tokens: int = 0,
        completion_times: dict[str, list[float]] | None = None,
        fired: dict[str, int] | None = None,
    ):
        self.makespan = makespan
        self.end_time = end_time
        self.counts = counts
        self.first_injection = first_injection
        self.deadlocked = deadlocked
        self.residual_tokens = residual_tokens
        self.completion_times = completion_times
        self.fired = fired

    @property
    def total_completions(self) -> int:
        return sum(self.counts.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchItemResult(makespan={self.makespan}, "
            f"counts={self.counts}, deadlocked={self.deadlocked})"
        )


# ----------------------------------------------------------------------
# Chain detection (the codegen-supported shape)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChainSpec:
    """A net proven to be a codegen-supported feed-forward chain."""

    entry: str
    sink: str
    stage_names: tuple[str, ...]
    in_names: tuple[str, ...]  # input place of each stage
    delay_consts: tuple[float | None, ...]
    delay_fns: tuple[Any, ...]
    delay_srcs: tuple[str | None, ...]  # inlinable DSL source per stage
    out_caps: tuple[int | None, ...]  # capacity of each stage's output place


def chain_unsupported_reasons(
    net: PetriNet, sinks: Sequence[str] = ("out",), *, compiled: CompiledNet | None = None
) -> list[str]:
    """Why the codegen engine cannot run ``net`` (empty list = it can).

    ``compiled`` reuses an existing lowering of ``net``.
    """
    walk = _walk_chain(net, sinks, compiled)
    return walk if isinstance(walk, list) else []


def chain_spec(
    net: PetriNet, sinks: Sequence[str] = ("out",), *, compiled: CompiledNet | None = None
) -> ChainSpec | None:
    """The :class:`ChainSpec` for ``net``, or ``None`` when unsupported.

    ``compiled`` reuses an existing lowering of ``net``.
    """
    walk = _walk_chain(net, sinks, compiled)
    return walk if isinstance(walk, ChainSpec) else None


def _walk_chain(
    net: PetriNet, sinks: Sequence[str], compiled: CompiledNet | None
) -> list[str] | ChainSpec:
    """The codegen checks and the entry->sink walk, done once: the
    reasons the net is unsupported, or its :class:`ChainSpec`."""
    if len(sinks) != 1:
        return [f"codegen needs exactly one sink (got {list(sinks)!r})"]
    sink = sinks[0]
    c = compiled if compiled is not None else CompiledNet(net)
    n_places = len(c.place_names)
    # Per-transition shape checks.
    reasons: list[str] = []
    for ti, name in enumerate(c.t_names):
        if len(c.t_in[ti]) != 1 or c.t_in[ti][0][1] != 1:
            reasons.append(f"transition {name!r} is not single-input weight-1")
        elif len(c.t_out[ti]) != 1 or c.t_out[ti][0][1] != 1:
            reasons.append(f"transition {name!r} is not single-output weight-1")
        elif c.t_guard[ti] is not None:
            reasons.append(f"transition {name!r} has a guard")
        elif c.t_servers[ti] != 1:
            reasons.append(f"transition {name!r} is not single-server")
        elif c.t_timeout_after[ti] is not None:
            reasons.append(f"transition {name!r} has a timeout fault arc")
        elif (
            len(c.t_out[ti]) == 1
            and (cap := c.capacity[c.t_out[ti][0][0]]) is not None
            and cap < 1
        ):
            reasons.append(
                f"place {c.place_names[c.t_out[ti][0][0]]!r} has capacity {cap} (< 1)"
            )
        elif c.t_delay_const[ti] is not None and c.t_delay_const[ti] <= 0:
            # Zero-delay stages can cascade unboundedly within one
            # instant (the engines' firing budget applies); negative
            # constants raise at first firing.  Both stay on columnar.
            reasons.append(f"transition {name!r} has a non-positive constant delay")
    if reasons:
        return reasons
    # Topology: one entry, one sink, a single linear chain covering
    # every place and transition.
    entries = [
        i
        for i in range(n_places)
        if not c.producers[i] and c.consumers[i]
    ]
    if len(entries) != 1:
        return ["net does not have exactly one entry place"]
    entry = entries[0]
    if c.place_names[entry] == sink:
        return ["entry place is the sink"]
    if c.capacity[entry] is not None:
        return [f"entry place {c.place_names[entry]!r} has finite capacity"]
    if sink not in c.place_index:
        return [f"sink {sink!r} is not a place of net {net.name!r}"]
    sink_idx = c.place_index[sink]
    if c.consumers[sink_idx]:
        return [f"sink {sink!r} has consumers"]
    if c.capacity[sink_idx] is not None:
        return [f"sink place {sink!r} has finite capacity"]
    order: list[int] = []
    place = entry
    seen_places = {entry}
    while place != sink_idx:
        cons = c.consumers[place]
        if len(cons) != 1:
            return [f"place {c.place_names[place]!r} has {len(cons)} consumers (need 1)"]
        ti = cons[0]
        if len(c.producers[place]) > (0 if place == entry else 1):
            return [f"place {c.place_names[place]!r} has multiple producers"]
        order.append(ti)
        place = c.t_out[ti][0][0]
        if place in seen_places:
            return ["net has a cycle"]
        seen_places.add(place)
    if len(order) != len(c.t_names):
        return ["net has transitions outside the entry->sink chain"]
    if len(seen_places) != n_places:
        return ["net has places outside the entry->sink chain"]
    return ChainSpec(
        entry=c.place_names[entry],
        sink=sink,
        stage_names=tuple(c.t_names[ti] for ti in order),
        in_names=tuple(c.t_in_names[ti][0] for ti in order),
        delay_consts=tuple(c.t_delay_const[ti] for ti in order),
        delay_fns=tuple(c.t_delay_fn[ti] for ti in order),
        delay_srcs=tuple(_inlinable_src(c.t_delay_fn[ti]) for ti in order),
        out_caps=tuple(c.capacity[c.t_out[ti][0][0]] for ti in order),
    )


def _inlinable_src(fn: Any) -> str | None:
    """The DSL source of a delay callable, when it can be textually
    inlined into generated code.

    A ``.pnet`` ``expr:`` evaluates its source with ``tok`` bound to the
    head token's payload and the fixed safe-globals in scope.  When the
    expression references only those names (and not ``toks``, the full
    consumed mapping), evaluating the same source against the same
    payload under the same globals is the same computation — so the
    generated loop can run it without the per-firing callable dispatch,
    Token mutation, or consumed-dict plumbing.
    """
    if fn is None:
        return None
    src = getattr(fn, "src", None)
    if not isinstance(src, str):
        return None
    try:
        code = compile(src, "<inline-check>", "eval")
    except SyntaxError:  # pragma: no cover - DSL already validated it
        return None
    names = set(code.co_names)
    if "toks" in names or not names <= (set(_SAFE_GLOBALS) | {"tok"}):
        return None
    return src


def codegen_supported(net: PetriNet, sinks: Sequence[str] = ("out",)) -> bool:
    """True when the codegen batch engine can run ``net`` exactly."""
    return not chain_unsupported_reasons(net, sinks)


# ----------------------------------------------------------------------
# Codegen engine: straight-line per-net recurrence
# ----------------------------------------------------------------------


class _ZeroDelayBailout(Exception):
    """A callable delay returned 0.0: the item falls back to the columnar
    loop, whose per-instant firing budget the recurrence cannot model."""


def _codegen_source(spec: ChainSpec) -> str:
    """Emit the specialized per-item runner for a chain net.

    The generated function takes ``(injections, collect)`` where
    ``injections`` is a list of ``(place, payload, at)`` triples on the
    entry place, sorted by ``at`` (ties keep injection order, matching
    the engines' (at, uid) ordering), and returns
    ``(makespan, n, first_at, times)``.
    """
    n_stages = len(spec.stage_names)
    lines = [
        "def _run_item(injections, collect):",
        "    n = len(injections)",
        "    if n == 0:",
        "        return (0.0, 0, None, [] if collect else None)",
        "    first_at = injections[0][2]",
        "    if first_at < 0.0:",
        "        raise SimulationError(",
        "            f'event scheduled in the past ({first_at} < 0.0)'",
        "        )",
        "    times = [] if collect else None",
        "    c = 0.0",
    ]
    # One rolled ring cursor per distinct capacity (cheaper than idx % K
    # per stage per token).
    ring_caps = sorted({k for k in spec.out_caps if k is not None})
    for k in ring_caps:
        lines.append(f"    i{k} = 0")
    for s in range(n_stages):
        lines.append(f"    done{s} = 0.0")
        if spec.out_caps[s] is not None:
            lines.append(f"    ring{s} = [0.0] * {spec.out_caps[s]}")
    inline_any = any(src is not None for src in spec.delay_srcs)
    lines.append("    for _, payload, at in injections:")
    lines.append("        c = at")
    if inline_any:
        lines.append("        tok = payload")
    for s in range(n_stages):
        lines.append(f"        # stage {s}: {spec.stage_names[s]}")
        lines.append("        f = c")
        lines.append(f"        if done{s} > f: f = done{s}")
        if spec.out_caps[s] is not None:
            lines.append(f"        r = ring{s}[i{spec.out_caps[s]}]")
            lines.append("        if r > f: f = r")
        if s >= 1 and spec.out_caps[s - 1] is not None:
            # f is this stage's fire time == when it consumes from the
            # upstream place, freeing one capacity slot there.
            lines.append(f"        ring{s - 1}[i{spec.out_caps[s - 1]}] = f")
        if spec.delay_fns[s] is None:
            lines.append(f"        c = f + {spec.delay_consts[s]!r}")
        else:
            if spec.delay_srcs[s] is not None:
                lines.append(f"        d = float(({spec.delay_srcs[s]}))")
            else:
                lines.append(f"        tok{s}.payload = payload")
                lines.append(f"        tok{s}.born = at")
                lines.append(f"        d = float(delay{s}(consumed{s}))")
            msg = f"transition {spec.stage_names[s]!r} computed a negative delay"
            lines.append("        if d < 0.0:")
            lines.append(f"            raise DefinitionError({msg!r})")
            lines.append("        if d == 0.0:")
            lines.append("            raise _ZeroDelayBailout")
            lines.append("        c = f + d")
        lines.append(f"        done{s} = c")
    lines.append("        if collect:")
    lines.append("            times.append(c)")
    for k in ring_caps:
        lines.append(f"        i{k} += 1")
        lines.append(f"        if i{k} == {k}: i{k} = 0")
    lines.append("    return (c, n, first_at, times)")
    return "\n".join(lines)


class _CodegenRunner:
    """Executes the generated recurrence for one chain net."""

    def __init__(self, spec: ChainSpec):
        self.spec = spec
        self.source = _codegen_source(spec)
        namespace: dict[str, Any] = {
            # The exact objects DSL expressions evaluate against, so an
            # inlined ``expr:`` computes bit-identical floats.
            **{k: v for k, v in _SAFE_GLOBALS.items() if k != "__builtins__"},
            "__builtins__": {},
            "SimulationError": SimulationError,
            "DefinitionError": DefinitionError,
            "_ZeroDelayBailout": _ZeroDelayBailout,
            "float": float,
            "len": len,
        }
        for s, fn in enumerate(spec.delay_fns):
            if fn is None or spec.delay_srcs[s] is not None:
                continue
            tok = Token.__new__(Token)
            tok.payload = None
            tok.born = None
            tok.uid = next(_token_ids)
            namespace[f"delay{s}"] = fn
            namespace[f"tok{s}"] = tok
            namespace[f"consumed{s}"] = {spec.in_names[s]: [tok]}
        exec(compile(self.source, f"<batched:{spec.sink}>", "exec"), namespace)
        self._run_item = namespace["_run_item"]

    def run_item(
        self, injections: list[tuple[str, Any, float]], collect: bool
    ) -> BatchItemResult:
        makespan, n, first_at, times = self._run_item(injections, collect)
        return BatchItemResult(
            makespan=makespan,
            end_time=makespan,
            counts={self.spec.sink: n},
            first_injection=first_at,
            completion_times={self.spec.sink: times} if collect else None,
            fired=dict.fromkeys(self.spec.stage_names, n) if collect else None,
        )


# ----------------------------------------------------------------------
# Public facade
# ----------------------------------------------------------------------


class BatchEvaluator:
    """Evaluate many workload items against one lowered net.

    Args:
        net: The net to evaluate (lowered once, at construction).
        sinks: Places whose deposits count as completions.
        engine: ``"auto"`` (codegen when the net is a supported chain,
            columnar otherwise), ``"codegen"`` (raises when the net is
            not a chain), or ``"columnar"``.
        compiled: Share a pre-built :class:`CompiledNet`.

    Each item is a sequence of ``(place, payload, at)`` injections
    (plain tuples or ``Injection`` named tuples; both unpack alike).
    Results are bit-identical to running :class:`CompiledSimulator` on
    each item in isolation.
    """

    def __init__(
        self,
        net: PetriNet,
        sinks: Sequence[str] = ("out",),
        *,
        engine: str = "auto",
        compiled: CompiledNet | None = None,
    ):
        if engine not in BATCH_ENGINES:
            raise ValueError(
                f"unknown batch engine {engine!r}; expected one of "
                f"{', '.join(BATCH_ENGINES)}"
            )
        if compiled is not None and compiled.net is not net:
            raise SimulationError("compiled form belongs to a different net object")
        self.net = net
        self.sinks = list(sinks)
        self.compiled = compiled if compiled is not None else CompiledNet(net)
        self.compiled.check_sinks(self.sinks)
        self._codegen: _CodegenRunner | None = None
        if engine in ("auto", "codegen"):
            spec = chain_spec(net, self.sinks, compiled=self.compiled)
            if spec is not None:
                self._codegen = _CodegenRunner(spec)
            elif engine == "codegen":
                reasons = chain_unsupported_reasons(net, self.sinks, compiled=self.compiled)
                raise SimulationError(
                    f"engine='codegen' cannot run net {net.name!r}: " + "; ".join(reasons)
                )
        self.engine = "codegen" if self._codegen is not None else "columnar"
        #: Per-engine item counters, surfaced in reports and benches.
        self.items_codegen = 0
        self.items_columnar = 0

    def evaluate(
        self, items: Sequence[Sequence[Any]], *, collect: bool = False
    ) -> list[BatchItemResult]:
        """Run every item; one :class:`BatchItemResult` per item, in
        input order.  ``collect=True`` additionally records completion
        times and fired counts (the differential harness's observables).
        """
        results = []
        loop = None  # the columnar loop, fetched at the first item it runs
        codegen = self._codegen
        # The codegen entry is a place, so the scan below may skip its
        # lookup; with no codegen, no place equals the stand-in object.
        entry = codegen.spec.entry if codegen is not None else object()
        place_index = self.compiled.place_index
        for injections in items:
            # One pass validates the places and picks the engine: the
            # codegen chain takes only plain payloads on its entry place.
            chain = codegen is not None
            for place, payload, _ in injections:
                if place != entry:
                    if place not in place_index:
                        raise SimulationError(f"unknown place {place!r}")
                    chain = False
                elif isinstance(payload, Token):
                    chain = False
            if chain:
                by_at = sorted(injections, key=itemgetter(2))
                try:
                    results.append(codegen.run_item(by_at, collect))
                    self.items_codegen += 1
                    continue
                except _ZeroDelayBailout:
                    pass  # re-run this item on the columnar loop
            if loop is None:
                loop = self.compiled.plan_loop(self.sinks)
            results.append(BatchItemResult(*loop.run_item(injections, collect)))
            self.items_columnar += 1
        return results

    def evaluate_makespans(self, items: Sequence[Sequence[Any]]) -> list[float]:
        """Makespan per item — the latency-interface fast path."""
        return [r.makespan for r in self.evaluate(items)]
