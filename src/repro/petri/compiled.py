"""Compiled fast-path engine for the performance IR.

The reference :class:`~repro.petri.simulate.Simulator` is written for
clarity: it allocates a closure per firing, heap-pushes ``_Event``
dataclasses, and re-sorts ``Transition`` objects per instant.  That
interpreter overhead is paid *per token* by every sweep-shaped consumer
(validation, autotuning, fault sweeps) — exactly the cost the paper says
the Petri-net representation exists to avoid.

This module lowers a static :class:`~repro.petri.net.PetriNet` once into
a flat, integer-indexed form and executes it with a tight loop:

* places and transitions become array indices (transition index order
  *is* the deterministic ``(priority, name)`` firing order, so the dirty
  set is a set of ints and sorting it needs no key function);
* arc lists are flat ``(place_idx, weight)`` tuples resolved at compile
  time;
* events are plain ``(time, seq, kind, transition_idx, token, t0)``
  tuples on one heap — no per-firing closures, no event dataclass;
* token payloads stay in the same :class:`~repro.petri.token.Token`
  objects the reference engine uses, so guards and delay callables are
  pre-bound once and receive byte-identical inputs.

Semantics are *identical* to the reference engine — same firing order,
same budget accounting, same error messages, same ``SimResult`` — and
:mod:`repro.petri.differential` asserts this on every shipped
accelerator net and on randomized structural nets.

The firing/completion loop itself lives in one place, :class:`EventLoop`,
built once per ``(CompiledNet, sinks)``: :class:`CompiledSimulator` runs
it and writes the end state back into the net, and the columnar batch
engine (:mod:`repro.petri.batched`) runs the same loop per workload item.

Every net runs on this engine — weighted arcs, capacities, guards,
callable delays, multi-server transitions, priorities, timeout fault
arcs — and :func:`make_simulator` is the production entry point.  The
reference engine is the oracle :mod:`repro.petri.differential` checks
it against.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from heapq import heappop, heappush
from typing import Any, Literal, NamedTuple

from .errors import (
    CapacityError,
    DeadlineError,
    DeadlockError,
    DefinitionError,
    KeyRuleError,
    SimulationError,
)
from .net import PetriNet, Transition
from .simulate import Completion, SimResult, Simulator
from .token import Token, _token_ids

# Event kinds, ordered only for readability — (time, seq) alone decides
# heap order because seq is unique.  (Injections never touch the heap:
# they are all known before the run starts and always sort before
# engine-generated events at the same instant, so the run loop merges
# them from a sorted side list.)
_COMPLETE, _FAIL = 1, 2


def key_groups(net: PetriNet) -> dict[str, list[Transition]]:
    """The keyed transitions of ``net`` grouped by head place, each
    group in firing order.

    This is the one check of the rules head-keyed dispatch rests on; it
    raises :class:`KeyRuleError` naming the transitions when two members
    of a group key on the same value, when members of one head place
    key on different fields, or when a head place has a consumer that
    does not key on it.
    """
    ordered = net.ordered_transitions()
    groups: dict[str, list[Transition]] = {}
    for t in ordered:
        if t.key is not None:
            groups.setdefault(t.key[0], []).append(t)
    violations: list[tuple[str, str]] = []
    for place, members in groups.items():
        first = members[0]
        seen: dict[Any, str] = {}
        for t in members:
            _, field, value = t.key
            if field != first.key[1]:
                violations.append((
                    t.name,
                    f"transition {t.name!r} keys head place {place!r} on field "
                    f"{field!r}, but {first.name!r} keys it on {first.key[1]!r}",
                ))
            elif value in seen:
                violations.append((
                    t.name,
                    f"transitions {seen[value]!r} and {t.name!r} both key head "
                    f"place {place!r} on {field}={value!r}",
                ))
            else:
                seen[value] = t.name
        for t in ordered:
            if (t.key is None or t.key[0] != place) and any(
                a.place == place for a in t.inputs
            ):
                violations.append((
                    t.name,
                    f"transition {t.name!r} consumes head place {place!r} but does "
                    f"not key on it, while {first.name!r} does",
                ))
    if violations:
        raise KeyRuleError(violations)
    return groups


class CompiledNet:
    """A :class:`PetriNet` lowered to flat, integer-indexed arrays.

    Compile once, simulate many times: the lowering cost is paid per
    *net*, not per run, so sweeps amortize it across thousands of
    points.  The lowered arrays never mutate — all simulation state
    lives in the :class:`EventLoop` run that uses them.
    """

    __slots__ = (
        "net",
        "place_names",
        "place_index",
        "capacity",
        "t_names",
        "t_index",
        "t_in",
        "t_out",
        "t_in_names",
        "t_delay_const",
        "t_delay_fn",
        "t_guard",
        "t_servers",
        "t_timeout_after",
        "t_timeout_place",
        "consumers",
        "producers",
        "consumers_mask",
        "producers_mask",
        "t_wake_fire",
        "t_fast",
        "t_out1",
        "t_outw",
        "t_group",
        "_loops",
    )

    def __init__(self, net: PetriNet):
        self.net = net
        self.place_names: list[str] = list(net.places)
        self.place_index = {name: i for i, name in enumerate(self.place_names)}
        self.capacity = [net.places[n].capacity for n in self.place_names]

        ordered = net.ordered_transitions()
        self.t_names = [t.name for t in ordered]
        self.t_index = {t.name: i for i, t in enumerate(ordered)}
        pidx = self.place_index
        self.t_in = [
            tuple((pidx[a.place], a.weight) for a in t.inputs) for t in ordered
        ]
        self.t_out = [
            tuple((pidx[a.place], a.weight) for a in t.outputs) for t in ordered
        ]
        self.t_in_names = [tuple(a.place for a in t.inputs) for t in ordered]
        self.t_delay_const: list[float | None] = [
            None if callable(t.delay) else float(t.delay) for t in ordered
        ]
        self.t_delay_fn = [t.delay if callable(t.delay) else None for t in ordered]
        self.t_guard = [t.guard for t in ordered]
        self.t_servers = [t.servers for t in ordered]
        self.t_timeout_after = [
            None if t.timeout is None else float(t.timeout[0]) for t in ordered
        ]
        self.t_timeout_place = [
            -1 if t.timeout is None else pidx[t.timeout[1]] for t in ordered
        ]

        consumers: list[list[int]] = [[] for _ in self.place_names]
        producers: list[list[int]] = [[] for _ in self.place_names]
        for ti, t in enumerate(ordered):
            for a in t.inputs:
                consumers[pidx[a.place]].append(ti)
            for a in t.outputs:
                producers[pidx[a.place]].append(ti)
        self.consumers = [tuple(c) for c in consumers]
        self.producers = [tuple(p) for p in producers]

        # Dirty sets are int bitmasks (bit ti = transition ti needs an
        # enablement re-check): set-union becomes a single ``|=`` and
        # ascending bit-scan recovers the deterministic index order that
        # the reference engine gets from sorting.
        self.consumers_mask = [
            sum(1 << ti for ti in c) for c in self.consumers
        ]
        self.producers_mask = [
            sum(1 << ti for ti in p) for p in self.producers
        ]

        # Minimal wake mask for a *firing* of transition ``ti``.  During
        # a fire_all pass token counts only decrease (deposits happen at
        # completion events, between passes), so a firing can newly
        # enable exactly: producers of its input places (capacity
        # freed), and guarded sibling consumers of those places (the
        # head token they see changed).  The reference engine wakes all
        # consumers+producers; the extra members are provably disabled,
        # so dropping them is unobservable.  (Like the reference engine,
        # this assumes guards are pure functions of the peeked tokens.)
        self.t_wake_fire = []
        for ti, t in enumerate(ordered):
            wake = 0
            for a in t.inputs:
                wake |= self.producers_mask[pidx[a.place]]
                for cc in self.consumers[pidx[a.place]]:
                    if cc != ti and self.t_guard[cc] is not None:
                        wake |= 1 << cc
            self.t_wake_fire.append(wake)
        # Head-keyed dispatch: per keyed transition, its group's
        # ``(head_place, field, table, not_group)``, where ``table`` maps
        # a key value to ``(member, member_bit, keep)`` — ``keep`` clears
        # the group bits below that member — and ``not_group`` clears
        # the whole group.  ``None`` for unkeyed transitions.
        self.t_group: list[tuple | None] = [None] * len(ordered)
        for place, members in key_groups(net).items():
            index = [self.t_index[t.name] for t in members]
            group_mask = sum(1 << ti for ti in index)
            table = {
                t.key[2]: (ti, 1 << ti, ~(group_mask & ((1 << ti) - 1)))
                for t, ti in zip(members, index, strict=True)
            }
            group = (pidx[place], members[0].key[1], table, ~group_mask)
            for ti in index:
                self.t_group[ti] = group
        # The dominant accelerator idiom — one input arc, one output
        # arc, no timeout — gets a fully inlined firing loop driven by
        # one precomputed spec tuple: (in_place, in_weight, out_place,
        # out_weight, in_name, guard, delay_fn, delay_const, wake,
        # plain).  ``plain`` flags the tightest tier: weight-1 arcs,
        # constant delay, no guard — a loop with zero per-firing branch
        # tests.  Keyed transitions stay on the generic path, which
        # alone carries the group check.
        self.t_fast: list[tuple | None] = []
        for ti, t in enumerate(ordered):
            fast = (
                len(t.inputs) == 1
                and len(t.outputs) == 1
                and t.timeout is None
                and t.key is None
                and (self.t_delay_const[ti] is None or self.t_delay_const[ti] >= 0)
            )
            self.t_fast.append(
                (
                    self.t_in[ti][0][0],
                    self.t_in[ti][0][1],
                    self.t_out[ti][0][0],
                    self.t_out[ti][0][1],
                    t.inputs[0].place,
                    t.guard,
                    self.t_delay_fn[ti],
                    self.t_delay_const[ti],
                    self.t_wake_fire[ti],
                    t.guard is None
                    and self.t_delay_fn[ti] is None
                    and self.t_in[ti][0][1] == 1
                    and self.t_out[ti][0][1] == 1,
                )
                if fast
                else None
            )
        # Completion fast paths: the weight-1 single output place (or
        # -1), and ``(place, weight)`` of any single output arc.
        self.t_out1 = [
            self.t_out[ti][0][0]
            if len(self.t_out[ti]) == 1 and self.t_out[ti][0][1] == 1
            else -1
            for ti in range(len(ordered))
        ]
        self.t_outw = [
            self.t_out[ti][0] if len(self.t_out[ti]) == 1 else None
            for ti in range(len(ordered))
        ]
        self._loops: dict[tuple[str, ...], EventLoop] = {}

    def event_loop(self, sinks: Sequence[str]) -> EventLoop:
        """The :class:`EventLoop` for ``sinks``, built on first request
        and shared by every simulator and batch evaluator of this form."""
        key = tuple(sinks)
        loop = self._loops.get(key)
        if loop is None:
            loop = self._loops[key] = EventLoop(self, key)
        return loop


class CompiledSimulator:
    """The production per-item engine: a drop-in replacement for
    :class:`Simulator`.

    Same constructor shape, same ``inject``/``inject_stream``/``run``
    API, and — by differential test — the same results.  Pass a pre-built
    :class:`CompiledNet` to share one lowering across many simulators.

    ``tracer`` (see :class:`repro.obs.Tracer`) emits the same firing
    spans as the reference engine.  Spans are recorded when completion
    events pop off the heap — the event tuples already carry the fire
    time — so the inlined firing loops pay nothing, and a run without a
    tracer pays one predictable branch per event (benchmarked < 3%
    in ``benchmarks/bench_petri_engine.py``).
    """

    MAX_FIRINGS_PER_INSTANT = Simulator.MAX_FIRINGS_PER_INSTANT

    def __init__(
        self,
        net: PetriNet,
        sinks: Sequence[str] = ("out",),
        *,
        compiled: CompiledNet | None = None,
        tracer=None,
    ):
        if compiled is not None and compiled.net is not net:
            raise SimulationError("compiled form belongs to a different net object")
        self.net = net
        self.sinks = list(sinks)
        self.compiled = compiled if compiled is not None else CompiledNet(net)
        self._loop = self.compiled.event_loop(self.sinks)  # validates the sinks
        self.tracer = (
            tracer if tracer is not None and getattr(tracer, "enabled", True) else None
        )
        self._pending: list[tuple[float, str, Token]] = []

    # ------------------------------------------------------------------
    # Workload injection (same contract as the reference engine)
    # ------------------------------------------------------------------
    def inject(self, place: str, payload: Any = None, at: float = 0.0) -> Token:
        """Schedule a token carrying ``payload`` to enter ``place`` at ``at``."""
        if place not in self.net.places:
            raise SimulationError(f"unknown place {place!r}")
        token = payload if isinstance(payload, Token) else Token(payload=payload)
        self._pending.append((at, place, token))
        return token

    def inject_stream(
        self, place: str, payloads: Iterable[Any], *, start: float = 0.0, gap: float = 0.0
    ) -> list[Token]:
        """Inject one token per payload, ``gap`` time units apart."""
        if place not in self.net.places:
            raise SimulationError(f"unknown place {place!r}")
        tokens = []
        t = start
        pending = self._pending.append
        new_token = Token.__new__
        next_uid = _token_ids.__next__
        for payload in payloads:
            if isinstance(payload, Token):
                token = payload
            else:
                token = new_token(Token)
                token.payload = payload
                token.born = None
                token.uid = next_uid()
            pending((t, place, token))
            tokens.append(token)
            t += gap
        return tokens

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        until: float | None = None,
        max_time: float | None = None,
        on_deadlock: Literal["stop", "raise"] = "stop",
        on_deadline: Literal["stop", "raise"] = "stop",
    ) -> SimResult:
        """Execute until quiescence (or ``until``), returning the result.

        Mirrors :meth:`Simulator.run` exactly, including the ``max_time``
        watchdog and deadlock detection.
        """
        net = self.net
        place_index = self.compiled.place_index
        inj = sorted(
            (at, tok.uid, place_index[pl], tok) for at, pl, tok in self._pending
        )
        self._pending.clear()
        out = self._loop.run(
            inj,
            until=until,
            max_time=max_time,
            tracer=self.tracer,
            budget=self.MAX_FIRINGS_PER_INSTANT,
        )
        self._write_back(out)
        if out.deadlocked and on_deadlock == "raise":
            raise DeadlockError(
                f"net {net.name!r} starved with {out.residual_tokens} resident tokens: "
                f"marking={net.marking()}"
            )
        result = SimResult(
            end_time=out.end_time,
            completions=out.completions,
            fired={name: net.transitions[name].fire_count for name in net.transitions},
            deadlocked=out.deadlocked,
            residual_tokens=out.residual_tokens,
            deadline_exceeded=out.deadline_exceeded,
            first_injection=out.first_injection,
        )
        if out.deadline_exceeded and on_deadline == "raise":
            done = sum(len(comp) for comp in out.completions.values())
            raise DeadlineError(
                f"net {net.name!r} exceeded max_time={max_time} with "
                f"{out.pending} events pending ({done} completions so far)",
                result=result,
            )
        return result

    def _write_back(self, out: LoopOutcome) -> None:
        """Mirror final run state into the net's Place/Transition objects.

        Callers introspect ``net.marking()`` and per-transition counters
        after a run (deadlock reporting, utilization stats); keeping the
        net in the same end state as a reference run preserves that.
        """
        c = self.compiled
        for i, name in enumerate(c.place_names):
            place = self.net.places[name]
            place.tokens = out.tokens[i]
            place.reserved = out.reserved[i]
        for i, name in enumerate(c.t_names):
            t = self.net.transitions[name]
            t.busy = out.busy[i]
            t.fire_count = out.fire_count[i]
            t.busy_time = out.busy_time[i]


class LoopOutcome(NamedTuple):
    """The end state of one :meth:`EventLoop.run`.

    The sink completions and run flags every caller reads, plus the
    per-place and per-transition arrays :class:`CompiledSimulator`
    writes back into the net.
    """

    end_time: float
    completions: dict[str, list[Completion]]
    first_injection: float | None
    deadlocked: bool
    residual_tokens: int
    deadline_exceeded: bool
    #: Events and injections still queued when the run stopped.
    pending: int
    tokens: list[deque[Token]]
    reserved: list[int]
    busy: list[int]
    fire_count: list[int]
    busy_time: list[float]


class EventLoop:
    """The compiled engine's firing/completion loop for one
    ``(CompiledNet, sinks)`` pair.

    Everything the loop reads per net — the wake masks applied at
    completion, the reusable guard/delay argument slots, the sink table,
    the span categories — is built here once; :meth:`run` allocates only
    the run state.  :class:`CompiledSimulator` and the columnar batch
    engine both run this loop, so the firing semantics exist once.  Get
    one through :meth:`CompiledNet.event_loop`.
    """

    def __init__(self, compiled: CompiledNet, sinks: Sequence[str]):
        c = compiled
        for s in sinks:
            if s not in c.place_index:
                raise SimulationError(f"sink {s!r} is not a place of net {c.net.name!r}")
        self.compiled = c
        self.sinks = tuple(sinks)
        #: Per place: its name when it is a sink (tokens leave the net
        #: there as completions), else ``None``.
        self.sink_of: list[str | None] = [
            name if name in self.sinks else None for name in c.place_names
        ]
        # Combined wake mask applied when a single-output transition
        # completes: its own server frees up, plus either readers of the
        # deposited place or — for sink places, where the token leaves
        # the net — writers whose capacity was freed.
        self.wake_done: list[int] = []
        # Reusable ``consumed`` argument per fast transition with a
        # guard or delay callable (fresh-dict cost avoided; callables
        # must not retain or mutate their argument — same contract the
        # reference engine's documentation imposes).
        self.guard_slots: list[list[Token | None] | None] = []
        self.guard_dicts: list[dict[str, list[Token | None]] | None] = []
        for ti in range(len(c.t_names)):
            ow = c.t_outw[ti]
            if ow is None:
                self.wake_done.append(1 << ti)
            else:
                p, _ = ow
                base = (
                    c.producers_mask[p]
                    if self.sink_of[p] is not None
                    else c.consumers_mask[p]
                )
                self.wake_done.append(base | (1 << ti))
            fast = c.t_fast[ti]
            if fast is not None and fast[1] == 1 and (
                fast[5] is not None or fast[6] is not None
            ):
                slot: list[Token | None] = [None]
                self.guard_slots.append(slot)
                self.guard_dicts.append({fast[4]: slot})
            else:
                self.guard_slots.append(None)
                self.guard_dicts.append(None)
        # Per-transition span categories, so the per-event trace branch
        # allocates nothing (guard attribution included).
        self.trace_cat = [
            "petri.guarded" if g is not None else "petri.fire" for g in c.t_guard
        ]

    def run(
        self,
        inj: list[tuple[float, int, int, Token]],
        *,
        until: float | None = None,
        max_time: float | None = None,
        tracer=None,
        budget: int = Simulator.MAX_FIRINGS_PER_INSTANT,
    ) -> LoopOutcome:
        """Execute one run from an empty marking.

        ``inj`` holds the workload as ``(at, uid, place_idx, token)``
        tuples sorted ascending — arrival time, then injection order.
        ``until``/``max_time`` stop the run like :meth:`Simulator.run`'s;
        ``tracer`` (already known to be enabled) receives one span per
        completed or timed-out firing; ``budget`` caps firings per
        instant.
        """
        c = self.compiled
        n_places = len(c.place_names)
        n_trans = len(c.t_names)

        # --- run state: flat arrays, no Place/Transition mutation.
        tokens: list[deque[Token]] = [deque() for _ in range(n_places)]
        reserved = [0] * n_places
        busy = [0] * n_trans
        fire_count = [0] * n_trans
        busy_time = [0.0] * n_trans
        completions: dict[str, list[Completion]] = {s: [] for s in self.sinks}
        # Per-place completion list (None = not a sink).
        comp_of: list[list[Completion] | None] = [
            None if name is None else completions[name] for name in self.sink_of
        ]

        events: list[tuple[float, int, int, int, Token | None, float]] = []
        seq = 0
        now = 0.0
        dirty = 0  # bitmask: bit ti = re-check transition ti

        # Local aliases: the hot loop reads these thousands of times.
        t_in, t_out = c.t_in, c.t_out
        t_in_names = c.t_in_names
        t_delay_const, t_delay_fn = c.t_delay_const, c.t_delay_fn
        t_guard, t_servers = c.t_guard, c.t_servers
        t_timeout_after, t_timeout_place = c.t_timeout_after, c.t_timeout_place
        consumers_mask, producers_mask = c.consumers_mask, c.producers_mask
        capacity = c.capacity
        place_names = c.place_names
        t_names = c.t_names
        t_wake_fire, t_fast = c.t_wake_fire, c.t_fast
        t_out1, t_outw = c.t_out1, c.t_outw
        t_group = c.t_group
        wake_done = self.wake_done
        guard_slots, guard_dicts = self.guard_slots, self.guard_dicts
        trace_cat = self.trace_cat
        new_token = Token.__new__
        new_comp = Completion.__new__
        next_uid = _token_ids.__next__
        net_name = c.net.name

        # Injections never interleave with engine-generated events at
        # the same (time, seq) — they were all scheduled first, so at
        # any instant they apply before completions.  Keeping them in a
        # sorted side list instead of the heap skips two heap ops per
        # token.
        first_injection = inj[0][0] if inj else None
        if inj and inj[0][0] < now:
            raise SimulationError(
                f"event scheduled in the past ({inj[0][0]} < {now})"
            )
        inj_i, inj_n = 0, len(inj)

        def deposit(p: int, token: Token, from_reservation: bool) -> None:
            nonlocal dirty
            comps = comp_of[p]
            if comps is not None:
                if from_reservation:
                    reserved[p] -= 1
                    # A sink deposit releases reserved capacity: writers
                    # of this place may become enabled again.
                    dirty |= producers_mask[p]
                comps.append(Completion(time=now, token=token))
                return
            if from_reservation:
                if reserved[p] <= 0:
                    raise CapacityError(
                        f"place {place_names[p]!r}: deposit without prior reservation"
                    )
                reserved[p] -= 1
            else:
                cap = capacity[p]
                if cap is not None and cap - len(tokens[p]) - reserved[p] < 1:
                    raise CapacityError(
                        f"place {place_names[p]!r} is full (capacity {cap})"
                    )
            tokens[p].append(token)
            dirty |= consumers_mask[p]

        def fire_all() -> None:
            nonlocal seq, dirty
            fired = 0
            while dirty:
                # Ascending bit-scan == the reference's sorted batch.
                batch = dirty
                dirty = 0
                while batch:
                    low = batch & -batch
                    batch -= low
                    ti = low.bit_length() - 1
                    # --- fully inlined loop for the dominant idiom:
                    # one input arc, one output arc, no timeout (guards,
                    # weights and callable delays allowed).  Cheap bail
                    # first: most wake-ups find nothing to fire.
                    fast = t_fast[ti]
                    if fast is not None:
                        dq = tokens[fast[0]]
                        if len(dq) < fast[1]:
                            continue
                        servers = t_servers[ti]
                        if servers is not None and busy[ti] >= servers:
                            continue
                        if fast[9]:
                            # Tightest tier: weight-1 arcs, constant
                            # delay, no guard — nothing to test per
                            # firing.
                            p_out = fast[2]
                            delay_c = fast[7]
                            wake = fast[8]
                            cap = capacity[p_out]
                            out_dq = tokens[p_out]
                            while (
                                dq
                                and (servers is None or busy[ti] < servers)
                                and (
                                    cap is None
                                    or cap - len(out_dq) - reserved[p_out] >= 1
                                )
                            ):
                                first = dq.popleft()
                                reserved[p_out] += 1
                                dirty |= wake
                                busy[ti] += 1
                                fire_count[ti] += 1
                                busy_time[ti] += delay_c
                                fired += 1
                                if fired > budget:
                                    raise SimulationError(
                                        f"net {net_name!r}: more than {budget} "
                                        f"firings at t={now}; likely a zero-delay loop"
                                    )
                                heappush(
                                    events, (now + delay_c, seq, _COMPLETE, ti, first, now)
                                )
                                seq += 1
                            continue
                        _, w_in, p_out, w_out, in_name, guard, delay_fn, delay_c, wake, _ = fast
                        cap = capacity[p_out]
                        out_dq = tokens[p_out]
                        while (
                            len(dq) >= w_in
                            and (servers is None or busy[ti] < servers)
                            and (
                                cap is None
                                or cap - len(out_dq) - reserved[p_out] >= w_out
                            )
                        ):
                            if guard is not None or delay_fn is not None:
                                slot = guard_slots[ti]
                                if slot is not None:
                                    slot[0] = dq[0]
                                    consumed = guard_dicts[ti]
                                else:
                                    consumed = {
                                        in_name: [dq[i] for i in range(w_in)]
                                    }
                                if guard is not None and not guard(consumed):
                                    break
                            first = dq.popleft()
                            if w_in != 1:
                                for _ in range(w_in - 1):
                                    dq.popleft()
                            reserved[p_out] += w_out
                            dirty |= wake
                            if delay_fn is None:
                                delay = delay_c
                            else:
                                delay = float(delay_fn(consumed))
                                if delay < 0:
                                    raise DefinitionError(
                                        f"transition {t_names[ti]!r} computed "
                                        "a negative delay"
                                    )
                            busy[ti] += 1
                            fire_count[ti] += 1
                            busy_time[ti] += delay
                            fired += 1
                            if fired > budget:
                                raise SimulationError(
                                    f"net {net_name!r}: more than {budget} "
                                    f"firings at t={now}; likely a zero-delay loop"
                                )
                            heappush(events, (now + delay, seq, _COMPLETE, ti, first, now))
                            seq += 1
                        continue
                    group = t_group[ti]
                    if group is not None:
                        # Head-keyed dispatch: only the member the head
                        # token selects can fire (guard => key), and
                        # only a member firing changes the head, so the
                        # others would all be found disabled at their
                        # own positions.  Skip this one and drop from
                        # the batch every member before the selected
                        # one — or the whole group when the selected
                        # one is not still ahead in this batch.
                        head, field, table, not_group = group
                        dq = tokens[head]
                        hit = None
                        if dq:
                            try:
                                hit = table.get(dq[0].payload[field])
                            except (KeyError, IndexError, TypeError):
                                raise SimulationError(
                                    f"transition {t_names[ti]!r}: head token of "
                                    f"{place_names[head]!r} has no hashable key "
                                    f"field {field!r} (payload {dq[0].payload!r})"
                                ) from None
                        if hit is None:
                            batch &= not_group
                            continue
                        if hit[0] != ti:
                            batch &= hit[2] if batch & hit[1] else not_group
                            continue
                    servers = t_servers[ti]
                    guard = t_guard[ti]
                    delay_fn = t_delay_fn[ti]
                    ins = t_in[ti]
                    outs = t_out[ti]
                    while True:
                        # --- enabled? (same check order as the reference)
                        if servers is not None and busy[ti] >= servers:
                            break
                        enabled = True
                        for p, w in ins:
                            if len(tokens[p]) < w:
                                enabled = False
                                break
                        if enabled:
                            for p, w in outs:
                                cap = capacity[p]
                                if cap is not None and cap - len(tokens[p]) - reserved[p] < w:
                                    enabled = False
                                    break
                        if not enabled:
                            break
                        consumed: dict[str, list[Token]] | None = None
                        if guard is not None or delay_fn is not None:
                            names = t_in_names[ti]
                            consumed = {}
                            for (p, w), name in zip(ins, names, strict=True):
                                dq = tokens[p]
                                consumed[name] = (
                                    [dq[0]] if w == 1 else [dq[i] for i in range(w)]
                                )
                            if guard is not None and not guard(consumed):
                                break
                        # --- fire: consume inputs, reserve outputs.
                        first: Token | None = None
                        for p, w in ins:
                            dq = tokens[p]
                            if len(dq) < w:
                                raise ValueError(
                                    f"place {place_names[p]!r} holds fewer than {w} tokens"
                                )
                            if first is None:
                                first = dq[0]
                            for _ in range(w):
                                dq.popleft()
                        for p, w in outs:
                            reserved[p] += w
                        dirty |= t_wake_fire[ti]
                        delay = (
                            float(delay_fn(consumed))
                            if delay_fn is not None
                            else t_delay_const[ti]
                        )
                        if delay < 0:
                            raise DefinitionError(
                                f"transition {t_names[ti]!r} computed a negative delay"
                            )
                        busy[ti] += 1
                        fire_count[ti] += 1
                        fired += 1
                        if fired > budget:
                            raise SimulationError(
                                f"net {net_name!r}: more than {budget} "
                                f"firings at t={now}; likely a zero-delay loop"
                            )
                        after = t_timeout_after[ti]
                        if after is not None and delay > after:
                            # Fault arc: abandon the work at the deadline
                            # (see the reference engine for the contract).
                            busy_time[ti] += after
                            heappush(events, (now + after, seq, _FAIL, ti, first, now))
                        else:
                            busy_time[ti] += delay
                            heappush(events, (now + delay, seq, _COMPLETE, ti, first, now))
                        seq += 1

        deadline_exceeded = False
        inf = float("inf")
        # One compare per instant: the reference checks max_time before
        # until, so the merged hurdle resolves ties the same way.
        hurdle = inf if max_time is None else max_time
        if until is not None and until < hurdle:
            hurdle = until
        while True:
            t = events[0][0] if events else inf
            if inj_i < inj_n:
                t_inj = inj[inj_i][0]
                if t_inj < t:
                    t = t_inj
            elif not events:
                break
            if t > hurdle:
                if max_time is not None and t > max_time:
                    now = max_time
                    deadline_exceeded = True
                else:
                    now = until
                break
            now = t
            while inj_i < inj_n and inj[inj_i][0] == t:
                idx, tok = inj[inj_i][2], inj[inj_i][3]
                inj_i += 1
                tok.born = t
                comps = comp_of[idx]
                if comps is not None:
                    comp = new_comp(Completion)
                    comp.time = t
                    comp.token = tok
                    comps.append(comp)
                else:
                    cap = capacity[idx]
                    if cap is not None and cap - len(tokens[idx]) - reserved[idx] < 1:
                        raise CapacityError(
                            f"place {place_names[idx]!r} is full (capacity {cap})"
                        )
                    tokens[idx].append(tok)
                    dirty |= consumers_mask[idx]
            while events and events[0][0] == t:
                _, _, kind, idx, tok, t0 = heappop(events)
                if tracer is not None:
                    if kind == _COMPLETE:
                        tracer.add_span(
                            t_names[idx], t0, t, cat=trace_cat[idx], tid=net_name
                        )
                    else:
                        tracer.add_span(
                            f"{t_names[idx]}!timeout",
                            t0,
                            t,
                            cat="petri.timeout",
                            tid=net_name,
                        )
                if kind == _COMPLETE:
                    # Single output arc: the first child of the consumed
                    # token has the same payload and born, so reuse
                    # the (otherwise dead) token object instead of
                    # fabricating a child per hop; extra weight copies
                    # are fabricated inline.
                    p = t_out1[idx]
                    if p >= 0:
                        if tok.born is None:
                            tok.born = t0
                        reserved[p] -= 1
                        comps = comp_of[p]
                        if comps is not None:
                            comp = new_comp(Completion)
                            comp.time = now
                            comp.token = tok
                            comps.append(comp)
                        else:
                            tokens[p].append(tok)
                        dirty |= wake_done[idx]
                        busy[idx] -= 1
                    elif (ow := t_outw[idx]) is not None:
                        p, w = ow
                        if tok.born is None:
                            tok.born = t0
                        reserved[p] -= w
                        comps = comp_of[p]
                        if comps is not None:
                            comp = new_comp(Completion)
                            comp.time = now
                            comp.token = tok
                            comps.append(comp)
                        else:
                            tokens[p].append(tok)
                        payload, born = tok.payload, tok.born
                        for _ in range(w - 1):
                            child = new_token(Token)
                            child.payload = payload
                            child.born = born
                            child.uid = next_uid()
                            if comps is not None:
                                comp = new_comp(Completion)
                                comp.time = now
                                comp.token = child
                                comps.append(comp)
                            else:
                                tokens[p].append(child)
                        dirty |= wake_done[idx]
                        busy[idx] -= 1
                    else:
                        for p, w in t_out[idx]:
                            for _ in range(w):
                                child = tok.child()
                                if child.born is None:
                                    child.born = t0
                                deposit(p, child, True)
                        busy[idx] -= 1
                        dirty |= 1 << idx  # a server freed up
                else:  # _FAIL: release reservations, emit one fault token
                    for p, w in t_out[idx]:
                        reserved[p] -= w
                        dirty |= producers_mask[p]
                    fault = tok.child() if tok is not None else Token()
                    deposit(t_timeout_place[idx], fault, False)
                    busy[idx] -= 1
                    dirty |= 1 << idx
            fire_all()

        residual = sum(len(dq) for dq in tokens)
        pending = len(events) + (inj_n - inj_i)
        return LoopOutcome(
            end_time=now,
            completions=completions,
            first_injection=first_injection,
            deadlocked=residual > 0 and not any(busy) and not pending,
            residual_tokens=residual,
            deadline_exceeded=deadline_exceeded,
            pending=pending,
            tokens=tokens,
            reserved=reserved,
            busy=busy,
            fire_count=fire_count,
            busy_time=busy_time,
        )


def make_simulator(
    net: PetriNet,
    sinks: Sequence[str] = ("out",),
    *,
    compiled: CompiledNet | None = None,
    tracer=None,
) -> CompiledSimulator:
    """The per-item simulator for ``net``: a :class:`CompiledSimulator`.

    ``compiled`` shares a pre-built :class:`CompiledNet` across
    simulators in a sweep.  ``tracer`` (:class:`repro.obs.Tracer`)
    records per-firing spans without affecting results.
    """
    return CompiledSimulator(net, sinks, compiled=compiled, tracer=tracer)
