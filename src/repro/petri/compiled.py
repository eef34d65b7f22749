"""Compiled fast-path engine for the performance IR.

The reference :class:`~repro.petri.simulate.Simulator` is written for
clarity: it allocates a closure per firing, heap-pushes ``_Event``
dataclasses, and re-sorts ``Transition`` objects per instant.  That
interpreter overhead is paid *per token* by every sweep-shaped consumer
(validation, autotuning, fault sweeps) — exactly the cost the paper says
the Petri-net representation exists to avoid.

This module lowers a static :class:`~repro.petri.net.PetriNet` once into
a flat, integer-indexed form (:class:`CompiledNet`) and runs it on one
firing/completion loop, :class:`PlanLoop`, built once per
``(CompiledNet, sinks)`` from one precomputed plan per transition:

* places and transitions become array indices (transition index order
  *is* the deterministic ``(priority, name)`` firing order, so the dirty
  set is an int bitmask and an ascending bit-scan replaces the sort);
* a plan holds direct references to its transition's input and output
  queues, its key-group entry, a reusable guard/delay argument, its
  servers, its delay and its wake masks;
* events are plain tuples on one heap — no per-firing closures, no event
  dataclass — and tokens move from place to place instead of being
  copied.

Semantics are *identical* to the reference engine — same firing order,
same budget accounting, same error messages, same ``SimResult`` — and
:mod:`repro.petri.differential` asserts this on every shipped
accelerator net and on randomized structural nets.

:class:`CompiledSimulator` (per item: tracing, ``until``/``max_time``,
write-back into the net) and the columnar batch engine
(:mod:`repro.petri.batched`) both run that one loop, so the firing rules
exist once.  :func:`make_simulator` is the production per-item entry
point; the reference engine is the oracle the differential checks
against.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from heapq import heappop, heappush
from itertools import islice
from typing import Any, Literal

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

inf = float("inf")


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
    points.  The lowered arrays never mutate; all simulation state lives
    in the :class:`PlanLoop` run that uses them.
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

        # Per place, its consumer and producer transitions, as lists and
        # as int bitmasks (bit ti = transition ti): set-union becomes a
        # single ``|=``.  The bits are OR-ed, so a transition that lists
        # a place twice sets its own bit once.
        consumers: list[list[int]] = [[] for _ in self.place_names]
        producers: list[list[int]] = [[] for _ in self.place_names]
        self.consumers_mask = [0] * len(self.place_names)
        self.producers_mask = [0] * len(self.place_names)
        for ti, t in enumerate(ordered):
            for a in t.inputs:
                consumers[pidx[a.place]].append(ti)
                self.consumers_mask[pidx[a.place]] |= 1 << ti
            for a in t.outputs:
                producers[pidx[a.place]].append(ti)
                self.producers_mask[pidx[a.place]] |= 1 << ti
        self.consumers = [tuple(c) for c in consumers]
        self.producers = [tuple(p) for p in producers]

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
        self._loops: dict[tuple[str, ...], PlanLoop] = {}

    def check_sinks(self, sinks: Sequence[str]) -> list[bool]:
        """Per place, whether it is one of ``sinks`` (tokens leave the
        net there as completions); raises :class:`SimulationError` for a
        sink that is not a place."""
        for s in sinks:
            if s not in self.place_index:
                raise SimulationError(f"sink {s!r} is not a place of net {self.net.name!r}")
        return [name in sinks for name in self.place_names]

    def plan_loop(self, sinks: Sequence[str]) -> PlanLoop:
        """The :class:`PlanLoop` for ``sinks``, built on first request
        and shared by every simulator and batch evaluator of this form."""
        key = tuple(sinks)
        loop = self._loops.get(key)
        if loop is None:
            loop = self._loops[key] = PlanLoop(self, key)
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
    time — so the firing loop pays nothing, and a run without a tracer
    pays one predictable branch per event (benchmarked < 3% in
    ``benchmarks/bench_petri_engine.py``).
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
        self._loop = self.compiled.plan_loop(self.sinks)  # validates the sinks
        self.tracer = (
            tracer if tracer is not None and getattr(tracer, "enabled", True) else None
        )
        #: The workload as the loop takes it: ``(at, uid, place index,
        #: token)``; :meth:`run` sorts it into arrival order.
        self._pending: list[tuple[float, int, int, Token]] = []

    # ------------------------------------------------------------------
    # Workload injection (same contract as the reference engine)
    # ------------------------------------------------------------------
    def inject(self, place: str, payload: Any = None, at: float = 0.0) -> Token:
        """Schedule a token carrying ``payload`` to enter ``place`` at ``at``."""
        p = self.compiled.place_index.get(place)
        if p is None:
            raise SimulationError(f"unknown place {place!r}")
        token = payload if isinstance(payload, Token) else Token(payload=payload)
        self._pending.append((at, token.uid, p, token))
        return token

    def inject_stream(
        self, place: str, payloads: Iterable[Any], *, start: float = 0.0, gap: float = 0.0
    ) -> list[Token]:
        """Inject one token per payload, ``gap`` time units apart."""
        p = self.compiled.place_index.get(place)
        if p is None:
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
            pending((t, token.uid, p, token))
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
        watchdog and deadlock detection.  The end state (marking,
        reservations, per-transition counters) is written back into the
        net, as a reference run leaves it; a run that raises leaves the
        net as it was.
        """
        net = self.net
        inj = self._pending
        inj.sort()
        self._pending = []
        result, pending = self._loop.simulate(
            inj,
            net,
            until=until,
            max_time=max_time,
            tracer=self.tracer,
            budget=self.MAX_FIRINGS_PER_INSTANT,
        )
        if result.deadlocked and on_deadlock == "raise":
            raise DeadlockError(
                f"net {net.name!r} starved with {result.residual_tokens} resident "
                f"tokens: marking={net.marking()}"
            )
        if result.deadline_exceeded and on_deadline == "raise":
            done = sum(len(comp) for comp in result.completions.values())
            raise DeadlineError(
                f"net {net.name!r} exceeded max_time={max_time} with "
                f"{pending} events pending ({done} completions so far)",
                result=result,
            )
        return result


def _repeated_place_plan(
    names: Sequence[str],
    arcs: Sequence[tuple[deque[Token], int]],
    guard: Any,
    delay_fn: Any,
) -> tuple[Any, Any, list]:
    """The guard, delay and lead token of a transition that lists an
    input place more than once, as the reference engine runs it.

    The reference takes each arc in turn and keeps, per place, the
    tokens of its last arc: the delay reads those, and the firing
    forwards the first of them (the guard still sees the head tokens).
    The returned guard runs the original one and then copies each
    place's last take into a reusable view; the delay reads the view;
    the lead is the view of the first input place.  A place that runs
    short of its takes leaves its view short, and consuming raises.
    """
    takes: dict[str, tuple[list, deque[Token], int, int]] = {}
    taken: dict[str, int] = {}
    for name, (queue, w) in zip(names, arcs, strict=True):
        offset = taken.get(name, 0)
        taken[name] = offset + w
        takes[name] = ([], queue, offset, w)
    view = {name: slot for name, (slot, _, _, _) in takes.items()}
    lead = view[names[0]]
    steps = tuple(takes.values())

    def snapshot(consumed: dict) -> bool:
        if guard is not None and not guard(consumed):
            return False
        for slot, queue, offset, w in steps:
            slot[:] = islice(queue, offset, offset + w)
        if not lead:
            lead.append(None)  # never forwarded: consuming raises first
        return True

    return snapshot, (None if delay_fn is None else lambda _: delay_fn(view)), lead


def _produced_mismatch(name: str, place: str, got: int, want: int):
    """The completion of a transition that lists an output place twice
    with different weights: the reference engine produces the last
    arc's weight for every arc of that place, and raises at the first
    arc it does not fit."""

    def deposit(_token: Token) -> None:
        raise SimulationError(
            f"transition {name!r} produced {got} tokens for {place!r}, expected {want}"
        )

    return deposit


class PlanLoop:
    """The compiled engine's firing/completion loop for one
    ``(CompiledNet, sinks)`` pair, over one precomputed plan per
    transition.

    A plan holds everything a firing or a completion of its transition
    reads: direct references to the queues of its input and output
    places (a sink's are the appends of its completion lists), its
    key-group entry, one reusable guard/delay argument whose token slots
    are refilled in place, its server count, its delay, and its fire and
    completion wake masks.  The first input arc is a field of its own,
    checked with the server count, so the usual one-input transition
    runs no loop over its inputs.  A capped place keeps one occupancy
    count, its tokens plus the slots firings in flight have reserved:
    the capacity check reads only that count, and a completion that
    deposits into a place leaves it unchanged.  The queues are reused
    from run to run: every run starts with them empty and leaves them
    empty, whether it returns or raises, so a guard or delay must not
    start a run of the same compiled net.  :meth:`simulate` runs one
    :class:`CompiledSimulator` run and :meth:`run_item` one batch item;
    get the loop through :meth:`CompiledNet.plan_loop`.

    Rounds.  Like the reference engine, an instant fires in rounds: each
    round re-checks, in ascending index (the ``(priority, name)``
    order), the transitions the previous round woke, and a firing wakes
    the producers and consumers of its input places for the next round.
    Each wake mask comes with the part the change can enable: a firing
    can enable only the producers of a capped input place and the
    guarded consumers whose head token changed; a completion, itself and
    the consumers of the places it filled, or the producers of a capped
    sink.  A round re-checks only that part, and a firing adds what it
    may enable to the rest of its round, so the firings and their order
    are the reference engine's while the re-checks that could only find
    a transition disabled are skipped.

    Tokens move instead of being copied: a completion appends the first
    consumed token to each output arc, ``weight`` times, where the
    reference engine deposits a ``child()`` per token.  A child has the
    same payload and birth time, and nothing here changes a token after
    its injection, so guards, delays and completions see the same
    values; only uids differ, and no result reads them.  A timeout's
    fault token is that same token.
    """

    def __init__(self, compiled: CompiledNet, sinks: Sequence[str]):
        c = compiled
        is_sink = c.check_sinks(sinks)
        self.compiled = c
        #: Per sink, in ``sinks`` order: its completion times, and the
        #: tokens that completed there.
        self.times: dict[str, list[float]] = {s: [] for s in sinks}
        self.arrived: dict[str, list[Token]] = {s: [] for s in sinks}
        self.queues: list[deque[Token]] = [deque() for _ in c.place_names]
        queues = self.queues
        #: Per place: the appends of its time and token lists when it is
        #: a sink, else ``None``.
        self.sink_of: list[tuple | None] = [
            (self.times[name].append, self.arrived[name].append) if sink else None
            for name, sink in zip(c.place_names, is_sink, strict=True)
        ]
        #: Per transition, the category of its firing spans.
        self.trace_cat = [
            "petri.guarded" if g is not None else "petri.fire" for g in c.t_guard
        ]
        capped = [cap is not None for cap in c.capacity]
        self.plans: dict[int, tuple] = {}
        # One key-group entry per head place; its memo holds the last
        # head token looked up and the member it selected.
        groups: dict[int, tuple] = {}
        for ti, name in enumerate(c.t_names):
            (p0, w0), *rest = c.t_in[ti]
            # The input arcs after the first, and the capped output arcs
            # with the occupancy above which they cannot take ``w``.
            ins = tuple((queues[p], w, p) for p, w in rest)
            caps = tuple((p, c.capacity[p] - w, w) for p, w in c.t_out[ti] if capped[p])
            guard, delay_fn, delay_c = c.t_guard[ti], c.t_delay_fn[ti], c.t_delay_const[ti]
            if delay_c is not None and delay_c < 0:
                # Raised at firing, like a callable's negative delay.
                delay_fn, delay_c = (lambda _, d=delay_c: d), None
            repeated = len(set(c.t_in_names[ti])) < len(c.t_in[ti])
            consumed = fill = None
            if guard is not None or delay_fn is not None or repeated:
                # One list per input place (a later arc from the same
                # place replaces an earlier one, as in a fresh dict).
                slots = {
                    place: ([None] * w, queues[p], w)
                    for place, (p, w) in zip(c.t_in_names[ti], c.t_in[ti], strict=True)
                }
                consumed = {place: slot for place, (slot, _, _) in slots.items()}
                fill = tuple(slots.values())
            lead: Any = queues[p0]
            if repeated:
                guard, delay_fn, lead = _repeated_place_plan(
                    c.t_in_names[ti], [(queues[p], w) for p, w in c.t_in[ti]], guard, delay_fn
                )

            # Wake masks: ``wake`` is what the reference engine re-checks
            # in the next round, ``may`` its part the change can enable.
            wake = may = 0
            for p, _ in c.t_in[ti]:
                wake |= c.producers_mask[p] | c.consumers_mask[p]
                if capped[p]:
                    may |= c.producers_mask[p]
                for other in c.consumers[p]:
                    if other != ti and c.t_guard[other] is not None:
                        may |= 1 << other
            done_wake = done_may = 1 << ti
            for p, _ in c.t_out[ti]:
                if not is_sink[p]:
                    done_wake |= c.consumers_mask[p]
                    done_may |= c.consumers_mask[p]
                else:
                    done_wake |= c.producers_mask[p]
                    if capped[p]:
                        done_may |= c.producers_mask[p]

            produced = {p: w for p, w in c.t_out[ti]}
            mismatch = next(((p, w) for p, w in c.t_out[ti] if produced[p] != w), None)
            if mismatch is not None:
                p, w = mismatch
                appends: tuple = (
                    _produced_mismatch(name, c.place_names[p], produced[p], w),
                )
            else:
                appends = tuple(
                    queues[p].append if not is_sink[p] else self.sink_of[p][1]
                    for p, w in c.t_out[ti]
                    for _ in range(w)
                )
            stamps = tuple(
                (self.sink_of[p][0], p) for p, w in c.t_out[ti] if is_sink[p] for _ in range(w)
            )
            done = (ti, appends, stamps, done_wake, done_may)

            fail = None
            after = c.t_timeout_after[ti]
            if after is not None:
                p = c.t_timeout_place[ti]
                fail_wake = fail_may = 1 << ti
                for q, _ in c.t_out[ti]:
                    fail_wake |= c.producers_mask[q]
                    if capped[q]:
                        fail_may |= c.producers_mask[q]
                if not is_sink[p]:
                    fail_wake |= c.consumers_mask[p]
                    fail_may |= c.consumers_mask[p]
                releases = tuple((q, w) for q, _, w in caps)
                fault = (releases, p, queues[p], self.sink_of[p], c.capacity[p])
                fail = (ti, None, fault, fail_wake, fail_may)

            group = c.t_group[ti]
            if group is not None:
                head, field, table, not_group = group
                group = groups.setdefault(
                    head, (queues[head], field, table, not_group, [None, None])
                )
            self.plans[1 << ti] = (
                ti,
                group,
                inf if c.t_servers[ti] is None else c.t_servers[ti],
                queues[p0],
                w0,
                ins,
                caps,
                fill,
                consumed,
                guard,
                # Read only when the transition fires:
                (p0, lead, delay_fn, delay_c, after, wake, may, may & -(2 << ti), done, fail),
            )
        self.memos = [group[4] for group in groups.values()]

    def run_item(
        self, injections: Sequence[tuple[str, Any, float]], collect: bool
    ) -> tuple:
        """One batch item: materialize its tokens in injection order, run
        to quiescence, and reduce the sinks' completion times.

        Returns the fields of a
        :class:`~repro.petri.batched.BatchItemResult`, in its order:
        makespan, end time, per-sink counts, first injection, deadlock
        flag, residual tokens, and, with ``collect``, the completion
        times and fired counts (else ``None`` each).
        """
        c = self.compiled
        place_index = c.place_index
        new_token = Token.__new__
        next_uid = _token_ids.__next__
        inj = []
        for place, payload, at in injections:
            if isinstance(payload, Token):
                token = payload
            else:
                token = new_token(Token)
                token.payload = payload
                token.born = None
                token.uid = next_uid()
            inj.append((at, token.uid, place_index[place], token))
        # The (at, uid) arrival order CompiledSimulator.run sorts into.
        inj.sort()
        times = self.times
        try:
            end_time, _, _, _, _, fire_count, _ = self._run(
                inj, None, None, None, CompiledSimulator.MAX_FIRINGS_PER_INSTANT
            )
            residual = sum(map(len, self.queues))
            return (
                max([max(ts) for ts in times.values() if ts], default=0.0),
                end_time,
                {sink: len(ts) for sink, ts in times.items()},
                inj[0][0] if inj else None,
                residual > 0,  # quiescent: nothing pending and no server busy
                residual,
                {sink: ts.copy() for sink, ts in times.items()} if collect else None,
                dict(zip(c.t_names, fire_count, strict=True)) if collect else None,
            )
        finally:
            self._clear()

    def simulate(
        self,
        inj: list[tuple[float, int, int, Token]],
        net: PetriNet,
        *,
        until: float | None,
        max_time: float | None,
        tracer,
        budget: int,
    ) -> tuple[SimResult, int]:
        """One :class:`CompiledSimulator` run over its sorted injections.

        Writes the end marking, reservations and per-transition counters
        back into ``net`` (nothing when the run raises) and returns the
        result with the number of events and injections still pending.
        """
        c = self.compiled
        try:
            end_time, deadline_exceeded, events, inj_left, busy, fire_count, busy_time = (
                self._run(inj, until, max_time, tracer, budget)
            )
            new_comp = Completion.__new__
            completions: dict[str, list[Completion]] = {}
            for sink, times in self.times.items():
                comps = completions[sink] = []
                for time, token in zip(times, self.arrived[sink], strict=True):
                    comp = new_comp(Completion)
                    comp.time = time
                    comp.token = token
                    comps.append(comp)
            # Slots stay reserved for every firing still in flight.
            reserved = [0] * len(c.place_names)
            for event in events:
                for p, w in c.t_out[event[2][0]]:
                    reserved[p] += w
            for name, queue, held in zip(c.place_names, self.queues, reserved, strict=True):
                place = net.places[name]
                place.tokens = deque(queue)
                place.reserved = held
            for i, name in enumerate(c.t_names):
                t = net.transitions[name]
                t.busy = busy[i]
                t.fire_count = fire_count[i]
                t.busy_time = busy_time[i]
            residual = sum(map(len, self.queues))
            pending = len(events) + inj_left
            result = SimResult(
                end_time=end_time,
                completions=completions,
                fired={name: t.fire_count for name, t in net.transitions.items()},
                deadlocked=residual > 0 and not any(busy) and not pending,
                residual_tokens=residual,
                deadline_exceeded=deadline_exceeded,
                first_injection=inj[0][0] if inj else None,
            )
            return result, pending
        finally:
            self._clear()

    def _clear(self) -> None:
        for queue in self.queues:
            queue.clear()
        for ts in self.times.values():
            ts.clear()
        for tokens in self.arrived.values():
            tokens.clear()
        for memo in self.memos:
            memo[0] = memo[1] = None

    def _run(
        self,
        inj: list[tuple[float, int, int, Token]],
        until: float | None,
        max_time: float | None,
        tracer,
        budget: int,
    ) -> tuple:
        """The loop over one run's sorted ``(at, uid, place, token)``
        injections, from the empty marking until quiescence or the
        ``until``/``max_time`` hurdle.

        ``tracer`` (already known to be enabled) receives one span per
        completed or timed-out firing; ``budget`` caps firings per
        instant.  Returns the end time, whether ``max_time`` stopped
        the run, the events still queued, the injections not yet
        applied, and the per-transition busy servers, fire counts and
        busy times; tokens stay in the queues and completions in the
        sink lists until :meth:`_clear`.
        """
        c = self.compiled
        plans = self.plans
        queues, sink_of = self.queues, self.sink_of
        capacity, consumers_mask = c.capacity, c.consumers_mask
        place_names, t_names = c.place_names, c.t_names
        trace_cat = self.trace_cat
        net_name = c.net.name
        # Per capped place, its tokens plus the slots reserved by firings
        # in flight (written for every place, read only for capped ones).
        occ = [0] * len(place_names)
        busy = [0] * len(t_names)
        fire_count = [0] * len(t_names)
        busy_time = [0.0] * len(t_names)
        events: list[tuple[float, int, tuple, Token, float]] = []
        seq = 0
        now = 0.0
        # Two bitmasks over transition indices (bit ti = transition ti):
        # ``dirty`` is what the reference engine re-checks in the next
        # round, ``maybe`` the part of it that may be enabled.
        dirty = maybe = 0
        if inj and inj[0][0] < now:
            raise SimulationError(f"event scheduled in the past ({inj[0][0]} < {now})")
        inj_i, inj_n = 0, len(inj)
        deadline_exceeded = False
        # One compare per instant: the reference checks max_time before
        # until, so the merged hurdle resolves ties the same way.
        hurdle = inf if max_time is None else max_time
        if until is not None and until < hurdle:
            hurdle = until
        while True:
            if events:
                t = events[0][0]
                if inj_i < inj_n and inj[inj_i][0] < t:
                    t = inj[inj_i][0]
            elif inj_i < inj_n:
                t = inj[inj_i][0]
            else:
                break
            if t > hurdle:
                if max_time is not None and t > max_time:
                    now = max_time
                    deadline_exceeded = True
                else:
                    now = until
                break
            now = t
            # Injections apply before completions at the same instant.
            while inj_i < inj_n and inj[inj_i][0] == t:
                _, _, p, tok = inj[inj_i]
                inj_i += 1
                tok.born = t
                sink = sink_of[p]
                if sink is not None:
                    sink[0](t)
                    sink[1](tok)
                    continue
                cap = capacity[p]
                if cap is not None:
                    if occ[p] >= cap:
                        raise CapacityError(f"place {place_names[p]!r} is full (capacity {cap})")
                    occ[p] += 1
                queues[p].append(tok)
                dirty |= consumers_mask[p]
                maybe |= consumers_mask[p]
            while events and events[0][0] == t:
                _, _, done, tok, t0 = heappop(events)
                ti, appends, stamps, wake, may = done
                if tracer is not None:
                    if appends is not None:
                        tracer.add_span(t_names[ti], t0, t, cat=trace_cat[ti], tid=net_name)
                    else:
                        tracer.add_span(
                            f"{t_names[ti]}!timeout", t0, t, cat="petri.timeout", tid=net_name
                        )
                if appends is not None:
                    # A deposit into a place turns its reserved slot into
                    # a token; one into a sink frees the slot.
                    for append in appends:
                        append(tok)
                    if stamps:
                        for stamp, p in stamps:
                            stamp(t)
                            occ[p] -= 1
                else:  # timed out: the consumed token is the fault token
                    releases, p, queue, sink, cap = stamps
                    for q, w in releases:
                        occ[q] -= w
                    if sink is not None:
                        sink[0](t)
                        sink[1](tok)
                    else:
                        if cap is not None:
                            if occ[p] >= cap:
                                raise CapacityError(
                                    f"place {place_names[p]!r} is full (capacity {cap})"
                                )
                            occ[p] += 1
                        queue.append(tok)
                busy[ti] -= 1
                dirty |= wake
                maybe |= may
            # Fire everything enabled to a fixpoint, in the reference
            # engine's rounds: each round re-checks, in ascending index
            # (the deterministic (priority, name) order), the batch the
            # previous one woke.  Only its ``scan`` part can be enabled:
            # the rest would be found disabled unless a firing earlier in
            # the round enables it, and that firing adds it to ``scan``.
            fired = 0
            while maybe:
                batch = dirty
                scan = maybe
                dirty = maybe = 0
                while scan:
                    low = scan & -scan
                    scan -= low
                    plan = plans[low]
                    group = plan[1]
                    if group is not None:
                        # Head-keyed dispatch: only the member the head
                        # token selects can fire (guard => key), and only
                        # a member firing changes the head, so the others
                        # would all be found disabled at their own
                        # positions.  Skip this one and drop from the scan
                        # every member before the selected one, or the
                        # whole group when the selected one is not still
                        # ahead in it.
                        head, field, table, not_group, memo = group
                        if not head:
                            scan &= not_group
                            continue
                        tok = head[0]
                        if tok is memo[0]:
                            hit = memo[1]
                        else:
                            try:
                                hit = table.get(tok.payload[field])
                            except (KeyError, IndexError, TypeError):
                                raise SimulationError(
                                    f"transition {t_names[plan[0]]!r}: head token of "
                                    f"{place_names[c.t_group[plan[0]][0]]!r} has no "
                                    f"hashable key field {field!r} (payload "
                                    f"{tok.payload!r})"
                                ) from None
                            memo[0] = tok
                            memo[1] = hit
                        if hit is None:
                            scan &= not_group
                            continue
                        if hit[1] != low:
                            scan &= hit[2] if scan & hit[1] else not_group
                            continue
                    ti, _, servers, queue0, w0, ins, caps, fill, consumed, guard, fire = plan
                    before = fired
                    while busy[ti] < servers and len(queue0) >= w0:
                        for queue, w, _ in ins:
                            if len(queue) < w:
                                break
                        else:
                            for p, room, _ in caps:
                                if occ[p] > room:
                                    break
                            else:
                                if fill is not None:
                                    for slot, queue, w in fill:
                                        if w == 1:
                                            slot[0] = queue[0]
                                        else:
                                            slot[:] = islice(queue, w)
                                    if guard is not None and not guard(consumed):
                                        break
                                fired += 1
                                if fired > budget:
                                    raise SimulationError(
                                        f"net {net_name!r}: more than {budget} "
                                        f"firings at t={now}; likely a zero-delay loop"
                                    )
                                (
                                    p0, lead, delay_fn, delay_c, after, wake, may,
                                    may_later, done, fail,
                                ) = fire
                                first = lead[0]
                                if w0 == 1:
                                    queue0.popleft()
                                else:
                                    for _ in range(w0):
                                        queue0.popleft()
                                occ[p0] -= w0
                                if ins:
                                    try:
                                        for queue, w, p in ins:
                                            if w == 1:
                                                queue.popleft()
                                            else:
                                                for _ in range(w):
                                                    queue.popleft()
                                            occ[p] -= w
                                    except IndexError:
                                        # Only a place listed twice can run
                                        # short of its arcs' takes.
                                        raise ValueError(
                                            f"place {place_names[p]!r} holds fewer "
                                            f"than {w} tokens"
                                        ) from None
                                if caps:
                                    for p, _, w in caps:
                                        occ[p] += w
                                dirty |= wake
                                maybe |= may
                                scan |= may_later & batch
                                if delay_fn is None:
                                    delay = delay_c
                                else:
                                    delay = float(delay_fn(consumed))
                                    if delay < 0:
                                        raise DefinitionError(
                                            f"transition {t_names[ti]!r} computed a "
                                            "negative delay"
                                        )
                                busy[ti] += 1
                                fire_count[ti] += 1
                                if after is not None and delay > after:
                                    # Fault arc: abandon the work at the
                                    # deadline (see the reference engine).
                                    busy_time[ti] += after
                                    heappush(events, (now + after, seq, fail, first, now))
                                else:
                                    busy_time[ti] += delay
                                    heappush(events, (now + delay, seq, done, first, now))
                                seq += 1
                                continue
                        break
                    if group is not None and fired == before:
                        # The head is unchanged, so every later member
                        # would find the same selection: skip them.
                        scan &= not_group
            dirty = 0
        return now, deadline_exceeded, events, inj_n - inj_i, busy, fire_count, busy_time


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
