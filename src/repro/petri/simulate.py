"""Deterministic discrete-event execution of timed Petri nets.

Execution semantics (documented here because the ground-truth hardware
models in :mod:`repro.hw` and the interface nets must agree on them):

* Time is continuous (floats, usually interpreted as clock cycles).
* A transition is *enabled* at time ``t`` when (a) every input place
  holds at least ``weight`` tokens, (b) its guard accepts the tokens
  that would be consumed (FIFO order per place), (c) a server is free,
  and (d) every output place can reserve ``weight`` slots.
* Firing consumes the input tokens and reserves output slots at ``t``
  ("reserve-at-start" backpressure: a stage does not begin work it
  cannot drain, like a pipeline stage gated by downstream ready).
* The firing completes at ``t + delay(consumed)``; completion deposits
  the produced tokens and frees the server.
* When several transitions are enabled at the same instant they fire in
  ``(priority, name)`` order, and firing repeats until no transition is
  enabled, so zero-delay transitions cascade within one instant.

Determinism: given the same net, injection schedule, and token payloads,
two runs produce identical event sequences.  Nothing in the engine draws
randomness.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any, Literal

from .errors import DeadlineError, DeadlockError, SimulationError
from .net import PetriNet, Transition
from .token import Token


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)


@dataclass(slots=True)
class Completion:
    """A token arriving at a sink place (slotted: a per-item run builds
    one per sink completion)."""

    time: float
    token: Token

    @property
    def latency(self) -> float:
        """End-to-end latency: arrival time minus injection time."""
        return self.token.aged(self.time)


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    end_time: float
    completions: dict[str, list[Completion]]
    fired: dict[str, int]
    deadlocked: bool = False
    residual_tokens: int = 0
    #: True when the run stopped at its ``max_time`` watchdog with events
    #: still pending — completions/fired counts are partial progress.
    deadline_exceeded: bool = False
    #: Time of the earliest workload injection (``None`` when the run had
    #: no injections).  Throughput is measured from here, not from t=0,
    #: so workloads injected with ``start > 0`` are not understated.
    first_injection: float | None = None

    def sink(self, name: str | None = None) -> list[Completion]:
        """Completions for ``name``, or for the only sink when omitted."""
        if name is None:
            if len(self.completions) != 1:
                raise ValueError(
                    f"net has {len(self.completions)} sinks; name one of "
                    f"{sorted(self.completions)}"
                )
            return next(iter(self.completions.values()))
        return self.completions[name]

    def latencies(self, sink: str | None = None) -> list[float]:
        return [c.latency for c in self.sink(sink)]

    def makespan(self) -> float:
        """Time of the last completion across all sinks (0 if none)."""
        times = [c.time for comps in self.completions.values() for c in comps]
        return max(times, default=0.0)

    def throughput(self, sink: str | None = None) -> float:
        """Completions per unit time over the first-injection→end window."""
        comps = self.sink(sink)
        start = self.first_injection if self.first_injection is not None else 0.0
        span = self.end_time - start
        if not comps or span <= 0:
            return 0.0
        return len(comps) / span


class Simulator:
    """Runs a :class:`~repro.petri.net.PetriNet` over an injected workload.

    The reference interpreter, written for clarity: production code
    runs :class:`~repro.petri.compiled.CompiledSimulator` (through
    :func:`~repro.petri.compiled.make_simulator`), and this engine is
    the oracle :mod:`repro.petri.differential` checks it against.

    Args:
        net: The net to execute.  Its marking is reset on :meth:`run`.
        sinks: Place names treated as terminal; tokens deposited there
            are recorded as :class:`Completion` and removed, so sink
            capacity never throttles the net.
        tracer: Optional span sink (anything with
            ``add_span(name, start, end, *, cat, tid)`` — see
            :class:`repro.obs.Tracer`).  Each firing emits one span
            from fire time to completion, named after the transition
            and categorized ``petri.fire``/``petri.guarded``
            (``petri.timeout`` with a ``name!timeout`` suffix for fault
            arcs).  Pure observation: tracing cannot change results,
            and :mod:`repro.petri.differential` asserts both engines
            emit identical spans.
    """

    #: Safety valve against zero-delay livelock.
    MAX_FIRINGS_PER_INSTANT = 100_000

    def __init__(
        self,
        net: PetriNet,
        sinks: Sequence[str] = ("out",),
        *,
        tracer=None,
    ):
        for s in sinks:
            if s not in net.places:
                raise SimulationError(f"sink {s!r} is not a place of net {net.name!r}")
        self.net = net
        self.sinks = list(sinks)
        self.tracer = (
            tracer if tracer is not None and getattr(tracer, "enabled", True) else None
        )
        self._events: list[_Event] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._pending: list[tuple[float, str, Token]] = []

    # ------------------------------------------------------------------
    # Workload injection
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
        tokens = []
        t = start
        for payload in payloads:
            tokens.append(self.inject(place, payload, at=t))
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

        ``max_time`` is a watchdog budget: a run that would simulate past
        it stops at the deadline and reports partial progress
        (``deadline_exceeded=True``) instead of spinning — or raises
        :class:`~repro.petri.errors.DeadlineError` (carrying the partial
        result) when ``on_deadline="raise"``.  Unlike ``until``, which is
        a planned observation horizon, ``max_time`` flags the truncation.
        """
        net = self.net
        net.reset()
        self._events.clear()
        self._now = 0.0
        completions: dict[str, list[Completion]] = {s: [] for s in self.sinks}
        sinkset = set(self.sinks)

        # Dirty-set scheduling: only transitions whose neighborhood
        # changed are re-checked for enabledness.  consumers[p] are the
        # transitions reading place p (can be enabled by a deposit or a
        # head change); producers[p] are those writing p (can be enabled
        # when p's capacity frees up).
        self._consumers: dict[str, list[Transition]] = {p: [] for p in net.places}
        self._producers: dict[str, list[Transition]] = {p: [] for p in net.places}
        for t in net.ordered_transitions():
            t.sort_key = (t.priority, t.name)
            # Arc caches: resolve place objects once, not per check.
            t.in_arcs = [(arc.place, net.places[arc.place], arc.weight) for arc in t.inputs]
            t.out_arcs = [(arc.place, net.places[arc.place], arc.weight) for arc in t.outputs]
            for arc in t.inputs:
                self._consumers[arc.place].append(t)
            for arc in t.outputs:
                self._producers[arc.place].append(t)
        self._dirty: set[Transition] = set()

        first_injection = min((at for at, _, _ in self._pending), default=None)
        for at, place, token in sorted(
            self._pending, key=lambda item: (item[0], item[2].uid)
        ):
            self._schedule(at, self._make_inject(place, token, sinkset, completions))
        self._pending.clear()

        deadline_exceeded = False
        while self._events:
            # Pop every event scheduled for the next instant, apply them,
            # then fire enabled transitions to fixpoint at that instant.
            t = self._events[0].time
            if max_time is not None and t > max_time:
                self._now = max_time
                deadline_exceeded = True
                break
            if until is not None and t > until:
                self._now = until
                break
            self._now = t
            while self._events and self._events[0].time == t:
                heapq.heappop(self._events).action()
            self._fire_all(sinkset, completions)

        deadlocked = False
        residual = net.total_tokens()
        in_flight = any(t.busy for t in net.transitions.values())
        if residual > 0 and not in_flight and not self._events:
            deadlocked = True
            if on_deadlock == "raise":
                raise DeadlockError(
                    f"net {net.name!r} starved with {residual} resident tokens: "
                    f"marking={net.marking()}"
                )
        result = SimResult(
            end_time=self._now,
            completions=completions,
            fired={name: t.fire_count for name, t in net.transitions.items()},
            deadlocked=deadlocked,
            residual_tokens=residual,
            deadline_exceeded=deadline_exceeded,
            first_injection=first_injection,
        )
        if deadline_exceeded and on_deadline == "raise":
            done = sum(len(c) for c in completions.values())
            raise DeadlineError(
                f"net {net.name!r} exceeded max_time={max_time} with "
                f"{len(self._events)} events pending ({done} completions so far)",
                result=result,
            )
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _schedule(self, time: float, action: Callable[[], None]) -> None:
        if time < self._now:
            raise SimulationError(f"event scheduled in the past ({time} < {self._now})")
        heapq.heappush(self._events, _Event(time, next(self._seq), action))

    def _make_inject(
        self,
        place: str,
        token: Token,
        sinkset: set[str],
        completions: dict[str, list[Completion]],
    ) -> Callable[[], None]:
        def action() -> None:
            token.born = self._now
            self._deposit(place, token, sinkset, completions, from_reservation=False)

        return action

    def _deposit(
        self,
        place: str,
        token: Token,
        sinkset: set[str],
        completions: dict[str, list[Completion]],
        *,
        from_reservation: bool,
    ) -> None:
        if place in sinkset:
            if from_reservation:
                self.net.places[place].reserved -= 1
                # A sink deposit releases reserved capacity: writers of
                # this place may become enabled again.
                self._dirty.update(self._producers[place])
            completions[place].append(Completion(time=self._now, token=token))
        else:
            self.net.places[place].put(token, from_reservation=from_reservation)
            self._dirty.update(self._consumers[place])

    def _enabled_consumption(
        self, t: Transition
    ) -> dict[str, list[Token]] | None:
        """Return the tokens ``t`` would consume now, or ``None`` if disabled."""
        if t.servers is not None and t.busy >= t.servers:
            return None
        for _, place, weight in t.in_arcs:
            if len(place.tokens) < weight:
                return None
        for _, place, weight in t.out_arcs:
            cap = place.capacity
            if cap is not None and cap - len(place.tokens) - place.reserved < weight:
                return None
        consumed = {
            name: (
                [place.tokens[0]] if weight == 1 else place.peek(weight)
            )
            for name, place, weight in t.in_arcs
        }
        if t.guard is not None and not t.guard(consumed):
            return None
        return consumed

    def _fire_all(
        self, sinkset: set[str], completions: dict[str, list[Completion]]
    ) -> None:
        budget = self.MAX_FIRINGS_PER_INSTANT
        fired = 0
        while self._dirty:
            batch = sorted(self._dirty, key=lambda t: t.sort_key)
            self._dirty.clear()
            for t in batch:
                while True:
                    consumed = self._enabled_consumption(t)
                    if consumed is None:
                        break
                    fired += 1
                    if fired > budget:
                        raise SimulationError(
                            f"net {self.net.name!r}: more than {budget} "
                            f"firings at t={self._now}; likely a zero-delay loop"
                        )
                    self._fire(t, sinkset, completions)

    def _fire(
        self,
        t: Transition,
        sinkset: set[str],
        completions: dict[str, list[Completion]],
    ) -> None:
        consumed = {
            name: place.take(weight) for name, place, weight in t.in_arcs
        }
        for _, place, weight in t.out_arcs:
            place.reserved += weight
        # Consuming freed input capacity (writers may proceed) and
        # changed the input heads (other readers' guards may now match).
        dirty = self._dirty
        for name, _, _ in t.in_arcs:
            dirty.update(self._producers[name])
            dirty.update(self._consumers[name])
        delay = t.compute_delay(consumed)
        t.busy += 1
        t.fire_count += 1
        fire_time = self._now

        if t.timeout is not None and delay > t.timeout[0]:
            # Fault arc: the firing exceeds its declared budget.  At the
            # deadline the work is abandoned — output reservations are
            # released and one fault token lands in the timeout place
            # (which may itself be a sink).  If the timeout place is
            # bounded and full this raises CapacityError; the linter
            # flags bounded timeout places for exactly that reason.
            after, fault_place = t.timeout
            t.busy_time += after

            def fail() -> None:
                if self.tracer is not None:
                    self.tracer.add_span(
                        f"{t.name}!timeout",
                        fire_time,
                        self._now,
                        cat="petri.timeout",
                        tid=self.net.name,
                    )
                for name, place, _weight in t.out_arcs:
                    place.reserved -= _weight
                    self._dirty.update(self._producers[name])
                first: Token | None = None
                for arc in t.inputs:
                    toks = consumed.get(arc.place)
                    if toks:
                        first = toks[0]
                        break
                fault_token = first.child() if first is not None else Token()
                self._deposit(
                    fault_place, fault_token, sinkset, completions, from_reservation=False
                )
                t.busy -= 1
                self._dirty.add(t)

            self._schedule(fire_time + after, fail)
            return

        t.busy_time += delay

        def complete() -> None:
            if self.tracer is not None:
                self.tracer.add_span(
                    t.name,
                    fire_time,
                    self._now,
                    cat="petri.guarded" if t.guard is not None else "petri.fire",
                    tid=self.net.name,
                )
            produced = t.default_production(consumed)
            for arc in t.outputs:
                toks = list(produced.get(arc.place, ()))
                if len(toks) != arc.weight:
                    raise SimulationError(
                        f"transition {t.name!r} produced {len(toks)} tokens for "
                        f"{arc.place!r}, expected {arc.weight}"
                    )
                for tok in toks:
                    if tok.born is None:
                        tok.born = fire_time
                    self._deposit(
                        arc.place, tok, sinkset, completions, from_reservation=True
                    )
            extras = set(produced) - {a.place for a in t.outputs}
            if extras:
                raise SimulationError(
                    f"transition {t.name!r} produced tokens for non-output "
                    f"places {sorted(extras)}"
                )
            t.busy -= 1
            self._dirty.add(t)  # a server freed up

        self._schedule(fire_time + delay, complete)


def run_workload(
    net: PetriNet,
    payloads: Iterable[Any],
    *,
    entry: str = "in",
    sinks: Sequence[str] = ("out",),
    gap: float = 0.0,
    start: float = 0.0,
    until: float | None = None,
    max_time: float | None = None,
    on_deadline: Literal["stop", "raise"] = "stop",
) -> SimResult:
    """One-shot helper: inject ``payloads`` into ``entry`` and run.

    ``gap=0`` gives closed-batch semantics (everything available at
    ``start``), which measures saturated throughput; a positive gap
    models an open arrival process.
    """
    sim = Simulator(net, sinks=sinks)
    sim.inject_stream(entry, payloads, start=start, gap=gap)
    return sim.run(until=until, max_time=max_time, on_deadline=on_deadline)
