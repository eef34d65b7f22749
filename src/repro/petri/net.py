"""Structural definition of timed, colored Petri nets.

This module defines the *performance IR* data model proposed by the
paper: a Petri net whose places model hardware queues (FIFOs, registers,
DRAM request queues), whose tokens model data units, and whose
transitions model processing elements.  A transition fires when all of
its input places hold enough tokens; firing consumes the tokens,
occupies one of the transition's *servers* for a data-dependent delay,
and then deposits tokens into the output places.

Two features make the model a usable performance IR for accelerators:

* **Place capacities** create backpressure: a transition cannot fire if
  its output places lack space, exactly like a pipeline stage that
  stalls when its downstream FIFO is full.
* **Server counts** model pipelining: ``servers=1`` is a fully serial
  unit (a new firing must wait for the previous one), ``servers=k``
  allows ``k`` overlapping firings, ``servers=None`` is a perfectly
  pipelined unit with unbounded overlap.

The semantics of execution live in :mod:`repro.petri.simulate`; this
module is purely structural so that nets can be analyzed (see
:mod:`repro.petri.analysis`) and serialized without running them.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from .errors import CapacityError, DefinitionError
from .token import Token

#: Type of a delay specification: either a constant (in cycles) or a
#: function of the consumed tokens, keyed by input-place name.
DelaySpec = float | int | Callable[[Mapping[str, Sequence[Token]]], float]

#: Type of a guard: predicate over the tokens that would be consumed.
GuardFn = Callable[[Mapping[str, Sequence[Token]]], bool]


@dataclass
class Place:
    """A token queue: models a buffer, register bank, or logical state.

    Attributes:
        name: Unique identifier within the net.
        capacity: Maximum tokens the place may hold, counting space
            *reserved* by in-flight transition firings that will output
            here.  ``None`` means unbounded.
        tokens: FIFO of resident tokens (simulation state).
        reserved: Number of slots reserved by in-flight firings
            (simulation state).
    """

    name: str
    capacity: int | None = None
    tokens: deque[Token] = field(default_factory=deque)
    reserved: int = 0

    def free_slots(self) -> float:
        """Slots available for new reservations (``inf`` if unbounded)."""
        if self.capacity is None:
            return float("inf")
        return self.capacity - len(self.tokens) - self.reserved

    def peek(self, count: int) -> list[Token]:
        """Return the ``count`` oldest tokens without removing them."""
        if len(self.tokens) < count:
            raise ValueError(f"place {self.name!r} holds fewer than {count} tokens")
        return [self.tokens[i] for i in range(count)]

    def take(self, count: int) -> list[Token]:
        """Remove and return the ``count`` oldest tokens (FIFO order)."""
        if len(self.tokens) < count:
            raise ValueError(f"place {self.name!r} holds fewer than {count} tokens")
        return [self.tokens.popleft() for _ in range(count)]

    def put(self, token: Token, *, from_reservation: bool = False) -> None:
        """Deposit ``token``, consuming a reservation when one was made."""
        if from_reservation:
            if self.reserved <= 0:
                raise CapacityError(
                    f"place {self.name!r}: deposit without prior reservation"
                )
            self.reserved -= 1
        elif self.capacity is not None and self.free_slots() < 1:
            raise CapacityError(f"place {self.name!r} is full (capacity {self.capacity})")
        self.tokens.append(token)

    def clear(self) -> None:
        """Drop all tokens and reservations (used by net reset)."""
        self.tokens.clear()
        self.reserved = 0

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class Arc:
    """A weighted edge between a place and a transition."""

    place: str
    weight: int = 1

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise DefinitionError(f"arc to {self.place!r}: weight must be >= 1")


class Transition:
    """A processing element: consumes tokens, delays, produces tokens.

    A completion deposits :meth:`default_production`: every output place
    receives ``weight`` children of the first consumed token, preserving
    birth timestamps for latency measurement.

    Args:
        name: Unique identifier within the net.
        inputs: Input arcs.  The transition is enabled when every input
            place holds at least ``weight`` tokens.
        outputs: Output arcs.  Firing reserves ``weight`` slots in every
            output place up front (backpressure), then deposits tokens
            on completion.
        delay: Constant service delay, or a function of the consumed
            tokens (keyed by input-place name) returning the delay.
        guard: Optional predicate over the would-be-consumed tokens;
            the transition is enabled only when it returns ``True``.
        servers: Maximum concurrent firings (``None`` = unbounded).
        priority: Tie-break order when several transitions are enabled
            at the same instant; lower fires first, then name order.
        timeout: Optional fault arc ``(after, place)``: a firing whose
            computed delay exceeds ``after`` *fails* — at ``after``
            cycles the consumed work is dropped, output reservations are
            released, and one fault token (a child of the first consumed
            token) is deposited into ``place`` instead.  This lets a net
            *be* the degradation policy: timeout places model error
            queues the surrounding system drains.
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[Arc],
        outputs: Sequence[Arc],
        delay: DelaySpec = 0.0,
        guard: GuardFn | None = None,
        servers: int | None = 1,
        priority: int = 0,
        timeout: tuple[float, str] | None = None,
    ):
        if not inputs:
            raise DefinitionError(
                f"transition {name!r} has no input arcs; use Simulator.inject "
                "to act as a workload source instead of a sourceless transition"
            )
        if servers is not None and servers < 1:
            raise DefinitionError(f"transition {name!r}: servers must be >= 1 or None")
        if timeout is not None and timeout[0] <= 0:
            raise DefinitionError(f"transition {name!r}: timeout must be > 0")
        self.name = name
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.delay = delay
        self.guard = guard
        self.servers = servers
        self.priority = priority
        self.timeout = timeout
        #: Deterministic ordering key used by the simulator.
        self.sort_key = (priority, name)
        #: Simulation state: number of currently in-flight firings.
        self.busy = 0
        #: Cumulative statistics maintained by the simulator.
        self.fire_count = 0
        self.busy_time = 0.0

    def compute_delay(self, consumed: Mapping[str, Sequence[Token]]) -> float:
        """Evaluate the delay spec for a particular firing."""
        value = float(self.delay(consumed) if callable(self.delay) else self.delay)
        if value < 0:
            raise DefinitionError(f"transition {self.name!r} computed a negative delay")
        return value

    def default_production(
        self, consumed: Mapping[str, Sequence[Token]]
    ) -> dict[str, list[Token]]:
        """Forward children of the first consumed token to every output."""
        first: Token | None = None
        for arc in self.inputs:
            toks = consumed.get(arc.place)
            if toks:
                first = toks[0]
                break
        out: dict[str, list[Token]] = {}
        for arc in self.outputs:
            if first is None:
                out[arc.place] = [Token() for _ in range(arc.weight)]
            else:
                out[arc.place] = [first.child() for _ in range(arc.weight)]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ins = "+".join(f"{a.place}:{a.weight}" for a in self.inputs)
        outs = "+".join(f"{a.place}:{a.weight}" for a in self.outputs)
        return f"Transition({self.name!r}, {ins} -> {outs})"


class PetriNet:
    """A named collection of places and transitions.

    The net object owns the structure *and* the marking (token state);
    :meth:`reset` restores the initial empty marking so one net object
    can be simulated repeatedly over different workloads.
    """

    def __init__(self, name: str):
        self.name = name
        self.places: dict[str, Place] = {}
        self.transitions: dict[str, Transition] = {}
        #: Declared external injection points: place -> declared payload
        #: fields (``None`` = payload shape unknown/opaque).  Filled by
        #: the DSL's ``inject`` clause or :meth:`declare_injection`; the
        #: linter uses it to tell workload sources from starved places.
        self.injections: dict[str, frozenset[str] | None] = {}
        #: Source spans for nets parsed from ``.pnet`` text:
        #: ``(kind, name) -> (line, col)`` with kind in {"place",
        #: "transition", "delay", "guard", "inject", "timeout"}.
        #: Empty for programmatically built nets.
        self.source_map: dict[tuple[str, str], tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Construction API
    # ------------------------------------------------------------------
    def add_place(self, name: str, capacity: int | None = None) -> Place:
        """Create and register a place; returns it for convenience."""
        if name in self.places:
            raise DefinitionError(f"duplicate place {name!r}")
        if capacity is not None and capacity < 1:
            raise DefinitionError(f"place {name!r}: capacity must be >= 1 or None")
        place = Place(name=name, capacity=capacity)
        self.places[name] = place
        return place

    def add_transition(
        self,
        name: str,
        inputs: Sequence[Arc | str | tuple[str, int]],
        outputs: Sequence[Arc | str | tuple[str, int]] = (),
        **kwargs: Any,
    ) -> Transition:
        """Create and register a transition.

        Arcs may be given as :class:`Arc` objects, bare place names
        (weight 1), or ``(place, weight)`` tuples.
        """
        if name in self.transitions:
            raise DefinitionError(f"duplicate transition {name!r}")
        t = Transition(name, [self._arc(a) for a in inputs], [self._arc(a) for a in outputs], **kwargs)
        for arc in t.inputs + t.outputs:
            if arc.place not in self.places:
                raise DefinitionError(
                    f"transition {name!r} references unknown place {arc.place!r}"
                )
        if t.timeout is not None and t.timeout[1] not in self.places:
            raise DefinitionError(
                f"transition {name!r} timeout references unknown place {t.timeout[1]!r}"
            )
        self.transitions[name] = t
        return t

    def declare_injection(
        self, place: str, fields: Iterable[str] | None = None
    ) -> None:
        """Declare ``place`` as an external injection point.

        ``fields`` names the payload keys injected tokens carry; pass
        ``None`` when the payload is opaque.  The declaration does not
        affect simulation — it documents the workload contract so static
        analysis can check token-field dataflow and starvation.
        """
        if place not in self.places:
            raise DefinitionError(f"injection into unknown place {place!r}")
        self.injections[place] = None if fields is None else frozenset(fields)

    @staticmethod
    def _arc(spec: Arc | str | tuple[str, int]) -> Arc:
        if isinstance(spec, Arc):
            return spec
        if isinstance(spec, str):
            return Arc(spec)
        place, weight = spec
        return Arc(place, weight)

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear all tokens, reservations, and statistics."""
        for place in self.places.values():
            place.clear()
        for t in self.transitions.values():
            t.busy = 0
            t.fire_count = 0
            t.busy_time = 0.0

    def marking(self) -> dict[str, int]:
        """Return the current token count per place."""
        return {name: len(p) for name, p in self.places.items()}

    def total_tokens(self) -> int:
        """Total resident tokens across all places."""
        return sum(len(p) for p in self.places.values())

    # ------------------------------------------------------------------
    # Introspection used by analysis / serialization
    # ------------------------------------------------------------------
    def ordered_transitions(self) -> list[Transition]:
        """Transitions in deterministic firing order (priority, name)."""
        return sorted(self.transitions.values(), key=lambda t: (t.priority, t.name))

    def input_places_of(self, transition: str) -> list[str]:
        return [a.place for a in self.transitions[transition].inputs]

    def output_places_of(self, transition: str) -> list[str]:
        return [a.place for a in self.transitions[transition].outputs]

    def validate(self) -> list[str]:
        """Return a list of structural warnings (empty = clean).

        Checks: places never read, places never written (other than by
        injection, which the checker cannot see — those are reported as
        informational "source" entries), transitions whose output
        capacity can never satisfy a single firing.
        """
        warnings: list[str] = []
        read: set[str] = set()
        written: set[str] = set()
        for t in self.transitions.values():
            read.update(a.place for a in t.inputs)
            written.update(a.place for a in t.outputs)
            for arc in t.outputs:
                cap = self.places[arc.place].capacity
                if cap is not None and arc.weight > cap:
                    warnings.append(
                        f"transition {t.name!r} outputs {arc.weight} tokens to "
                        f"{arc.place!r} whose capacity is only {cap}: can never fire"
                    )
        for name in self.places:
            if name not in read and name not in written:
                warnings.append(f"place {name!r} is disconnected")
            elif name not in read:
                warnings.append(f"place {name!r} is a sink (never consumed)")
        return [w for w in warnings if not w.endswith("(never consumed)")] + [
            w for w in warnings if w.endswith("(never consumed)")
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PetriNet({self.name!r}, {len(self.places)} places, "
            f"{len(self.transitions)} transitions)"
        )


def chain(
    net: PetriNet,
    stages: Iterable[tuple[str, DelaySpec]],
    *,
    first_place: str = "in",
    last_place: str = "out",
    capacity: int | None = None,
    servers: int | None = 1,
) -> None:
    """Convenience builder: a linear pipeline of stages joined by FIFOs.

    Creates ``first_place -> stage1 -> q1 -> stage2 -> ... -> last_place``
    with every intermediate place given ``capacity``.  This is the most
    common accelerator topology and keeps hand-written interface nets
    short, which matters for the Table 1 complexity metric.
    """
    stages = list(stages)
    if not stages:
        raise DefinitionError("chain requires at least one stage")
    net.add_place(first_place)
    prev = first_place
    for i, (name, delay) in enumerate(stages):
        is_last = i == len(stages) - 1
        nxt = last_place if is_last else f"q_{name}"
        net.add_place(nxt, capacity=None if is_last else capacity)
        net.add_transition(name, [prev], [nxt], delay=delay, servers=servers)
        prev = nxt
