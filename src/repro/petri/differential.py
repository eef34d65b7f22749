"""Differential testing: reference vs compiled vs batched engines.

The compiled engine (:mod:`repro.petri.compiled`) runs every net in
production and promises *bit-identical* ``SimResult``s to the reference
interpreter, which exists as this module's oracle.  This module is the
executable form of that promise: it runs the same net and workload through
both engines and asserts that every observable — completion times and
payloads, fired counts, deadlock/deadline flags, residual markings,
per-transition statistics, and even the type and message of any raised
error — matches exactly.

The batch engines (:mod:`repro.petri.batched`) make the same promise *per
item*: evaluating a matrix of workloads must give, for every item, exactly
what a tracing-disabled :class:`CompiledSimulator` gives when run on that
item in isolation.  :func:`compare_batch_engines` asserts it for both batch
engines: the chain-recurrence codegen where the net supports it, and
always the columnar engine.  The columnar engine runs the compiled
engine's own loop, so there the comparison checks what surrounds it —
tokens built from the item's triples, the reductions, the routing off a
codegen chain, and error parity — item for item, in every item form.

Case families:

* :func:`accel_cases` — the real accelerator nets shipped in
  ``src/repro/accel/*/interfaces.py`` (JPEG decoder, VTA, bitcoin miner,
  Protoacc, Optimus Prime), driven by their own ``tokenize`` functions
  over reproducible workloads.
* :func:`random_cases` — seeded, randomly generated structural nets that
  exercise the engine features accelerator nets may not (weighted arcs,
  fan-out/merge, guard splits, timeouts, finite capacities, deadlocks).
* :func:`keyed_cases` — seeded nets with head-keyed transition groups
  (see :class:`~repro.petri.net.Transition`'s ``key``), built to reach
  every branch of the compiled engine's group check.
* :func:`edge_cases` — hand-picked nets: identical errors, early stops,
  a firing that enables a sibling's producer within its round, and places
  listed twice on one side of a transition.
* :func:`batch_cases` — batched-vs-compiled matrices over every
  accelerator net, seeded random chains with callable and with ``expr:``
  delays (codegen coverage), the random structural and keyed nets above
  (columnar coverage), and hand-picked edge items (zero/negative
  callable delays, empty items, mid-chain injections, unknown places).
  Every matrix runs in each form a tokenizer may return as triples (see
  :func:`item_forms`), and :func:`check_token_payload_routing` adds
  items whose payloads are already :class:`~repro.petri.token.Token`
  objects.
* Column items — a chain matrix whose items each share one place and
  one time also runs as :class:`~repro.petri.batched.TokenColumns`
  (the accelerator chains, the ``expr:`` chains), and
  :func:`column_edge_cases` adds column items at the edges of the array
  lowering (bad delays in either order, NaN, a missing field, calls and
  ``toks``, ints past 2**53, column kinds, empty items, a non-chain net,
  seeded random expressions).  :func:`compare_column_items` checks each
  against its own triples on every batch engine and counts the items
  that ran the codegen recurrence over delay lists.

Every keyed case additionally runs through :func:`check_key_contract`,
which watches the reference engine for a guard accepting a head token
its key does not select — the one way a key could make the compiled
engine diverge — and reports the witness.

Run as a script for the CI parity smoke job::

    PYTHONPATH=src python -m repro.petri.differential
"""

from __future__ import annotations

import contextlib
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .batched import BatchEvaluator, BatchItemResult, TokenColumns, codegen_supported
from .compiled import CompiledSimulator
from .dsl import parse
from .errors import PetriError
from .net import PetriNet, Transition
from .simulate import SimResult, Simulator
from .token import Token

#: A loader primes a simulator with injections (same API on both engines).
Loader = Callable[[Any], None]

#: A builder returns a *fresh* (net, sinks, loader) triple on every call, so
#: each engine simulates its own net object and token uids never collide.
Builder = Callable[[], tuple[PetriNet, Sequence[str], Loader]]


@dataclass
class DiffCase:
    """One differential scenario: a net builder plus ``run()`` kwargs."""

    name: str
    build: Builder
    run_kwargs: dict[str, Any] = field(default_factory=dict)


class EngineMismatch(AssertionError):
    """The two engines disagreed on an observable."""


class KeyContractError(AssertionError):
    """A guard accepted a head token its transition's key does not select."""


def summarize(result: SimResult, net: PetriNet) -> tuple:
    """Canonical, engine-independent digest of a run.

    Token uids are deliberately excluded: they depend on a process-global
    counter, so two runs of the *same* engine already differ in uids.
    Everything else — times, payloads, birth times, counts, flags, final
    marking, per-transition stats — must match bit-for-bit.
    """
    completions = {
        sink: [(c.time, c.token.payload, c.token.born) for c in items]
        for sink, items in result.completions.items()
    }
    stats = {
        t.name: (t.busy, t.fire_count, t.busy_time)
        for t in net.transitions.values()
    }
    return (
        result.end_time,
        completions,
        result.fired,
        result.deadlocked,
        result.residual_tokens,
        result.deadline_exceeded,
        result.first_injection,
        net.marking(),
        stats,
    )


def _run_engine(
    engine: str,
    build: Builder,
    run_kwargs: dict[str, Any],
    *,
    tracing: bool = False,
) -> tuple:
    """Run one engine over a fresh net; normalize errors into the digest.

    With ``tracing=True`` a :class:`~repro.obs.Tracer` rides along and
    its ordered span list ``(name, start, end, cat, tid)`` joins the
    digest — proving instrumentation neither perturbs results nor
    diverges between engines.
    """
    net, sinks, load = build()
    tracer = None
    if tracing:
        from repro.obs import Tracer

        tracer = Tracer()
    if engine == "reference":
        sim: Any = Simulator(net, sinks=list(sinks), tracer=tracer)
    else:
        sim = CompiledSimulator(net, sinks=list(sinks), tracer=tracer)
    load(sim)
    try:
        result = sim.run(**run_kwargs)
    except (PetriError, ValueError) as exc:  # ValueError: a place listed twice ran short
        return ("error", type(exc).__name__, str(exc))
    digest = summarize(result, net)
    if tracer is not None:
        return ("ok", digest, tuple(tracer.spans()))
    return ("ok", digest)


def compare_engines(case: DiffCase, *, tracing: bool = False) -> tuple:
    """Run *case* through both engines; raise :class:`EngineMismatch` on any
    observable difference.  Returns the (shared) digest on success."""
    ref = _run_engine("reference", case.build, case.run_kwargs, tracing=tracing)
    com = _run_engine("compiled", case.build, case.run_kwargs, tracing=tracing)
    if ref != com:
        raise EngineMismatch(
            f"{case.name}: engines disagree\n  reference: {ref!r}\n  compiled:  {com!r}"
        )
    return ref


# ----------------------------------------------------------------------
# Accelerator nets
# ----------------------------------------------------------------------


def _interface_case(name: str, make_iface: Callable[[], Any], item: Any) -> DiffCase:
    """Differential case driving an accelerator's PetriNetInterface net
    through its own tokenizer, exactly as ``PetriNetInterface._run`` does."""

    def build() -> tuple[PetriNet, Sequence[str], Loader]:
        iface = make_iface()  # fresh net per engine
        injections = iface.tokenize(item)

        def load(sim: Any) -> None:
            for place, payload, at in injections:
                sim.inject(place, payload, at=at)

        return iface.net, [iface.sink], load

    return DiffCase(name, build)


def accel_cases() -> list[DiffCase]:
    """One case per accelerator net in ``src/repro/accel/*/interfaces.py``."""
    from repro.accel.bitcoin import interfaces as btc
    from repro.accel.bitcoin.workload import random_jobs
    from repro.accel.jpeg import interfaces as jpeg
    from repro.accel.jpeg.workload import random_images
    from repro.accel.optimusprime import interfaces as optimus
    from repro.accel.protoacc import interfaces as protoacc
    from repro.accel.vta import interfaces as vta
    from repro.accel.vta.workload import random_programs
    from repro.workloads import ENTERPRISE_MIX

    cases = []
    for i, img in enumerate(random_images(seed=7, count=2, min_dim=32, max_dim=96)):
        cases.append(_interface_case(f"jpeg[{i}]", jpeg.petri_interface, img))
    for i, prog in enumerate(random_programs(seed=11, count=2, max_dim=8)):
        cases.append(_interface_case(f"vta[{i}]", vta.petri_interface, prog))
    job = random_jobs(seed=3, count=1)[0]
    for loop in (4, 16):
        cases.append(
            _interface_case(
                f"bitcoin[loop={loop}]",
                lambda loop=loop: btc.petri_interface(loop),
                job,
            )
        )
    # The two nets the serving pool prices every request through.
    for i, msg in enumerate(ENTERPRISE_MIX.sample(seed=6, count=2)):
        cases.append(_interface_case(f"protoacc[{i}]", protoacc.petri_interface, msg))
        cases.append(_interface_case(f"optimusprime[{i}]", optimus.petri_interface, msg))
    return cases


# ----------------------------------------------------------------------
# Randomized structural nets
# ----------------------------------------------------------------------


def _parity_guard(place: str, want: int) -> Callable[[dict], bool]:
    return lambda consumed: consumed[place][0].payload % 2 == want


def _payload_delay(place: str, base: float, mod: int) -> Callable[[dict], float]:
    return lambda consumed: base + consumed[place][0].payload % mod


def random_net(seed: int) -> tuple[PetriNet, list[str], Loader]:
    """Generate one random feed-forward net with a mix of engine features.

    Each stage is drawn from four structural idioms (plain server, weighted
    fan-out/merge, parity guard split, timeout), with random delays (constant
    or payload-dependent), server counts, and place capacities.  Feed-forward
    structure rules out zero-delay loops; weighted arcs and guards make
    deadlock-by-starvation a legitimate (and tested) outcome.
    """
    rng = random.Random(seed)
    net = PetriNet(f"rand{seed}")
    net.add_place("in")
    net.add_place("out")
    sinks = ["out"]
    prev = "in"
    n_stages = rng.randint(1, 4)

    def delay(stage: int) -> float | Callable[[dict], float]:
        if rng.random() < 0.3:
            return _payload_delay(prev, rng.choice([0.5, 1.0, 2.0]), rng.randint(2, 5))
        return rng.choice([0.5, 1.0, 1.5, 3.0])

    for s in range(n_stages):
        nxt = "out" if s == n_stages - 1 else f"p{s}"
        if nxt != "out":
            capacity = rng.choice([None, None, 4, 8])
            net.add_place(nxt, capacity=capacity)
        servers = rng.choice([None, 1, 2, 3])
        kind = rng.choice(["plain", "weighted", "guard", "timeout"])
        if kind == "plain":
            net.add_transition(
                f"t{s}", [prev], [nxt], delay=delay(s), servers=servers
            )
        elif kind == "weighted":
            w = rng.choice([2, 3, 4])
            mid = f"m{s}"
            net.add_place(mid)
            net.add_transition(
                f"t{s}a", [prev], [(mid, w)], delay=delay(s), servers=servers
            )
            net.add_transition(f"t{s}b", [(mid, w)], [nxt], delay=rng.choice([1.0, 2.0]))
        elif kind == "guard":
            net.add_transition(
                f"t{s}lo", [prev], [nxt],
                delay=rng.choice([1.0, 2.0]),
                guard=_parity_guard(prev, 0),
                servers=servers,
            )
            net.add_transition(
                f"t{s}hi", [prev], [nxt],
                delay=rng.choice([1.5, 2.5]),
                guard=_parity_guard(prev, 1),
            )
        else:  # timeout
            faults = f"faults{s}"
            net.add_place(faults)
            sinks.append(faults)
            net.add_transition(
                f"t{s}", [prev], [nxt],
                delay=_payload_delay(prev, 1.0, 6),
                timeout=(rng.choice([3.0, 4.0]), faults),
                servers=servers,
            )
        prev = nxt

    n_items = rng.randint(20, 60)
    gap = rng.choice([0.0, 0.25, 1.0])
    start = rng.choice([0.0, 0.0, 5.0])

    def load(sim: Any) -> None:
        sim.inject_stream("in", range(n_items), gap=gap, start=start)

    return net, sinks, load


def random_cases(seed: int = 0, count: int = 25) -> list[DiffCase]:
    """*count* seeded random structural nets, reproducible across runs."""
    cases = []
    for k in range(count):
        case_seed = seed * 10_000 + k
        cases.append(
            DiffCase(
                f"rand[{case_seed}]",
                lambda s=case_seed: random_net(s),
            )
        )
    return cases


# ----------------------------------------------------------------------
# Keyed structural nets
# ----------------------------------------------------------------------


def _key_guard(
    place: str, field_name: str, want: Any, reject_n: int | None
) -> Callable[[dict], bool]:
    """Guard => key: accepts only head tokens whose ``field_name`` is
    ``want``, and with ``reject_n`` set, not even all of those."""

    def guard(consumed: dict) -> bool:
        payload = consumed[place][0].payload
        return payload[field_name] == want and payload["n"] != reject_n

    return guard


def _n_delay(place: str, base: float, mod: int) -> Callable[[dict], float]:
    return lambda consumed: base + consumed[place][0].payload["n"] % mod


def keyed_net(seed: int) -> tuple[PetriNet, list[str], Loader]:
    """Generate one seeded net with two head-keyed groups; see
    :func:`keyed_parts`."""
    net, sinks, injections = keyed_parts(seed)

    def load(sim: Any) -> None:
        for place, payload, at in injections:
            sim.inject(place, payload, at=at)

    return net, sinks, load


def keyed_parts(seed: int) -> tuple[PetriNet, list[str], BatchItem]:
    """Generate one seeded net with two head-keyed groups, and its
    workload as ``(place, payload, at)`` injections.

    Group ``qa`` (field ``k``) has members ``a0, a2, ...``; group ``qb``
    (field ``op``) has members ``a1b, a3b, ...``; unkeyed transitions
    ``a1, a3, ...`` drain a side queue into the same ``out`` place.  By
    name, the three kinds interleave in firing order.  Members of both
    groups conflict on the ``mx`` mutex place, one ``qa`` member takes a
    weight-2 head arc, and bursty arrivals make a firing change the
    head in mid-batch.  Some seeds give a guard that rejects tokens its
    key selects, or a head token no key selects: both stall the group,
    identically in both engines.
    """
    rng = random.Random(2_000_003 * seed + 11)
    net = PetriNet(f"keyed{seed}")
    for place in ("qa", "qb", "side", "mx", "out"):
        net.add_place(place)
    n_a, n_b = rng.randint(2, 4), rng.randint(2, 3)
    ops = ["x", "y", "z"][:n_b]
    heavy = rng.randrange(n_a)  # the member with the weight-2 head arc
    strict = rng.randrange(n_a) if rng.random() < 0.25 else None

    def delay(place: str) -> float | Callable[[dict], float]:
        if rng.random() < 0.5:
            return _n_delay(place, rng.choice([0.5, 1.0, 2.0]), rng.randint(2, 5))
        return rng.choice([0.5, 1.0, 1.5, 3.0])

    for i in range(n_a):
        inputs: list[Any] = [("qa", 2 if i == heavy else 1)]
        outputs: list[Any] = ["out"]
        if rng.random() < 0.5:
            inputs.append("mx")
            outputs.append("mx")
        net.add_transition(
            f"a{2 * i}", inputs, outputs,
            delay=delay("qa"),
            guard=_key_guard("qa", "k", i, rng.randrange(30) if i == strict else None),
            servers=rng.choice([1, 1, 2, None]),
            key=("qa", "k", i),
        )
        if i < n_a - 1:
            net.add_transition(
                f"a{2 * i + 1}", ["side"], ["out"],
                delay=delay("side"),
                servers=rng.choice([1, None]),
            )
    for j, op in enumerate(ops):
        net.add_transition(
            f"a{2 * j + 1}b", ["qb", "mx"], ["out", "mx"],
            delay=delay("qb"),
            guard=_key_guard("qb", "op", op, None),
            servers=rng.choice([1, 2]),
            key=("qb", "op", op),
        )

    injections: list[tuple[str, Any, float]] = [("mx", None, 0.0)]
    t = 0.0
    n = 0
    for _ in range(rng.randint(15, 40)):
        t += rng.choice([0.0, 0.0, 0.0, 0.5, 2.0])  # bursts: many heads at once
        place = rng.choice(["qa", "qa", "qb", "side"])
        if place == "qa":
            k = rng.randrange(n_a)
            injections.append(("qa", {"k": k, "n": n}, t))
            if k == heavy:  # the token the weight-2 arc takes along
                n += 1
                injections.append(("qa", {"k": rng.randrange(n_a), "n": n}, t))
        elif place == "qb":
            injections.append(("qb", {"op": rng.choice(ops), "n": n}, t))
        else:
            injections.append(("side", {"n": n}, t))
        n += 1
    if rng.random() < 0.2:
        injections.append(("qa", {"k": n_a, "n": -1}, t + 1.0))  # no member
    return net, ["out"], injections


def keyed_cases(seed: int = 0, count: int = 12) -> list[DiffCase]:
    """*count* seeded keyed nets, reproducible across runs."""
    return [
        DiffCase(f"keyed[{s}]", lambda s=s: keyed_net(s))
        for s in range(seed * 10_000, seed * 10_000 + count)
    ]


def check_key_contract(case: DiffCase) -> int | None:
    """Run *case* on the reference engine with every keyed guard wrapped.

    The compiled engine checks only the member a head token's key
    selects, so it is exact only if every guard implies its key.  The
    wrapper raises :class:`KeyContractError` with a witness — the
    transition, the head place and the payload — the first time a guard
    accepts a head token its key does not select.  Returns how many
    accepted head tokens were checked, or ``None`` when the net has no
    keyed transition.
    """
    net, sinks, load = case.build()
    keyed = [t for t in net.transitions.values() if t.key is not None]
    if not keyed:
        return None
    checked = 0

    def watched(t: Transition) -> Callable[[dict], bool]:
        place, field_name, value = t.key
        guard = t.guard

        def checked_guard(consumed: dict) -> bool:
            nonlocal checked
            if not guard(consumed):
                return False
            payload = consumed[place][0].payload
            try:
                selected = payload[field_name] == value
            except (KeyError, IndexError, TypeError):
                selected = False
            if not selected:
                raise KeyContractError(
                    f"{case.name}: transition {t.name!r} accepted the head token "
                    f"of {place!r}, but its key {field_name}={value!r} does not "
                    f"select it: payload {payload!r}"
                )
            checked += 1
            return True

        return checked_guard

    for t in keyed:
        t.guard = watched(t)
    sim = Simulator(net, sinks=list(sinks))
    load(sim)
    with contextlib.suppress(PetriError):  # error parity is compare_engines' job
        sim.run(**case.run_kwargs)
    return checked


def edge_cases() -> list[DiffCase]:
    """Hand-picked scenarios where both engines must raise the *same* error
    (type and message), early-stop deadline/until handling, a firing that
    enables a sibling's producer within its round, and places listed twice
    on one side of a transition (perf-lint PL013)."""

    def starved() -> tuple[PetriNet, list[str], Loader]:
        net = PetriNet("starved")
        net.add_place("in")
        net.add_place("need")
        net.add_place("out")
        net.add_transition("t", ["in", "need"], ["out"], delay=1)
        return net, ["out"], lambda sim: sim.inject_stream("in", range(5))

    def slow_chain() -> tuple[PetriNet, list[str], Loader]:
        net = PetriNet("slow")
        net.add_place("in")
        net.add_place("mid", capacity=2)
        net.add_place("out")
        net.add_transition("a", ["in"], ["mid"], delay=3)
        net.add_transition("b", ["mid"], ["out"], delay=5, servers=1)
        return net, ["out"], lambda sim: sim.inject_stream("in", range(50))

    def bad_delay() -> tuple[PetriNet, list[str], Loader]:
        net = PetriNet("bad")
        net.add_place("in")
        net.add_place("out")
        net.add_transition("t", ["in"], ["out"], delay=lambda c: -1.0)
        return net, ["out"], lambda sim: sim.inject("in", payload=0)

    def sibling_wake() -> tuple[PetriNet, list[str], Loader]:
        # t5_T's firing wakes its unguarded sibling t6_X for the next
        # round although Q is full; in that round t1_Y frees Q first, so
        # t6_X fires there, before t3_V (one round later it fires after).
        net = PetriNet("sibling-wake")
        for place in ("P", "Qp", "out"):
            net.add_place(place)
        net.add_place("Q", capacity=1)

        def head(want: str) -> Callable[[dict], bool]:
            return lambda consumed: consumed["Qp"][0].payload == want

        net.add_transition("t1_Y", ["Qp", "Q"], ["out"], delay=1, guard=head("y"))
        net.add_transition("t2_Z", ["Qp"], ["out"], delay=1, guard=head("z"))
        net.add_transition("t3_V", ["Qp"], ["out"], delay=1, guard=head("v"))
        net.add_transition("t4_W", ["Qp"], ["out"], delay=1, guard=head("w"))
        net.add_transition("t5_T", ["P"], ["out"], delay=1)
        net.add_transition("t6_X", ["P"], ["Q"], delay=1)

        def load(sim: Any) -> None:
            sim.inject("Q", "q")
            sim.inject_stream("Qp", ["z", "y", "w", "v"])
            sim.inject_stream("P", ["p1", "p2"])

        return net, ["out"], load

    def repeated_input(
        sibling: bool, tokens: int
    ) -> Callable[[], tuple[PetriNet, list[str], Loader]]:
        # ``a + a``: the reference takes one token per arc, keeps the
        # last arc's, and raises ValueError when the second take runs
        # short.  With the sibling, t0's delay reads the token it keeps.
        def build() -> tuple[PetriNet, list[str], Loader]:
            net = PetriNet("repeated-input")
            for place in ("a", "b", "out"):
                net.add_place(place)
            if sibling:
                net.add_transition(
                    "t0", ["a", "a"], ["out"], delay=lambda c: 1.0 + c["a"][0].payload
                )
                net.add_transition("t1", ["b"], ["out"], delay=1)
            else:
                net.add_transition("t0", ["a", "a"], ["out"], delay=1)

            def load(sim: Any) -> None:
                sim.inject_stream("a", range(tokens))
                if sibling:
                    sim.inject("b", payload=9)

            return net, ["out"], load

        return build

    def repeated_output(weight: int) -> Callable[[], tuple[PetriNet, list[str], Loader]]:
        # ``out + out:weight``: every arc of a place gets the last arc's
        # tokens, so unequal weights raise at the first completion.
        def build() -> tuple[PetriNet, list[str], Loader]:
            net = PetriNet("repeated-output")
            net.add_place("a")
            net.add_place("out")
            net.add_transition("t", ["a"], ["out", ("out", weight)], delay=1)
            return net, ["out"], lambda sim: sim.inject_stream("a", range(3))

        return build

    return [
        DiffCase("deadlock-stop", starved),
        DiffCase("deadlock-raise", starved, {"on_deadlock": "raise"}),
        DiffCase("deadline-stop", slow_chain, {"max_time": 40.0}),
        DiffCase("deadline-raise", slow_chain, {"max_time": 40.0, "on_deadline": "raise"}),
        DiffCase("until", slow_chain, {"until": 25.0}),
        DiffCase("negative-delay", bad_delay),
        DiffCase("sibling-wake", sibling_wake),
        DiffCase("repeated-input", repeated_input(sibling=False, tokens=2)),
        DiffCase("repeated-input-sibling", repeated_input(sibling=True, tokens=2)),
        DiffCase("repeated-input-short", repeated_input(sibling=False, tokens=1)),
        DiffCase("repeated-output", repeated_output(1)),
        DiffCase("repeated-output-weights", repeated_output(2)),
    ]


# ----------------------------------------------------------------------
# Batched-engine parity
# ----------------------------------------------------------------------

#: One batch item: injections as ``(place, payload, at)`` triples.
BatchItem = list[tuple[str, Any, float]]

#: A batch builder returns a fresh ``(net, sinks)`` pair on every call.
BatchBuilder = Callable[[], tuple[PetriNet, Sequence[str]]]

#: What a batch item may raise, compared by type and message: engine
#: errors, and what a delay expression raises (a missing field, a zero
#: divisor, an operand of the wrong type).
ITEM_ERRORS = (PetriError, ValueError, LookupError, ArithmeticError, TypeError)


@dataclass
class BatchDiffCase:
    """One batched-vs-compiled scenario: a net builder plus an item matrix.

    ``columns`` is the matrix in column form, item for item, when it has
    one.  ``oracle`` is false when the compiled engine cannot run the
    items (its event loop never settles on a NaN delay): then only the
    codegen chain runs them, column items against their triples.
    """

    name: str
    build: BatchBuilder
    items: list[BatchItem]
    columns: list[TokenColumns] | None = None
    oracle: bool = True


def batch_summarize(result: BatchItemResult) -> tuple:
    """Canonical digest of one batch item — the batched counterpart of
    :func:`summarize`, trimmed to what a :class:`BatchItemResult`
    carries (the batch engines never allocate ``Completion`` objects)."""
    return (
        result.makespan,
        result.end_time,
        result.counts,
        result.first_injection,
        result.deadlocked,
        result.residual_tokens,
        result.completion_times,
        result.fired,
    )


def _compiled_item_digest(build: BatchBuilder, item: BatchItem) -> tuple:
    """Tracing-disabled :class:`CompiledSimulator` baseline for one item
    run in isolation, in :func:`batch_summarize` form (or a normalized
    error triple — error parity is part of the batched contract)."""
    net, sinks = build()
    sim = CompiledSimulator(net, sinks=list(sinks))
    try:
        for place, payload, at in item:
            sim.inject(place, payload, at=at)
        result = sim.run()
    except ITEM_ERRORS as exc:
        return ("error", type(exc).__name__, str(exc))
    times = {
        sink: [c.time for c in result.completions.get(sink, [])] for sink in sinks
    }
    flat = [t for ts in times.values() for t in ts]
    return (
        "ok",
        (
            max(flat) if flat else 0.0,
            result.end_time,
            {sink: len(ts) for sink, ts in times.items()},
            result.first_injection,
            result.deadlocked,
            result.residual_tokens,
            times,
            result.fired,
        ),
    )


def item_forms(items: Sequence[BatchItem]) -> dict[str, list[list[tuple]]]:
    """The matrix in every form a tokenizer may return: plain
    ``(place, payload, at)`` tuples, :class:`~repro.core.petrinet.Injection`
    named tuples, and the two alternating within each item."""
    from repro.core.petrinet import Injection

    return {
        "tuples": [[tuple(inj) for inj in item] for item in items],
        "injections": [[Injection(*inj) for inj in item] for item in items],
        "mixed": [
            [Injection(*inj) if k % 2 else tuple(inj) for k, inj in enumerate(item)]
            for item in items
        ],
    }


def as_columns(item: BatchItem) -> TokenColumns | None:
    """The column form of one item: its tokens must share one place and
    one time, and their payloads be dicts with the same fields in the
    same order, each field a bool, int or float column (or all ``None``,
    no fields).  ``None`` otherwise."""
    if not item:
        return None
    place, _, at = item[0]
    if any(p != place or a != at for p, _, a in item):
        return None
    payloads = [payload for _, payload, _ in item]
    if all(payload is None for payload in payloads):
        return TokenColumns(place, at, {}, len(item))
    if any(type(payload) is not dict for payload in payloads):
        return None
    names = tuple(payloads[0])
    if any(tuple(payload) != names for payload in payloads):
        return None
    columns = {name: np.array([payload[name] for payload in payloads]) for name in names}
    if any(col.dtype.kind not in "biuf" for col in columns.values()):
        return None
    return TokenColumns(place, at, columns)


def compare_batch_engines(case: BatchDiffCase) -> dict[str, list[tuple]]:
    """Assert every batch engine reproduces the compiled baseline on
    *case*, item for item, in every item form (:func:`item_forms`).
    (:func:`compare_column_items` checks the column form.)

    The columnar engine runs always; the codegen engine additionally
    runs when the net is a supported chain.  When the baseline errors on
    item *k*, the batch engine must evaluate items ``0..k-1`` cleanly
    and then raise the identical error (type and message) on a matrix
    that includes item *k*.  Returns ``{engine: per-item digests}``.
    """
    baseline = [_compiled_item_digest(case.build, item) for item in case.items]
    first_error = next((i for i, d in enumerate(baseline) if d[0] == "error"), None)
    ok_until = first_error if first_error is not None else len(case.items)
    net, sinks = case.build()
    engines = ["columnar"]
    if codegen_supported(net, list(sinks)):
        engines.append("codegen")
    forms = item_forms(case.items)
    out: dict[str, list[tuple]] = {}
    for engine in engines:
        for form, items in forms.items():
            net, sinks = case.build()
            evaluator = BatchEvaluator(net, list(sinks), engine=engine)
            results = evaluator.evaluate(items[:ok_until], collect=True)
            digests = [("ok", batch_summarize(r)) for r in results]
            for i, (want, got) in enumerate(zip(baseline[:ok_until], digests)):
                if want != got:
                    raise EngineMismatch(
                        f"{case.name}[item {i}] ({engine}, {form}): batch engine "
                        f"disagrees with compiled baseline\n"
                        f"  compiled: {want!r}\n  batched:  {got!r}"
                    )
            if first_error is not None:
                net, sinks = case.build()
                evaluator = BatchEvaluator(net, list(sinks), engine=engine)
                try:
                    evaluator.evaluate(items[: first_error + 1], collect=True)
                except ITEM_ERRORS as exc:
                    got_err = ("error", type(exc).__name__, str(exc))
                else:
                    got_err = ("no-error",)
                if got_err != baseline[first_error]:
                    raise EngineMismatch(
                        f"{case.name}[item {first_error}] ({engine}, {form}): error "
                        f"parity failed\n"
                        f"  compiled: {baseline[first_error]!r}\n"
                        f"  batched:  {got_err!r}"
                    )
        out[engine] = digests
    return out


def _batch_item_digest(evaluator: BatchEvaluator, item: Any) -> tuple:
    """One item evaluated alone, in :func:`batch_summarize` form, or its
    error's type and message."""
    try:
        return ("ok", batch_summarize(evaluator.evaluate([item], collect=True)[0]))
    except ITEM_ERRORS as exc:
        return ("error", type(exc).__name__, str(exc))


def compare_column_items(case: BatchDiffCase) -> tuple[int, int]:
    """Assert that every column item of *case* gives, on each batch
    engine that runs the net, exactly what its own triples give there:
    the same digest, compared by ``repr`` so NaN and signed zeros count,
    or the same error type and message.  Each item runs alone, so an
    error stops nothing.  An ``oracle=False`` case runs on the codegen
    chain only.

    Returns ``(column items checked, items that ran the codegen
    recurrence over their delay lists)``.
    """
    net, sinks = case.build()
    engines = ["codegen"] if codegen_supported(net, list(sinks)) else []
    if case.oracle:
        engines.insert(0, "columnar")
    checked = listed = 0
    for engine in engines:
        by_columns = BatchEvaluator(*_fresh(case), engine=engine)
        by_triples = BatchEvaluator(*_fresh(case), engine=engine)
        for i, item in enumerate(case.columns or ()):
            before = by_columns.items_from_columns
            got = _batch_item_digest(by_columns, item)
            want = _batch_item_digest(by_triples, list(item))
            if repr(got) != repr(want):
                raise EngineMismatch(
                    f"{case.name}[column item {i}] ({engine}): the column item "
                    f"disagrees with its triples\n  triples: {want!r}\n  columns: {got!r}"
                )
            checked += 1
            listed += by_columns.items_from_columns - before
    return checked, listed


def _fresh(case: BatchDiffCase) -> tuple[PetriNet, list[str]]:
    net, sinks = case.build()
    return net, list(sinks)


def _interface_batch_case(
    name: str, make_iface: Callable[[], Any], workload: Sequence[Any]
) -> BatchDiffCase:
    """Batch case driving an accelerator net through its own tokenizer,
    one item per workload element — the matrix ``evaluate_batch`` sees.
    Its column form is what the tokenizer returns when that is
    :class:`TokenColumns`, else the items' :func:`as_columns` when every
    item has one."""
    iface = make_iface()
    tokens = [iface.tokenize(w) for w in workload]
    items = [list(map(tuple, t)) for t in tokens]
    columns = [
        t if type(t) is TokenColumns else as_columns(item)
        for t, item in zip(tokens, items, strict=True)
    ]

    def build() -> tuple[PetriNet, Sequence[str]]:
        fresh = make_iface()
        return fresh.net, [fresh.sink]

    return BatchDiffCase(name, build, items, None if None in columns else columns)


def accel_batch_cases() -> list[BatchDiffCase]:
    """A batched workload matrix per accelerator Petri net — every net
    shipped in ``src/repro/accel/*/interfaces.py``."""
    from repro.accel.bitcoin import interfaces as btc
    from repro.accel.bitcoin.workload import random_jobs
    from repro.accel.jpeg import interfaces as jpeg
    from repro.accel.jpeg.workload import random_images
    from repro.accel.optimusprime import interfaces as optimus
    from repro.accel.protoacc import formats
    from repro.accel.protoacc import interfaces as protoacc
    from repro.accel.vta import interfaces as vta
    from repro.accel.vta.workload import random_programs

    messages = list(formats.instances(seed=5).values())[:6]
    return [
        _interface_batch_case(
            "jpeg",
            jpeg.petri_interface,
            random_images(seed=17, count=6, min_dim=16, max_dim=64),
        ),
        _interface_batch_case(
            "vta", vta.petri_interface, random_programs(seed=23, count=4, max_dim=8)
        ),
        _interface_batch_case(
            "bitcoin[loop=8]",
            lambda: btc.petri_interface(8),
            random_jobs(seed=29, count=3),
        ),
        _interface_batch_case("protoacc", protoacc.petri_interface, messages),
        _interface_batch_case("optimusprime", optimus.petri_interface, messages),
    ]


def random_chain_case(seed: int) -> BatchDiffCase:
    """A seeded random codegen-eligible chain plus a random item matrix.

    Chains are the codegen engine's entire supported surface, so this
    family varies exactly what matters there: depth, constant vs
    payload-dependent delays, finite output capacities (the ring
    recurrence), arrival gaps, and same-instant ties.
    """
    rng = random.Random(1_000_003 * seed + 7)
    n_stages = rng.randint(1, 5)
    caps = [rng.choice([None, None, 1, 2, 4]) for _ in range(n_stages)]
    kinds = [rng.choice(["const", "payload"]) for _ in range(n_stages)]
    consts = [rng.choice([0.25, 0.5, 1.0, 2.5]) for _ in range(n_stages)]
    mods = [rng.randint(2, 5) for _ in range(n_stages)]

    def build() -> tuple[PetriNet, Sequence[str]]:
        net = PetriNet(f"chain{seed}")
        net.add_place("in")
        prev = "in"
        for s in range(n_stages):
            nxt = "out" if s == n_stages - 1 else f"p{s}"
            net.add_place(nxt, capacity=None if nxt == "out" else caps[s])
            delay = (
                consts[s]
                if kinds[s] == "const"
                else _payload_delay(prev, consts[s], mods[s])
            )
            net.add_transition(f"t{s}", [prev], [nxt], delay=delay, servers=1)
            prev = nxt
        return net, ["out"]

    items = []
    for _ in range(rng.randint(2, 5)):
        n = rng.randint(3, 25)
        gap = rng.choice([0.0, 0.5, 1.0])
        start = rng.choice([0.0, 2.0])
        items.append([("in", k, start + k * gap) for k in range(n)])
    return BatchDiffCase(f"chain[{seed}]", build, items)


#: Positive ``expr:`` delays over the fields of :func:`_random_columns`,
#: ``{c}`` a positive constant, ``{m}`` a positive int.
_DSL_DELAYS = (
    "{c} + tok['x'] % {m}",
    "{c} + {c} * tok['y']",
    "{c} + ({c} if tok['w'] else 0)",
    "{c} + tok['x'] // {m} + tok['y'] / {m}",
    "({c} + tok['x']) / {m}",
    "{c} + (tok['x'] * {c} if tok['x'] > {m} else tok['y'])",
    "{c} + (12 if (tok['x'] + 1) % {m} == 0 else 0)",
    "{c} * (1 + (tok['x'] + tok['w']) % {m})",
)


def _random_columns(rng: random.Random, n: int, *, signed: bool = False) -> dict:
    """Columns ``x`` (int), ``y`` (float, two decimals) and ``w`` (bool)
    of ``n`` tokens, in a random choice of dtypes; with ``signed``,
    ``x`` and ``y`` may be negative or zero."""
    lo = -3 if signed else 0
    x = [rng.randint(lo, 40) for _ in range(n)]
    y = [round(rng.uniform(lo, 20.0), 2) for _ in range(n)]
    int_types = [np.int64, np.int32] + ([] if signed else [np.uint8])
    return {
        "x": np.array(x, dtype=rng.choice(int_types)),
        "y": np.array(y, dtype=rng.choice([np.float64, np.float32])),
        "w": np.array([rng.random() < 0.5 for _ in range(n)], dtype=bool),
    }


def _expr_chain(name: str, delays: Sequence[str | float], caps: Sequence[int | None]):
    """A builder for a ``.pnet`` chain ``in -> p0 -> ... -> out`` whose
    stage ``s`` has delay ``delays[s]`` (an ``expr:`` source, or a
    constant) and output capacity ``caps[s]``."""
    lines = [f"net {name}", "place in"]
    prev = "in"
    for s, (delay, cap) in enumerate(zip(delays, caps, strict=True)):
        nxt = "out" if s == len(delays) - 1 else f"p{s}"
        lines.append(f"place {nxt}" + (f" capacity {cap}" if cap and nxt != "out" else ""))
        spelled = f"expr: {delay}" if isinstance(delay, str) else repr(delay)
        lines += [f"transition t{s}", f"  consume {prev}", f"  produce {nxt}", f"  delay {spelled}"]
        prev = nxt
    text = "\n".join(lines) + "\n"

    def build() -> tuple[PetriNet, Sequence[str]]:
        return parse(text), ["out"]

    return build


def _column_case(
    name: str, build: BatchBuilder, columns: list[TokenColumns], **kw: Any
) -> BatchDiffCase:
    """A case given in column form; its triple forms are the columns'."""
    return BatchDiffCase(name, build, [list(c) for c in columns], columns, **kw)


def random_dsl_chain_case(seed: int) -> BatchDiffCase:
    """A seeded random chain whose delays are ``.pnet`` ``expr:`` sources
    (or constants), over column items: the codegen recurrence over delay
    lists against the compiled baseline, in column and in triple form.
    Depth, capacities, injection times and column dtypes vary."""
    rng = random.Random(2_000_003 * seed + 11)
    n_stages = rng.randint(1, 4)
    delays = [
        rng.choice(_DSL_DELAYS).format(
            c=rng.choice([1, 2.5, 0.75, 6]), m=rng.randint(2, 7)
        )
        if rng.random() < 0.8
        else rng.choice([0.5, 1.0, 3.25])
        for _ in range(n_stages)
    ]
    caps = [rng.choice([None, None, 1, 2, 4]) for _ in range(n_stages)]
    columns = [
        TokenColumns("in", rng.choice([0.0, 2.0, 7.5]), _random_columns(rng, rng.randint(1, 24)))
        for _ in range(rng.randint(2, 4))
    ]
    return _column_case(f"dsl-chain[{seed}]", _expr_chain(f"dsl{seed}", delays, caps), columns)


#: Right operands of ``//`` and ``%``: non-zero constants lower, a zero
#: or a field does not.
_BY_DIVISORS = ("3", "7", "2.5", "-4", "0.5", "0", "tok['x']")


def random_expression(rng: random.Random, depth: int = 3) -> str:
    """A random ``expr:`` source over ``tok['x']``, ``tok['y']`` and
    ``tok['w']``: mostly inside the array subset, sometimes just outside
    it (a call, a chained comparison, a negated field, a field or zero
    divisor of ``//`` and ``%``)."""
    if depth == 0 or rng.random() < 0.2:
        pick = rng.random()
        if pick < 0.55:
            return f"tok['{rng.choice('xyw')}']"
        if pick < 0.8:
            return str(rng.randint(-3, 12))
        return repr(round(rng.uniform(-3.0, 12.0), rng.choice([1, 2])))
    a = random_expression(rng, depth - 1)
    b = random_expression(rng, depth - 1)
    pick = rng.random()
    if pick < 0.4:
        return f"({a} {rng.choice('+-*')} {b})"
    if pick < 0.5:
        return f"({a} / {b})"
    if pick < 0.65:
        op = rng.choice(["//", "%"])
        return f"({a} {op} {rng.choice(_BY_DIVISORS)})"
    if pick < 0.75:
        return f"({a} {rng.choice(['<', '<=', '>', '>=', '==', '!='])} {b})"
    if pick < 0.93:
        return f"({a} if {random_expression(rng, depth - 1)} else {b})"
    return rng.choice([f"ceil({a})", f"max({a}, {b})", f"({a} < {b} < 5)", "-tok['x']"])


def column_edge_cases() -> list[BatchDiffCase]:
    """Column items at the edges of the array lowering, each to be
    checked against its own triples (:func:`compare_column_items`): a
    column item runs the recurrence over delay lists only when every
    stage lowered and every delay came out finite and positive, and
    otherwise exactly as its triples do."""
    big = 2**53

    def cols(n: int = -1, at: float = 0.0, **fields) -> TokenColumns:
        return TokenColumns("in", at, {k: np.asarray(v) for k, v in fields.items()}, n)

    signed = _expr_chain("signed", ["tok['d']", 1.0], [2, None])
    cases = [
        # The first bad delay in token order decides: a negative delay
        # raises, a zero delay hands the item to the columnar loop.
        _column_case(
            "columns[negative-then-zero]", signed, [cols(d=[2.0, -1.0, 0.0, 3.0])]
        ),
        _column_case(
            "columns[zero-then-negative]", signed, [cols(d=[2.0, 0.0, -1.0, 3.0])]
        ),
        _column_case("columns[missing-field]", signed, [cols(e=[1.0, 2.0])]),
        _column_case(
            "columns[calls-and-toks]",
            _expr_chain("calls", ["ceil(tok['d'] / 2)", "1 + len(toks)"], [None, None]),
            [cols(d=[1.0, 2.5, 7.0])],
        ),
        # Python compares an int past 2**53 with a float exactly, float64
        # does not: 2**53 + 1 falls back, 2**53 itself runs the delay
        # lists.  A product that could leave 2**53 falls back too (2**32
        # squared wraps in int64).
        _column_case(
            "columns[int-past-2**53]",
            _expr_chain(
                "big",
                [f"1 + tok['d'] % 4 + (2 if tok['d'] > {float(big)!r} else 0)", 1.0],
                [None, None],
            ),
            [
                cols(d=np.array([big + 1, big], np.int64)),
                cols(d=np.array([big, big - 1], np.int64)),
            ],
        ),
        _column_case(
            "columns[int-product-past-2**53]",
            _expr_chain("product", ["1 + tok['d'] * tok['d'] % 7", 1.0], [None, None]),
            [cols(d=np.array([2**32, 3], np.int64)), cols(d=np.array([5, 3], np.int64))],
        ),
        _column_case(
            "columns[kinds]",
            _expr_chain(
                "kinds",
                ["1 + tok['b'] + tok['i'] // 2", "0.5 + tok['f'] * tok['b'] + (tok['i'] > 2)"],
                [1, None],
            ),
            [
                cols(
                    b=np.array([True, False, True]),
                    i=np.array([1, 5, 3], dtype=np.int16),
                    f=np.array([0.25, 1.5, 2.0], dtype=np.float16),
                ),
                cols(
                    b=np.array([False, True]),
                    i=np.array([7, 0], dtype=np.uint64),
                    f=np.array([1e-3, 3.0]),
                ),
                cols(
                    b=np.array(["x", "y"], dtype=object),
                    i=np.array([1, 2]),
                    f=np.array([1.0, 2.0]),
                ),
            ],
        ),
        _column_case(
            "columns[empty]",
            signed,
            [cols(d=np.array([], dtype=float)), cols(0), cols(3), cols(d=[1.0], at=-1.0)],
        ),
        _column_case(
            "columns[non-chain]",
            _two_server_expr,
            [cols(d=[1.0, 2.0, 0.5]), cols(d=np.array([], dtype=float))],
        ),
        # The compiled engine never settles on a NaN delay: codegen only.
        _column_case(
            "columns[nan]", signed, [cols(d=[1.0, float("nan"), 2.0])], oracle=False
        ),
    ]
    for seed in range(8):
        rng = random.Random(3_000_017 * seed + 5)
        build = _expr_chain(
            f"rexpr{seed}", [random_expression(rng), "1.5 + tok['x'] % 4"], [2, None]
        )
        columns = [
            TokenColumns("in", 1.0, _random_columns(rng, rng.randint(0, 10), signed=True))
            for _ in range(3)
        ]
        cases.append(_column_case(f"columns[random-expr {seed}]", build, columns))
    return cases


def _two_server_expr() -> tuple[PetriNet, Sequence[str]]:
    """A one-transition net whose two servers rule out the codegen chain."""
    net = parse(
        "net two_server\nplace in\nplace out\n"
        "transition t\n  consume in\n  produce out\n  delay expr: 1 + tok['d']\n  servers 2\n"
    )
    return net, ["out"]


def random_structural_batch_case(seed: int) -> BatchDiffCase:
    """The :func:`random_net` structural family, batched.

    Guards, weighted arcs, timeouts, multi-server stages and deadlocks
    all route to the columnar engine (codegen rejects them), so this is
    the columnar engine's parity coverage."""

    def build() -> tuple[PetriNet, Sequence[str]]:
        net, sinks, _ = random_net(seed)
        return net, sinks

    rng = random.Random(seed + 777)
    items = []
    for _ in range(rng.randint(2, 4)):
        n = rng.randint(5, 30)
        gap = rng.choice([0.0, 0.25, 1.0])
        start = rng.choice([0.0, 5.0])
        items.append([("in", k, start + k * gap) for k in range(n)])
    return BatchDiffCase(f"rand-batch[{seed}]", build, items)


def _edge_chain() -> tuple[PetriNet, Sequence[str]]:
    """A two-stage codegen chain whose second delay reads the payload."""
    net = PetriNet("edge-chain")
    net.add_place("in")
    net.add_place("mid", capacity=2)
    net.add_place("out")
    net.add_transition("a", ["in"], ["mid"], delay=1.5, servers=1)
    net.add_transition("b", ["mid"], ["out"], delay=_payload_delay("mid", 0.5, 3), servers=1)
    return net, ["out"]


#: Valid tokens around two unknown places: ``'nowhere'`` comes first.
_UNKNOWN_PLACE_ITEM: BatchItem = [
    ("in", 2, 0.0),
    ("nowhere", 3, 0.5),
    ("in", 4, 0.5),
    ("elsewhere", 5, 0.25),
]


def keyed_batch_case(seed: int) -> BatchDiffCase:
    """The :func:`keyed_parts` family, batched: the seed's workload, its
    first half, and the workload in reverse injection order (which
    reorders same-instant arrivals), on one evaluator.

    Group dispatch, weight-2 head arcs, multi-server members, the shared
    ``mx`` mutex and stalled groups all run on the columnar engine."""

    def build() -> tuple[PetriNet, Sequence[str]]:
        net, sinks, _ = keyed_parts(seed)
        return net, sinks

    _, _, injections = keyed_parts(seed)
    items = [injections, injections[: len(injections) // 2], injections[::-1]]
    return BatchDiffCase(f"keyed-batch[{seed}]", build, items)


def edge_batch_cases() -> list[BatchDiffCase]:
    """Hand-picked batch scenarios: codegen bailouts, per-item error
    parity, empty items, mid-chain injections, and unknown places."""

    def two_server() -> tuple[PetriNet, Sequence[str]]:
        # Two servers rule out the codegen chain: columnar only.
        net = PetriNet("edge-two-server")
        net.add_place("in")
        net.add_place("out")
        net.add_transition("t", ["in"], ["out"], delay=_payload_delay("in", 1.0, 4), servers=2)
        return net, ["out"]

    def zero_delay() -> tuple[PetriNet, Sequence[str]]:
        net = PetriNet("edge-zero")
        net.add_place("in")
        net.add_place("out")
        net.add_transition(
            "t",
            ["in"],
            ["out"],
            delay=lambda c: float(c["in"][0].payload % 2),
            servers=1,
        )
        return net, ["out"]

    def negative_delay() -> tuple[PetriNet, Sequence[str]]:
        net = PetriNet("edge-negative")
        net.add_place("in")
        net.add_place("out")
        net.add_transition("t", ["in"], ["out"], delay=lambda c: -1.0, servers=1)
        return net, ["out"]

    return [
        # Mixed matrix: plain items, an empty item, same-instant ties.
        BatchDiffCase(
            "edge[mixed]",
            _edge_chain,
            [
                [("in", k, 0.5 * k) for k in range(10)],
                [],
                [("in", k, 0.0) for k in range(6)],
            ],
        ),
        # Mid-chain injection: codegen must hand that item to columnar.
        BatchDiffCase(
            "edge[mid-place]",
            _edge_chain,
            [
                [("in", k, float(k)) for k in range(5)],
                [("in", 0, 0.0), ("mid", 1, 0.0), ("in", 2, 1.0)],
            ],
        ),
        # Even payloads make the callable delay return 0.0: codegen bails
        # out on those items and the columnar rerun must still match.
        BatchDiffCase(
            "edge[zero-delay-bailout]",
            zero_delay,
            [
                [("in", 1, 0.0), ("in", 3, 1.0)],
                [("in", 2, 0.0), ("in", 1, 0.5)],
            ],
        ),
        # Error parity: identical DefinitionError type and message.
        BatchDiffCase(
            "edge[negative-delay]",
            negative_delay,
            [[("in", 1, 0.0)], [("in", 0, 1.0)]],
        ),
        # Error parity: injections cannot be scheduled in the past.
        BatchDiffCase(
            "edge[negative-at]",
            _edge_chain,
            [[("in", 0, 1.0)], [("in", 1, -2.0)]],
        ),
        # Error parity: the first unknown place in injection order is
        # named, on a codegen chain and on a columnar-only net (where a
        # None place must be looked up like any other).
        BatchDiffCase(
            "edge[unknown-place-chain]",
            _edge_chain,
            [[("in", 0, 0.0), ("in", 1, 0.5)], _UNKNOWN_PLACE_ITEM],
        ),
        BatchDiffCase(
            "edge[unknown-place-columnar]",
            two_server,
            [
                [("in", 0, 0.0), ("in", 1, 0.5)],
                [],
                [("in", 2, 0.0), (None, 3, 0.5), *_UNKNOWN_PLACE_ITEM],
            ],
        ),
    ]


def check_token_payload_routing() -> int:
    """Assert that items whose payloads are already :class:`Token`
    objects (alone, and mixed with plain payloads) match the compiled
    baseline and run on the columnar loop even on a codegen chain (the
    recurrence reads plain payloads only), in every item form.  The
    engines inject such a token as is, so the case is built fresh here.
    Returns how many items were checked."""
    case = BatchDiffCase(
        "edge[token-payload]",
        _edge_chain,
        [
            [("in", Token(payload=k), 0.5 * k) for k in range(4)],
            [("in", 0, 0.0), ("in", Token(payload=1), 0.0), ("in", 2, 0.5)],
        ],
    )
    compare_batch_engines(case)
    for form, items in item_forms(case.items).items():
        net, sinks = case.build()
        evaluator = BatchEvaluator(net, list(sinks))
        evaluator.evaluate(items)
        if evaluator.engine != "codegen" or evaluator.items_codegen:
            raise EngineMismatch(
                f"{case.name} ({form}): engine {evaluator.engine!r} ran "
                f"{evaluator.items_codegen} Token-payload items on the codegen chain"
            )
    return len(case.items)


def batch_cases() -> list[BatchDiffCase]:
    """Every batched parity case the compiled engine can run:
    accelerator matrices, random chains with callable and with
    ``expr:`` delays (codegen), random structural and keyed nets
    (columnar), and edge scenarios, column items among them."""
    cases = accel_batch_cases() + edge_batch_cases()
    cases += [random_chain_case(k) for k in range(12)]
    cases += [random_dsl_chain_case(k) for k in range(12)]
    cases += [case for case in column_edge_cases() if case.oracle]
    cases += [random_structural_batch_case(500 + k) for k in range(8)]
    cases += [keyed_batch_case(k) for k in range(12)]
    return cases


def run_batch_differential(
    cases: Sequence[BatchDiffCase],
) -> dict[str, dict[str, list[tuple]]]:
    """Run every batch case through every applicable batch engine;
    return ``{name: {engine: digests}}``.  Raises
    :class:`EngineMismatch` on the first per-item disagreement."""
    return {case.name: compare_batch_engines(case) for case in cases}


# ----------------------------------------------------------------------
# Harness entry points
# ----------------------------------------------------------------------


def run_differential(
    cases: Sequence[DiffCase], *, tracing: bool = False
) -> dict[str, tuple]:
    """Run every case through both engines; return ``{name: digest}``.

    Raises :class:`EngineMismatch` on the first disagreement.  With
    ``tracing=True`` every case additionally runs with a tracer
    attached on both engines, the span lists must match, and the traced
    result digest must equal the untraced one (observation cannot
    perturb the simulation).
    """
    digests = {}
    for case in cases:
        plain = compare_engines(case)
        if tracing:
            traced = compare_engines(case, tracing=True)
            if traced[:2] != plain[:2]:
                raise EngineMismatch(
                    f"{case.name}: tracing perturbed the result\n"
                    f"  untraced: {plain!r}\n  traced:   {traced[:2]!r}"
                )
        digests[case.name] = plain
    return digests


def main(argv: Sequence[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.petri.differential",
        description="Assert reference/compiled engine parity on every case family",
    )
    parser.add_argument(
        "--tracing",
        action="store_true",
        help="also run every case with a Tracer attached on both engines and "
        "assert identical span lists and unperturbed results",
    )
    args = parser.parse_args(argv)

    accel = accel_cases()
    keyed = keyed_cases(seed=0, count=12)
    cases = accel + edge_cases() + random_cases(seed=0, count=25) + keyed
    digests = run_differential(cases, tracing=args.tracing)
    ok_errors = sum(1 for d in digests.values() if d[0] == "error")
    suffix = "; tracing parity included" if args.tracing else ""
    print(
        f"engine parity OK: {len(digests)} cases "
        f"({len(accel)} accelerator, {len(cases) - len(accel)} structural of "
        f"which {len(keyed)} keyed; "
        f"{ok_errors} raised identical errors in both engines{suffix})"
    )

    checked = [n for n in map(check_key_contract, accel + keyed) if n is not None]
    print(
        f"key contract OK: {len(checked)} keyed cases, {sum(checked)} accepted "
        f"head tokens each selected by its transition's key"
    )

    bcases = batch_cases()
    bresults = run_batch_differential(bcases)
    n_items = sum(len(case.items) for case in bcases)
    n_codegen = sum(1 for engines in bresults.values() if "codegen" in engines)
    n_forms = len(item_forms([]))
    n_keyed = sum(1 for case in bcases if case.name.startswith("keyed-batch["))
    print(
        f"batched parity OK: {len(bcases)} matrices / {n_items} items vs the "
        f"tracing-disabled compiled baseline, each in {n_forms} item forms "
        f"({n_codegen} matrices also ran the codegen engine; {n_keyed} keyed)"
    )
    n_token = check_token_payload_routing()
    print(f"token payloads OK: {n_token} items ran on the columnar loop of a codegen chain")

    ccases = [case for case in bcases if case.columns is not None]
    ccases += [case for case in column_edge_cases() if not case.oracle]
    counts = {case.name: compare_column_items(case) for case in ccases}
    jpeg_listed = counts["jpeg"][1]
    print(
        f"column items OK: {sum(c for c, _ in counts.values())} checked against their "
        f"triples in {len(ccases)} matrices; {sum(n for _, n in counts.values())} ran "
        f"the codegen recurrence over delay lists ({jpeg_listed} of them jpeg)"
    )
    if not jpeg_listed:
        raise EngineMismatch(
            "no jpeg column item ran the codegen recurrence over delay lists: every "
            "one fell back to its triples"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
