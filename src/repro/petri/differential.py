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
always the columnar engine — the compiled engine's own event loop, so
there its check covers the per-item setup (token order, sink reduction)
rather than a second copy of the firing rules.

Case families:

* :func:`accel_cases` — the real accelerator nets shipped in
  ``src/repro/accel/*/interfaces.py`` (JPEG decoder, VTA, bitcoin miner,
  Protoacc, Optimus Prime), driven by their own ``tokenize`` functions
  over reproducible workloads.
* :func:`random_cases` — seeded, randomly generated structural nets that
  exercise the engine features accelerator nets may not (weighted arcs,
  fan-out/merge, guard splits, timeouts, finite capacities, deadlocks).
* :func:`batch_cases` — batched-vs-compiled matrices over every
  accelerator net, seeded random chains (codegen coverage), the random
  structural nets above (columnar coverage), and hand-picked edge items
  (zero/negative callable delays, empty items, mid-chain injections).

Run as a script for the CI parity smoke job::

    PYTHONPATH=src python -m repro.petri.differential
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from .batched import BatchEvaluator, BatchItemResult, codegen_supported
from .compiled import CompiledSimulator
from .errors import PetriError
from .net import PetriNet
from .simulate import SimResult, Simulator

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
    except PetriError as exc:
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
            for inj in injections:
                sim.inject(inj.place, inj.payload, at=inj.at)

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


def edge_cases() -> list[DiffCase]:
    """Hand-picked scenarios where both engines must raise the *same* error
    (type and message), plus early-stop deadline/until handling."""

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

    return [
        DiffCase("deadlock-stop", starved),
        DiffCase("deadlock-raise", starved, {"on_deadlock": "raise"}),
        DiffCase("deadline-stop", slow_chain, {"max_time": 40.0}),
        DiffCase("deadline-raise", slow_chain, {"max_time": 40.0, "on_deadline": "raise"}),
        DiffCase("until", slow_chain, {"until": 25.0}),
        DiffCase("negative-delay", bad_delay),
    ]


# ----------------------------------------------------------------------
# Batched-engine parity
# ----------------------------------------------------------------------

#: One batch item: injections as ``(place, payload, at)`` triples.
BatchItem = list[tuple[str, Any, float]]

#: A batch builder returns a fresh ``(net, sinks)`` pair on every call.
BatchBuilder = Callable[[], tuple[PetriNet, Sequence[str]]]


@dataclass
class BatchDiffCase:
    """One batched-vs-compiled scenario: a net builder plus an item matrix."""

    name: str
    build: BatchBuilder
    items: list[BatchItem]


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
    except PetriError as exc:
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


def compare_batch_engines(case: BatchDiffCase) -> dict[str, list[tuple]]:
    """Assert every batch engine reproduces the compiled baseline on
    *case*, item for item.

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
    out: dict[str, list[tuple]] = {}
    for engine in engines:
        net, sinks = case.build()
        evaluator = BatchEvaluator(net, list(sinks), engine=engine)
        results = evaluator.evaluate(case.items[:ok_until], collect=True)
        digests = [("ok", batch_summarize(r)) for r in results]
        for i, (want, got) in enumerate(zip(baseline[:ok_until], digests)):
            if want != got:
                raise EngineMismatch(
                    f"{case.name}[item {i}] ({engine}): batch engine disagrees "
                    f"with compiled baseline\n"
                    f"  compiled: {want!r}\n  batched:  {got!r}"
                )
        if first_error is not None:
            net, sinks = case.build()
            evaluator = BatchEvaluator(net, list(sinks), engine=engine)
            try:
                evaluator.evaluate(case.items[: first_error + 1], collect=True)
            except PetriError as exc:
                got_err = ("error", type(exc).__name__, str(exc))
            else:
                got_err = ("no-error",)
            if got_err != baseline[first_error]:
                raise EngineMismatch(
                    f"{case.name}[item {first_error}] ({engine}): error parity "
                    f"failed\n"
                    f"  compiled: {baseline[first_error]!r}\n"
                    f"  batched:  {got_err!r}"
                )
        out[engine] = digests
    return out


def _interface_batch_case(
    name: str, make_iface: Callable[[], Any], workload: Sequence[Any]
) -> BatchDiffCase:
    """Batch case driving an accelerator net through its own tokenizer,
    one item per workload element — the matrix ``evaluate_batch`` sees."""
    iface = make_iface()
    items = [
        [(inj.place, inj.payload, inj.at) for inj in iface.tokenize(w)]
        for w in workload
    ]

    def build() -> tuple[PetriNet, Sequence[str]]:
        fresh = make_iface()
        return fresh.net, [fresh.sink]

    return BatchDiffCase(name, build, items)


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


def edge_batch_cases() -> list[BatchDiffCase]:
    """Hand-picked batch scenarios: codegen bailouts, per-item error
    parity, empty items, and mid-chain injections."""

    def chain2() -> tuple[PetriNet, Sequence[str]]:
        net = PetriNet("edge-chain")
        net.add_place("in")
        net.add_place("mid", capacity=2)
        net.add_place("out")
        net.add_transition("a", ["in"], ["mid"], delay=1.5, servers=1)
        net.add_transition(
            "b", ["mid"], ["out"], delay=_payload_delay("mid", 0.5, 3), servers=1
        )
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
            chain2,
            [
                [("in", k, 0.5 * k) for k in range(10)],
                [],
                [("in", k, 0.0) for k in range(6)],
            ],
        ),
        # Mid-chain injection: codegen must hand that item to columnar.
        BatchDiffCase(
            "edge[mid-place]",
            chain2,
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
            chain2,
            [[("in", 0, 1.0)], [("in", 1, -2.0)]],
        ),
    ]


def batch_cases() -> list[BatchDiffCase]:
    """Every batched parity case: accelerator matrices, random chains
    (codegen), random structural nets (columnar), and edge scenarios."""
    cases = accel_batch_cases() + edge_batch_cases()
    cases += [random_chain_case(k) for k in range(12)]
    cases += [random_structural_batch_case(500 + k) for k in range(8)]
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
    cases = accel + edge_cases() + random_cases(seed=0, count=25)
    digests = run_differential(cases, tracing=args.tracing)
    ok_errors = sum(1 for d in digests.values() if d[0] == "error")
    suffix = "; tracing parity included" if args.tracing else ""
    print(
        f"engine parity OK: {len(digests)} cases "
        f"({len(accel)} accelerator, {len(cases) - len(accel)} structural; "
        f"{ok_errors} raised identical errors in both engines{suffix})"
    )

    bcases = batch_cases()
    bresults = run_batch_differential(bcases)
    n_items = sum(len(case.items) for case in bcases)
    n_codegen = sum(1 for engines in bresults.values() if "codegen" in engines)
    print(
        f"batched parity OK: {len(bcases)} matrices / {n_items} items vs the "
        f"tracing-disabled compiled baseline "
        f"({n_codegen} matrices also ran the codegen engine)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
