"""Engine microbenchmarks — how fast does the performance IR execute?

Not a paper artifact, but load-bearing for the paper's story: the IR is
only useful to tools (auto-tuners, design-space explorers) if it runs
orders of magnitude faster than cycle-level simulation.  These
benchmarks track the engine's firing throughput on the three structural
idioms the accelerator nets use, so a regression here shows up before
it silently erodes the E6 speedups.

Two engines are measured: the reference interpreter and the compiled
fast path (``repro.petri.compiled``).  The comparison table in
``benchmarks/results/ENG_engine_compare.txt`` interleaves the two and
takes best-of-N on CPU time, because wall-clock ratios on shared
machines swing far more than the engines themselves do.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.obs import Tracer
from repro.petri import (
    BatchEvaluator,
    CompiledNet,
    CompiledSimulator,
    PetriNet,
    Simulator,
    chain,
    make_simulator,
)


def build_chain(n_stages: int = 4, n_items: int = 200):
    net = PetriNet("chain")
    chain(net, [(f"s{k}", 3 + k) for k in range(n_stages)], capacity=4)
    return net, ["out"], lambda sim: sim.inject_stream("in", range(n_items))


def build_fanout(n_items: int = 100):
    net = PetriNet("fan")
    net.add_place("in")
    net.add_place("mid")
    net.add_place("out")
    net.add_transition("split", ["in"], [("mid", 4)], delay=1, servers=None)
    net.add_transition("merge", [("mid", 4)], ["out"], delay=2, servers=2)
    return net, ["out"], lambda sim: sim.inject_stream("in", range(n_items))


def build_guarded(n_items: int = 200):
    net = PetriNet("guarded")
    net.add_place("in")
    net.add_place("small")
    net.add_place("big")
    net.add_transition(
        "lo", ["in"], ["small"], delay=1, guard=lambda c: c["in"][0].payload % 2 == 0
    )
    net.add_transition(
        "hi", ["in"], ["big"], delay=2, guard=lambda c: c["in"][0].payload % 2 == 1
    )
    return net, ["small", "big"], lambda sim: sim.inject_stream("in", range(n_items))


IDIOMS = [("chain", build_chain), ("fanout", build_fanout), ("guard", build_guarded)]


def _simulator(net, sinks, engine: str):
    """The reference interpreter or the compiled engine over ``net``."""
    if engine == "reference":
        return Simulator(net, sinks=sinks)
    return make_simulator(net, sinks=sinks)


def run_once(build, engine: str):
    """One simulation run; returns (SimResult, firings)."""
    net, sinks, load = build()
    sim = _simulator(net, sinks, engine)
    load(sim)
    result = sim.run()
    return result, sum(result.fired.values())


def _time_run(build, engine: str) -> tuple[int, int]:
    """CPU nanoseconds for one ``run()`` (setup and injection excluded)."""
    net, sinks, load = build()
    sim = _simulator(net, sinks, engine)
    load(sim)
    t0 = time.process_time_ns()
    result = sim.run()
    elapsed = time.process_time_ns() - t0
    return elapsed, sum(result.fired.values())


def test_engine_chain_throughput(benchmark, report):
    def run():
        result, _ = run_once(build_chain, "reference")
        return result.makespan()

    makespan = benchmark(run)
    report(
        "ENG_chain",
        f"4-stage chain, 200 items: makespan {makespan:.0f} cycles "
        f"({4 * 200} firings/run)",
    )
    assert makespan > 0


def test_engine_fanout(benchmark):
    completed = benchmark(lambda: len(run_once(build_fanout, "reference")[0].sink()))
    assert completed == 100  # 4-way split re-merged


def test_engine_guard_dispatch(benchmark):
    def run():
        result, _ = run_once(build_guarded, "reference")
        return len(result.completions["small"]) + len(result.completions["big"])

    assert benchmark(run) == 200


def test_engine_compare(report):
    """Reference vs compiled on every idiom: identical results, >=5x faster.

    Interleaved best-of-N on process time; each row also reports firing
    throughput (firings/sec), the engine-level figure of merit.
    """
    rows = [
        f"{'idiom':8s} {'reference':>12s} {'compiled':>12s} {'speedup':>8s} "
        f"{'ref fir/s':>12s} {'cmp fir/s':>12s}"
    ]
    speedups = {}
    for name, build in IDIOMS:
        ref_res = run_once(build, "reference")[0]
        cmp_res = run_once(build, "compiled")[0]
        assert ref_res.end_time == cmp_res.end_time, name
        assert ref_res.fired == cmp_res.fired, name
        assert [
            (c.time, c.token.payload) for v in ref_res.completions.values() for c in v
        ] == [
            (c.time, c.token.payload) for v in cmp_res.completions.values() for c in v
        ], name

        ref_ns = cmp_ns = float("inf")
        firings = 0
        for _ in range(40):  # interleave so CPU-state drift hits both engines
            ns, firings = _time_run(build, "reference")
            ref_ns = min(ref_ns, ns)
            ns, _ = _time_run(build, "compiled")
            cmp_ns = min(cmp_ns, ns)
        speedups[name] = ref_ns / cmp_ns
        rows.append(
            f"{name:8s} {ref_ns / 1e6:10.3f}ms {cmp_ns / 1e6:10.3f}ms "
            f"{speedups[name]:7.2f}x {firings * 1e9 / ref_ns:12.0f} "
            f"{firings * 1e9 / cmp_ns:12.0f}"
        )
    rows.append(
        "(best-of-40 CPU time per run; injections and net lowering excluded)"
    )
    report("ENG_engine_compare", "\n".join(rows))
    for name, speedup in speedups.items():
        assert speedup >= 5.0, f"{name}: compiled only {speedup:.2f}x faster"


# ----------------------------------------------------------------------
# Mega-batch sweep: the batch engines vs per-item evaluation at scale
# ----------------------------------------------------------------------


def _jpeg_sweep():
    from repro.accel.jpeg import interfaces as jpeg
    from repro.accel.jpeg.workload import random_images

    return jpeg.petri_interface, random_images(
        seed=7, count=1000, min_dim=16, max_dim=48
    )


def _optimus_sweep():
    from repro.accel.optimusprime import interfaces as optimus
    from repro.accel.protoacc import formats

    messages = [m for s in range(32) for m in formats.instances(seed=s).values()]
    return optimus.petri_interface, messages[:1000]


SWEEPS = [("jpeg", _jpeg_sweep), ("optimusprime", _optimus_sweep)]


def _tokenize_matrix(make_iface, workload):
    iface = make_iface()
    return [
        [(place, payload, at) for place, payload, at in iface.tokenize(w)]
        for w in workload
    ]


def _time_per_item_compiled(make_iface, items) -> tuple[int, list[float]]:
    """CPU ns + makespans for the per-item compiled path: one simulator
    built, loaded, and run per item — exactly what ``latency()`` does
    after tokenization."""
    iface = make_iface()
    out = []
    t0 = time.process_time_ns()
    for item in items:
        sim = CompiledSimulator(iface.net, sinks=[iface.sink])
        for place, payload, at in item:
            sim.inject(place, payload, at=at)
        out.append(sim.run().makespan())
    return time.process_time_ns() - t0, out


def _time_reference_per_item(make_iface, items) -> int:
    """CPU ns for the reference interpreter over ``items`` (fresh net per
    item — the reference engine consumes the marking)."""
    t0 = time.process_time_ns()
    for item in items:
        iface = make_iface()
        sim = Simulator(iface.net, sinks=[iface.sink])
        for place, payload, at in item:
            sim.inject(place, payload, at=at)
        sim.run()
    return time.process_time_ns() - t0


def test_batched_mega_sweep(report, tmp_path):
    """The tentpole acceptance gate: on a 1000-point sweep over two real
    accelerator nets the batch engine is >= 10x faster than per-item
    compiled evaluation, bit-identical; and a warm persistent EvalCache
    answers the same sweep with zero engine invocations.

    Items/sec is measured on pre-tokenized matrices so all three engines
    do the same work (reference is extrapolated from a 50-item
    subsample — running it over the full sweep would dominate CI time).
    """
    results = {}
    rows = [
        f"{'net':14s} {'points':>6s} {'ref it/s':>10s} {'cmp it/s':>10s} "
        f"{'bat it/s':>12s} {'speedup':>8s} {'engine':>8s}"
    ]
    for name, build in SWEEPS:
        make_iface, workload = build()
        items = _tokenize_matrix(make_iface, workload)
        n = len(items)
        assert n >= 1000, f"{name}: sweep shrank below the acceptance floor"

        ref_sub = min(50, n)
        ref_ns = _time_reference_per_item(make_iface, items[:ref_sub])

        cmp_ns = float("inf")
        want: list[float] = []
        bat_ns = float("inf")
        got: list[float] = []
        iface = make_iface()
        evaluator = BatchEvaluator(iface.net, [iface.sink])
        for _ in range(5):  # interleaved best-of-5, like the idiom benches
            ns, want = _time_per_item_compiled(make_iface, items)
            cmp_ns = min(cmp_ns, ns)
            t0 = time.process_time_ns()
            got = evaluator.evaluate_makespans(items)
            bat_ns = min(bat_ns, time.process_time_ns() - t0)

        assert got == want, f"{name}: batched diverged from compiled"  # bit-identical
        speedup = cmp_ns / bat_ns
        results[name] = {
            "points": n,
            "tokens_per_item": sum(len(i) for i in items) / n,
            "engine": evaluator.engine,
            "items_per_sec": {
                "reference": ref_sub * 1e9 / ref_ns,
                "compiled": n * 1e9 / cmp_ns,
                "batched": n * 1e9 / bat_ns,
            },
            "speedup_batched_vs_compiled": speedup,
            "reference_subsample": ref_sub,
        }
        rows.append(
            f"{name:14s} {n:6d} {ref_sub * 1e9 / ref_ns:10.0f} "
            f"{n * 1e9 / cmp_ns:10.0f} {n * 1e9 / bat_ns:12.0f} "
            f"{speedup:7.1f}x {evaluator.engine:>8s}"
        )

    # Cold vs warm persistent cache: a second "process" (fresh interface,
    # fresh cache object on the same spill file) must answer the whole
    # sweep from disk without ever constructing a batch engine.
    from repro.perf import EvalCache

    make_iface, workload = SWEEPS[0][1]()
    spill = str(Path(tmp_path) / "evals.jsonl")
    cold_iface = make_iface()
    cold_iface.cache = EvalCache(spill)
    t0 = time.process_time_ns()
    cold = cold_iface.evaluate_batch(workload)
    cold_ns = time.process_time_ns() - t0

    warm_iface = make_iface()
    warm_iface.cache = EvalCache(spill)
    t0 = time.process_time_ns()
    warm = warm_iface.evaluate_batch(workload)
    warm_ns = time.process_time_ns() - t0
    assert warm == cold
    assert warm_iface.batch_evaluator is None  # zero engine invocations
    assert warm_iface.cache.stats.hits == len(workload)
    results["persistent_cache"] = {
        "net": SWEEPS[0][0],
        "points": len(workload),
        "cold_items_per_sec": len(workload) * 1e9 / cold_ns,
        "warm_items_per_sec": len(workload) * 1e9 / warm_ns,
        "warm_engine_invocations": 0,
    }
    rows.append(
        f"persistent cache ({SWEEPS[0][0]}): cold {len(workload) * 1e9 / cold_ns:.0f} "
        f"it/s -> warm {len(workload) * 1e9 / warm_ns:.0f} it/s "
        f"(zero engine invocations)"
    )
    rows.append("(pre-tokenized matrices; best-of-5 CPU time; reference on a subsample)")

    report("BENCH_batched_engine", "\n".join(rows))
    out = Path(__file__).parent / "results" / "BENCH_batched_engine.json"
    out.write_text(json.dumps(results, indent=2) + "\n")

    for name, _ in SWEEPS:
        speedup = results[name]["speedup_batched_vs_compiled"]
        assert speedup >= 10.0, f"{name}: batched only {speedup:.1f}x vs compiled"


def _vta_tuning_matrix():
    """The VTA interface and its tokenized workload matrix: the 159
    candidates of the four GEMM shapes the auto-tuner tests profile."""
    from repro.accel.vta import interfaces as vta
    from repro.autotune.tuner import Candidate, GemmWorkload, legal_tilings

    shapes = [GemmWorkload(4, 4, 4), GemmWorkload(4, 8, 4), GemmWorkload(8, 4, 8),
              GemmWorkload(8, 8, 4)]
    programs = [Candidate(t).lower(w) for w in shapes for t in legal_tilings(w)]
    return vta.petri_interface, _tokenize_matrix(vta.petri_interface, programs)


def _merge_batched_row(name: str, result: dict, row: str) -> None:
    """Add (or replace) one net's row in ``BENCH_batched_engine.{txt,json}``,
    after the rows :func:`test_batched_mega_sweep` writes."""
    base = Path(__file__).parent / "results" / "BENCH_batched_engine"
    txt, js = base.with_suffix(".txt"), base.with_suffix(".json")
    results = json.loads(js.read_text()) if js.exists() else {}
    results[name] = result
    js.write_text(json.dumps(results, indent=2) + "\n")
    lines = txt.read_text().splitlines() if txt.exists() else []
    lines = [line for line in lines if not line.startswith(f"{name} ")]
    at = next(
        (i for i, line in enumerate(lines) if line.startswith(("persistent", "("))),
        len(lines),
    )
    lines.insert(at, row)
    txt.write_text("\n".join(lines) + "\n")


def _run_only_ns(make_sim, items) -> int:
    """CPU ns of ``run()`` alone over ``items``: each simulator is built
    and loaded outside the timed region."""
    total = 0
    for item in items:
        sim = make_sim()
        for place, payload, at in item:
            sim.inject(place, payload, at=at)
        t0 = time.process_time_ns()
        sim.run()
        total += time.process_time_ns() - t0
    return total


def test_batched_keyed_net():
    """The columnar engine's gate, on the one shipped net that is not a
    chain: VTA, every transition keyed and guarded, with callable
    delays, over the 159 tuning candidates (tokenized once).

    The batch engine must give the per-item :class:`CompiledSimulator`'s
    makespans, bit-identical, on its columnar loop.  Both run the same
    plan loop, so their ratio (the table's ``speedup``, interleaved
    best-of-5 CPU time) prices only what a per-item run adds: a lowering
    and a plan build per candidate, the injections, and the result
    objects.  The speed gate is the loop's own: a per-item run is >=
    5.5x faster than the reference engine's, run-only (best of 10 over
    the first 20 candidates).
    """
    make_iface, items = _vta_tuning_matrix()
    n = len(items)
    assert n == 159
    ref_sub = 20
    ref_ns = _time_reference_per_item(make_iface, items[:ref_sub])
    iface = make_iface()
    evaluator = BatchEvaluator(iface.net, [iface.sink])
    cmp_ns = bat_ns = float("inf")
    want: list[float] = []
    got: list[float] = []
    for _ in range(5):
        ns, want = _time_per_item_compiled(make_iface, items)
        cmp_ns = min(cmp_ns, ns)
        t0 = time.process_time_ns()
        got = evaluator.evaluate_makespans(items)
        bat_ns = min(bat_ns, time.process_time_ns() - t0)
    assert got == want, "vta: batched diverged from compiled"  # bit-identical
    assert evaluator.engine == "columnar"

    def reference():
        fresh = make_iface()
        return Simulator(fresh.net, sinks=[fresh.sink])

    lowered = CompiledNet(iface.net)
    ref_run = cmp_run = float("inf")
    for _ in range(10):  # interleaved, like the idiom benches
        ref_run = min(ref_run, _run_only_ns(reference, items[:ref_sub]))
        cmp_run = min(
            cmp_run,
            _run_only_ns(
                lambda: CompiledSimulator(iface.net, [iface.sink], compiled=lowered),
                items[:ref_sub],
            ),
        )
    run_speedup = ref_run / cmp_run
    speedup = cmp_ns / bat_ns
    _merge_batched_row(
        "vta",
        {
            "points": n,
            "tokens_per_item": sum(len(i) for i in items) / n,
            "engine": evaluator.engine,
            "items_per_sec": {
                "reference": ref_sub * 1e9 / ref_ns,
                "compiled": n * 1e9 / cmp_ns,
                "batched": n * 1e9 / bat_ns,
            },
            "speedup_batched_vs_compiled": speedup,
            "reference_subsample": ref_sub,
            "speedup_compiled_vs_reference_run_only": run_speedup,
        },
        f"{'vta':14s} {n:6d} {ref_sub * 1e9 / ref_ns:10.0f} {n * 1e9 / cmp_ns:10.0f} "
        f"{n * 1e9 / bat_ns:12.0f} {speedup:7.1f}x {evaluator.engine:>8s}",
    )
    assert run_speedup >= 5.5, f"vta: compiled run only {run_speedup:.2f}x vs reference"


class _CountingTracer(Tracer):
    """A tracer that counts the emission calls it receives, enabled or
    not: a disabled tracer that is normalized to ``None`` before any hot
    loop sees it receives none."""

    __slots__ = ("calls",)

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = 0

    def add_span(self, *args, **kwargs):
        self.calls += 1
        return super().add_span(*args, **kwargs)

    def instant(self, *args, **kwargs):
        self.calls += 1
        return super().instant(*args, **kwargs)

    def counter(self, *args, **kwargs):
        self.calls += 1
        return super().counter(*args, **kwargs)

    def wall_span(self, *args, **kwargs):
        self.calls += 1
        return super().wall_span(*args, **kwargs)


def _time_traced(build, tracer) -> int:
    """Best-effort CPU ns for one compiled run with the given tracer."""
    net, sinks, load = build()
    sim = make_simulator(net, sinks=sinks, compiled=CompiledNet(net), tracer=tracer)
    load(sim)
    if tracer is not None and tracer.enabled:
        tracer.clear()
    t0 = time.process_time_ns()
    sim.run()
    return time.process_time_ns() - t0


def test_tracing_overhead(report):
    """Observability must be pay-for-what-you-use on the hot engine.

    A *disabled* tracer is normalized away at simulator construction,
    so the run loop is the untraced one.  The gate is that claim itself,
    on the chain idiom (the firing-densest of the three): a disabled
    tracer receives no call, where an enabled one receives calls.  A
    timing gate could fail only on noise, since both sides run the same
    code.  The timings are reported for context: the *enabled* cost buys
    a full per-firing timeline.
    """
    spies = _CountingTracer(enabled=False), _CountingTracer()
    for spy in spies:
        _time_traced(build_chain, spy)
    assert spies[0].calls == 0, f"a disabled tracer received {spies[0].calls} calls"
    assert spies[1].calls > 0  # the spy sees the engine's calls

    disabled = Tracer(enabled=False)
    base_ns = off_ns = on_ns = float("inf")
    for _ in range(60):  # interleave to cancel CPU-state drift
        base_ns = min(base_ns, _time_traced(build_chain, None))
        off_ns = min(off_ns, _time_traced(build_chain, disabled))
        on_ns = min(on_ns, _time_traced(build_chain, Tracer()))
    overhead = off_ns / base_ns - 1.0
    report(
        "ENG_tracing_overhead",
        "compiled engine, 4-stage chain x 200 items (best-of-60 CPU time):\n"
        f"untraced {base_ns / 1e6:8.3f}ms   disabled tracer {off_ns / 1e6:8.3f}ms "
        f"({overhead * 100:+.1f}%)   enabled tracer {on_ns / 1e6:8.3f}ms "
        f"({(on_ns / base_ns - 1.0) * 100:+.1f}%)",
    )


def test_attribution_overhead(report):
    """Attribution must also be pay-for-what-you-use, on the *serving*
    path this time.

    Causal attribution is entirely post-hoc — it reads spans the tracer
    already buffered — so a serving run with a disabled tracer does the
    same work as an unobserved one: the hot-path guards normalize a
    disabled tracer to ``None``.  The gate, as for the engine, is that
    a disabled tracer receives no call over the whole 60-request run,
    nor over a crowded one whose serving loop emits too, where an
    enabled one receives calls.  The timings and the
    enabled-plus-attribute cost are reported for context, and the
    enabled run must not perturb the virtual-clock outcome.
    """
    from repro.obs import Obs, Tracer, attribute
    from repro.runtime import OpenLoopServer
    from repro.runtime.pool import rpc_pool
    from repro.workloads import ENTERPRISE_MIX

    sample = ENTERPRISE_MIX.sample_open(seed=7, count=60, mean_gap=900.0)
    # Those 60 RPCs never wait for admission, shed or drop, so the serving
    # loop itself emits nothing; a dense burst through one dispatch slot
    # waits for admission, so the loop emits too.
    crowded = ENTERPRISE_MIX.sample_open(seed=7, count=60, mean_gap=30.0)

    def run(obs, sample=sample, **server_kwargs):
        pool = rpc_pool("interface_predicted", faults="none", seed=7, obs=obs)
        server = OpenLoopServer(pool, deadline=60_000.0, obs=obs, **server_kwargs)
        return server.run(*sample)

    def timed(make_obs):
        obs = make_obs()
        t0 = time.process_time_ns()
        result = run(obs)
        return time.process_time_ns() - t0, result, obs

    for spied, server_kwargs in ((sample, {}), (crowded, {"max_inflight": 1})):
        spies = _CountingTracer(enabled=False), _CountingTracer()
        for spy in spies:
            run(Obs(tracer=spy), spied, **server_kwargs)
        assert spies[0].calls == 0, f"a disabled tracer received {spies[0].calls} calls"
        assert spies[1].calls > 0  # the spy sees the serving path's calls
    assert "runtime.server" in spies[1].categories()  # the crowded loop's own calls

    disabled = Tracer(enabled=False)
    base_ns = off_ns = on_ns = float("inf")
    base_res = on_res = on_obs = None
    for _ in range(12):  # interleave to cancel CPU-state drift
        ns, base_res, _ = timed(lambda: None)
        base_ns = min(base_ns, ns)
        ns, _, _ = timed(lambda: Obs(tracer=disabled))
        off_ns = min(off_ns, ns)
        ns, on_res, on_obs = timed(Obs.enabled)
        on_ns = min(on_ns, ns)
    assert len(disabled) == 0 and disabled.dropped == 0  # allocation-free

    t0 = time.process_time_ns()
    attrs = attribute(on_res, on_obs.tracer)
    attr_ns = time.process_time_ns() - t0
    assert len(attrs) == len(on_res.served)
    for a in attrs:
        assert a.total == a.end_to_end
    assert [r.completed for r in on_res.served] == [
        r.completed for r in base_res.served
    ], "observation perturbed the serving run"

    overhead = off_ns / base_ns - 1.0
    report(
        "ENG_attribution_overhead",
        "serving path, 60 enterprise RPCs (best-of-12 CPU time):\n"
        f"unobserved {base_ns / 1e6:8.3f}ms   disabled tracer "
        f"{off_ns / 1e6:8.3f}ms ({overhead * 100:+.1f}%)   "
        f"traced {on_ns / 1e6:8.3f}ms "
        f"({(on_ns / base_ns - 1.0) * 100:+.1f}%) "
        f"+ attribute() {attr_ns / 1e6:.3f}ms for {len(attrs)} requests",
    )
