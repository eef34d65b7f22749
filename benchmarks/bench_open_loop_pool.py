"""E15 — open-loop serving on a heterogeneous pool under fault storms.

E14 showed one resilient device degrading to its own CPU.  This
experiment serves the enterprise RPC mix *open-loop* (Poisson arrivals)
through a :class:`~repro.runtime.pool.DevicePool` of three unequal
devices — Protoacc, Optimus Prime, and a Xeon software server — and
sweeps arrival rate × fault regime × routing policy:

* **round_robin** — spreads blindly; a tripped or slow device hurts it.
* **least_outstanding** — join-the-shortest-queue; sees load, not
  heterogeneity.
* **interface_predicted** — prices every admitting device with its
  performance interface (the Petri-net IR on the compiled engine, one
  shared EvalCache) and picks the cheapest predicted completion.

The claims under test:

1. with no faults, interface-predicted routing beats round-robin on
   p99 purely by knowing which hardware serves which message fastest
   (the paper's thesis applied to placement);
2. a fault storm severe enough to trip Protoacc's breaker does not
   take the pool down — requests hedge to healthy devices, the
   admission queue sheds what cannot make its deadline, and the
   drop-rate/latency tradeoff degrades smoothly as load rises;
3. the routing invariant holds everywhere: zero dispatches to a device
   whose breaker refused admission (CI asserts this via the smoke run);
4. the storm's incident tape, persisted to gzipped JSONL, replays to
   the identical divergence-free estimate in a *fresh process*.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.obs import Obs, attribute, score_mispredictions
from repro.perf import EvalCache
from repro.runtime import (
    BreakerState,
    OpenLoopServer,
    protoacc_message_codec,
    replay_saved_tape,
    save_tape,
)
from repro.runtime.pool import ROUTING_POLICIES, rpc_pool
from repro.workloads import ENTERPRISE_MIX

from conftest import bench_seed, scale

N_REQUESTS = scale(400, minimum=120)
#: Mean inter-arrival gaps (cycles): light load → past the knee.
GAPS = (2_000.0, 600.0, 250.0)
QUEUE_LIMIT = 48
DEADLINE = 60_000.0
SEED = bench_seed(17)


def run_serving(policy, faults, msgs, arrivals, cache=None, obs=None):
    pool = rpc_pool(policy, faults=faults, seed=SEED, cache=cache, obs=obs)
    server = OpenLoopServer(pool, queue_limit=QUEUE_LIMIT, deadline=DEADLINE)
    return pool, server.run(msgs, arrivals)


def tripped(pool) -> bool:
    breaker = pool.device("protoacc").device.breaker
    return any(t.state is BreakerState.OPEN for t in breaker.transitions)


def test_open_loop_pool(benchmark, report, tmp_path):
    traces = {
        gap: ENTERPRISE_MIX.sample_open(seed=SEED, count=N_REQUESTS, mean_gap=gap)
        for gap in GAPS
    }
    cache = EvalCache()  # shared by every pool in the sweep
    runs = {}
    for gap in GAPS:
        msgs, arrivals = traces[gap]
        for faults in ("none", "storm"):
            for policy in ROUTING_POLICIES:
                pool, res = run_serving(policy, faults, msgs, arrivals, cache=cache)
                # Claim 3: the router never reached past a breaker.
                assert pool.invariant_violations == 0, (gap, faults, policy)
                runs[(gap, faults, policy)] = (pool, res)

    benchmark(
        lambda: run_serving("interface_predicted", "storm", *traces[GAPS[-1]])
    )

    # Claim 1: interface-predicted routing wins the no-fault tail at
    # every arrival rate, on heterogeneity knowledge alone.
    for gap in GAPS:
        ip = runs[(gap, "none", "interface_predicted")][1].latency_summary()
        rr = runs[(gap, "none", "round_robin")][1].latency_summary()
        assert ip.p99 < rr.p99, f"gap={gap}: {ip.p99} !< {rr.p99}"

    # Claim 2: the storm trips Protoacc wherever traffic actually
    # reaches it (round-robin feeds it 1/3 of the mix by construction;
    # interface_predicted may simply price it out), yet the pool keeps
    # answering, and pushing load up does not *reduce* the drop rate.
    for gap in GAPS:
        assert tripped(runs[(gap, "storm", "round_robin")][0]), gap
    for policy in ROUTING_POLICIES:
        for gap in GAPS:
            pool, res = runs[(gap, "storm", policy)]
            assert res.answered, f"pool stopped serving ({policy}, {gap})"
        light = runs[(GAPS[0], "storm", policy)][1]
        heavy = runs[(GAPS[-1], "storm", policy)][1]
        # Light load survives comfortably; overload may shed hard but
        # never *less* than light load does.
        assert len(light.answered) > 0.5 * light.offered, policy
        assert heavy.loss_rate >= light.loss_rate, policy

    # Claim 4: persist the worst storm's Protoacc incident tape and
    # replay it both here and in a fresh interpreter.
    incident_pool = runs[(GAPS[-1], "storm", "round_robin")][0]
    records = incident_pool.device("protoacc").device.records
    assert records and any(r.faults for r in records)
    tape_path = tmp_path / "protoacc_incident.jsonl.gz"
    save_tape(records, tape_path, codec=protoacc_message_codec())
    here = replay_saved_tape(tape_path)
    fresh = subprocess.run(
        [sys.executable, "-m", "repro.runtime.tape", "replay", str(tape_path)],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert json.loads(fresh.stdout) == here

    # Claim 5 (observability): the same storm, fully observed — one Obs
    # bundle yields a valid Chrome trace with spans from all three
    # layers (petri, hw, runtime), a drift-observatory verdict, and an
    # exact latency breakdown, without perturbing the run.
    obs = Obs.enabled()
    obs_pool, obs_res = run_serving("round_robin", "storm", *traces[GAPS[-1]], obs=obs)
    plain_res = runs[(GAPS[-1], "storm", "round_robin")][1]
    assert [r.completed for r in obs_res.served] == [
        r.completed for r in plain_res.served
    ], "tracing perturbed the serving run"
    trace_path = tmp_path / "e15_storm.trace.json"
    obs.tracer.export_chrome_trace(trace_path)
    events = json.loads(trace_path.read_text())["traceEvents"]
    cats = {e.get("cat", "") for e in events}
    for layer in ("petri.", "hw.", "runtime."):
        assert any(c.startswith(layer) for c in cats), (layer, sorted(cats))
    for b in obs_res.breakdowns:
        assert abs(b.total - b.end_to_end) < 1e-6

    # Claim 6 (causal attribution): every served request of the storm
    # run reconstructs into per-stage segments that fold left-to-right
    # to *bit-exactly* its end-to-end cycles — the attribution
    # invariant, float ==, no tolerance.
    attrs = attribute(obs_res, obs.tracer, obs_pool)
    assert len(attrs) == len(obs_res.served)
    for a in attrs:
        assert a.total == a.end_to_end, (a.seq, a.total, a.end_to_end)
    comparisons = score_mispredictions(attrs, obs_pool, obs.observatory)
    assert comparisons, "no accel-path request could be scored"

    lines = [
        "E15 — open-loop serving: heterogeneous pool under fault storms",
        f"requests/run: {N_REQUESTS}   queue limit: {QUEUE_LIMIT}   "
        f"deadline: {DEADLINE:.0f} cycles   devices: protoacc, optimus-prime, cpu",
        "",
        f"{'mean gap':>8}  {'faults':6}  {'policy':20}  {'drop%':>6}  "
        f"{'p50':>7}  {'p99':>8}  {'hedges':>6}  {'protoacc tripped':>16}",
    ]
    for gap in GAPS:
        for faults in ("none", "storm"):
            for policy in ROUTING_POLICIES:
                pool, res = runs[(gap, faults, policy)]
                s = res.latency_summary()
                lines.append(
                    f"{gap:8.0f}  {faults:6}  {policy:20}  "
                    f"{res.loss_rate * 100:6.1f}  {s.p50:7.0f}  {s.p99:8.0f}  "
                    f"{res.hedge_count():6d}  {str(tripped(pool)):>16}"
                )
        lines.append("")
    rr = runs[(GAPS[0], "none", "round_robin")][1].latency_summary()
    ip = runs[(GAPS[0], "none", "interface_predicted")][1].latency_summary()
    lines += [
        f"no-fault p99, light load: round_robin={rr.p99:.0f} "
        f"interface_predicted={ip.p99:.0f} "
        f"({rr.p99 / ip.p99:.2f}x — routing by performance interface alone)",
        f"incident tape: {len(records)} protoacc records, "
        f"faulted_cycles={here['faulted_cycles']:.0f}, "
        f"availability_overhead={here['availability_overhead']:.2f}x "
        "(identical in-process and fresh-process replay)",
        f"shared eval cache across the sweep: {cache.stats.hits} hits / "
        f"{cache.stats.misses} misses "
        f"({cache.stats.hit_rate * 100:.1f}% hit rate, "
        f"{cache.stats.uncacheable} uncacheable)",
        "",
        "obs — the worst storm under full observation (round_robin, "
        f"gap={GAPS[-1]:.0f}):",
        f"  chrome trace: {len(events)} events across "
        f"{len([c for c in cats if c])} categories "
        f"(petri + hw + runtime layers all present)",
    ]
    waits = [b.queue_wait for b in obs_res.breakdowns]
    services = [b.service for b in obs_res.breakdowns]
    retries = [b.retry for b in obs_res.breakdowns]
    n = max(1, len(obs_res.breakdowns))
    lines.append(
        f"  latency breakdown (means): queue_wait={sum(waits) / n:.0f}  "
        f"device_queue={sum(b.device_queue for b in obs_res.breakdowns) / n:.0f}  "
        f"service={sum(services) / n:.0f}  retry={sum(retries) / n:.0f} cycles "
        "(components sum exactly to end-to-end)"
    )
    lines += ["  " + line for line in obs.observatory.report().splitlines()]
    n_attr = max(1, len(attrs))
    stage_means = {
        stage: sum(a.stages().get(stage, 0.0) for a in attrs) / n_attr
        for stage in ("queue", "retry", "memory", "overhead", "compute")
    }
    lines += [
        "",
        f"  causal attribution: {len(attrs)} requests, segments sum "
        "bit-exactly to end-to-end on every one",
        "  stage means: "
        + "  ".join(f"{k}={v:.0f}" for k, v in stage_means.items())
        + " cycles"
        + f" ({len(comparisons)} accel requests scored against "
        "predict_decomposition)",
    ]
    report("E15_open_loop_pool", "\n".join(lines))

    # Machine-readable metrics for the regression sentinel
    # (``benchtrack check``).  Virtual-cycle quantities only: they are
    # bit-deterministic at a pinned REPRO_BENCH_SCALE, so a tolerance
    # band around them is a sound CI gate (wall-clock never is).
    light_ip = runs[(GAPS[0], "none", "interface_predicted")][1]
    light_rr = runs[(GAPS[0], "none", "round_robin")][1]
    heavy_ip = runs[(GAPS[-1], "storm", "interface_predicted")][1]
    bench_json = {
        "bench": "serving",
        "metrics": {
            "nofault_ip_p50_light": light_ip.latency_summary().p50,
            "nofault_ip_p99_light": light_ip.latency_summary().p99,
            "nofault_rr_p99_light": light_rr.latency_summary().p99,
            "storm_ip_p99_heavy": heavy_ip.latency_summary().p99,
            "storm_ip_drop_rate_heavy": heavy_ip.loss_rate,
            "storm_attributed_requests": len(attrs),
            "storm_attribution_memory_mean": stage_means["memory"],
        },
    }
    out = Path(__file__).parent / "results" / "BENCH_serving.json"
    out.write_text(json.dumps(bench_json, indent=2, sort_keys=True) + "\n")
