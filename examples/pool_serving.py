"""Example #9 — a heterogeneous accelerator pool surviving a fault storm.

One resilient device (example #8) degrades to its own CPU when its
accelerator misbehaves.  A serving fleet can do better: route around
the sick device.  This example fronts three unequal devices — Protoacc,
Optimus Prime, and a Xeon software server — with a
:class:`~repro.runtime.pool.DevicePool` and drives them *open-loop*
(Poisson arrivals, bounded admission queue, deadline shedding) while a
fault storm hammers Protoacc:

1. routing is breaker-aware: a tripped device receives nothing until
   its recovery probe succeeds;
2. the ``interface_predicted`` policy prices every admitting device
   with its performance interface (Petri net, compiled engine, shared
   EvalCache) — the paper's thesis applied to placement;
3. requests that fail mid-flight hedge to the next-best device, and
   requests that cannot make their deadline are shed un-dispatched;
4. the storm's incident tape persists to gzipped JSONL and replays to
   the identical estimate in another process.

    python examples/pool_serving.py
"""

from repro.runtime import OpenLoopServer, protoacc_message_codec, save_tape
from repro.runtime.pool import ROUTING_POLICIES, rpc_pool
from repro.runtime.tape import replay_saved_tape
from repro.workloads import ENTERPRISE_MIX

MEAN_GAP = 600.0  # cycles between arrivals (Poisson)
N_REQUESTS = 400
DEADLINE = 60_000.0


def serve(policy: str, faults: str):
    pool = rpc_pool(policy, faults=faults, seed=17)
    server = OpenLoopServer(pool, queue_limit=48, deadline=DEADLINE)
    msgs, arrivals = ENTERPRISE_MIX.sample_open(
        seed=17, count=N_REQUESTS, mean_gap=MEAN_GAP
    )
    return pool, server.run(msgs, arrivals)


def main() -> None:
    print("=" * 72)
    print(f"open-loop serving: {N_REQUESTS} enterprise RPCs, "
          f"mean gap {MEAN_GAP:.0f} cycles, deadline {DEADLINE:.0f}")
    print("devices: protoacc + optimus-prime + cpu, per-device breakers")
    print("=" * 72)

    for faults in ("none", "storm"):
        print(f"\n--- faults: {faults} ---")
        for policy in ROUTING_POLICIES:
            pool, res = serve(policy, faults)
            s = res.latency_summary()
            loads = "  ".join(f"{k}={v}" for k, v in pool.device_loads().items())
            print(f"{policy:20s} drop={res.loss_rate:5.1%}  p50={s.p50:6.0f}  "
                  f"p99={s.p99:8.0f}  hedges={res.hedge_count():2d}  [{loads}]")

    print()
    print("=" * 72)
    print("the incident tape: persist Protoacc's storm records, replay anywhere")
    print("=" * 72)
    pool, _ = serve("round_robin", "storm")
    records = pool.device("protoacc").device.records
    path = "benchmarks/results/protoacc_incident.jsonl.gz"
    save_tape(records, path, codec=protoacc_message_codec())
    estimate = replay_saved_tape(path)
    print(f"saved {estimate['calls']} records -> {path}")
    print(f"faults on tape: {estimate['faults']}  "
          f"failed calls: {estimate['failed_calls']}")
    print(f"faulted replay: {estimate['faulted_cycles']:.0f} cycles  "
          f"clean replay: {estimate['clean_cycles']:.0f} cycles  "
          f"availability overhead: {estimate['availability_overhead']:.2f}x")
    print("\n(replay it from any process: "
          f"python -m repro.runtime.tape replay {path})")


if __name__ == "__main__":
    main()
