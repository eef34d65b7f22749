"""Perfscope: the operator console for the observability stack.

One command runs a traced, metered serving scenario (the E15 fleet —
``rpc_pool`` + :class:`~repro.runtime.serving.OpenLoopServer` under an
open-loop Poisson workload) and renders what an operator would want
from it:

* ``report`` — drift observatory table (predicted-vs-observed relative
  error per device × RPC size class), pool health snapshot, and the
  request-latency breakdown (queue / service / retry);
* ``trace`` — export the run as Chrome/Perfetto ``trace_event`` JSON
  (open at https://ui.perfetto.dev) with spans from all three layers:
  Petri-net firings, DRAM bursts, and runtime offloads;
* ``metrics`` — Prometheus-style text exposition of every counter,
  gauge, and histogram the run touched;
* ``heal`` — run the self-healing scenario (a mid-serve DRAM regime
  shift on Protoacc, repaired in-band by :mod:`repro.heal`) and render
  the lifecycle report: error arc, refits, shadow verdicts, hot-swaps,
  rollbacks;
* ``scale`` — run the autoscaling scenario (diurnal trace + rolling
  fault storm, SLO-guarded controller from :mod:`repro.scale`) and
  render the scaling story: SLO verdict, scale-out/in events with
  their interface pricing, and the brownout rung transitions;
* ``explain`` — causal latency attribution: drill into the slowest-K
  requests with their exact per-stage cycle decomposition (segments
  sum bit-exactly to end-to-end), then line observed stages up against
  the interface's :meth:`~repro.core.petrinet.PetriNetInterface.predict_decomposition`
  and name the worst-mispredicted stage per device;
* ``timeline`` — replay the autoscaling scenario's SLO verdicts from
  the embedded time-series store, with brownout rung moves and
  scale-out/in events annotated inline where they happened.

The scenario subcommands share flags, so the same run can be
inspected from any angle::

    python -m repro.tools.perfscope report --faults storm
    python -m repro.tools.perfscope trace --out storm.trace.json
    python -m repro.tools.perfscope metrics --policy round_robin
    python -m repro.tools.perfscope explain --faults dram --top 5
    python -m repro.tools.perfscope heal --slowdown 5
    python -m repro.tools.perfscope scale --requests 400
    python -m repro.tools.perfscope timeline --requests 400
"""

from __future__ import annotations

import argparse
import json
from collections.abc import Sequence

from repro.obs import Obs


def run_scenario(
    *,
    policy: str = "interface_predicted",
    faults: str = "storm",
    requests: int = 120,
    gap: float = 900.0,
    seed: int = 7,
    deadline: float = 60_000.0,
    obs: Obs | None = None,
):
    """Drive the standard serving scenario under full observability.

    Returns ``(obs, pool, serve_result)``; every layer of the run has
    emitted into ``obs`` by the time this returns.
    """
    from repro.runtime.pool import rpc_pool
    from repro.runtime.serving import OpenLoopServer
    from repro.workloads.rpc import ENTERPRISE_MIX

    obs = obs if obs is not None else Obs.enabled()
    pool = rpc_pool(policy, faults=faults, seed=seed, obs=obs)
    server = OpenLoopServer(pool, deadline=deadline)
    msgs, arrivals = ENTERPRISE_MIX.sample_open(seed, requests, gap)
    result = server.run(msgs, arrivals)
    return obs, pool, result


def _breakdown_table(result) -> str:
    """Aggregate the per-request cycle decomposition into one table."""
    rows = []
    if result.breakdowns:
        n = len(result.breakdowns)
        for label, attr in (
            ("admission queue", "queue_wait"),
            ("device queue", "device_queue"),
            ("service", "service"),
            ("retry/overhead", "retry"),
            ("end to end", "end_to_end"),
        ):
            values = [getattr(b, attr) for b in result.breakdowns]
            rows.append(
                f"  {label:<16} {sum(values) / n:>12.0f} {max(values):>12.0f}"
            )
    header = f"  {'component':<16} {'mean cyc':>12} {'max cyc':>12}"
    return "\n".join([header, *rows])


def _report(obs: Obs, pool, result) -> str:
    snap = pool.snapshot()
    lines = [
        "== perfscope report ==",
        "",
        f"requests: {result.offered} offered, {len(result.served)} served, "
        f"{len(result.dropped)} dropped, {len(result.shed)} shed "
        f"(drop rate {result.loss_rate:.1%})",
        f"policy: {snap['policy']}; hedges: {snap['hedges']}; "
        f"invariant violations: {snap['invariant_violations']}",
        "",
        "-- devices --",
    ]
    for name, d in snap["devices"].items():
        breaker = d["breaker"] if d["breaker"] is not None else "(none)"
        lines.append(
            f"  {name:<14} dispatched={d['dispatched']:<4} "
            f"breaker={breaker:<9} faults={d['faults']:<3} "
            f"fallback={d['fallback_fraction']:.0%}"
        )
    if "eval_cache" in snap:
        c = snap["eval_cache"]
        lines.append(
            f"  eval cache: {c['hits']}/{c['hits'] + c['misses']} hits "
            f"({c['hit_rate']:.0%}), {c['uncacheable']} uncacheable"
        )
    lines += ["", "-- latency breakdown (served requests) --", _breakdown_table(result)]
    lines += ["", "-- drift observatory --"]
    if obs.observatory is not None:
        lines.append(obs.observatory.report())
    if obs.tracer is not None:
        lines += [
            "",
            f"trace: {len(obs.tracer)} events in "
            f"{len(obs.tracer.categories())} categories "
            f"({obs.tracer.dropped} dropped)",
        ]
    return "\n".join(lines)


def _heal_report(result) -> str:
    """Operator view of one completed self-healing scenario."""
    device, rpc_class = result.target_key
    swap = result.swap_at(device, rpc_class)
    pre = result.mean_error(device, rpc_class, until=result.shift_at)
    lines = [
        "== perfscope heal ==",
        "",
        f"scenario: DRAM regime shift on {device} at t={result.shift_at:.0f} "
        "(mid-serve, no restart)",
        f"target key: {device}/{rpc_class}",
        "",
        "-- prediction error arc (mean symmetric error) --",
        f"  before shift:          {pre:.1%}",
    ]
    if swap is not None:
        spike = result.mean_error(device, rpc_class, since=result.shift_at, until=swap)
        post = result.mean_error(device, rpc_class, since=swap)
        lines += [
            f"  shift -> hot-swap:     {spike:.1%}",
            f"  after hot-swap:        {post:.1%}",
        ]
    else:
        spike = result.mean_error(device, rpc_class, since=result.shift_at)
        lines.append(f"  after shift (no swap): {spike:.1%}")
    lines += ["", "-- lifecycle --", result.healer.report()]
    if result.obs.observatory is not None:
        lines += ["", "-- drift observatory (final) --", result.obs.observatory.report()]
    return "\n".join(lines)


def _scale_report(out: dict) -> str:
    """Operator view of one completed autoscaling scenario."""
    verdict = out["verdict"]
    controller = out["controller"]
    result = out["result"]
    lines = [
        "== perfscope scale ==",
        "",
        f"slo: {out['slo'].describe()}",
        f"verdict: {'MET' if verdict.ok else 'VIOLATED'} "
        f"(p{out['slo'].latency_quantile * 100:g}={verdict.latency:,.0f} cycles, "
        f"loss {verdict.loss_rate:.1%})",
        f"requests: {result.offered} offered, {len(result.served)} served, "
        f"{result.losses} lost "
        f"({controller.intentional_losses} intentional brownout sheds)",
        f"fleet: {len(out['pool'].devices)} devices final, "
        f"{out['avg_devices']:.2f} time-averaged",
    ]
    scaler = controller.scaler
    if scaler is not None and scaler.events:
        lines += ["", "-- scaling events (interface-priced) --"]
        for e in scaler.events:
            if e.action == "out":
                lines.append(
                    f"  t={e.at:>10.0f}  +{e.device:<16} "
                    f"predicted service {e.predicted_service:,.0f} cyc  "
                    f"({e.reason})"
                )
            else:
                lines.append(f"  t={e.at:>10.0f}  -{e.device:<16} ({e.reason})")
    ladder = controller.ladder
    if ladder is not None:
        lines += ["", "-- brownout ladder --"]
        if ladder.transitions:
            for t in ladder.transitions:
                arrow = "^" if t.direction == "climb" else "v"
                lines.append(
                    f"  t={t.at:>10.0f}  {arrow} {t.from_rung.label} "
                    f"-> {t.to_rung.label}"
                )
        else:
            lines.append("  (no transitions — the SLO never came under pressure)")
        lines.append(
            f"  {ladder.climbed()} climbs / {ladder.descended()} descents, "
            f"final rung {ladder.rung.label}"
        )
    return "\n".join(lines)


def _explain_report(obs: Obs, pool, result, *, top: int = 5) -> str:
    """Causal attribution view: slowest-K drill-down plus the
    predicted-vs-observed stage alignment."""
    from repro.obs import attribute, score_mispredictions

    attrs = attribute(result, obs.tracer, pool)
    comparisons = (
        score_mispredictions(attrs, pool, obs.observatory)
        if obs.observatory is not None
        else []
    )
    lines = [
        "== perfscope explain ==",
        "",
        f"requests attributed: {len(attrs)} "
        f"(exact-sum invariant: segments fold to end-to-end bit-exactly)",
        "",
        f"-- slowest {min(top, len(attrs))} requests, causal decomposition --",
        f"  {'seq':>4} {'device':<14} {'path':<7} "
        f"{'queue':>9} {'retry':>9} {'memory':>9} {'ovh':>8} "
        f"{'compute':>9} {'e2e':>10}",
    ]
    for a in sorted(attrs, key=lambda a: a.end_to_end, reverse=True)[:top]:
        stages = a.stages()
        lines.append(
            f"  {a.seq:>4} {a.device:<14} {a.path:<7} "
            f"{stages.get('queue', 0.0):>9.0f} {stages.get('retry', 0.0):>9.0f} "
            f"{stages.get('memory', 0.0):>9.0f} {stages.get('overhead', 0.0):>8.0f} "
            f"{stages.get('compute', 0.0):>9.0f} {a.end_to_end:>10.0f}"
        )
    if comparisons:
        by_device: dict[str, list[dict]] = {}
        for c in comparisons:
            by_device.setdefault(c["device"], []).append(c)
        lines += [
            "",
            "-- predicted vs observed stages (mean cycles, accel path) --",
            f"  {'device':<14} {'stage':<8} {'predicted':>11} {'observed':>11}",
        ]
        for device in sorted(by_device):
            cs = by_device[device]
            n = len(cs)
            for stage in ("memory", "compute"):
                pred = sum(c["predicted"][stage] for c in cs) / n
                obsv = sum(c["observed"][stage] for c in cs) / n
                lines.append(
                    f"  {device:<14} {stage:<8} {pred:>11.0f} {obsv:>11.0f}"
                )
    if obs.observatory is not None:
        lines += ["", "-- worst-mispredicted stage per device --"]
        devices = sorted({a.device for a in attrs if a.path == "accel"})
        named = False
        for device in devices:
            worst = obs.observatory.top_mispredicted_stage(device)
            if worst is not None:
                stage, err = worst
                lines.append(
                    f"  {device:<14} {stage:<8} mean symmetric error {err:.1%}"
                )
                named = True
        if not named:
            lines.append("  (no stage samples — attribution saw no accel traffic)")
        lines += ["", "-- stage attribution detail --", obs.observatory.stage_report()]
    return "\n".join(lines)


def _timeline_report(obs: Obs, out: dict) -> str:
    """SLO verdicts from the time-series store, with scale and brownout
    instants annotated at the rows where they landed."""
    tsdb = obs.tsdb
    verdict = out["verdict"]
    lines = [
        "== perfscope timeline ==",
        "",
        f"slo: {out['slo'].describe()}",
        f"verdict: {'MET' if verdict.ok else 'VIOLATED'} "
        f"(p{out['slo'].latency_quantile * 100:g}={verdict.latency:,.0f} cycles, "
        f"loss {verdict.loss_rate:.1%})",
        "",
    ]
    points = tsdb.points("slo_latency")
    if not points:
        lines.append("(no SLO verdicts recorded — run too short for a decision)")
        return "\n".join(lines)
    budget = out["slo"].latency_budget
    ok_points = dict(tsdb.points("slo_ok"))
    fleet = dict(tsdb.points("pool_device_count"))
    events = list(tsdb.events())
    peak = max(v for _, v in points)
    width = 32
    lines += [
        f"-- slo latency timeline ({len(points)} verdicts, "
        f"budget {budget:,.0f} cycles) --"
    ]
    event_idx = 0
    current_rung = 0
    for at, latency in points:
        bar = "#" * max(1, round(width * latency / peak)) if peak > 0 else ""
        flag = "   " if ok_points.get(at, 1.0) >= 1.0 else "VIO"
        annotations = []
        # Events that happened since the previous verdict annotate this row.
        while event_idx < len(events) and events[event_idx][0] <= at:
            _, name, fields = events[event_idx]
            if name.startswith("brownout:"):
                current_rung = int(fields.get("rung", current_rung))
                annotations.append(f"{name} -> {fields.get('to_rung')}")
            elif name.startswith("scale:"):
                annotations.append(f"{name} {fields.get('device')}")
            event_idx += 1
        suffix = f"   [{'; '.join(annotations)}]" if annotations else ""
        lines.append(
            f"  t={at:>10.0f} {flag} {latency:>9,.0f} "
            f"n={fleet.get(at, 0):>2.0f} r={current_rung} "
            f"|{bar:<{width}}|{suffix}"
        )
    remaining = events[event_idx:]
    if remaining:
        lines += ["", "-- instants after the last verdict --"]
        lines += [f"  t={at:>10.0f} {name} {fields}" for at, name, fields in remaining]
    violations = sum(1 for _, v in ok_points.items() if v < 1.0)
    lines += [
        "",
        f"{violations}/{len(points)} verdicts violated; "
        f"{tsdb.snapshot()['points']} points across "
        f"{tsdb.snapshot()['series']} series in the store",
    ]
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.perfscope",
        description="Run a traced serving scenario and inspect it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "report": "drift/health/breakdown operator report",
        "trace": "export a Chrome/Perfetto trace of the run",
        "metrics": "Prometheus-style text exposition",
        "explain": "causal latency attribution: slowest-K drill-down",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--policy",
            default="interface_predicted",
            help="pool routing policy (default: interface_predicted)",
        )
        p.add_argument(
            "--faults",
            default="storm",
            choices=("none", "storm", "dram"),
            help="fault environment (default: storm)",
        )
        p.add_argument("--requests", type=int, default=120)
        p.add_argument(
            "--gap", type=float, default=900.0, help="mean inter-arrival gap, cycles"
        )
        p.add_argument("--seed", type=int, default=7)
        if name == "trace":
            p.add_argument(
                "--out",
                default="perfscope.trace.json",
                help="output path for the trace_event JSON",
            )
        if name == "explain":
            p.add_argument(
                "--top",
                type=int,
                default=5,
                help="how many slowest requests to drill into (default: 5)",
            )
    heal = sub.add_parser(
        "heal",
        help="run the self-healing scenario and render its lifecycle report",
    )
    heal.add_argument("--requests", type=int, default=420)
    heal.add_argument(
        "--gap", type=float, default=900.0, help="mean inter-arrival gap, cycles"
    )
    heal.add_argument("--seed", type=int, default=7)
    heal.add_argument(
        "--slowdown",
        type=float,
        default=5.0,
        help="DRAM latency scale injected mid-serve (default: 5.0)",
    )
    heal.add_argument(
        "--mix",
        default="storage",
        help="RPC workload mix (default: storage — routes to protoacc)",
    )
    scale = sub.add_parser(
        "scale",
        help="run the autoscaling scenario and render the scaling story",
    )
    scale.add_argument("--requests", type=int, default=400)
    scale.add_argument("--seed", type=int, default=17)
    scale.add_argument(
        "--no-autoscale",
        action="store_true",
        help="fixed fleet: brownout ladder only, no membership changes",
    )
    timeline = sub.add_parser(
        "timeline",
        help="SLO timeline from the time-series store, events annotated",
    )
    timeline.add_argument("--requests", type=int, default=400)
    timeline.add_argument("--seed", type=int, default=17)
    timeline.add_argument(
        "--no-autoscale",
        action="store_true",
        help="fixed fleet: brownout ladder only, no membership changes",
    )
    args = parser.parse_args(argv)

    if args.command == "timeline":
        from repro.scale import run_scale_scenario

        obs = Obs.enabled(drift=False, tsdb=True)
        out = run_scale_scenario(
            count=args.requests,
            seed=args.seed,
            autoscale=not args.no_autoscale,
            obs=obs,
        )
        print(_timeline_report(obs, out))
        return 0 if out["verdict"].ok else 1

    if args.command == "scale":
        from repro.scale import run_scale_scenario

        out = run_scale_scenario(
            count=args.requests,
            seed=args.seed,
            autoscale=not args.no_autoscale,
        )
        print(_scale_report(out))
        return 0 if out["verdict"].ok else 1

    if args.command == "heal":
        from repro.heal import run_heal_scenario

        result = run_heal_scenario(
            requests=args.requests,
            gap=args.gap,
            seed=args.seed,
            slowdown=args.slowdown,
            mix=args.mix,
        )
        print(_heal_report(result))
        return 0

    obs, pool, result = run_scenario(
        policy=args.policy,
        faults=args.faults,
        requests=args.requests,
        gap=args.gap,
        seed=args.seed,
    )

    if args.command == "report":
        print(_report(obs, pool, result))
    elif args.command == "explain":
        print(_explain_report(obs, pool, result, top=args.top))
    elif args.command == "trace":
        path = obs.tracer.export_chrome_trace(args.out)
        document = json.loads(path.read_text())
        print(
            f"wrote {path} ({len(document['traceEvents'])} events, "
            f"categories: {', '.join(sorted(obs.tracer.categories()))})"
        )
    elif args.command == "metrics":
        print(obs.metrics.render_text(), end="")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
