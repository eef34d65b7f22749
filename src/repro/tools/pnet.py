"""``python -m repro.tools.pnet`` — the performance-IR toolchain CLI.

The paper's vision has vendors *shipping* Petri-net interfaces; users
then need tooling to inspect and run what they received.  Subcommands:

* ``validate FILE`` — parse and statically analyze a ``.pnet`` document
  (structure report, warnings, cycles).
* ``lint FILE`` — run the perf-lint rules (see :mod:`repro.lint`) and
  print compiler-style diagnostics with line numbers; exits nonzero on
  error-severity findings.
* ``verify [TARGET...]`` — run the static performance-contract verifier
  (:mod:`repro.lint.verify`): symbolic latency bounds, corner-point
  concretization against the compiled engine, and monotonicity
  certificates.  Targets are shipped accelerator names or ``.pnet``
  paths (a ``path.contract.json`` sidecar is picked up automatically);
  with no targets, every shipped bundle is verified.
* ``dot FILE`` — emit Graphviz DOT for rendering.
* ``simulate FILE --items N [--payload JSON] [--gap G] [--batch FILE]``
  (alias: ``run``) — inject a workload into the compiled engine and
  report latency/throughput statistics.  ``--batch FILE.jsonl``
  evaluates one workload item per line (each line a JSON features
  dict used as that item's token payload) in a single pass of the
  batch engines (see ``docs/performance.md``).

Examples::

    python -m repro.tools.pnet validate iface.pnet
    python -m repro.tools.pnet lint iface.pnet --json
    python -m repro.tools.pnet dot iface.pnet > iface.dot
    python -m repro.tools.pnet simulate iface.pnet --items 100 \
        --payload '{"bytes": 32, "nnz": 10, "i": 0, "wr": true}'
    python -m repro.tools.pnet run iface.pnet --items 20 --gap 2 \
        --batch sweep.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.hw.stats import Summary
from repro.petri import (
    BatchEvaluator,
    DslError,
    analyze_structure,
    find_cycles,
    make_simulator,
    parse,
    to_dot,
)


def _load(path: str):
    text = Path(path).read_text()
    return parse(text)


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        net = _load(args.file)
    except DslError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    report = analyze_structure(net)
    print(f"net {net.name!r}: {report.summary()}")
    cycles = find_cycles(net)
    if cycles:
        print(f"cycles ({len(cycles)}):")
        for cyc in cycles:
            print("  " + " -> ".join(cyc))
    hard = [w for w in report.warnings if "sink" not in w]
    return 1 if hard else 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import Severity, lint_pnet_text

    text = Path(args.file).read_text()
    extra: dict[str, frozenset[str] | None] = {}
    for decl in args.inject or []:
        place, _, fields = decl.partition(":")
        extra[place] = frozenset(fields.split(",")) if fields else None
    report = lint_pnet_text(text, filename=args.file, extra_injections=extra)
    if args.json:
        print(json.dumps([d.to_json() for d in report.sorted()], indent=2))
    else:
        min_sev = Severity.from_label(args.min_severity)
        rendered = report.render(min_severity=min_sev)
        if rendered:
            print(rendered)
        print(report.summary())
    return report.exit_code


def cmd_dot(args: argparse.Namespace) -> int:
    print(to_dot(_load(args.file)))
    return 0


def _verify_jobs(targets: list[str]):
    """Resolve ``pnet verify`` targets into (name, bundle) pairs.

    A target is either a shipped accelerator package name (``protoacc``)
    or a ``.pnet`` path; paths pick up a ``.contract.json`` sidecar
    automatically when one sits next to the document."""
    from repro.lint import InterfaceBundle, load_contract, sidecar_path
    from repro.tools.perflint import discover_bundles

    if not targets:
        yield from discover_bundles()
        return
    shipped = None
    for target in targets:
        path = Path(target)
        if target.endswith(".pnet") or path.exists():
            contract = None
            side = Path(sidecar_path(str(path)))
            if side.exists():
                contract = load_contract(str(side))
            yield (
                path.stem,
                InterfaceBundle(
                    accelerator=path.stem,
                    pnet_text=path.read_text(),
                    pnet_file=str(path),
                    entry=contract.entry if contract is not None else "in",
                    sink=contract.sink if contract is not None else "out",
                    feature_domains=(
                        dict(contract.domains) if contract is not None else {}
                    ),
                    declared_monotone={
                        c.feature: (+1 if c.direction == "non-decreasing" else -1)
                        for c in (
                            contract.monotone if contract is not None else ()
                        )
                        if c.direction in ("non-decreasing", "non-increasing")
                    },
                    contract=contract,
                ),
            )
        else:
            if shipped is None:
                shipped = dict(discover_bundles())
            if target not in shipped:
                known = ", ".join(sorted(shipped))
                raise SystemExit(
                    f"error: unknown verify target {target!r} "
                    f"(shipped bundles: {known}; or pass a .pnet path)"
                )
            yield target, shipped[target]


def _verify_summary(verification) -> dict:
    """The machine-readable half of one bundle's verification."""
    contract = verification.contract
    out: dict = {
        "corners": {
            "checked": len(verification.corners),
            "passed": sum(c.ok for c in verification.corners),
        },
    }
    if contract is not None:
        out["contract"] = contract.to_json()
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.lint import verify_bundle

    worst = 0
    results = []
    for name, bundle in _verify_jobs(args.target):
        report, verification = verify_bundle(bundle, epsilon=args.epsilon)
        worst = max(worst, report.exit_code)
        if args.json:
            results.append(
                {
                    "target": name,
                    "exit_code": report.exit_code,
                    "diagnostics": [d.to_json() for d in report.sorted()],
                    **_verify_summary(verification),
                }
            )
            continue
        contract = verification.contract
        print(f"== {name} ==")
        rendered = report.render()
        if rendered:
            print(rendered)
        if contract is not None and contract.evaluability != "opaque":
            print(
                f"bounds: [{contract.min_latency:g}, {contract.max_latency:g}] "
                f"cycles ({contract.evaluability})"
            )
            if contract.min_expr:
                print(f"  min: {contract.min_expr}")
            if contract.max_expr:
                print(f"  max: {contract.max_expr}")
        checked = len(verification.corners)
        if checked:
            passed = sum(c.ok for c in verification.corners)
            print(f"corner concretization: {passed}/{checked} passed")
        proven = [
            m for m in (contract.monotone if contract is not None else ()) if m.proven
        ]
        for m in proven:
            slope = f" (slope <= {m.slope:g})" if m.slope is not None else ""
            print(f"proven: {m.feature} {m.direction}{slope} [{m.proof}]")
        print(report.summary())
    if args.json:
        print(json.dumps(results, indent=2))
    return worst


def _read_batch_file(path: str) -> list | None:
    """One JSON features-dict per line -> one workload item per line."""
    payloads = []
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        print(f"error: cannot read batch file: {exc}", file=sys.stderr)
        return None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            payloads.append(json.loads(line))
        except ValueError as exc:
            print(f"error: {path}:{lineno}: invalid JSON ({exc})", file=sys.stderr)
            return None
    if not payloads:
        print(f"error: batch file {path} has no items", file=sys.stderr)
        return None
    return payloads


def cmd_batched(args: argparse.Namespace, net, payloads: list) -> int:
    """Evaluate a matrix of workload items in one batch pass."""
    items = [
        [(args.entry, payload, k * args.gap) for k in range(args.items)]
        for payload in payloads
    ]
    evaluator = BatchEvaluator(net, (args.sink,))
    start = time.perf_counter()
    try:
        results = evaluator.evaluate(items)
    except Exception as exc:  # engine errors carry the offending detail
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start
    deadlocked = sum(r.deadlocked for r in results)
    print(f"items: {len(results)} x {args.items} tokens")
    print(
        f"batch engine: {evaluator.engine} "
        f"(codegen={evaluator.items_codegen}, "
        f"columnar={evaluator.items_columnar})"
    )
    print(f"makespan (cycles): {Summary.of([r.makespan for r in results])}")
    rate = len(results) / elapsed if elapsed > 0 else float("inf")
    print(f"wall: {elapsed * 1e3:.1f} ms ({rate:,.0f} items/sec)")
    if deadlocked:
        print(f"DEADLOCK in {deadlocked}/{len(results)} items", file=sys.stderr)
        return 1
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    net = _load(args.file)
    payload = json.loads(args.payload) if args.payload else None
    if args.entry not in net.places:
        print(f"error: entry place {args.entry!r} not in net", file=sys.stderr)
        return 1
    if args.sink not in net.places:
        print(f"error: sink place {args.sink!r} not in net", file=sys.stderr)
        return 1
    if args.batch is not None:
        payloads = _read_batch_file(args.batch)
        if payloads is None:
            return 1
        return cmd_batched(args, net, payloads)
    sim = make_simulator(net, sinks=(args.sink,))
    sim.inject_stream(args.entry, [payload] * args.items, gap=args.gap)
    result = sim.run()
    if result.deadlocked:
        print(
            f"DEADLOCK after {len(result.sink())} completions; "
            f"marking: {net.marking()}",
            file=sys.stderr,
        )
        return 1
    if not result.sink():
        print("no completions (empty workload?)", file=sys.stderr)
        return 1
    lat = Summary.of(result.latencies())
    print(f"completions: {len(result.sink())}")
    print(f"latency (cycles): {lat}")
    print(f"makespan: {result.makespan():.1f}")
    print(f"throughput: {result.throughput():.6f} items/cycle")
    print("firings: " + ", ".join(f"{k}={v}" for k, v in sorted(result.fired.items())))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.pnet",
        description="Inspect and run .pnet performance interfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="parse + static analysis")
    p_val.add_argument("file")
    p_val.set_defaults(fn=cmd_validate)

    p_lint = sub.add_parser("lint", help="run perf-lint rules")
    p_lint.add_argument("file")
    p_lint.add_argument(
        "--json", action="store_true", help="emit diagnostics as JSON"
    )
    p_lint.add_argument(
        "--min-severity",
        default="info",
        choices=["info", "warning", "error"],
        help="hide findings below this severity (exit code still gates "
        "on errors only)",
    )
    p_lint.add_argument(
        "--inject",
        action="append",
        metavar="PLACE[:f1,f2]",
        help="declare an injection point (repeatable); overrides/extends "
        "the document's own inject clauses",
    )
    p_lint.set_defaults(fn=cmd_lint)

    p_dot = sub.add_parser("dot", help="emit Graphviz DOT")
    p_dot.add_argument("file")
    p_dot.set_defaults(fn=cmd_dot)

    p_verify = sub.add_parser(
        "verify",
        help="prove latency bounds + monotonicity contracts "
        "(all shipped bundles when no target is given)",
    )
    p_verify.add_argument(
        "target",
        nargs="*",
        help="accelerator package name (e.g. protoacc) or .pnet path "
        "(picks up a .contract.json sidecar); default: every shipped bundle",
    )
    p_verify.add_argument(
        "--json", action="store_true", help="emit results as JSON"
    )
    p_verify.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="relative tolerance for corner-point concretization "
        "(default: the contract's own epsilon, else 0.02)",
    )
    p_verify.set_defaults(fn=cmd_verify)

    # "run" is an alias for "simulate" (matches the docs' `pnet run`).
    for cmd in ("simulate", "run"):
        p_sim = sub.add_parser(cmd, help="run a workload through the net")
        p_sim.add_argument("file")
        p_sim.add_argument("--items", type=int, default=10, help="tokens to inject")
        p_sim.add_argument(
            "--payload", help="JSON payload for each token (delay exprs read it)"
        )
        p_sim.add_argument("--gap", type=float, default=0.0, help="inter-arrival gap")
        p_sim.add_argument("--entry", default="in", help="injection place")
        p_sim.add_argument("--sink", default="out", help="completion place")
        p_sim.add_argument(
            "--batch",
            metavar="FILE.jsonl",
            help="evaluate one workload item per line of FILE (each line "
            "a JSON features dict used as that item's token payload) in "
            "a single batch pass",
        )
        p_sim.set_defaults(fn=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
