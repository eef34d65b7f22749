"""Gather perfbench's work counters into one benchtrack result file.

    for w in serve_fixed serve_autoscaled sweep_jpeg tune_vta; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 1 --trace 1 \\
            | tail -n 1 > work/$w.json
    done
    python3 benchmarks/work_counters.py work       # writes work/BENCH_work.json
    python3 -m repro.tools.benchtrack check --results work \\
        --baselines benchmarks/baselines/work

A traced perfbench run reports, beside each layer's CPU time, how much
work the layer did per operation: calls into its entry points and the
layer's own counts and ratios.  Unlike the times, these repeat exactly
from run to run, so the baseline pins them with zero-width bands (bless
it with ``--tolerance 0``) and a change that makes any layer do more or
less work per operation fails as an exact diff.  CPU times (``*_us``)
and ``trace.overhead`` are left out.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: The last dotted component of every work metric a traced run reports.
WORK_METRICS = frozenset(
    {
        "calls",
        "tokens",
        "lookups",
        "hit_ratio",
        "items",
        "price_calls",
        "hedges",
        "attempts",
        "ok_ratio",
        "decisions",
    }
)


def work_metrics(run: dict) -> dict[str, float]:
    """The work counters of one traced run's JSON result, by name."""
    return {
        name: float(metric["value"])
        for name, metric in run["metrics"].items()
        if name.rsplit(".", 1)[-1] in WORK_METRICS
    }


def main(directory: str) -> int:
    out = Path(directory)
    metrics: dict[str, float] = {}
    runs = sorted(p for p in out.glob("*.json") if not p.name.startswith("BENCH_"))
    if not runs:
        print(f"no traced perfbench results under {out}", file=sys.stderr)
        return 1
    for path in runs:
        run = json.loads(path.read_text())
        if run.get("correct") is not True:
            print(f"{path.name}: the traced run did not match its golden", file=sys.stderr)
            return 1
        for name, value in work_metrics(run).items():
            metrics[f"{path.stem}.{name}"] = value
    target = out / "BENCH_work.json"
    target.write_text(
        json.dumps({"bench": "work", "metrics": metrics}, indent=2, sort_keys=True) + "\n"
    )
    print(f"{len(metrics)} work counters from {len(runs)} runs -> {target}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
