"""Self-check of the benchmark's own checking.

    python3 perfbench/selfcheck.py

For every workload, feeds a copy of its seed-0 golden file with one
operation's outcome doctored, and requires the workload process to
report failed operations in a message naming the workload.  Also
requires ``BENCHMARK.json`` to declare exactly the metrics the
benchmark prints.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import sys

import golden
import tracing
from run import ROOT, SCRATCH, WORKLOAD_NAMES, BenchError, prepare, spawn
from workloads import REGIMES

SEED = 0


def doctor(outcome):
    """The outcome with its first number moved by one cycle."""
    if isinstance(outcome, float):
        return outcome + 1.0
    doctored = list(outcome)
    for i, value in enumerate(doctored):
        if isinstance(value, float):
            doctored[i] = value + 1.0
            return doctored
    raise ValueError(f"no number to doctor in {outcome!r}")


def check_declared_metrics() -> list[str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    end_to_end = {"setup_s": "s", "peak_rss_mb": "MB"}
    end_to_end.update({f"{regime}_us_per_op": "us" for regime in REGIMES})
    problems = []
    for section, printed in (("end_to_end", end_to_end), ("per_layer", tracing.metric_units())):
        listed = {m["name"]: m["unit"] for m in declared[section]}
        if listed != printed:
            problems.append(
                f"BENCHMARK.json {section} differs from the printed metrics: "
                f"missing {sorted(set(printed) - set(listed))}, "
                f"extra {sorted(set(listed) - set(printed))}, "
                f"units {sorted(k for k, u in listed.items() if printed.get(k, u) != u)}"
            )
    return problems


def check_doctored(name: str) -> str | None:
    source = golden.path(golden.DEFAULT_DIR, name, SEED)
    with open(source) as fh:
        data = json.load(fh)
    data["outcomes"][0] = doctor(data["outcomes"][0])
    directory = SCRATCH / "doctored"
    target = golden.path(str(directory), name, SEED)
    (directory / name).mkdir(parents=True, exist_ok=True)
    with open(target, "w") as fh:
        json.dump(data, fh)
    result = spawn(name, SEED, 1e-9, ["--golden-dir", str(directory)])
    named = [m for m in result["messages"] if m.startswith(f"{name} seed {SEED}:")]
    print(f"{name}: doctored golden -> {result['failed']} failed of {result['attempted']}")
    for message in named[:1]:
        print(f"  {message}")
    if result["failed"] < 1 or not named:
        return f"{name}: a doctored golden file was not reported as failed operations"
    return None


def main() -> int:
    problems = check_declared_metrics()
    try:
        prepare()
        for name in WORKLOAD_NAMES:
            problem = check_doctored(name)
            if problem:
                problems.append(problem)
    except BenchError as exc:
        problems.append(str(exc))
    finally:
        shutil.rmtree(SCRATCH / "doctored", ignore_errors=True)
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}", file=sys.stderr)
    if not problems:
        print("self-check ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
