"""Host-CPU benchmark of the repository's serving, sweep and tuning paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it measures ``src/`` of that
checkout.  Workloads (see LAYERS.md for why each exists):
``serve_fixed``, ``serve_autoscaled``, ``sweep_jpeg``, ``tune_vta``.

``--trace 0`` starts five fresh workload processes one after another.
Each sets the workload up (timed as ``setup_s``) and then runs rounds
of the three cache regimes -- nocache, cold, warm -- until this run has
timed about ``S`` seconds of CPU in total, spread evenly over the
processes.  Reported: the median set-up time, the median peak RSS of
the processes that ran a round, and per regime the median
main-thread CPU per operation over all passes.  CPU figures are scaled
to a calibration job's nominal speed (see ``child.py``), which removes
most of a shared machine's run-to-run speed changes.

``--trace 1`` runs one untraced process and one traced process, a
round each, and reports per-layer metrics from the traced one (see
``tracing.py``) plus ``trace.overhead``, traced over untraced CPU.

Every pass's virtual-cycle outcomes are checked: against the golden
file when the seed has one, else against the first pass; a mismatch or
an exception counts failed operations.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from golden import mismatches
from workloads import REGIMES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
WORKLOAD_NAMES = sorted(WORKLOADS)
#: Fresh processes per measured run: each one is a set-up sample.
PROCESSES = 5
#: A run must finish within 180 s; leave room to report.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    """Single-threaded numeric pools (their helper threads would add
    variable set-up CPU), a fixed hash seed, the checkout's sources,
    and no REPRO_* overrides of the program's defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PERFBENCH_SRC=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
    )
    return env


def spawn(workload: str, seed: int, budget: float, extra=(), timeout=DEADLINE_S) -> dict:
    """Run one workload process to completion and return its result."""
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before starting a process")
    SCRATCH.mkdir(exist_ok=True)
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--budget", repr(budget),
        "--scratch", str(SCRATCH), *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=timeout, env=child_env(), cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: process timed out after {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload}: process failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def cpu_s(result: dict, scaled: bool = False) -> float:
    """Timed CPU of one process, optionally at calibration speed."""
    return sum(
        ns * (speed if scaled else 1.0)
        for regime, passes in result["cpu_ns"].items()
        for ns, speed in zip(passes, result["speeds"][regime], strict=True)
    ) / 1e9


def cross_check(results: list[dict]) -> tuple[int, list[str]]:
    """Failed operations where a process's first pass differs from the
    first process's (the runs are deterministic across processes)."""
    ran = [r for r in results if r["first"] is not None]
    failed, messages = 0, []
    for r in ran[1:]:
        bad = mismatches(ran[0]["first"]["outcomes"], r["first"]["outcomes"])
        if r["first"]["extra"] != ran[0]["first"]["extra"]:
            bad.append((-1, ran[0]["first"]["extra"], r["first"]["extra"]))
        failed += min(r["ops"], len(bad))
        messages += [f"processes disagree on op {i}: {w!r} vs {g!r}" for i, w, g in bad[:2]]
    return failed, messages


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list[dict]]:
    results: list[dict] = []
    measured = 0.0
    for i in range(PROCESSES):
        budget = seconds * (i + 1) / PROCESSES - measured
        results.append(spawn(workload, seed, budget, timeout=deadline - time.monotonic()))
        measured += cpu_s(results[-1])
    ran = [r for r in results if r["rounds"]]
    if not ran:
        raise BenchError(f"{workload}: no process completed a round")
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ran), "MB"),
    }
    for regime in REGIMES:
        per_op = [
            ns / 1e3 / r["ops"] * speed
            for r in results
            for ns, speed in zip(r["cpu_ns"][regime], r["speeds"][regime], strict=True)
        ]
        if not per_op:
            raise BenchError(f"{workload}: no {regime} pass completed")
        metrics[f"{regime}_us_per_op"] = (statistics.median(per_op), "us")
    return metrics, results


def trace(workload: str, seed: int, deadline: float) -> tuple[dict, list[dict]]:
    import tracing

    untraced = spawn(workload, seed, 1e-9, timeout=deadline - time.monotonic())
    traced = spawn(workload, seed, 1e-9, ["--trace"], timeout=deadline - time.monotonic())
    units = tracing.metric_units()
    overhead = cpu_s(traced, scaled=True) / cpu_s(untraced, scaled=True)
    metrics = {
        name: (overhead if name == "trace.overhead" else traced["layers"][name], unit)
        for name, unit in units.items()
    }
    return metrics, [untraced, traced]


def report(workload: str, seed: int, metrics: dict, results: list[dict]) -> dict:
    failed, messages = cross_check(results)
    failed += sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    for r in results:
        messages = r["messages"] + messages
    golden_note = "golden" if results[0]["golden"] else "no golden file; checked across passes"
    print(f"{workload} seed {seed}: {attempted} operations, {failed} failed ({golden_note})")
    for message in messages[:10]:
        print(f"  FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44} {value:14.4f} {unit}")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def prepare() -> None:
    """Fail unless this is a checkout with sources; compile them, so no
    process's set-up pays for bytecode compilation."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {ROOT / 'src' / 'repro'}")
    for directory in (ROOT / "src", HERE):
        if not compileall.compile_dir(str(directory), quiet=1):
            raise BenchError(f"could not compile {directory}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    try:
        prepare()
        if args.trace:
            metrics, results = trace(args.workload, args.seed, deadline)
        else:
            metrics, results = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        for leftover in SCRATCH.glob("*.jsonl"):
            leftover.unlink()
    print(json.dumps(report(args.workload, args.seed, metrics, results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
