"""One workload process of the benchmark.

Sets the workload up, runs rounds of its three cache regimes while the
CPU budget lasts, checks every pass's outcomes, and prints one JSON
result line.  ``run.py`` starts it with single-threaded BLAS/OpenMP
pools and a fixed hash seed; it is not meant to be run by hand.

Timing: ``setup_s`` is this process's main-thread CPU from its start to
its first timed call, less the CPU spent generating inputs; every other
figure is main-thread CPU of the timed calls only.  The process also
times a fixed calibration job after set-up and between passes (as many
times as make 3% of the pass before), and reports a ``speed`` for the
set-up (from the jobs right after it) and for each pass (from the jobs
around it): the job's nominal CPU over its median measured CPU.
Multiplying a CPU figure by its speed removes the machine's speed
changes between and within runs, which slow the job down with the
workload.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import golden
from workloads import CALIBRATION_NS, REGIMES, WORKLOADS, Meter, calibrate

MAX_MESSAGES = 8
#: Calibration CPU after a pass, as a share of the pass's CPU.
CALIBRATION_SHARE = 0.03


class Checker:
    """Counts failed operations: a pass that raised, or an outcome that
    differs from the reference (the golden file when the seed has one,
    else this process's first pass)."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def note(self, message: str) -> None:
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(f"{self.workload.name} seed {self.workload.seed}: {message}")

    def raised(self, regime: str, ops: int) -> None:
        self.attempted += ops
        self.failed += ops
        self.note(f"{regime} pass raised: " + traceback.format_exc(limit=4).strip())

    def check(self, label: str, outcomes: list, extra: dict, breaches: list[str]) -> None:
        ops = len(self.workload.items)
        self.attempted += ops
        if self.reference is None:
            self.reference = {"outcomes": outcomes, "extra": extra}
        bad = golden.mismatches(self.reference["outcomes"], outcomes)
        if extra != self.reference["extra"]:
            bad.append((-1, self.reference["extra"], extra))
        for i, want, got in bad[:2]:
            what = "extra" if i < 0 else f"op {i}"
            self.note(f"{label}: {what} expected {want!r}, got {got!r}")
        for breach in breaches[:2]:
            self.note(f"{label}: {breach}")
        self.failed += min(ops, len(bad) + len(breaches))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="run rounds while the timed CPU is below this many seconds")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--golden-dir", default=golden.DEFAULT_DIR)
    parser.add_argument("--trace", action="store_true",
                        help="one round with spans recorded; report per-layer metrics")
    parser.add_argument("--record", action="store_true",
                        help="write this seed's golden file from one round")
    args = parser.parse_args()

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.install()  # before the workload builds anything
    cls = WORKLOADS[args.workload]
    for module in cls.MODULES:
        importlib.import_module(module)
    src = os.path.dirname(os.path.abspath(sys.modules["repro"].__file__))
    if os.path.dirname(src) != os.path.abspath(os.environ["PERFBENCH_SRC"]):
        raise SystemExit(f"imported repro from {src}, not from the checkout")

    start = time.thread_time_ns()
    workload = cls(args.seed, args.scratch)
    inputs_ns = time.thread_time_ns() - start
    workload.setup()
    setup_s = (time.thread_time_ns() - inputs_ns) / 1e9

    gold = golden.load(args.golden_dir, workload) if not args.record else None
    checker = Checker(workload, gold)
    cpu_ns: dict[str, list[int]] = {regime: [] for regime in REGIMES}
    calibrations = [calibrate() for _ in range(3)]  # the jobs before the next pass
    setup_speed = CALIBRATION_NS / statistics.median(calibrations)
    speeds: dict[str, list[float]] = {regime: [] for regime in REGIMES}
    first = None
    measured = 0
    rounds = 0
    peak_rss_mb = None
    budget_ns = args.budget * 1e9
    completed = True
    while completed and measured < budget_ns and not (rounds and (args.trace or args.record)):
        completed = False  # a round whose every pass raises ends the process
        for regime in REGIMES:
            gc.collect()
            meter = Meter(recorder)
            if recorder is not None:
                recorder.begin(regime, workload.index())
            try:
                outcomes, extra, breaches = workload.run(regime, meter)
            except Exception:
                checker.raised(regime, len(workload.items))
                continue
            completed = True
            after = [calibrate()]
            while sum(after) < CALIBRATION_SHARE * meter.ns:
                after.append(calibrate())
            cpu_ns[regime].append(meter.ns)
            speeds[regime].append(CALIBRATION_NS / statistics.median(calibrations + after))
            calibrations = after
            measured += meter.ns
            if first is None:
                first = {"outcomes": outcomes, "extra": extra}
            checker.check(f"{regime} round {rounds + 1}", outcomes, extra, breaches)
        rounds += 1
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": setup_s * setup_speed,
        "peak_rss_mb": peak_rss_mb,
        "cpu_ns": cpu_ns,
        "speeds": speeds,
        "ops": len(workload.items),
        "rounds": rounds,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "messages": checker.messages,
        "golden": gold is not None,
        "first": first,
    }
    if args.record and first is not None and checker.failed == 0:
        golden.save(args.golden_dir, workload, first)
    if recorder is not None:
        totals = {regime: sum(ns) for regime, ns in cpu_ns.items()}
        speed = statistics.median(v for values in speeds.values() for v in values)
        result["layers"] = recorder.metrics(totals, len(workload.items), speed)
        recorder.write(
            os.path.join(args.scratch, f"spans-{workload.name}-{workload.seed}.jsonl.gz")
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
