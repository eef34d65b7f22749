"""Span recorder for the traced run.

The benchmark times calls into each layer's public entry points by
replacing them, in the workload process only, with wrappers that record
a span (layer, entry point, regime, start, end, parent span, operation)
on the main-thread CPU clock.  The program itself is not edited.

A layer's self time is its spans' duration minus the part its child
spans cover; ``other`` is whatever the timed calls spent outside every
span, so the layers' self times plus ``other`` sum to the traced total.
Spans stay in memory and are written out when the process ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict

from workloads import REGIMES


def _hit_before(args):
    return args[0].stats.hits


def _decisions_before(args):
    return args[0].decisions


def _count(name, amount):
    def after(rec, args, result, dur, before):
        rec.counts[rec.regime, name] += amount(args, result)

    return after


def _cache_lookup(rec, args, result, dur, before):
    rec.counts[rec.regime, "perf.cache.lookups"] += 1
    rec.counts[rec.regime, "hits"] += args[0].stats.hits - before


def _device_attempts(rec, args, record, dur, before):
    rec.counts[rec.regime, "runtime.device.attempts"] += record.attempts
    rec.counts[rec.regime, "ok"] += record.path == "accel"


def _decisions(rec, args, result, dur, before):
    rec.counts[rec.regime, "scale.decisions"] += args[0].decisions - before


def _lowering(rec, args, result, dur, before):
    rec.counts[rec.regime, "lower_ns"] += dur


# Entry points per layer: (module, attribute, item argument position,
# before hook, after hook).  The item argument identifies the request,
# image or program a call serves, for the span's operation id.
LAYERS = {
    "runtime.serving": [("repro.runtime.serving", "OpenLoopServer.run", None, None, None)],
    "runtime.pool": [
        ("repro.runtime.pool", "DevicePool.dispatch", 1, None,
         _count("runtime.pool.hedges", lambda a, r: r.hedges)),
        ("repro.runtime.pool", "PooledDevice.price", 1, None,
         _count("runtime.pool.price_calls", lambda a, r: 1)),
        ("repro.runtime.pool", "PooledDevice.price_batch", None, None,
         _count("runtime.pool.price_calls", lambda a, r: len(a[1]))),
    ],
    "runtime.device": [
        ("repro.runtime.device", "ResilientDevice.offload", 1, None, _device_attempts),
    ],
    "accel.model": [
        ("repro.accel.protoacc.model", "ProtoaccSerializerModel.measure_latency", 1, None, None),
        ("repro.accel.optimusprime.model", "OptimusPrimeModel.measure_latency", 1, None, None),
        ("repro.accel.cpu.model", "CpuSerializerModel.measure_latency", 1, None, None),
    ],
    "accel.tokenize": [
        (module, name, 0, None, _count("accel.tokenize.tokens", lambda a, r: len(r)))
        for module, name in (
            ("repro.accel.protoacc.interfaces", "tokenize_message"),
            ("repro.accel.optimusprime.interfaces", "tokenize_message"),
            ("repro.accel.jpeg.interfaces", "tokenize_image"),
            ("repro.accel.vta.interfaces", "tokenize_program"),
        )
    ],
    "core.petrinet": [
        ("repro.core.petrinet", "PetriNetInterface.latency", 1, None, None),
        ("repro.core.petrinet", "PetriNetInterface.evaluate_batch", None, None, None),
        ("repro.core.petrinet", "PetriNetInterface.predict_decomposition", 1, None, None),
    ],
    "perf.cache": [
        ("repro.perf.cache", "EvalCache.get", None, _hit_before, _cache_lookup),
        ("repro.perf.cache", "EvalCache.get_or_compute", None, _hit_before, _cache_lookup),
        ("repro.perf.cache", "EvalCache.put", None, None, None),
    ],
    "perf.fingerprint": [
        ("repro.perf.cache", "net_fingerprint", None, None, None),
        ("repro.perf.cache", "workload_key", None, None, None),
    ],
    "perf.store": [
        ("repro.perf.store", "PersistentStore.load", None, None, None),
        ("repro.perf.store", "PersistentStore.append", None, None, None),
    ],
    "petri.engine": [
        ("repro.core.petrinet", "make_simulator", None, None, _lowering),
        ("repro.petri.simulate", "Simulator.run", None, None,
         _count("petri.engine.items", lambda a, r: 1)),
        ("repro.petri.compiled", "CompiledSimulator.run", None, None,
         _count("petri.engine.items", lambda a, r: 1)),
        ("repro.petri.batched", "BatchEvaluator.__init__", None, None, _lowering),
        ("repro.petri.batched", "BatchEvaluator.evaluate", None, None,
         _count("petri.engine.items", lambda a, r: len(r))),
    ],
    "scale": [
        ("repro.scale.controller", "ScaleController.tick", None, _decisions_before,
         _decisions),
        ("repro.scale.controller", "ScaleController.observe", None, None, None),
        ("repro.scale.controller", "ScaleController.observe_loss", None, None, None),
        ("repro.scale.controller", "ScaleController.admission_reason", 1, None, None),
    ],
    "obs": [
        ("repro.obs.metrics", "MetricsRegistry.counter", None, None, None),
        ("repro.obs.metrics", "MetricsRegistry.gauge", None, None, None),
        ("repro.obs.metrics", "MetricsRegistry.histogram", None, None, None),
        ("repro.obs.drift", "DriftObservatory.observe", None, None, None),
        ("repro.obs.tsdb", "TimeSeriesStore.record", None, None, None),
        ("repro.obs.tsdb", "TimeSeriesStore.maybe_pump", None, None, None),
        ("repro.obs.tsdb", "TimeSeriesStore.pump", None, None, None),
    ],
    "autotune": [
        ("repro.autotune.tuner", "exhaustive_tune", None, None, None),
        ("repro.autotune.profilers", "Profiler.profile_batch", None, None, None),
    ],
    "accel.vta": [
        ("repro.autotune.tuner", "Candidate.lower", None, None, None),
        ("repro.autotune.tuner", "legal_tilings", None, None, None),
    ],
}

#: Per-layer metrics beyond self time and calls: name -> unit.
EXTRAS = {
    "runtime.pool.price_calls": "count",
    "runtime.pool.hedges": "count",
    "runtime.device.attempts": "count",
    "runtime.device.ok_ratio": "ratio",
    "accel.tokenize.tokens": "count",
    "perf.cache.lookups": "count",
    "perf.cache.hit_ratio": "ratio",
    "petri.engine.items": "count",
    "petri.engine.lower_us": "us",
    "scale.decisions": "count",
}


def metric_units() -> dict[str, str]:
    """Every metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for regime in REGIMES:
        for layer in LAYERS:
            units[f"{regime}.{layer}.self_us"] = "us"
            units[f"{regime}.{layer}.calls"] = "count"
        units[f"{regime}.other.self_us"] = "us"
        units[f"{regime}.total_us"] = "us"
        for name, unit in EXTRAS.items():
            units[f"{regime}.{name}"] = unit
    units["trace.overhead"] = "ratio"
    return units


class Recorder:
    """Spans and per-(regime, layer) sums of the traced calls."""

    def __init__(self):
        self.active = False
        self.regime = ""
        self.index: dict[int, int] = {}
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, covered-by-children ns, op]
        self.self_ns: dict[tuple[str, str], int] = defaultdict(int)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)

    def begin(self, regime: str, index: dict[int, int]) -> None:
        """Attribute the following spans to ``regime``; ``index`` maps
        ``id()`` of an input item to its operation number."""
        self.regime = regime
        self.index = index

    def metrics(self, total_ns: dict[str, int], ops: int, speed: float) -> dict[str, float]:
        """Per-operation layer metrics of each regime; CPU figures are
        scaled by the process's calibration ``speed``."""
        us = speed / 1e3 / ops  # ns of the whole pass -> scaled us per op
        out: dict[str, float] = {}
        for regime in REGIMES:
            covered = 0
            for layer in LAYERS:
                ns = self.self_ns[regime, layer]
                covered += ns
                out[f"{regime}.{layer}.self_us"] = ns * us
                out[f"{regime}.{layer}.calls"] = self.calls[regime, layer] / ops
            out[f"{regime}.other.self_us"] = (total_ns[regime] - covered) * us
            out[f"{regime}.total_us"] = total_ns[regime] * us
            counts = {name: self.counts[regime, name] for name in EXTRAS}
            lookups = counts["perf.cache.lookups"]
            attempts = counts["runtime.device.attempts"]
            hits, ok = self.counts[regime, "hits"], self.counts[regime, "ok"]
            counts["perf.cache.hit_ratio"] = hits / lookups if lookups else 0.0
            counts["runtime.device.ok_ratio"] = ok / attempts if attempts else 0.0
            counts["petri.engine.lower_us"] = self.counts[regime, "lower_ns"] * speed / 1e3
            for name, value in counts.items():
                out[f"{regime}.{name}"] = value if name.endswith("_ratio") else value / ops
        return out

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines: ``[id, layer, entry point,
        regime, start ns, end ns, parent id, operation]``."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrapper(rec: Recorder, layer: str, name: str, fn, item_arg, before, after):
    clock = time.thread_time_ns

    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        stack = rec.stack
        parent = stack[-1] if stack else None
        op = parent[2] if parent is not None else -1
        if item_arg is not None and len(args) > item_arg:
            op = rec.index.get(id(args[item_arg]), op)
        frame = [len(rec.spans), 0, op]
        rec.spans.append(None)  # reserve the id; filled in on return
        state = before(args) if before is not None else None
        stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            rec.self_ns[rec.regime, layer] += duration - frame[1]
            rec.calls[rec.regime, layer] += 1
            if parent is not None:
                parent[1] += duration
            rec.spans[frame[0]] = (
                frame[0], layer, name, rec.regime, start, end,
                parent[0] if parent is not None else -1, op,
            )
        if after is not None:
            after(rec, args, result, duration, state)
        return result

    return traced


def install() -> Recorder:
    """Wrap every entry point in :data:`LAYERS`; returns the recorder,
    inactive until a :class:`workloads.Meter` switches it on."""
    rec = Recorder()
    for layer, targets in LAYERS.items():
        for module_name, attr, item_arg, before, after in targets:
            owner = importlib.import_module(module_name)
            cls_name, _, attr_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
                fn = owner.__dict__[attr_name]
            else:
                fn = getattr(owner, attr_name)
            setattr(owner, attr_name, _wrapper(rec, layer, attr, fn, item_arg, before, after))
    return rec
