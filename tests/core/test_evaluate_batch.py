"""``evaluate_batch`` through the interface stack.

Numeric parity of the batch engines themselves is proven in
``tests/petri/test_batched.py``; these tests pin down the *interface*
contract: identical latencies to the per-item path, cache interplay
(including the persistent warm-start acceptance criterion), fallbacks,
and the consumers that ride the batched path (validation, sweeps,
profilers, pool pricing).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.accel.jpeg import interfaces as jpeg
from repro.accel.jpeg.workload import random_images
from repro.core.interface import PerformanceInterface
from repro.perf import EvalCache

IMAGES = random_images(seed=41, count=8, min_dim=16, max_dim=48)


def test_default_evaluate_batch_is_the_latency_loop():
    class Fixed(PerformanceInterface[int]):
        accelerator = "fixed"

        def latency(self, item: int) -> float:
            return 2.0 * item

    iface = Fixed()
    assert iface.evaluate_batch([1, 2, 3]) == [2.0, 4.0, 6.0]


def test_petri_interface_batch_matches_per_item_latency():
    batched = jpeg.petri_interface().evaluate_batch(IMAGES)
    per_item = [jpeg.petri_interface().latency(img) for img in IMAGES]
    assert batched == per_item  # bit-identical, not approx


def test_batch_takes_the_batch_engine_exactly_once():
    iface = jpeg.petri_interface()
    assert iface.batch_evaluator is None  # lazy: nothing built yet
    iface.evaluate_batch(IMAGES)
    ev = iface.batch_evaluator
    assert ev is not None and ev.engine == "codegen"
    assert ev.items_codegen == len(IMAGES)


def test_tracer_falls_back_to_per_item():
    from repro.obs import Tracer

    iface = jpeg.petri_interface()
    iface.tracer = Tracer()
    traced = iface.evaluate_batch(IMAGES[:3])
    assert iface.batch_evaluator is None
    assert len(iface.tracer.spans()) > 0  # the trace shows the work
    assert traced == jpeg.petri_interface().evaluate_batch(IMAGES[:3])


def test_disabled_tracer_keeps_the_batch_engine():
    from repro.obs import Tracer

    iface = jpeg.petri_interface()
    iface.tracer = Tracer(enabled=False)
    got = iface.evaluate_batch(IMAGES)
    assert iface.batch_evaluator.items_codegen == len(IMAGES)
    assert iface.tracer.spans() == []
    assert got == jpeg.petri_interface().evaluate_batch(IMAGES)


# ----------------------------------------------------------------------
# One evaluation path: latency() is a batch of one
# ----------------------------------------------------------------------


def _shipped_interfaces():
    """(factory, item) for every shipped Petri interface."""
    from repro.accel.bitcoin import interfaces as btc
    from repro.accel.bitcoin.workload import random_jobs
    from repro.accel.optimusprime import interfaces as optimus
    from repro.accel.protoacc import interfaces as protoacc
    from repro.accel.vta import interfaces as vta
    from repro.accel.vta.workload import random_programs
    from repro.workloads import ENTERPRISE_MIX

    msg = ENTERPRISE_MIX.sample(seed=8, count=1)[0]
    return {
        "jpeg": (jpeg.petri_interface, IMAGES[1]),
        "vta": (vta.petri_interface, random_programs(seed=13, count=1, max_dim=8)[0]),
        "bitcoin": (lambda: btc.petri_interface(8), random_jobs(seed=3, count=1)[0]),
        "protoacc": (protoacc.petri_interface, msg),
        "optimusprime": (optimus.petri_interface, msg),
    }


@pytest.mark.parametrize("mode", ["uncached", "cached", "traced"])
@pytest.mark.parametrize("name", ["jpeg", "vta", "bitcoin", "protoacc", "optimusprime"])
def test_latency_and_batch_agree_with_the_reference_engine(name, mode):
    from repro.obs import Tracer
    from repro.petri import Simulator

    factory, item = _shipped_interfaces()[name]
    ref = factory()
    sim = Simulator(ref.net, sinks=[ref.sink])
    for place, payload, at in ref.tokenize(item):
        sim.inject(place, payload, at=at)
    want = sim.run().makespan() + ref.epilogue

    iface = factory()
    if mode == "cached":
        iface.cache = EvalCache()
    if mode == "traced":
        iface.tracer = Tracer()
    got = [iface.latency(item), iface.evaluate_batch([item])[0], iface.latency(item)]
    assert got == [want] * 3  # bit-identical, not approx
    if mode == "cached":
        assert (iface.cache.stats.misses, iface.cache.stats.hits) == (1, 2)
    if mode == "traced":
        assert iface.batch_evaluator is None and len(iface.tracer.spans()) > 0


@pytest.mark.parametrize("name", ["jpeg", "vta", "bitcoin", "protoacc", "optimusprime"])
def test_columnar_engine_agrees_on_every_shipped_interface(name):
    """The columnar engine, forced, prices every shipped interface
    exactly as latency() does, whichever engine latency() picked."""
    from repro.petri import BatchEvaluator

    factory, item = _shipped_interfaces()[name]
    iface = factory()
    injections = [(place, payload, at) for place, payload, at in iface.tokenize(item)]
    evaluator = BatchEvaluator(iface.net, (iface.sink,), engine="columnar")
    [makespan] = evaluator.evaluate_makespans([injections])
    assert evaluator.items_columnar == 1
    assert makespan + iface.epilogue == factory().latency(item)  # bit-identical


def test_latency_hits_the_entries_evaluate_batch_stored():
    iface = jpeg.petri_interface()
    iface.cache = EvalCache()
    iface.evaluate_batch(IMAGES)
    hits = iface.cache.stats.hits
    iface.latency(IMAGES[0])
    assert iface.cache.stats.hits == hits + 1
    assert len(iface.cache) == len(IMAGES)  # one entry per item


def test_latency_spills_one_float(tmp_path: Path):
    iface = jpeg.petri_interface()
    iface.cache = EvalCache(tmp_path / "evals.jsonl")
    iface.latency(IMAGES[0])
    assert iface.cache.stats.spills == 1
    assert iface.cache.stats.unspillable == 0


def test_an_interface_lowers_its_net_once(monkeypatch):
    """latency(), traced runs and predict_decomposition share one
    CompiledNet."""
    from repro.obs import Tracer
    from repro.petri import CompiledNet

    lowered = []
    lower = CompiledNet.__init__

    def counting(self, net):
        lowered.append(net.name)
        lower(self, net)

    monkeypatch.setattr(CompiledNet, "__init__", counting)
    iface = jpeg.petri_interface()
    for k in range(10):
        iface.latency(IMAGES[k % len(IMAGES)])
    iface.predict_decomposition(IMAGES[0])
    iface.tracer = Tracer()
    iface.latency(IMAGES[2])
    assert len(lowered) == 1


def test_cache_hits_skip_the_engine_entirely():
    iface = jpeg.petri_interface()
    iface.cache = EvalCache()
    first = iface.evaluate_batch(IMAGES)
    ev = iface.batch_evaluator
    engine_items = ev.items_codegen + ev.items_columnar
    second = iface.evaluate_batch(IMAGES)
    assert first == second
    assert iface.cache.stats.hits == len(IMAGES)
    assert ev.items_codegen + ev.items_columnar == engine_items  # no new work


def test_validate_interface_rides_the_batched_path():
    from repro.accel.jpeg.model import JpegDecoderModel
    from repro.core.validation import validate_interface

    report = validate_interface(
        jpeg.petri_interface(), JpegDecoderModel(), IMAGES[:4], check_throughput=False
    )
    # Same numbers the per-item path would report (the model IS the net's
    # ground truth here, so the errors are small but non-trivial).
    assert report.latency is not None and report.latency.count == 4


_SWEEP = """
import json
import sys
sys.path.insert(0, {src!r})
from repro.accel.jpeg import interfaces as jpeg
from repro.accel.jpeg.workload import random_images
from repro.perf import EvalCache

iface = jpeg.petri_interface()
iface.cache = EvalCache({path!r})
images = random_images(seed=41, count=8, min_dim=16, max_dim=48)
out = iface.evaluate_batch(images)
ev = iface.batch_evaluator
print(json.dumps({{
    "latencies": out,
    "hits": iface.cache.stats.hits,
    "misses": iface.cache.stats.misses,
    "spills": iface.cache.stats.spills,
    "engine_items": 0 if ev is None else ev.items_codegen + ev.items_columnar,
}}))
"""


def test_cross_process_warm_start_runs_zero_engine_items(tmp_path: Path):
    """Acceptance criterion: a second process sharing the persistent
    EvalCache answers the same sweep entirely from disk — zero engine
    invocations, identical latencies."""
    path = str(tmp_path / "evals.jsonl")
    src = str(Path("src").resolve())

    def run():
        proc = subprocess.run(
            [sys.executable, "-c", _SWEEP.format(src=src, path=path)],
            capture_output=True,
            text=True,
            check=True,
        )
        return json.loads(proc.stdout)

    cold = run()
    warm = run()
    assert cold["misses"] == 8 and cold["spills"] == 8 and cold["engine_items"] == 8
    assert warm["hits"] == 8 and warm["misses"] == 0
    assert warm["engine_items"] == 0  # never touched an engine
    assert warm["latencies"] == cold["latencies"]


# ----------------------------------------------------------------------
# Downstream consumers
# ----------------------------------------------------------------------


def test_petri_profiler_batch_equals_sequential():
    from repro.accel.vta.workload import random_programs
    from repro.autotune.profilers import PetriProfiler

    programs = random_programs(seed=13, count=5, max_dim=8)
    a = PetriProfiler()
    batch = a.profile_batch(programs)
    b = PetriProfiler()
    seq = [b.profile(p) for p in programs]
    assert batch == seq
    assert a.queries == len(programs) and a.wall_seconds > 0


def test_memoized_profiler_batches_only_the_misses():
    from repro.accel.vta.workload import random_programs
    from repro.autotune.profilers import MemoizedProfiler, PetriProfiler

    programs = random_programs(seed=13, count=5, max_dim=8)
    prof = MemoizedProfiler(PetriProfiler())
    first = prof.profile_batch(programs)
    again = prof.profile_batch(programs + programs[:2])
    assert again == first + first[:2]
    assert prof.cache.stats.misses == 5
    assert prof.cache.stats.hits == 7


def test_pool_price_matrix_matches_per_request_pricing():
    from repro.accel.protoacc import formats
    from repro.runtime.pool import rpc_pool

    pool = rpc_pool()
    requests = list(formats.instances(seed=3).values())[:5]
    matrix = pool.price_matrix(requests, now=0.0)
    devices = pool.available_devices(0.0)
    assert set(matrix) == {d.name for d in devices}
    for device in devices:
        assert matrix[device.name] == [device.price(req, 0.0) for req in requests]
