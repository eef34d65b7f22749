"""Cache keys of the shipped interfaces: pinned, and computed once per miss.

The digests below were recorded when tokenizers still built ``Injection``
objects; the tokenizers now return plain tuples, and the same keys mean
that a persisted JSONL cache written before the change still hits.  Any
later change to the key format must show up here as an explicit diff.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.perf.cache as cache_module
import repro.perf.fingerprint as fingerprint_module
from repro.accel.bitcoin import interfaces as btc
from repro.accel.bitcoin.workload import MiningJob
from repro.accel.jpeg import interfaces as jpeg
from repro.accel.jpeg.workload import JpegImage, random_images
from repro.accel.optimusprime import interfaces as optimus
from repro.accel.protoacc import interfaces as protoacc
from repro.accel.protoacc.message import Field, FieldKind, Message
from repro.accel.vta import interfaces as vta
from repro.accel.vta.workload import GemmWorkload, Tiling, random_programs, tiled_gemm_program
from repro.autotune import Candidate, MemoizedProfiler, PetriProfiler
from repro.perf import EvalCache
from repro.petri import dsl

IMAGE = JpegImage(
    16,
    24,
    coded_bytes=np.array([5, 9, 17, 3, 40, 1], dtype=np.int64),
    nnz=np.array([10, 64, 1, 33, 57, 2], dtype=np.int64),
)
INNER = Message(
    fields=(Field(1, FieldKind.FIXED32, 7), Field(2, FieldKind.BYTES, b"abc" * 7)),
    schema_name="inner",
)
MESSAGE = Message(
    fields=(
        Field(1, FieldKind.VARINT, 150),
        Field(2, FieldKind.BYTES, b"x" * 40),
        Field(3, FieldKind.MESSAGE, INNER),
        Field(4, FieldKind.FIXED64, 2**40),
    ),
    schema_name="outer",
)
JOB = MiningJob(
    version=2,
    prev_hash=bytes(32),
    merkle_root=bytes(range(32)),
    timestamp=1_700_000_000,
    bits=0x1D00FFFF,
    target=2**240,
)
PROGRAM = tiled_gemm_program(GemmWorkload(2, 4, 2), Tiling(1, 2, 1))

#: name -> (interface factory, item, what to evaluate)
CASES = {
    "jpeg": (jpeg.petri_interface, IMAGE, "makespan"),
    "protoacc": (protoacc.petri_interface, MESSAGE, "makespan"),
    "optimusprime": (optimus.petri_interface, MESSAGE, "makespan"),
    "bitcoin": (lambda: btc.petri_interface(8), JOB, "makespan"),
    "vta": (vta.petri_interface, PROGRAM, "makespan"),
    "vta-stages": (vta.petri_interface, PROGRAM, "stages"),
}

#: SHA-256 of each item's canonical workload features.
WORKLOAD_KEYS = {
    "jpeg": "40cb5f47c13554f0c5482aab8bc6b50ac864f07ab296c754697773e87250efcd",
    "protoacc": "710ec93f2e255f2d95b277cc7720072f86a7297309f22fd25aa60dbc68704751",
    "optimusprime": "a5c009bec73b1030c84f082fc3a903af9ca17b2e58c24784e1cd7ed734cb04aa",
    "bitcoin": "b4a56fef8d91f9b11cb4e5bc137451c614e3552524da4ee96d89bbf0c3bb3924",
    "vta": "7c8b3551053897f38fd3540bccff764c6425d8cb295601e9660206d98f679a50",
    "vta-stages": "f5ea8d1e57b451789fb9d420cdf9e8f5c06b1feac3ad916267223fd145ab8b54",
}

#: The full store key, for the nets written as ``.pnet`` text: their
#: fingerprint is DSL source, the same on every Python version.  (The
#: VTA net's guards are Python closures, fingerprinted by bytecode.)
#: A DSL expression also keys on the DSL evaluator, the source of
#: ``repro/petri/dsl.py`` and the names it binds, so any edit of that
#: file moves the keys of the nets with expressions (all but bitcoin's,
#: whose delays are constants).
STORE_KEYS = {
    "jpeg": "7591491bba62cba2bff58b40e29389077772e8b9bf267665f03641809b04cd5d",
    "protoacc": "d9b06bd5ec24d12fd9016fc6fe5d253bbfead5363358c892710225d044edbb81",
    "optimusprime": "6efe7b84891eb4fcfbb5cf72d252614410bcb8dc4a906bdb91ff5ba557fe0f23",
    "bitcoin": "0d3608c0788b927ddfad743331c300b57248512beec2a08a96c7babdcd59723a",
}

#: SHA-256 of a tuning candidate's features, ``(GemmWorkload, Candidate)``
#: (227 canonical bytes of dataclasses, ints and a bool: the same on
#: every Python version), as a memoized tier keys it.
CANDIDATE_KEY = "6e024f35b1ac86fb802a7098219eee0f81533636ca5ea2866443f3943cc48926"


def evaluate(iface, item, what: str) -> None:
    if what == "makespan":
        iface.evaluate_batch([item])
    else:
        iface.predict_decomposition(item)


@pytest.fixture
def key_spies(monkeypatch):
    """Record every workload key and net fingerprint EvalCache derives."""
    calls: dict[str, list[str]] = {"workload_key": [], "net_fingerprint": []}
    for name, seen in calls.items():
        real = getattr(cache_module, name)

        def spy(value, real=real, seen=seen):
            seen.append(real(value))
            return seen[-1]

        monkeypatch.setattr(cache_module, name, spy)
    return calls


@pytest.fixture
def all_key_spies(key_spies, monkeypatch):
    """:func:`key_spies`, also recording the net fingerprints taken
    outside EvalCache: an interface fingerprints its net once, with
    :func:`repro.perf.fingerprint.net_fingerprint`, and keys under it."""
    seen = key_spies["net_fingerprint"]
    real = fingerprint_module.net_fingerprint

    def spy(net):
        seen.append(real(net))
        return seen[-1]

    monkeypatch.setattr(fingerprint_module, "net_fingerprint", spy)
    return key_spies


@pytest.mark.parametrize("name", sorted(CASES))
def test_cache_keys_are_pinned(name, key_spies):
    factory, item, what = CASES[name]
    iface = factory()
    iface.cache = EvalCache()
    evaluate(iface, item, what)
    assert set(key_spies["workload_key"]) == {WORKLOAD_KEYS[name]}
    assert len(iface.cache) == 1
    if name in STORE_KEYS:
        assert STORE_KEYS[name] in iface.cache


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_miss_is_keyed_once(name, all_key_spies):
    factory, item, what = CASES[name]
    iface = factory()
    iface.cache = EvalCache()
    evaluate(iface, item, what)
    assert len(all_key_spies["workload_key"]) == len(all_key_spies["net_fingerprint"]) == 1
    evaluate(iface, item, what)  # a hit derives its workload key once too
    assert len(all_key_spies["workload_key"]) == 2
    assert all_key_spies["net_fingerprint"] == [iface.namespace]  # once per interface
    assert (iface.cache.stats.misses, iface.cache.stats.hits) == (1, 1)


def test_a_cold_batch_computes_one_key_per_item(all_key_spies):
    images = random_images(seed=41, count=8, min_dim=16, max_dim=48)
    iface = jpeg.petri_interface()
    iface.cache = EvalCache()
    iface.evaluate_batch(images)
    assert len(all_key_spies["workload_key"]) == len(images)
    assert all_key_spies["net_fingerprint"] == [iface.namespace]  # once per interface
    assert len(iface.cache) == len(images)


def test_candidate_key_is_pinned(key_spies):
    memo = MemoizedProfiler(PetriProfiler())
    memo.profile_candidates(GemmWorkload(4, 4, 4), [Candidate(Tiling(2, 2, 2))])
    assert key_spies["workload_key"] == [CANDIDATE_KEY]


def test_a_dsl_binding_is_in_the_net_fingerprint(monkeypatch):
    """Every ``.pnet`` expression keys on the names the DSL binds: after
    rebinding one, the JPEG net fingerprints differently."""
    before = fingerprint_module.net_fingerprint(jpeg.petri_interface().net)
    assert fingerprint_module.net_fingerprint(jpeg.petri_interface().net) == before
    monkeypatch.setitem(dsl._SAFE_GLOBALS, "max", min)
    assert fingerprint_module.net_fingerprint(jpeg.petri_interface().net) != before


def test_a_cold_memoized_batch_computes_one_key_per_candidate(key_spies):
    programs = random_programs(seed=13, count=5, max_dim=8)
    memo = MemoizedProfiler(PetriProfiler())
    first = memo.profile_batch(programs)
    assert len(key_spies["workload_key"]) == len(programs)
    assert key_spies["net_fingerprint"] == []  # string namespace: no net to hash
    assert memo.profile_batch(programs) == first
    assert (memo.cache.stats.misses, memo.cache.stats.hits) == (5, 5)


def test_uncacheable_items_count_once_and_are_not_stored():
    from repro.core.petrinet import PetriNetInterface
    from repro.petri import parse

    class Opaque:
        pass

    def interface(tag):
        return PetriNetInterface(
            "tagged",
            net_factory=lambda: parse(optimus.OPTIMUS_PNET),
            tokenize=lambda n: [("in", {"fields": n, "size": 8, "tag": tag()}, 0.0)],
        )

    opaque = interface(Opaque)
    opaque.cache = EvalCache()
    assert opaque.evaluate_batch([1, 2, 3]) == interface(lambda: None).evaluate_batch([1, 2, 3])
    assert opaque.cache.stats.uncacheable == 3
    assert opaque.cache.stats.lookups == 0 and len(opaque.cache) == 0
    assert opaque.cache.last_key is None
