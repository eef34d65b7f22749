"""A Petri-net interface keys its cache on the net it took a snapshot of.

First use takes the net's lowering and, once a cache needs it, the net's
fingerprint; both are kept for the interface's life, so the answers an
interface stores always belong to the key they are stored under.
"""

from __future__ import annotations

import pytest

import repro.perf.cache as cache_module
import repro.perf.fingerprint as fingerprint_module
from repro.accel.jpeg import interfaces as jpeg
from repro.accel.jpeg.workload import random_images
from repro.core.petrinet import PetriNetInterface
from repro.perf import EvalCache
from repro.petri import PetriNet


def one_transition_net(delay: float) -> PetriNet:
    net = PetriNet("one")
    net.add_place("in")
    net.add_place("out")
    net.add_transition("t", inputs=["in"], outputs=["out"], delay=delay)
    return net


def interface(delay: float, cache: EvalCache | None = None) -> PetriNetInterface[int]:
    """Item ``n`` is ``n`` tokens at time 0: its latency is ``n * delay``."""
    return PetriNetInterface(
        "one",
        net_factory=lambda: one_transition_net(delay),
        tokenize=lambda n: [("in", None, 0.0)] * n,
        cache=cache,
    )


@pytest.fixture
def fingerprints(monkeypatch):
    """Every net fingerprint taken, through EvalCache or directly."""
    seen: list[str] = []
    real = fingerprint_module.net_fingerprint

    def spy(net):
        seen.append(real(net))
        return seen[-1]

    monkeypatch.setattr(fingerprint_module, "net_fingerprint", spy)
    monkeypatch.setattr(cache_module, "net_fingerprint", spy)
    return seen


@pytest.mark.parametrize("tier", ["memory", "persistent"])
def test_a_mutated_net_cannot_poison_the_cache(tier, tmp_path):
    path = tmp_path / "cache.jsonl"

    def cache() -> EvalCache:
        return EvalCache(path) if tier == "persistent" else shared

    shared = EvalCache()
    iface = interface(10.0, cache())
    assert iface.latency(1) == 10.0  # first use: the delay-10 snapshot
    iface.net.transitions["t"].delay = 50.0
    # Unsupported after first use: the interface still answers for the
    # net it took a snapshot of, and keys those answers under that net.
    assert iface.latency(2) == 20.0
    fresh = interface(50.0, cache())
    assert fresh.latency(2) == 100.0
    assert fresh.namespace != iface.namespace


def test_mutating_before_first_use_is_seen():
    iface = interface(10.0, EvalCache())
    iface.net.transitions["t"].delay = 50.0
    assert iface.latency(2) == 100.0
    assert iface.namespace == interface(50.0).namespace


def test_an_interface_fingerprints_its_net_once(fingerprints):
    images = random_images(seed=41, count=6, min_dim=16, max_dim=48)
    iface = jpeg.petri_interface()
    iface.evaluate_batch(images)
    iface.predict_decomposition(images[0])
    assert fingerprints == []  # neither at construction nor without a cache
    iface.cache = EvalCache()
    iface.evaluate_batch(images)
    iface.evaluate_batch(images)
    iface.latency(images[0])
    iface.predict_decomposition(images[1])
    iface.predict_decomposition(images[1])
    assert fingerprints == [iface.namespace]
    assert iface.cache.stats.lookups == 2 * len(images) + 3
