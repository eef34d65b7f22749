"""§5 extension: interface accuracy with and without the TLB component.

The paper's open question: "since co-processors like Protoacc access
memory via the TLB, the Petri net model would need to include the TLB
state to be able to reason precisely about memory access latencies",
with the proposed fix of modeling such components once and composing.
These tests pin the demonstration: the plain Fig. 3 interface collapses
on a TLB-mediated deployment, and composing it with the TLB component
interface restores useful accuracy.
"""

import pytest

from repro.accel.protoacc import (
    ProtoaccSerializerModel,
    instances,
    tput_protoacc_ser,
)
from repro.accel.protoacc.interfaces import (
    accesses_per_message,
    read_cost_with_tlb,
    tlb_translation_cost,
    tput_protoacc_ser_tlb,
)
from repro.hw.stats import ErrorReport
from repro.hw.tlb import Tlb, TlbConfig


@pytest.fixture(scope="module")
def tlb_world():
    model = ProtoaccSerializerModel(tlb_config=TlbConfig())
    msgs = list(instances(seed=3).values())
    actual = [model.measure_throughput(m, repeat=8) for m in msgs]
    return model, msgs, actual


def test_plain_interface_collapses_under_tlb(tlb_world):
    _, msgs, actual = tlb_world
    naive = ErrorReport.of([tput_protoacc_ser(m) for m in msgs], actual)
    assert naive.avg > 0.5  # catastrophically wrong, as §5 warns


def test_composed_interface_recovers(tlb_world):
    _, msgs, actual = tlb_world
    composed = ErrorReport.of(
        [tput_protoacc_ser_tlb(m, miss_ratio=0.85) for m in msgs], actual
    )
    assert composed.avg < 0.10
    assert composed.max < 0.20


def test_miss_ratio_parameter_validated():
    msg = list(instances(seed=1).values())[0]
    with pytest.raises(ValueError):
        tput_protoacc_ser_tlb(msg, miss_ratio=1.5)


def test_translation_cost_shape():
    assert tlb_translation_cost(0.0) == 1.0
    assert tlb_translation_cost(1.0) == 111.0


def test_accesses_per_message_recursive():
    msgs = instances(seed=2)
    flat = msgs["flat_varint_32"]
    nested = msgs["nested_depth_4"]
    assert accesses_per_message(flat) == 3  # header + base + 1 group
    assert accesses_per_message(nested) > accesses_per_message(flat)


def test_read_cost_with_tlb_monotone_in_miss_ratio():
    msg = list(instances(seed=1).values())[5]
    assert read_cost_with_tlb(msg, 0.9) > read_cost_with_tlb(msg, 0.1)


def test_model_tlb_statistics_visible():
    model = ProtoaccSerializerModel(tlb_config=TlbConfig())
    msg = list(instances(seed=4).values())[10]
    # Warm stream: miss ratio should fall below 1 (locality in the arena).
    tlb = Tlb(TlbConfig())
    rng_msgs = [msg] * 6
    t = 0.0
    for k, m in enumerate(rng_msgs):
        ops = []
        rng = model._addr_rng(model._layout(m)[0], salt=k)
        t = model._read_message(m, t, __import__("repro.hw", fromlist=["Dram"]).Dram(), rng, ops, tlb)
    assert 0.0 < tlb.miss_ratio <= 1.0
