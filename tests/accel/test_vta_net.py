"""The VTA Petri net against the ISA's dependency wiring table.

The table in :mod:`repro.accel.vta.isa` is the one statement of which
dependency queue each module's ``pop_*``/``push_*`` flag names; the net
builder derives its queue arcs from it.  Each of the net's delays reads
the instruction at the head of its transition's first input place (the
module's command queue, or ``port_req`` for a DMA stream): the other
places it consumes from hold bookkeeping tokens and, on the dependency
queues, tokens of *other* instructions.
"""

import itertools
from collections import Counter

import pytest

from repro.accel.vta import (
    AluOp,
    Buffer,
    Instruction,
    Opcode,
    VtaConfig,
    build_vta_net,
    service_cycles,
    stream_estimate,
)
from repro.accel.vta.interfaces import dispatch_payload
from repro.accel.vta.isa import DEP_FLAGS, DEP_QUEUES, DEP_WIRING
from repro.petri.token import Token

#: Distinct setup costs, so a delay that read another instruction's
#: opcode would return the other module's value.
CONFIG = VtaConfig(load_setup=12, store_setup=31)

#: One instruction of every kind under every flag setting: a head token
#: for each transition's key is among them.
INSTRUCTIONS = [
    Instruction(**kind, **dict(zip(DEP_FLAGS, bits, strict=True)))
    for kind in (
        dict(op=Opcode.LOAD, buffer=Buffer.INP, size=96),
        dict(op=Opcode.LOAD, buffer=Buffer.UOP, size=40),
        dict(op=Opcode.STORE, size=272),
        dict(op=Opcode.GEMM, uop_count=3, lp0=2, lp1=5),
        dict(op=Opcode.ALU, alu_op=AluOp.MAX, vector_len=48, iterations=3),
        dict(op=Opcode.FINISH),
    )
    for bits in itertools.product((False, True), repeat=4)
]
#: What a dependency queue holds in a real firing: a child of another
#: instruction's token, here one whose every delay differs from the head's.
OTHER = Instruction(Opcode.STORE, size=4096, push_prev=True)


class _Consumed:
    """A consumed mapping that records the places read and refuses to be
    iterated, as a delay that scans for its instruction would."""

    def __init__(self, tokens):
        self._tokens = tokens
        self.read = []

    def __getitem__(self, place):
        self.read.append(place)
        return self._tokens[place]

    def _scan(self, *_):
        raise AssertionError("the delay iterated the consumed mapping")

    __iter__ = keys = items = values = get = __contains__ = __len__ = _scan


def _head_for(transition):
    place, field, value = transition.key
    return next(i for i in INSTRUCTIONS if dispatch_payload(i, 0)[field] == value)


def _expected_delay(name, insn):
    if "_dma_setup_" in name:
        return CONFIG.store_setup if insn.op is Opcode.STORE else CONFIG.load_setup
    if "_dma_stream_" in name:
        return stream_estimate(insn.size, CONFIG)
    return service_cycles(insn, CONFIG)


@pytest.mark.parametrize("model_port", [True, False])
def test_each_delay_reads_only_its_head_place(model_port):
    net = build_vta_net(CONFIG, model_port=model_port)
    assert len(net.transitions) == 32
    for t in net.transitions.values():
        head = t.inputs[0].place
        insn = _head_for(t)
        tokens = {}
        for arc in t.inputs:
            if arc.place == head:
                payload = dispatch_payload(insn, 5)
            elif arc.place in DEP_QUEUES:
                payload = dispatch_payload(OTHER, 9)
            else:  # a module's free token or the memory port's
                payload = {"insn": None}
            tokens[arc.place] = [Token(payload=payload) for _ in range(arc.weight)]
        consumed = _Consumed(tokens)
        assert t.guard(consumed), t.name
        consumed.read.clear()
        assert t.delay(consumed) == _expected_delay(t.name, insn), t.name
        assert consumed.read == [head], t.name


def test_each_queue_links_one_pushing_module_to_one_popping_module():
    pushers = Counter(q for _, pushes in DEP_WIRING.values() for _, q in pushes)
    poppers = Counter(q for pops, _ in DEP_WIRING.values() for _, q in pops)
    assert len(DEP_QUEUES) == 4
    assert pushers == poppers == Counter(DEP_QUEUES)
    for module, (pops, pushes) in DEP_WIRING.items():
        assert {q for _, q in pops}.isdisjoint(q for _, q in pushes), module


@pytest.mark.parametrize("model_port", [True, False])
def test_queue_arcs_follow_the_wiring_table(model_port):
    net = build_vta_net(model_port=model_port)
    transitions = net.transitions.values()
    for module, (pops, pushes) in DEP_WIRING.items():
        for _, queue in pops:
            consumers = {t.name for t in transitions if queue in [a.place for a in t.inputs]}
            assert consumers and all(n.startswith(f"{module.value}_") for n in consumers)
        for _, queue in pushes:
            producers = {t.name for t in transitions if queue in [a.place for a in t.outputs]}
            assert producers and all(n.startswith(f"{module.value}_") for n in producers)
