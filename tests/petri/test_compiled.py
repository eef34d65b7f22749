"""The per-item engine factory and compiled-engine edge cases."""

import pytest

from repro.petri import (
    CompiledNet,
    CompiledSimulator,
    DefinitionError,
    KeyRuleError,
    PetriNet,
    SimulationError,
    Simulator,
    make_simulator,
)


def simple_net():
    net = PetriNet("simple")
    net.add_place("in")
    net.add_place("out")
    net.add_transition("t", ["in"], ["out"], delay=3)
    return net


def test_make_simulator_returns_compiled_simulator():
    assert isinstance(make_simulator(simple_net(), sinks=("out",)), CompiledSimulator)


# ----------------------------------------------------------------------
# Compiled-engine behavior
# ----------------------------------------------------------------------


def test_compiled_basic_run_matches_reference_latencies():
    net = simple_net()
    sim = CompiledSimulator(net, sinks=["out"])
    sim.inject_stream("in", range(4))
    result = sim.run()
    # one server: completions serialize at 3, 6, 9, 12 (all born at t=0)
    assert result.latencies() == [3.0, 6.0, 9.0, 12.0]
    assert result.fired == {"t": 4}


def test_compiled_net_reuse_across_runs():
    net = simple_net()
    compiled = CompiledNet(net)
    for _ in range(3):
        sim = CompiledSimulator(net, sinks=["out"], compiled=compiled)
        sim.inject_stream("in", range(5))
        assert len(sim.run().sink()) == 5


def test_compiled_net_must_match_simulator_net():
    other = simple_net()
    with pytest.raises(SimulationError):
        CompiledSimulator(simple_net(), sinks=["out"], compiled=CompiledNet(other))


def test_compiled_unknown_sink_rejected():
    with pytest.raises(SimulationError, match="sink"):
        CompiledSimulator(simple_net(), sinks=["nope"])


def test_compiled_unknown_injection_place_rejected():
    sim = CompiledSimulator(simple_net(), sinks=["out"])
    with pytest.raises(SimulationError, match="unknown place"):
        sim.inject_stream("nope", range(3))


def test_compiled_negative_delay_raises_definition_error():
    net = PetriNet("neg")
    net.add_place("in")
    net.add_place("out")
    net.add_transition("t", ["in"], ["out"], delay=lambda c: -1.0)
    sim = CompiledSimulator(net, sinks=["out"])
    sim.inject("in")
    with pytest.raises(DefinitionError, match="negative delay"):
        sim.run()


def test_compiled_instant_budget_matches_reference(monkeypatch):
    """Both engines bound firings per instant with the same message."""

    def build():
        net = PetriNet("burst")
        net.add_place("in")
        net.add_place("out")
        net.add_transition("t", ["in"], ["out"], delay=0, servers=None)
        return net

    monkeypatch.setattr(Simulator, "MAX_FIRINGS_PER_INSTANT", 50)
    monkeypatch.setattr(CompiledSimulator, "MAX_FIRINGS_PER_INSTANT", 50)
    messages = []
    for cls in (Simulator, CompiledSimulator):
        sim = cls(build(), sinks=["out"])
        sim.inject_stream("in", range(60))  # all at t=0: 60 firings > 50
        with pytest.raises(SimulationError, match="firings at t=") as exc:
            sim.run()
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


# ----------------------------------------------------------------------
# Head-keyed dispatch
# ----------------------------------------------------------------------


def kind_guard(want):
    return lambda consumed: consumed["cmd"][0].payload["kind"] == want


def keyed_net(**extra):
    """``a``/``b`` key ``cmd`` on ``kind``; ``extra`` adds or overrides
    transitions as ``name -> add_transition kwargs``."""
    net = PetriNet("keyed")
    for place in ("cmd", "side", "out"):
        net.add_place(place)
    specs = {
        "a": dict(inputs=["cmd"], guard=kind_guard(0), key=("cmd", "kind", 0)),
        "b": dict(inputs=["cmd"], guard=kind_guard(1), key=("cmd", "kind", 1)),
        "c": dict(inputs=["side"]),
    }
    specs.update(extra)
    for name, spec in specs.items():
        spec = dict(spec)
        net.add_transition(name, spec.pop("inputs"), ["out"], delay=1, **spec)
    return net


@pytest.mark.parametrize(
    "key,guard,msg",
    [
        (("side", "kind", 0), kind_guard(0), "key place 'side' is not one of its inputs"),
        (("cmd", "kind"), kind_guard(0), r"\(place, field, value\) tuple"),
        (("cmd", "kind", 0), None, "needs a guard"),
        (("cmd", "kind", [0]), kind_guard(0), "not hashable"),
    ],
)
def test_malformed_keys_rejected(key, guard, msg):
    with pytest.raises(DefinitionError, match=msg):
        keyed_net(a=dict(inputs=["cmd"], guard=guard, key=key))


@pytest.mark.parametrize(
    "extra,names",
    [
        ({"b": dict(inputs=["cmd"], guard=kind_guard(1), key=("cmd", "kind", 0))}, ["'a' and 'b'"]),
        ({"b": dict(inputs=["cmd"], guard=kind_guard(1), key=("cmd", "op", 1))}, ["'b'", "'a'"]),
        ({"c": dict(inputs=["side", "cmd"])}, ["'c'", "'a'"]),
    ],
    ids=["same-value", "different-fields", "unkeyed-consumer"],
)
def test_lowering_rejects_broken_groups_naming_the_transitions(extra, names):
    with pytest.raises(KeyRuleError) as exc:
        CompiledNet(keyed_net(**extra))
    (violation,) = exc.value.violations
    assert all(name in violation[1] for name in names)
    assert isinstance(exc.value, DefinitionError)


def test_keyed_group_fires_only_the_selected_member():
    calls = []

    def counted(name, want):
        def guard(consumed):
            calls.append(name)
            return consumed["cmd"][0].payload["kind"] == want

        return guard

    net = keyed_net(
        a=dict(inputs=["cmd"], guard=counted("a", 0), key=("cmd", "kind", 0)),
        b=dict(inputs=["cmd"], guard=counted("b", 1), key=("cmd", "kind", 1)),
    )
    sim = make_simulator(net, sinks=["out"])
    for kind in (1, 0, 1, 1):
        sim.inject("cmd", payload={"kind": kind})
    result = sim.run()
    assert result.fired == {"a": 1, "b": 3, "c": 0}
    assert calls == ["b", "a", "b", "b"]  # one guard per firing


def test_head_without_the_key_field_raises():
    sim = make_simulator(keyed_net(), sinks=["out"])
    sim.inject("cmd", payload={"size": 3})
    with pytest.raises(SimulationError, match="head token of 'cmd' has no hashable key field 'kind'"):
        sim.run()
