"""The per-item engine factory and compiled-engine edge cases."""

import pytest

from repro.petri import (
    CompiledNet,
    CompiledSimulator,
    DefinitionError,
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
