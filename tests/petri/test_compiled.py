"""Engine selection, fallback rules, and compiled-engine edge cases."""

import pytest

from repro.petri import (
    ENGINES,
    CompiledNet,
    CompiledSimulator,
    DefinitionError,
    PetriNet,
    SimulationError,
    Simulator,
    make_simulator,
    supports,
    unsupported_features,
)


def simple_net():
    net = PetriNet("simple")
    net.add_place("in")
    net.add_place("out")
    net.add_transition("t", ["in"], ["out"], delay=3)
    return net


def hooked_net():
    net = PetriNet("hooked")
    net.add_place("in")
    net.add_place("out")
    net.add_transition(
        "t", ["in"], ["out"], delay=1, produce=lambda consumed, out: {}
    )
    return net


# ----------------------------------------------------------------------
# Feature support and fallback
# ----------------------------------------------------------------------


def test_plain_net_is_supported():
    assert supports(simple_net())
    assert unsupported_features(simple_net()) == []


def test_trace_is_unsupported():
    reasons = unsupported_features(simple_net(), trace=True)
    assert reasons and "trace" in reasons[0]


def test_produce_hook_is_unsupported():
    assert not supports(hooked_net())


def test_auto_selects_compiled_when_supported():
    sim = make_simulator(simple_net(), sinks=("out",), engine="auto")
    assert isinstance(sim, CompiledSimulator)


def test_auto_falls_back_to_reference():
    sim = make_simulator(hooked_net(), sinks=("out",), engine="auto")
    assert isinstance(sim, Simulator)
    assert not isinstance(sim, CompiledSimulator)


def test_auto_falls_back_for_trace():
    sim = make_simulator(simple_net(), sinks=("out",), engine="auto", trace=True)
    assert not isinstance(sim, CompiledSimulator)


def test_explicit_compiled_refuses_unsupported_net():
    with pytest.raises(SimulationError, match="produce"):
        make_simulator(hooked_net(), sinks=("out",), engine="compiled")


def test_explicit_reference_always_honored():
    sim = make_simulator(simple_net(), sinks=("out",), engine="reference")
    assert not isinstance(sim, CompiledSimulator)


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        make_simulator(simple_net(), sinks=("out",), engine="turbo")


def test_engines_constant_lists_all_modes():
    assert set(ENGINES) == {"auto", "reference", "compiled"}


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
