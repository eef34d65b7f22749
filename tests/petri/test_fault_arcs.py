"""Tests for fault arcs: ``timeout AFTER PLACE`` transitions.

ROADMAP item "fault-aware transitions": a transition with a timeout
abandons any firing whose delay exceeds the budget and deposits a
fault token into the declared fault place at the deadline, instead of
completing normally.
"""

import pytest

from repro.petri import DefinitionError, PetriNet, Simulator, parse, to_pnet

FAULTY = """\
net faulty
place in
place out
place fault
inject in fields size
transition work
  consume in
  produce out
  delay expr: tok["size"] * 10
  timeout 25 fault
"""


def _run(sizes, text=FAULTY):
    net = parse(text)
    sim = Simulator(net, sinks=["out", "fault"])
    for i, size in enumerate(sizes):
        sim.inject("in", {"size": size}, at=float(i))
    result = sim.run()
    return net, result


class TestTimeoutSemantics:
    def test_fast_item_completes_normally(self):
        _, result = _run([2])  # delay 20 < 25
        assert len(result.completions["out"]) == 1
        assert not result.completions["fault"]
        assert result.completions["out"][0].time == pytest.approx(20.0)

    def test_slow_item_faults_at_the_deadline(self):
        # delay 30 > 25: the token lands in `fault` at t=25, not t=30.
        _, result = _run([3])
        assert not result.completions["out"]
        assert len(result.completions["fault"]) == 1
        assert result.completions["fault"][0].time == pytest.approx(25.0)

    def test_mixed_stream_splits_by_size(self):
        _, result = _run([1, 5, 2, 9])
        assert len(result.completions["out"]) == 2
        assert len(result.completions["fault"]) == 2

    def test_fault_token_inherits_payload(self):
        _, result = _run([4])
        token = result.completions["fault"][0].token
        assert token.payload == {"size": 4}

    def test_output_reservation_released_on_fault(self):
        # With out bounded to 1 token, a faulted firing must release its
        # reserved slot so later items can still complete.
        text = FAULTY.replace("place out", "place out capacity 1")
        net = parse(text)
        sim = Simulator(net, sinks=["fault"])
        sim.inject("in", {"size": 9}, at=0.0)  # faults
        sim.inject("in", {"size": 1}, at=1.0)  # completes into out
        result = sim.run()
        assert len(result.completions["fault"]) == 1
        assert net.marking()["out"] == 1

    def test_fault_completion_lands_at_the_timeout(self):
        net = parse(FAULTY)
        sim = Simulator(net, sinks=["out", "fault"])
        sim.inject("in", {"size": 9}, at=0.0)
        result = sim.run()
        assert [c.time for c in result.completions["fault"]] == [25.0]


class TestTimeoutDefinition:
    def test_timeout_must_be_positive(self):
        net = PetriNet("n")
        net.add_place("a")
        net.add_place("b")
        net.add_place("f")
        with pytest.raises(DefinitionError):
            net.add_transition("t", ["a"], ["b"], delay=1, timeout=(0.0, "f"))

    def test_timeout_place_must_exist(self):
        net = PetriNet("n")
        net.add_place("a")
        net.add_place("b")
        with pytest.raises(DefinitionError):
            net.add_transition("t", ["a"], ["b"], delay=1, timeout=(5.0, "ghost"))

    def test_dsl_rejects_unknown_fault_place(self):
        from repro.petri import DslError

        bad = FAULTY.replace("timeout 25 fault", "timeout 25 ghost")
        with pytest.raises(DslError):
            parse(bad)


class TestRoundtrip:
    def test_timeout_and_inject_survive_serialization(self):
        net = parse(FAULTY)
        text = to_pnet(net)
        assert "timeout 25" in text and "fault" in text
        assert "inject in fields" in text
        reparsed = parse(text)
        assert reparsed.transitions["work"].timeout == (25.0, "fault")
        assert reparsed.injections == {"in": frozenset({"size"})}
        # And the reserialized net behaves identically.
        sim = Simulator(reparsed, sinks=["out", "fault"])
        sim.inject("in", {"size": 9})
        result = sim.run()
        assert result.completions["fault"][0].time == pytest.approx(25.0)
