"""Execution-semantics tests for the Petri-net simulator."""

import pytest

from repro.petri import (
    DeadlineError,
    DeadlockError,
    PetriNet,
    SimulationError,
    Simulator,
    run_workload,
)


def single_stage_net(delay=5, servers=1, capacity=None):
    net = PetriNet("single")
    net.add_place("in", capacity=capacity)
    net.add_place("out")
    net.add_transition("t", ["in"], ["out"], delay=delay, servers=servers)
    return net


def test_single_transition_latency():
    res = run_workload(single_stage_net(delay=7), [None])
    assert res.latencies() == [7.0]
    assert res.end_time == 7.0


def test_serial_server_serializes_items():
    # 3 items through a serial 5-cycle unit: completions at 5, 10, 15.
    res = run_workload(single_stage_net(delay=5), [None] * 3)
    assert [c.time for c in res.sink()] == [5.0, 10.0, 15.0]
    assert res.latencies() == [5.0, 10.0, 15.0]


def test_infinite_servers_overlap_fully():
    res = run_workload(single_stage_net(delay=5, servers=None), [None] * 3)
    assert [c.time for c in res.sink()] == [5.0, 5.0, 5.0]


def test_k_servers_allow_k_in_flight():
    res = run_workload(single_stage_net(delay=5, servers=2), [None] * 4)
    assert [c.time for c in res.sink()] == [5.0, 5.0, 10.0, 10.0]


def test_data_dependent_delay_reads_payload():
    net = single_stage_net(delay=lambda c: c["in"][0].payload * 2)
    res = run_workload(net, [1, 2, 3])
    assert [c.time for c in res.sink()] == [2.0, 6.0, 12.0]


def test_open_loop_arrivals_respected():
    net = single_stage_net(delay=1)
    res = run_workload(net, [None] * 3, gap=10.0)
    assert [c.time for c in res.sink()] == [1.0, 11.0, 21.0]
    assert res.latencies() == [1.0, 1.0, 1.0]


def test_backpressure_from_bounded_place():
    # Stage a (1 cycle) feeds a capacity-1 queue drained by stage b
    # (10 cycles). Stage a must stall: it can only start an item when
    # the queue slot is free to reserve.
    net = PetriNet("bp")
    net.add_place("in")
    net.add_place("q", capacity=1)
    net.add_place("out")
    net.add_transition("a", ["in"], ["q"], delay=1)
    net.add_transition("b", ["q"], ["out"], delay=10)
    res = run_workload(net, [None] * 3)
    # a fires at 0; deposits at 1. b runs [1,11). a can reserve q's slot
    # again only when b consumes at t=1... queue slot frees at 1, a fires
    # at 1, deposits at 2, waits for b to consume at 11, etc.
    assert [c.time for c in res.sink()] == [11.0, 21.0, 31.0]


def test_join_waits_for_both_inputs():
    net = PetriNet("join")
    net.add_place("a")
    net.add_place("b")
    net.add_place("out")
    net.add_transition("j", ["a", "b"], ["out"], delay=2)
    sim = Simulator(net, sinks=["out"])
    sim.inject("a", at=0.0)
    sim.inject("b", at=9.0)
    res = sim.run()
    assert [c.time for c in res.sink()] == [11.0]


def test_fork_duplicates_tokens_with_weights():
    net = PetriNet("fork")
    net.add_place("in")
    net.add_place("out")
    net.add_transition("f", ["in"], [("out", 3)], delay=1)
    res = run_workload(net, [None])
    assert len(res.sink()) == 3


def test_weighted_input_batches_tokens():
    net = PetriNet("batch")
    net.add_place("in")
    net.add_place("out")
    net.add_transition("b", [("in", 2)], ["out"], delay=4)
    res = run_workload(net, [None] * 5)
    # Only two full batches fire; one token is left over.
    assert len(res.sink()) == 2
    assert res.residual_tokens == 1


def test_guard_blocks_until_satisfied():
    net = PetriNet("guard")
    net.add_place("in")
    net.add_place("small_out")
    net.add_place("big_out")
    net.add_transition(
        "small", ["in"], ["small_out"], delay=1,
        guard=lambda c: c["in"][0].payload < 10,
    )
    net.add_transition(
        "big", ["in"], ["big_out"], delay=2,
        guard=lambda c: c["in"][0].payload >= 10,
    )
    res = run_workload(net, [5, 50], sinks=["small_out", "big_out"])
    assert len(res.completions["small_out"]) == 1
    assert len(res.completions["big_out"]) == 1


def test_zero_delay_cascade_within_one_instant():
    net = PetriNet("zero")
    net.add_place("in")
    net.add_place("m1")
    net.add_place("m2")
    net.add_place("out")
    net.add_transition("a", ["in"], ["m1"], delay=0)
    net.add_transition("b", ["m1"], ["m2"], delay=0)
    net.add_transition("c", ["m2"], ["out"], delay=0)
    res = run_workload(net, [None])
    assert [c.time for c in res.sink()] == [0.0]


def test_deadlock_reported_not_raised_by_default():
    net = PetriNet("dl")
    net.add_place("in")
    net.add_place("never")
    net.add_place("out")
    net.add_transition("t", ["in", "never"], ["out"], delay=1)
    res = run_workload(net, [None])
    assert res.deadlocked
    assert res.residual_tokens == 1


def test_deadlock_raises_when_asked():
    net = PetriNet("dl")
    net.add_place("in")
    net.add_place("never")
    net.add_place("out")
    net.add_transition("t", ["in", "never"], ["out"], delay=1)
    sim = Simulator(net, sinks=["out"])
    sim.inject("in")
    with pytest.raises(DeadlockError):
        sim.run(on_deadlock="raise")


def test_priority_breaks_same_instant_ties():
    net = PetriNet("prio")
    net.add_place("in")
    net.add_place("lo")
    net.add_place("hi")
    net.add_transition("low", ["in"], ["lo"], delay=1, priority=5)
    net.add_transition("high", ["in"], ["hi"], delay=1, priority=1)
    res = run_workload(net, [None], sinks=["lo", "hi"])
    assert len(res.completions["hi"]) == 1
    assert len(res.completions["lo"]) == 0


def test_until_stops_early():
    net = single_stage_net(delay=5)
    sim = Simulator(net, sinks=["out"])
    sim.inject_stream("in", [None] * 10)
    res = sim.run(until=12.0)
    assert len(res.sink()) == 2
    assert res.end_time == 12.0


def test_determinism_two_runs_identical():
    def build():
        net = PetriNet("det")
        net.add_place("in")
        net.add_place("q", capacity=2)
        net.add_place("out")
        net.add_transition("a", ["in"], ["q"], delay=lambda c: 1 + c["in"][0].payload % 3)
        net.add_transition("b", ["q"], ["out"], delay=2)
        return net

    r1 = run_workload(build(), range(20))
    r2 = run_workload(build(), range(20))
    assert [c.time for c in r1.sink()] == [c.time for c in r2.sink()]


def test_run_resets_state_between_runs():
    net = single_stage_net(delay=5)
    first = run_workload(net, [None] * 2)
    second = run_workload(net, [None] * 2)
    assert [c.time for c in first.sink()] == [c.time for c in second.sink()]
    assert net.transitions["t"].fire_count == 2


def test_throughput_measures_completions_per_time():
    res = run_workload(single_stage_net(delay=2), [None] * 10)
    assert res.throughput() == pytest.approx(10 / 20)


def test_sink_requires_name_when_ambiguous():
    net = PetriNet("two")
    net.add_place("in")
    net.add_place("o1")
    net.add_place("o2")
    net.add_transition("t", ["in"], ["o1", "o2"], delay=1)
    res = run_workload(net, [None], sinks=["o1", "o2"])
    with pytest.raises(ValueError, match="sinks"):
        res.sink()
    assert len(res.sink("o1")) == 1


# ---------------------------------------------------------------------------
# Watchdog deadline (max_time) — the Petri-net counterpart of
# repro.runtime.watchdog.
# ---------------------------------------------------------------------------


def test_max_time_stops_with_partial_progress():
    net = single_stage_net(delay=5)
    sim = Simulator(net, sinks=["out"])
    sim.inject_stream("in", [None] * 10)  # quiescence would be t=50
    res = sim.run(max_time=12.0)
    assert res.deadline_exceeded
    assert res.end_time == 12.0
    assert [c.time for c in res.sink()] == [5.0, 10.0]
    assert res.residual_tokens > 0  # truncated, not drained


def test_max_time_not_hit_leaves_flag_clear():
    res = run_workload(single_stage_net(delay=5), [None] * 2, max_time=100.0)
    assert not res.deadline_exceeded
    assert res.end_time == 10.0


def test_max_time_raise_carries_partial_result():
    net = single_stage_net(delay=5)
    sim = Simulator(net, sinks=["out"])
    sim.inject_stream("in", [None] * 10)
    with pytest.raises(DeadlineError, match="max_time") as exc:
        sim.run(max_time=12.0, on_deadline="raise")
    partial = exc.value.result
    assert partial is not None
    assert partial.deadline_exceeded
    assert len(partial.sink()) == 2


def test_max_time_through_run_workload():
    with pytest.raises(DeadlineError):
        run_workload(
            single_stage_net(delay=5), [None] * 10, max_time=1.0, on_deadline="raise"
        )


def test_deadline_differs_from_until():
    # ``until`` is a planned horizon: same truncation, no flag, no raise.
    net = single_stage_net(delay=5)
    sim = Simulator(net, sinks=["out"])
    sim.inject_stream("in", [None] * 10)
    res = sim.run(until=12.0, on_deadline="raise")
    assert not res.deadline_exceeded
    assert res.end_time == 12.0


def test_deadlock_error_reports_marking():
    net = PetriNet("dl")
    net.add_place("in")
    net.add_place("never")
    net.add_place("out")
    net.add_transition("t", ["in", "never"], ["out"], delay=1)
    sim = Simulator(net, sinks=["out"])
    sim.inject("in")
    with pytest.raises(DeadlockError, match="1 resident tokens"):
        sim.run(on_deadlock="raise")


def test_deadlock_and_deadline_can_coexist():
    # A net that deadlocks *before* the deadline reports the deadlock,
    # not a deadline truncation.
    net = PetriNet("dl")
    net.add_place("in")
    net.add_place("never")
    net.add_place("out")
    net.add_transition("t", ["in", "never"], ["out"], delay=1)
    sim = Simulator(net, sinks=["out"])
    sim.inject("in")
    res = sim.run(max_time=100.0)
    assert res.deadlocked
    assert not res.deadline_exceeded


def test_throughput_windows_on_first_injection():
    # 10 items injected starting at t=100: throughput must be measured
    # over the first-injection->end window, not from t=0 — otherwise a
    # late-starting workload looks artificially slow.
    sim = Simulator(single_stage_net(delay=2), sinks=["out"])
    sim.inject_stream("in", [None] * 10, start=100.0)
    res = sim.run()
    assert res.first_injection == 100.0
    assert res.end_time == 120.0
    assert res.throughput() == pytest.approx(10 / 20)


def test_throughput_default_window_without_injections_metadata():
    res = run_workload(single_stage_net(delay=2), [None] * 10)
    assert res.first_injection == 0.0
    assert res.throughput() == pytest.approx(10 / 20)


def test_firing_budget_counts_firings_not_batches(monkeypatch):
    # 60 zero-delay firings all land in one _fire_all batch; a budget of
    # 50 must still trip (the old accounting counted batches, so a single
    # huge batch slipped through).
    net = PetriNet("burst")
    net.add_place("in")
    net.add_place("out")
    net.add_transition("t", ["in"], ["out"], delay=0, servers=None)
    monkeypatch.setattr(Simulator, "MAX_FIRINGS_PER_INSTANT", 50)
    sim = Simulator(net, sinks=["out"])
    sim.inject_stream("in", range(60))
    with pytest.raises(SimulationError, match="more than 50 firings at t=0.0"):
        sim.run()


def test_firing_budget_not_tripped_by_exact_limit(monkeypatch):
    net = PetriNet("burst")
    net.add_place("in")
    net.add_place("out")
    net.add_transition("t", ["in"], ["out"], delay=0, servers=None)
    monkeypatch.setattr(Simulator, "MAX_FIRINGS_PER_INSTANT", 50)
    sim = Simulator(net, sinks=["out"])
    sim.inject_stream("in", range(50))
    assert len(sim.run().sink()) == 50
