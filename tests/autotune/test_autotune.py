"""Tests for the auto-tuner: profilers, search, and cost model."""

import numpy as np
import pytest

from repro.accel.vta import GemmWorkload, legal_tilings, random_programs
from repro.accel.vta.interfaces import petri_interface
from repro.autotune import (
    Candidate,
    CycleAccurateProfiler,
    EventModelProfiler,
    LinearCostModel,
    PetriProfiler,
    RooflineProfiler,
    anneal_tune,
    exhaustive_tune,
    features,
    profiling_speedups,
    random_tune,
)

WORK = GemmWorkload(4, 4, 4)


class TestProfilers:
    def test_accounting(self):
        prof = EventModelProfiler()
        progs = random_programs(1, 3, max_dim=4)
        for p in progs:
            prof.profile(p)
        assert prof.queries == 3
        assert prof.wall_seconds > 0
        prof.reset_accounting()
        assert prof.queries == 0

    def test_tiers_agree_on_ordering(self):
        # All fidelity tiers must rank a clearly-better schedule first.
        progs = random_programs(2, 4, max_dim=4)
        event = [EventModelProfiler().profile(p) for p in progs]
        petri = [PetriProfiler().profile(p) for p in progs]
        assert np.argsort(event).tolist() == np.argsort(petri).tolist()

    def test_petri_close_to_cycle_accurate(self):
        prog = random_programs(3, 1, max_dim=4)[0]
        cyc = CycleAccurateProfiler().profile(prog)
        pet = PetriProfiler().profile(prog)
        assert abs(pet - cyc) / cyc < 0.05

    def test_speedup_samples(self):
        progs = random_programs(4, 2, max_dim=4)
        samples = profiling_speedups(
            CycleAccurateProfiler(), PetriProfiler(), progs
        )
        assert len(samples) == 2
        assert all(s.speedup > 1.0 for s in samples)

    def test_roofline_is_cheap_and_rough(self):
        prof = RooflineProfiler()
        prog = random_programs(5, 1, max_dim=4)[0]
        estimate = prof.profile(prog)
        truth = EventModelProfiler().profile(prog)
        assert 0.3 * truth < estimate < 1.5 * truth


class TestSearch:
    def test_exhaustive_finds_global_best(self):
        prof = EventModelProfiler()
        result = exhaustive_tune(WORK, prof)
        assert result.trials == len(legal_tilings(WORK))
        assert result.best_cycles == min(c for _, c in result.history)

    def test_petri_driven_search_matches_simulation_driven(self):
        # The paper's point: searching with the interface finds the same
        # (or equally good) schedule, much faster.
        by_event = exhaustive_tune(WORK, EventModelProfiler())
        by_petri = exhaustive_tune(WORK, PetriProfiler())
        # Re-measure petri's pick with the ground truth: within 5% of
        # the true optimum (the interface's ~1% error can swap closely
        # clustered tilings, but never picks a bad schedule).
        truth = EventModelProfiler()
        petri_pick = truth.profile(by_petri.best.lower(WORK))
        assert petri_pick <= by_event.best_cycles * 1.05

    def test_random_tune_respects_budget(self):
        result = random_tune(WORK, EventModelProfiler(), budget=5, seed=1)
        assert result.trials == 5

    def test_random_tune_budget_validation(self):
        with pytest.raises(ValueError):
            random_tune(WORK, EventModelProfiler(), budget=0)

    def test_anneal_deterministic_and_reasonable(self):
        a = anneal_tune(WORK, EventModelProfiler(), steps=15, seed=3)
        b = anneal_tune(WORK, EventModelProfiler(), steps=15, seed=3)
        assert a.best_cycles == b.best_cycles
        exhaustive = exhaustive_tune(WORK, EventModelProfiler())
        assert a.best_cycles <= exhaustive.best_cycles * 1.5

    def test_summary_text(self):
        result = random_tune(WORK, EventModelProfiler(), budget=3)
        assert "cycles" in result.summary()


class TestCostModel:
    def test_features_shape(self):
        prog = random_programs(6, 1, max_dim=4)[0]
        vec = features(prog)
        assert vec.shape == (8,)
        assert vec[0] == prog.total_macs

    def test_fit_and_predict(self):
        progs = random_programs(7, 30, max_dim=5)
        prof = EventModelProfiler()
        cycles = [prof.profile(p) for p in progs]
        model = LinearCostModel().fit(progs[:20], cycles[:20])
        err = model.score(progs[20:], cycles[20:])
        assert err < 0.25  # linear features capture most of the timing

    def test_unfitted_predict_rejected(self):
        with pytest.raises(RuntimeError):
            LinearCostModel().predict(random_programs(8, 1)[0])

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            LinearCostModel().fit([], [])


def test_vta_tuning_checks_one_guard_per_firing():
    """Deterministic work gate for head-keyed dispatch: profiling the
    candidates of four tuning shapes evaluates exactly one guard per
    firing.  Checking every sibling instead made 226,143 guard
    evaluations for 25,931 firings on the same kind of sweep."""
    iface = petri_interface()
    calls = {"guard": 0, "firing": 0}

    def counted(kind, fn):
        def wrapper(consumed):
            calls[kind] += 1
            return fn(consumed)

        return wrapper

    # Every VTA delay is a callable, run once per firing.
    for t in iface.net.transitions.values():
        t.guard = counted("guard", t.guard)
        t.delay = counted("firing", t.delay)
    shapes = [GemmWorkload(4, 4, 4), GemmWorkload(4, 8, 4), GemmWorkload(8, 4, 8), GemmWorkload(8, 8, 4)]
    programs = [Candidate(t).lower(w) for w in shapes for t in legal_tilings(w)]
    assert len(programs) == 159
    iface.evaluate_batch(programs)
    assert calls["firing"] > 0
    assert calls["guard"] == calls["firing"]
