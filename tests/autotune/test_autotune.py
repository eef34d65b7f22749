"""Tests for the auto-tuner: profilers, search, and cost model."""

from dataclasses import replace

import numpy as np
import pytest

from repro.accel.vta import GemmWorkload, Instruction, VtaConfig, legal_tilings, random_programs
from repro.accel.vta.interfaces import petri_interface
from repro.autotune import (
    Candidate,
    CycleAccurateProfiler,
    EventModelProfiler,
    LinearCostModel,
    MemoizedProfiler,
    PetriProfiler,
    RooflineProfiler,
    anneal_tune,
    exhaustive_tune,
    features,
    profiling_speedups,
    random_tune,
)
from repro.perf import EvalCache

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

    @pytest.mark.parametrize(
        "tier", [PetriProfiler, CycleAccurateProfiler, EventModelProfiler, RooflineProfiler]
    )
    def test_memoized_tiers_of_two_configs_share_one_cache(self, tier):
        """Each config's memoized tier answers with its own cycles, one
        candidate at a time and in a batch, never with the other's."""
        work = GemmWorkload(4, 8, 4)
        program = Candidate(legal_tilings(work)[0]).lower(work)
        base = VtaConfig()
        configs = (base, replace(base, gemm_setup=4 * base.gemm_setup + 10))
        direct = [tier(config).profile(program) for config in configs]
        assert direct[0] != direct[1]
        single, batched = EvalCache(), EvalCache()
        assert [MemoizedProfiler(tier(c), single).profile(program) for c in configs] == direct
        assert [
            MemoizedProfiler(tier(c), batched).profile_batch([program])[0] for c in configs
        ] == direct

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


#: The four GEMM shapes the tuning work gates lower: 159 candidates.
TUNE_SHAPES = [
    GemmWorkload(4, 4, 4), GemmWorkload(4, 8, 4), GemmWorkload(8, 4, 8), GemmWorkload(8, 8, 4)
]


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
    programs = [Candidate(t).lower(w) for w in TUNE_SHAPES for t in legal_tilings(w)]
    assert len(programs) == 159
    iface.evaluate_batch(programs)
    assert calls["firing"] > 0
    assert calls["guard"] == calls["firing"]


def test_vta_lowering_builds_each_instruction_once(monkeypatch):
    """Deterministic work gate for lowering: the 159 candidates of the
    four tuning shapes build exactly one instruction per instruction of
    their programs.  Lowering a steady-state copy of every candidate
    next to it built 31,756 for the same 15,878."""
    built = 0
    init = Instruction.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Instruction, "__init__", counted)
    programs = [Candidate(t).lower(w) for w in TUNE_SHAPES for t in legal_tilings(w)]
    assert len(programs) == 159
    assert sum(len(p) for p in programs) == 15_878
    assert built == 15_878
