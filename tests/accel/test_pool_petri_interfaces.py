"""Petri-net interfaces shipped for the pooled serving devices.

The paper's repos only built nets for JPEG/VTA-class pipelines; the pool
runtime's ``interface_predicted`` router prices *every* device through a
net, so Protoacc and Optimus Prime now ship one too.  These tests pin
the properties routing depends on: validated accuracy, lint cleanliness,
reference-engine parity and shared-cache evaluation.
"""

import pytest

from repro.accel.optimusprime import OptimusPrimeModel
from repro.accel.optimusprime import petri_interface as optimus_petri
from repro.accel.protoacc import PROGRAM, ProtoaccSerializerModel
from repro.accel.protoacc import petri_interface as protoacc_petri
from repro.hw.stats import ErrorReport
from repro.perf import EvalCache
from repro.workloads import ENTERPRISE_MIX


class TestProtoaccNet:
    def test_more_accurate_than_program_midpoint_on_enterprise_mix(self):
        model = ProtoaccSerializerModel()
        net = protoacc_petri()
        msgs = ENTERPRISE_MIX.sample(seed=3, count=25)
        observed = [model.measure_latency(m) for m in msgs]
        net_err = ErrorReport.of([net.latency(m) for m in msgs], observed)
        prog_err = ErrorReport.of([PROGRAM.latency(m) for m in msgs], observed)
        assert net_err.avg < prog_err.avg
        assert net_err.avg < 0.20  # routing-grade accuracy

    def test_one_token_per_submessage(self):
        from repro.accel.protoacc.interfaces import tokenize_message

        msgs = ENTERPRISE_MIX.sample(seed=9, count=10)
        for msg in msgs:
            assert len(tokenize_message(msg)) == msg.total_messages


class TestOptimusNet:
    def test_matches_the_program_interface_exactly(self):
        # The parser array has no cross-item overlap: the net's single
        # transition should reproduce the closed-form latency.
        from repro.accel.optimusprime import PROGRAM as OPTIMUS_PROGRAM

        net = optimus_petri()
        for msg in ENTERPRISE_MIX.sample(seed=4, count=10):
            assert net.latency(msg) == pytest.approx(OPTIMUS_PROGRAM.latency(msg))

    def test_tracks_the_model(self):
        model = OptimusPrimeModel()
        net = optimus_petri()
        msgs = ENTERPRISE_MIX.sample(seed=4, count=15)
        err = ErrorReport.of(
            [net.latency(m) for m in msgs], [model.measure_latency(m) for m in msgs]
        )
        assert err.max < 1e-9  # exact by construction (descriptor-cache hits)


class TestLintAndEngines:
    def test_both_nets_lint_clean(self):
        from repro.accel.optimusprime.interfaces import OPTIMUS_PNET
        from repro.accel.protoacc.interfaces import PROTOACC_PNET
        from repro.lint import Severity, lint_pnet_text

        for text in (PROTOACC_PNET, OPTIMUS_PNET):
            report = lint_pnet_text(text)
            errors = [d for d in report.diagnostics if d.severity is Severity.ERROR]
            assert not errors, errors

    def test_compiled_and_reference_engines_agree(self):
        from repro.petri import Simulator

        msgs = ENTERPRISE_MIX.sample(seed=6, count=8)
        for factory in (protoacc_petri, optimus_petri):
            iface = factory()
            for msg in msgs:
                ref = factory()  # fresh net for the reference run
                sim = Simulator(ref.net, sinks=[ref.sink])
                for place, payload, at in ref.tokenize(msg):
                    sim.inject(place, payload, at=at)
                assert iface.latency(msg) == sim.run().makespan() + ref.epilogue

    def test_one_shared_cache_serves_both_nets(self):
        cache = EvalCache()
        protoacc = protoacc_petri(cache=cache)
        optimus = optimus_petri(cache=cache)
        msg = ENTERPRISE_MIX.sample(seed=7, count=1)[0]
        first = (protoacc.latency(msg), optimus.latency(msg))
        misses_after_first = cache.stats.misses
        assert misses_after_first > 0
        again = (protoacc.latency(msg), optimus.latency(msg))
        assert again == first
        assert cache.stats.misses == misses_after_first  # all repeat evals hit
        assert cache.stats.hits > 0
