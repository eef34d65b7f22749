"""DriftObservatory: per-(device, class) error tracking and detection."""

import numpy as np
import pytest

from repro.obs import (
    DEFAULT_SIZE_CLASSES,
    DriftObservatory,
    MetricsRegistry,
    Obs,
    SizeClasses,
    rpc_size_class,
)
from repro.runtime.degrade import DriftDetector
from repro.workloads.rpc import sized_message


def msg(size):
    return sized_message(size, np.random.default_rng(0))


class TestClassifier:
    def test_size_classes(self):
        assert rpc_size_class(msg(16)) == "small"
        assert rpc_size_class(msg(512)) == "medium"
        assert rpc_size_class(msg(4096)) == "large"

    def test_non_message_falls_back_to_type_name(self):
        assert rpc_size_class(42) == "int"


class TestSizeClasses:
    def test_stock_spec_labels(self):
        assert DEFAULT_SIZE_CLASSES.labels == ("small", "medium", "large")
        assert DEFAULT_SIZE_CLASSES.classify(msg(16)) == "small"

    def test_custom_boundaries_are_inclusive(self):
        spec = SizeClasses(boundaries=(("a", 10), ("b", 20)), overflow="c")
        sized = type("Sized", (), {"encoded_size": lambda self: 10})()
        assert spec.classify(sized) == "a"
        assert spec.labels == ("a", "b", "c")

    @pytest.mark.parametrize(
        "bad",
        [
            dict(boundaries=(("a", 20), ("b", 10))),  # descending
            dict(boundaries=(("a", 10), ("b", 10))),  # duplicate bound
            dict(boundaries=(("a", 10),), overflow="a"),  # duplicate label
        ],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            SizeClasses(**bad)

    def test_observatory_adopts_spec_and_exposes_it(self):
        spec = SizeClasses(boundaries=(("tiny", 100),), overflow="huge")
        obs = DriftObservatory(classifier=spec)
        assert obs.size_classes is spec
        obs.observe("dev", msg(16), 1.0, 1.0)
        assert obs.keys() == [("dev", "tiny")]

    def test_bare_callable_classifier_has_no_spec(self):
        obs = DriftObservatory(classifier=lambda r: "all")
        assert obs.size_classes is None
        obs.observe("dev", msg(16), 1.0, 1.0)
        assert obs.keys() == [("dev", "all")]


class TestSubscribe:
    def test_subscriber_hears_every_observation(self):
        obs = DriftObservatory(
            detector_factory=lambda: DriftDetector(
                threshold=0.2, window=8, min_samples=2
            )
        )
        heard = []

        def probe(device, rpc_class, request, predicted, observed, *, drifting, at):
            heard.append((device, rpc_class, predicted, observed, drifting, at))

        obs.subscribe(probe)
        request = msg(16)
        obs.observe("dev", request, 100.0, 100.0, at=10.0)
        assert heard == [("dev", "small", 100.0, 100.0, False, 10.0)]
        # The verdict forwarded to subscribers is the live one.
        for i in range(8):
            obs.observe("dev", request, 200.0, 100.0, at=20.0 + i)
        assert heard[-1][4] is True

    def test_reset_detector_clears_verdict_but_keeps_history(self):
        obs = DriftObservatory(
            detector_factory=lambda: DriftDetector(
                threshold=0.2, window=8, min_samples=2
            )
        )
        for _ in range(8):
            obs.observe("dev", msg(16), 200.0, 100.0)
        assert obs.drifting_keys() == [("dev", "small")]
        obs.reset_detector("dev", "small")
        assert obs.drifting_keys() == []
        # Error history and sample counts survive — only the detector
        # window (which scored the replaced interface) is forgotten.
        assert obs.samples("dev", "small") == 8
        assert obs.error_summary("dev", "small").mean == pytest.approx(1.0)

    def test_reset_unknown_key_is_a_no_op(self):
        DriftObservatory().reset_detector("ghost", "small")


class TestObserve:
    def test_exact_mean_via_window_folding(self):
        # 200 errors, more than the 64-slot reservoir keeps, each k/64
        # (observed 64 cycles, predicted 64 + k), so every partial sum
        # is exact and the moments can be compared with ==.
        obs = DriftObservatory(reservoir_capacity=64)
        steps = [(i * 37) % 101 for i in range(1, 201)]
        for k in steps:
            obs.observe("dev", msg(16), 64.0 + k, 64.0)
        errors = [k / 64 for k in steps]
        summary = obs.error_summary("dev", "small")
        assert summary.count == 200
        assert summary.mean == sum(errors) / 200
        assert summary.minimum == min(errors) == 0.0
        assert summary.maximum == max(errors) == 100 / 64

    def test_reservoir_quantiles_track_stream(self):
        obs = DriftObservatory(reservoir_capacity=64)
        for i in range(500):
            obs.observe("dev", msg(16), 110.0, 100.0)
        quant = obs.error_summary("dev", "small")
        assert quant.p50 == pytest.approx(0.10)
        assert obs.samples("dev", "small") == 500

    def test_detector_flags_sustained_drift(self):
        obs = DriftObservatory(
            detector_factory=lambda: DriftDetector(
                threshold=0.2, window=8, min_samples=8
            )
        )
        for _ in range(8):
            assert not obs.observe("dev", msg(16), 100.0, 100.0)
        for _ in range(16):
            drifting = obs.observe("dev", msg(16), 200.0, 100.0)
        assert drifting
        assert obs.drifting_keys() == [("dev", "small")]
        assert "DRIFTING" in obs.report()

    def test_keys_are_per_device_and_class(self):
        obs = DriftObservatory()
        obs.observe("a", msg(16), 1.0, 1.0)
        obs.observe("a", msg(512), 1.0, 1.0)
        obs.observe("b", msg(16), 1.0, 1.0)
        assert obs.keys() == [("a", "medium"), ("a", "small"), ("b", "small")]

    def test_snapshot_carries_scores_and_timestamps(self):
        obs = DriftObservatory()
        obs.observe("dev", msg(16), 110.0, 100.0, at=1234.0)
        snap = obs.snapshot()
        entry = snap["dev/small"]
        assert entry["samples"] == 1
        assert entry["last_at"] == 1234.0
        assert entry["err_mean"] == pytest.approx(0.10)

    def test_metrics_integration(self):
        reg = MetricsRegistry()
        obs = DriftObservatory(metrics=reg)
        for _ in range(3):
            obs.observe("dev", msg(16), 110.0, 100.0)
        snap = reg.snapshot()
        assert snap['obs_drift_samples_total{device="dev",rpc_class="small"}'] == 3.0

    def test_empty_report(self):
        assert "no samples" in DriftObservatory().report()


class TestObsBundle:
    def test_enabled_wires_observatory_to_registry(self):
        obs = Obs.enabled()
        assert obs.observatory.metrics is obs.metrics
        assert obs.active_tracer() is obs.tracer

    def test_partial_bundles(self):
        obs = Obs.enabled(tracing=False, drift=False)
        assert obs.tracer is None and obs.observatory is None
        assert obs.metrics is not None
        assert Obs().active_tracer() is None
