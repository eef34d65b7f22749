"""Drift detection and the CPU fallback path."""

import random
from collections import deque

import pytest

from repro.hw.stats import ErrorReport
from repro.runtime import CpuFallback, DriftDetector, rpc_cpu_fallback
from repro.workloads.rpc import ENTERPRISE_MIX


class TestSymmetricError:
    def test_symmetric_in_its_arguments(self):
        assert DriftDetector.symmetric_error(100.0, 600.0) == pytest.approx(5.0)
        assert DriftDetector.symmetric_error(600.0, 100.0) == pytest.approx(5.0)

    def test_does_not_saturate_when_observed_dwarfs_predicted(self):
        # Plain |p-o|/o tends to 1 as o grows; the symmetric form keeps
        # growing, which is what lets a 6x latency spike trip a 50%
        # threshold.
        plain = abs(100.0 - 600.0) / 600.0
        assert plain < 1.0
        assert DriftDetector.symmetric_error(100.0, 600.0) > 1.0

    def test_zero_handling(self):
        assert DriftDetector.symmetric_error(0.0, 0.0) == 0.0
        assert DriftDetector.symmetric_error(0.0, 5.0) == float("inf")


class TestDriftDetector:
    def test_silent_before_min_samples(self):
        det = DriftDetector(window=8, threshold=0.1, min_samples=4)
        for _ in range(3):
            assert not det.update(100.0, 1000.0)
        assert det.last_score is None

    def test_trips_on_sustained_mispredict(self):
        det = DriftDetector(window=8, threshold=0.5, min_samples=4)
        results = [det.update(100.0, 600.0) for _ in range(4)]
        assert results == [False, False, False, True]
        assert det.last_score == pytest.approx(5.0)

    def test_accurate_predictions_never_trip(self):
        det = DriftDetector(window=8, threshold=0.5, min_samples=4)
        assert not any(det.update(100.0, 105.0) for _ in range(20))

    def test_window_forgets_old_samples(self):
        det = DriftDetector(window=4, threshold=0.5, min_samples=4)
        for _ in range(4):
            det.update(100.0, 600.0)
        # Four healthy samples push the bad ones out of the window.
        healthy = [det.update(100.0, 100.0) for _ in range(4)]
        assert healthy[-1] is False
        assert det.last_score == pytest.approx(0.0)

    def test_score_and_report_match_rescoring_the_window(self):
        # A seeded stream three windows long, with zero, equal and
        # one-sided-zero pairs and a reset in the middle: the kept error
        # window scores bit-for-bit what re-scoring the pairs gives.
        rng = random.Random(7)
        det = DriftDetector(window=16, threshold=0.5, min_samples=5)
        window: deque[tuple[float, float]] = deque(maxlen=16)
        specials = {9: (0.0, 0.0), 10: (250.0, 250.0), 11: (0.0, 40.0), 30: (75.0, 0.0)}
        for i in range(48):
            if i == 24:
                det.reset()
                window.clear()
                assert det.last_score is None
            p, o = specials.get(i, (rng.uniform(50, 500), rng.uniform(50, 500)))
            window.append((p, o))
            drifted = det.update(p, o)
            assert det.samples == len(window)
            if len(window) < det.min_samples:
                assert drifted is False
                continue
            score = sum(DriftDetector.symmetric_error(*pair) for pair in window) / len(window)
            assert det.last_score == score
            assert drifted is (score > det.threshold)

    def test_reset_clears_window(self):
        det = DriftDetector(window=8, threshold=0.5, min_samples=2)
        det.update(100.0, 600.0)
        det.update(100.0, 600.0)
        det.reset()
        assert det.samples == 0
        assert det.last_score is None
        assert not det.update(100.0, 600.0)  # min_samples applies afresh

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftDetector(window=0)
        with pytest.raises(ValueError):
            DriftDetector(window=4, min_samples=5)
        with pytest.raises(ValueError):
            DriftDetector(threshold=0.0)


class TestCpuFallback:
    def test_call_returns_response_and_cycles(self):
        fb = CpuFallback(software_fn=lambda x: x * 2, latency_fn=lambda x: 500.0)
        assert fb.call(21) == (42, 500.0)

    def test_rpc_fallback_encodes_at_modeled_cost(self):
        fb = rpc_cpu_fallback()
        msg = ENTERPRISE_MIX.sample(seed=1, count=1)[0]
        response, cycles = fb.call(msg)
        assert response == msg.encode()
        assert cycles > 0


class TestDerivedThreshold:
    """Auto-refit of the drift threshold from offline validation error."""

    def test_error_report_carries_quantiles(self):
        rep = ErrorReport.of([110, 100, 130, 100], [100, 100, 100, 100])
        assert rep.p50 is not None and rep.p95 is not None and rep.p99 is not None
        assert rep.p50 <= rep.p95 <= rep.p99 <= rep.max

    def test_unbounded_errors_counted_not_poisoning(self):
        rep = ErrorReport.of([110, 5], [100, 0])  # second error is unbounded
        assert rep.infinite == 1
        assert rep.max == pytest.approx(0.10)  # finite errors only
        assert rep.avg == pytest.approx(0.10)
        assert rep.p95 is not None and rep.p95 < float("inf")
        assert "[1 unbounded]" in rep.as_percent()

    def test_threshold_scales_with_offline_p95(self):
        from repro.runtime.degrade import derive_drift_threshold

        rep = ErrorReport.of([128, 72], [100, 100])  # 28% error everywhere
        thr = derive_drift_threshold(rep, headroom=3.0)
        assert thr == pytest.approx(3.0 * rep.p95)
        # A near-perfect interface is clamped to the floor, not zero.
        perfect = ErrorReport.of([100, 100], [100, 100])
        assert derive_drift_threshold(perfect, floor=0.15) == pytest.approx(0.15)

    def test_fallback_when_no_report(self):
        from repro.runtime.degrade import DEFAULT_DRIFT_THRESHOLD, derive_drift_threshold

        assert derive_drift_threshold(None) == DEFAULT_DRIFT_THRESHOLD
        # Pre-quantile reports (hand-built, no p95) also fall back.
        legacy = ErrorReport(avg=0.2, max=0.9, count=10)
        assert derive_drift_threshold(legacy) == DEFAULT_DRIFT_THRESHOLD

    def test_from_error_report_builds_a_detector(self):
        rep = ErrorReport.of([128, 72], [100, 100])
        det = DriftDetector.from_error_report(rep, window=16, min_samples=4)
        assert det.threshold == pytest.approx(max(0.15, 3.0 * rep.p95))
        none_det = DriftDetector.from_error_report(None)
        assert none_det.threshold == pytest.approx(0.5)

    def test_headroom_must_exceed_one(self):
        from repro.runtime.degrade import derive_drift_threshold

        with pytest.raises(ValueError):
            derive_drift_threshold(None, headroom=1.0)
