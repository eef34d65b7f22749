"""Streaming statistics: Reservoir, zero-actual guards."""

import numpy as np
import pytest

from repro.hw import ErrorReport, Reservoir
from repro.hw.stats import relative_error, relative_errors


class TestReservoir:
    def test_fills_then_stays_capped(self):
        r = Reservoir(50, seed=1)
        r.extend(range(500))
        assert len(r) == 50
        assert r.seen == 500
        assert all(0 <= v < 500 for v in r.values)

    def test_deterministic_for_seed(self):
        a, b = Reservoir(10, seed=3), Reservoir(10, seed=3)
        a.extend(range(100))
        b.extend(range(100))
        assert a.values == b.values

    def test_small_stream_is_kept_verbatim(self):
        r = Reservoir(100, seed=0)
        r.extend([3.0, 1.0, 2.0])
        assert r.values == [3.0, 1.0, 2.0]
        assert r.summary().count == 3

    def test_sample_quantiles_approximate_stream(self):
        rng = np.random.default_rng(5)
        stream = rng.exponential(1.0, size=20_000)
        r = Reservoir(2_000, seed=9)
        r.extend(stream)
        assert r.summary().p50 == pytest.approx(float(np.median(stream)), rel=0.1)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Reservoir(0)


class TestZeroActualGuard:
    """Satellite regression: zero actuals must follow the scalar guard,
    never numpy's nan/inf divide-by-zero path."""

    def test_vectorized_matches_scalar_elementwise(self):
        predicted = [1.0, 0.0, 2.0, 0.0, 5.0]
        actual = [0.0, 0.0, 4.0, 1.0, 0.0]
        vec = relative_errors(predicted, actual)
        for p, a, v in zip(predicted, actual, vec, strict=True):
            assert v == relative_error(p, a)
        assert not np.isnan(vec).any()

    def test_no_runtime_warnings(self):
        with np.errstate(divide="raise", invalid="raise"):
            out = relative_errors([1.0, 0.0], [0.0, 0.0])
        assert out[0] == float("inf") and out[1] == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            relative_errors([1.0], [1.0, 2.0])

    def test_error_report_unbounded_pairs_counted(self):
        rep = ErrorReport.of([110.0, 5.0, 90.0], [100.0, 0.0, 100.0])
        assert rep.infinite == 1
        assert rep.count == 3
        assert np.isfinite(rep.avg) and np.isfinite(rep.max)
        assert rep.avg == pytest.approx(0.10)
        assert "[1 unbounded]" in rep.as_percent()

    def test_error_report_all_unbounded(self):
        rep = ErrorReport.of([5.0], [0.0])
        assert rep.infinite == 1 and rep.avg == 0.0 and rep.p50 is None

    def test_clean_report_unchanged(self):
        rep = ErrorReport.of([110.0, 90.0], [100.0, 100.0])
        assert rep.infinite == 0
        assert "unbounded" not in rep.as_percent()
