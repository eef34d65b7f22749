"""Edge-case tests for repro.hw.stats: Summary, Reservoir, and the
degenerate samples the happy-path suites never hit."""

import pytest

from repro.hw.stats import ErrorReport, Reservoir, Summary, relative_error


class TestSummaryEdges:
    def test_empty_sample_raises(self):
        with pytest.raises(ValueError, match="empty"):
            Summary.of([])

    def test_single_sample_quantiles_collapse_to_the_value(self):
        s = Summary.of([42.0])
        assert s.count == 1
        assert s.mean == s.minimum == s.maximum == 42.0
        assert s.p50 == s.p95 == s.p99 == 42.0


class TestReservoirEdges:
    def test_capacity_floor(self):
        with pytest.raises(ValueError):
            Reservoir(0)

    def test_underfull_keeps_everything_in_order(self):
        r = Reservoir(8, seed=1)
        r.extend([3.0, 1.0, 2.0])
        assert r.values == [3.0, 1.0, 2.0]
        assert r.seen == 3 and len(r) == 3

    def test_overflow_is_deterministic_under_seed(self):
        def fill(seed):
            r = Reservoir(16, seed=seed)
            r.extend(float(i) for i in range(1_000))
            return r

        a, b = fill(7), fill(7)
        assert a.values == b.values
        assert a.seen == b.seen == 1_000
        assert len(a) == 16
        # A different seed keeps a different sample of the same stream.
        c = fill(8)
        assert c.values != a.values

    def test_overflow_sample_is_bounded_and_from_the_stream(self):
        r = Reservoir(4, seed=0)
        stream = [float(i) for i in range(100)]
        r.extend(stream)
        assert len(r) == 4
        assert all(v in stream for v in r.values)

    def test_values_returns_a_copy(self):
        r = Reservoir(4, seed=0)
        r.add(1.0)
        r.values.append(99.0)
        assert r.values == [1.0]

    def test_summary_of_empty_reservoir_raises(self):
        with pytest.raises(ValueError):
            Reservoir(4).summary()

    def test_summary_counts_sample_not_stream(self):
        r = Reservoir(4, seed=0)
        r.extend(float(i) for i in range(50))
        s = r.summary()
        assert s.count == 4
        assert r.seen == 50


class TestRelativeErrorEdges:
    def test_zero_zero_is_zero(self):
        assert relative_error(0.0, 0.0) == 0.0

    def test_nonzero_prediction_against_zero_actual_is_inf(self):
        assert relative_error(5.0, 0.0) == float("inf")

    def test_error_report_isolates_unbounded_pairs(self):
        report = ErrorReport.of([1.0, 5.0], [1.0, 0.0])
        assert report.infinite == 1
        assert report.count == 2
        assert report.avg == 0.0 and report.max == 0.0
