"""MetricsRegistry: instrument semantics, labels, exposition."""

import pytest

from repro.hw import Fifo
from repro.obs import Histogram, MetricsRegistry, watch_fifo


class TestInstruments:
    def test_counter_accumulates_and_rejects_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", path="accel")
        c.inc()
        c.inc(4)
        assert reg.counter("requests_total", path="accel").value == 5.0
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labels_identify_series(self):
        reg = MetricsRegistry()
        reg.counter("x_total", device="a").inc()
        reg.counter("x_total", device="b").inc(2)
        snap = reg.snapshot()
        assert snap['x_total{device="a"}'] == 1.0
        assert snap['x_total{device="b"}'] == 2.0

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        reg.counter("y_total", a="1", b="2").inc()
        assert reg.counter("y_total", b="2", a="1").value == 1.0

    def test_gauge_goes_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(5)
        g.dec(2)
        g.inc()
        assert g.value == 4.0

    def test_kind_conflicts_raise(self):
        reg = MetricsRegistry()
        reg.counter("z_total")
        with pytest.raises(ValueError, match="counter"):
            reg.gauge("z_total")

    def test_histogram_bucket_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.histogram("lat_cycles", buckets=(10.0, 100.0))
        with pytest.raises(ValueError, match="buckets"):
            reg.histogram("lat_cycles", buckets=(10.0, 50.0))


class TestRepeatedLookups:
    """A repeated lookup is answered from the labels as passed; every
    other one still goes through the validated path."""

    def test_keyword_order_and_value_type_find_one_instrument(self):
        reg = MetricsRegistry()
        first = reg.counter("calls_total", device="1", path="accel")
        assert reg.counter("calls_total", device="1", path="accel") is first
        assert reg.counter("calls_total", path="accel", device="1") is first
        assert reg.counter("calls_total", device=1, path="accel") is first
        assert reg.counter("calls_total", path="accel", device=1) is first
        assert list(reg.snapshot()) == ['calls_total{device="1",path="accel"}']

    def test_equal_values_that_render_differently_stay_apart(self):
        reg = MetricsRegistry()
        reg.counter("x_total", device=1).inc()
        reg.counter("x_total", device=True).inc(2)
        reg.counter("x_total", device=1.0).inc(3)
        assert reg.snapshot() == {
            'x_total{device="1"}': 1.0,
            'x_total{device="1.0"}': 3.0,
            'x_total{device="True"}': 2.0,
        }

    def test_unhashable_label_value(self):
        reg = MetricsRegistry()
        reg.gauge("g", tags=["a", "b"]).set(2)
        assert reg.gauge("g", tags=["a", "b"]).value == 2.0
        assert reg.snapshot() == {"g{tags=\"['a', 'b']\"}": 2.0}

    def test_kind_conflicts_raise_after_a_cached_lookup(self):
        reg = MetricsRegistry()
        assert reg.counter("z_total", device="a") is reg.counter("z_total", device="a")
        with pytest.raises(ValueError, match="counter"):
            reg.gauge("z_total", device="a")
        with pytest.raises(ValueError, match="counter"):
            reg.histogram("z_total", device="a")

    def test_bucket_mismatch_raises_after_a_cached_lookup(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat_cycles", buckets=(10.0, 100.0), device="a")
        assert reg.histogram("lat_cycles", buckets=(10.0, 100.0), device="a") is hist
        assert reg.histogram("lat_cycles", buckets=[10, 100], device="a") is hist
        with pytest.raises(ValueError, match="buckets"):
            reg.histogram("lat_cycles", buckets=(10.0, 50.0), device="a")
        with pytest.raises(ValueError, match="buckets"):
            reg.histogram("lat_cycles", device="a")
        default = reg.histogram("wait_cycles")
        assert reg.histogram("wait_cycles") is default
        with pytest.raises(ValueError, match="buckets"):
            reg.histogram("wait_cycles", buckets=(1.0,))

    def test_only_reusable_lookups_are_remembered(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h_cycles", buckets=(1.0, 2.0))
        for _ in range(3):
            assert reg.histogram("h_cycles", buckets=iter((1.0, 2.0))) is hist
            assert reg.counter("n_total", device=7) is reg.counter("n_total", device="7")
        assert len(reg._lookups) == 2  # the tuple-bucket and "7" lookups

    def test_series_pairs_follow_creation_and_run_probes(self):
        reg = MetricsRegistry()
        reg.counter("b_total", device="x")
        reg.histogram("a_cycles")
        reg.add_probe(lambda r: r.gauge("probed").set(1))
        pairs = reg.series()
        assert [key for key, _ in pairs] == ['b_total{device="x"}', "a_cycles", "probed"]
        assert pairs[1][1] is reg.histogram("a_cycles")


class TestHistogram:
    def test_observe_and_cumulative_snapshot(self):
        h = Histogram(buckets=(10.0, 100.0))
        for v in (1, 5, 50, 500):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4 and snap["sum"] == 556.0
        assert snap["buckets"] == {"10": 2, "100": 3, "+Inf": 4}
        assert h.mean == pytest.approx(139.0)

    def test_quantile_is_bucket_resolution(self):
        h = Histogram(buckets=(10.0, 100.0))
        for v in (1, 2, 3, 50):
            h.observe(v)
        assert h.quantile(0.5) == 10.0
        assert h.quantile(1.0) == 100.0
        h.observe(1e9)
        assert h.quantile(1.0) == float("inf")
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(10.0, 10.0))
        with pytest.raises(ValueError):
            Histogram(buckets=())


class TestExposition:
    def test_render_text_prometheus_shape(self):
        reg = MetricsRegistry()
        reg.counter("req_total", path="accel").inc(3)
        reg.histogram("lat_cycles", buckets=(10.0,)).observe(4)
        text = reg.render_text()
        assert "# TYPE req_total counter" in text
        assert 'req_total{path="accel"} 3' in text
        assert 'lat_cycles_bucket{le="10"} 1' in text
        assert "lat_cycles_count 1" in text

    def test_watch_fifo_probe_samples_at_snapshot(self):
        reg = MetricsRegistry()
        fifo = Fifo(4, "ingress")
        watch_fifo(reg, fifo)
        fifo.push(1)
        fifo.push(2)
        fifo.pop()
        snap = reg.snapshot()
        assert snap['fifo_depth{fifo="ingress"}'] == 1.0
        assert snap['fifo_high_water{fifo="ingress"}'] == 2.0
        assert snap['fifo_pushes{fifo="ingress"}'] == 2.0
