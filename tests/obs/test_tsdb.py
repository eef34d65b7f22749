"""Tests for the embedded time-series store (repro.obs.tsdb)."""

import pytest

from repro.hw import Fifo
from repro.obs import TimeSeriesStore
from repro.obs.metrics import MetricsRegistry, watch_fifo
from repro.obs.tsdb import series_key


class TestSeriesKey:
    def test_bare_name(self):
        assert series_key("queue_depth", {}) == "queue_depth"

    def test_labels_sorted_and_quoted(self):
        key = series_key("calls", {"device": "protoacc", "class": "small"})
        assert key == 'calls{class="small",device="protoacc"}'


class TestRecordAndQuery:
    def test_points_time_ordered_and_windowed(self):
        store = TimeSeriesStore()
        for at in (10.0, 20.0, 30.0, 40.0):
            store.record("lat", at, at * 2)
        assert store.points("lat") == [(10.0, 20.0), (20.0, 40.0), (30.0, 60.0), (40.0, 80.0)]
        assert store.points("lat", since=20.0, until=30.0) == [(20.0, 40.0), (30.0, 60.0)]
        assert store.points("missing") == []

    def test_labels_split_series(self):
        store = TimeSeriesStore()
        store.record("lat", 1.0, 5.0, device="a")
        store.record("lat", 1.0, 9.0, device="b")
        assert store.points('lat{device="a"}') == [(1.0, 5.0)]
        assert store.points('lat{device="b"}') == [(1.0, 9.0)]

    def test_ring_evicts_oldest(self):
        store = TimeSeriesStore(capacity=4)
        for i in range(10):
            store.record("x", float(i), float(i))
        pts = store.points("x")
        assert len(pts) == 4
        assert pts == [(6.0, 6.0), (7.0, 7.0), (8.0, 8.0), (9.0, 9.0)]

    def test_latest(self):
        store = TimeSeriesStore()
        assert store.latest("x") is None
        store.record("x", 1.0, 10.0)
        store.record("x", 5.0, 50.0)
        assert store.latest("x") == (5.0, 50.0)

    def test_rate_needs_elapsed_time(self):
        store = TimeSeriesStore()
        assert store.rate("x") is None
        store.record("x", 0.0, 0.0)
        assert store.rate("x") is None
        store.record("x", 100.0, 50.0)
        assert store.rate("x") == pytest.approx(0.5)


class TestEvents:
    def test_event_log_ordered_filtered_bounded(self):
        store = TimeSeriesStore(event_capacity=3)
        store.event("scale:out", 20.0, device="p1")
        store.event("brownout:climb", 10.0, rung=1)
        store.event("scale:in", 30.0, device="p1")
        store.event("scale:out", 40.0, device="p2")  # over capacity
        assert store.dropped_events == 1
        events = store.events()
        assert [name for _, name, _ in events] == [
            "brownout:climb",
            "scale:out",
            "scale:in",
        ]
        assert [name for _, name, _ in store.events("scale:")] == [
            "scale:out",
            "scale:in",
        ]
        assert [at for at, _, _ in store.events(since=15.0, until=25.0)] == [20.0]


class TestPump:
    def test_pump_folds_metrics_snapshot(self):
        metrics = MetricsRegistry()
        metrics.counter("calls_total", device="a").inc(3)
        metrics.gauge("depth").set(7)
        store = TimeSeriesStore()
        written = store.pump(metrics, at=100.0)
        assert written >= 2
        assert store.latest('calls_total{device="a"}') == (100.0, 3.0)
        assert store.latest("depth") == (100.0, 7.0)
        assert store.pumps == 1 and store.last_pump_at == 100.0

    def test_pump_histograms_become_count_and_sum(self):
        metrics = MetricsRegistry()
        metrics.histogram("wait").observe(5.0)
        metrics.histogram("wait").observe(15.0)
        store = TimeSeriesStore()
        store.pump(metrics, at=50.0)
        assert store.latest("wait:count") == (50.0, 2.0)
        assert store.latest("wait:sum") == (50.0, 20.0)

    def test_pump_none_metrics_is_a_noop(self):
        store = TimeSeriesStore()
        assert store.pump(None, at=1.0) == 0

    def test_pumps_store_what_snapshots_report(self):
        # The pump contract over several folds of a changing registry:
        # every pumped series holds exactly the values snapshot() showed
        # at each pump instant, instruments created between pumps (and
        # by a probe) included.
        metrics = MetricsRegistry()
        fifo = Fifo(8, "ingress")
        watch_fifo(metrics, fifo)
        store = TimeSeriesStore()
        expected: dict[str, list[tuple[float, float]]] = {}
        written = []

        def fold(at):
            for key, value in metrics.snapshot().items():
                if isinstance(value, dict):
                    expected.setdefault(f"{key}:count", []).append((at, float(value["count"])))
                    expected.setdefault(f"{key}:sum", []).append((at, float(value["sum"])))
                else:
                    expected.setdefault(key, []).append((at, float(value)))
            written.append(store.pump(metrics, at))

        metrics.counter("calls_total", device="a", path="accel").inc()
        metrics.gauge("depth").set(3)
        fold(100.0)
        metrics.counter("calls_total", path="accel", device="a").inc(2)
        metrics.counter("calls_total", device="b", path="cpu").inc()
        metrics.histogram("wait_cycles", device="a").observe(250.0)
        fifo.push(1)
        fold(200.0)
        metrics.gauge("depth").dec(5)
        metrics.histogram("wait_cycles", device="a").observe(40_000.0)
        metrics.histogram("size_bytes", buckets=(64.0, 512.0)).observe(100)
        fifo.push(2)
        fifo.pop()
        fold(300.0)
        fold(400.0)  # nothing changed: every series still gets a point

        assert store.series_names() == sorted(expected)
        for name, points in expected.items():
            assert store.points(name) == points, name
        assert 'wait_cycles{device="a"}:count' in expected
        assert store.snapshot()["points"] == sum(written)
        assert store.pumps == 4 and store.last_at == 400.0

    def test_pump_and_record_share_a_series(self):
        metrics = MetricsRegistry()
        metrics.gauge("depth", pool="p").set(4)
        store = TimeSeriesStore()
        store.record("depth", 10.0, 1.0, pool="p")
        store.pump(metrics, at=20.0)
        store.record("depth", 30.0, 2.0, pool="p")
        store.pump(metrics, at=40.0)
        assert store.series_names() == ['depth{pool="p"}']
        assert store.points('depth{pool="p"}') == [
            (10.0, 1.0),
            (20.0, 4.0),
            (30.0, 2.0),
            (40.0, 4.0),
        ]

    def test_pumping_an_empty_registry_writes_nothing(self):
        store = TimeSeriesStore()
        assert store.pump(MetricsRegistry(), at=5.0) == 0
        assert store.last_at is None and store.last_pump_at == 5.0

    def test_maybe_pump_throttles(self):
        metrics = MetricsRegistry()
        metrics.gauge("g").set(1)
        store = TimeSeriesStore(pump_interval=1_000.0)
        assert store.maybe_pump(metrics, at=0.0) > 0
        assert store.maybe_pump(metrics, at=500.0) == 0  # inside the interval
        assert store.maybe_pump(metrics, at=1_500.0) > 0


class TestSnapshot:
    def test_snapshot_freshness(self):
        store = TimeSeriesStore()
        store.record("a", 5.0, 1.0)
        store.record("b", 9.0, 2.0)
        store.event("scale:out", 11.0)
        snap = store.snapshot()
        assert snap["series"] == 2
        assert snap["points"] == 2
        assert snap["events"] == 1
        assert snap["last_at"] == 11.0
