"""Open-loop serving: admission, shedding, and overload behavior."""

import math

import pytest

from repro.obs import Obs
from repro.runtime.pool import rpc_pool
from repro.runtime.serving import (
    DEFAULT_PRIORITY,
    REASON_ADMISSION_REJECTED,
    REJECTION_REASONS,
    OpenLoopServer,
    ServeResult,
)
from repro.workloads import ENTERPRISE_MIX


def run_at(mean_gap, *, faults="none", policy="interface_predicted", count=300, **kw):
    pool = rpc_pool(policy, faults=faults)
    server = OpenLoopServer(pool, **kw)
    msgs, arrivals = ENTERPRISE_MIX.sample_open(seed=13, count=count, mean_gap=mean_gap)
    return pool, server.run(msgs, arrivals)


class TestAccounting:
    def test_every_offered_request_is_accounted_for(self):
        _, res = run_at(200.0, faults="storm", queue_limit=16, deadline=30_000.0)
        assert len(res.served) + len(res.dropped) + len(res.shed) == res.offered

    def test_unloaded_server_serves_everything(self):
        _, res = run_at(50_000.0)
        assert res.loss_rate == 0.0
        assert len(res.answered) == res.offered
        # No queueing at this rate: latency is pure service time.
        assert res.latency_summary().p99 < 10_000.0

    def test_misaligned_trace_rejected(self):
        pool = rpc_pool()
        with pytest.raises(ValueError, match="align"):
            OpenLoopServer(pool).run([], [0.0])

    def test_parameter_validation(self):
        pool = rpc_pool()
        with pytest.raises(ValueError):
            OpenLoopServer(pool, queue_limit=0)
        with pytest.raises(ValueError):
            OpenLoopServer(pool, deadline=0.0)
        with pytest.raises(ValueError):
            OpenLoopServer(pool, max_inflight=0)


class TestLossLedger:
    def test_loss_rate_of_empty_result_is_zero(self):
        # No offered traffic must read as 0% loss, not ZeroDivisionError.
        res = ServeResult(offered=0)
        assert res.loss_rate == 0.0
        assert res.loss_rate == 0.0
        assert res.losses == 0

    def test_every_loss_counted_exactly_once(self):
        # The three loss ledgers are disjoint: a rejected request never
        # reaches the pool, a pool-level failure lives only in served.
        _, res = run_at(150.0, faults="storm", queue_limit=8, deadline=25_000.0)
        failed = sum(not r.ok for r in res.served)
        assert res.losses == len(res.dropped) + len(res.shed) + failed
        rejected_ids = {id(r.request) for r in res.dropped + res.shed}
        failed_ids = {id(r.request) for r in res.served if not r.ok}
        assert not rejected_ids & failed_ids
        assert res.loss_rate == res.losses / res.offered

    def test_every_rejection_carries_a_named_reason(self):
        # A tight queue exercises the drop ledger; a roomy queue with a
        # tight deadline exercises the shed ledger.
        _, tight = run_at(150.0, faults="storm", queue_limit=8, deadline=25_000.0)
        _, aged = run_at(100.0, faults="storm", queue_limit=512, deadline=15_000.0)
        assert tight.dropped and aged.shed
        for rejection in tight.dropped + tight.shed + aged.dropped + aged.shed:
            assert rejection.reason in REJECTION_REASONS
            assert rejection.priority == DEFAULT_PRIORITY

    def test_priority_fn_stamps_rejections(self):
        pool = rpc_pool("interface_predicted", faults="storm")
        server = OpenLoopServer(
            pool, queue_limit=8, deadline=25_000.0, priority_fn=lambda r: "batch"
        )
        msgs, arrivals = ENTERPRISE_MIX.sample_open(seed=13, count=300, mean_gap=150.0)
        res = server.run(msgs, arrivals)
        assert res.dropped or res.shed
        for rejection in res.dropped + res.shed:
            assert rejection.priority == "batch"


class TestDropRateMonotonicity:
    def test_drop_rate_rises_with_arrival_rate(self):
        # Satellite: pushing the arrival rate up (mean gap down) through
        # a faulted fleet must not *reduce* the drop rate.
        rates = []
        for mean_gap in (2_000.0, 400.0, 150.0, 60.0):
            _, res = run_at(
                mean_gap, faults="storm", queue_limit=16, deadline=40_000.0
            )
            rates.append(res.loss_rate)
        assert rates == sorted(rates), rates
        assert rates[-1] > 0.0, "overload must actually drop"

    def test_queue_limit_bounds_waiting_room(self):
        # A tighter queue drops more at the same offered load.
        _, tight = run_at(100.0, faults="storm", queue_limit=4)
        _, roomy = run_at(100.0, faults="storm", queue_limit=256)
        assert len(tight.dropped) > len(roomy.dropped)


class TestDeadlineShedding:
    def test_aged_requests_are_shed_before_touching_a_device(self):
        pool, res = run_at(
            100.0, faults="storm", queue_limit=512, deadline=15_000.0, count=400
        )
        assert res.shed, "overload with a tight deadline must shed"
        served_ids = {id(r.request) for r in res.served}
        on_tape = {
            id(rec.request) for d in pool.devices for rec in d.device.records
        }
        for rejection in res.shed + res.dropped:
            assert id(rejection.request) not in served_ids
            assert id(rejection.request) not in on_tape  # never dispatched
        for rejection in res.shed:
            assert rejection.time - rejection.arrival > 15_000.0

    def test_shed_requests_never_reach_a_tripped_device(self):
        # The router invariant, end to end: under a storm that trips
        # Protoacc's breaker, no request — served, shed, or dropped —
        # is ever dispatched to a device whose breaker refused it.
        pool, res = run_at(
            150.0, faults="storm", queue_limit=64, deadline=40_000.0, count=400
        )
        assert pool.invariant_violations == 0
        from repro.runtime import BreakerState

        protoacc = pool.device("protoacc").device
        opened = [
            t for t in protoacc.breaker.transitions if t.state is BreakerState.OPEN
        ]
        assert opened, "storm should trip the breaker"
        # Every record on the tripped device's tape was admitted:
        # either it ran attempts, or it predates any trip.
        for rec in protoacc.records:
            assert rec.attempts > 0


class TestLatencyBreakdown:
    def test_components_sum_to_end_to_end(self):
        # The tentpole invariant: every served request's cycles decompose
        # exactly into admission wait + device queue + service + retry.
        _, res = run_at(
            150.0, faults="storm", queue_limit=64, deadline=40_000.0, count=300
        )
        assert len(res.breakdowns) == len(res.served)
        for b, served in zip(res.breakdowns, res.served, strict=True):
            assert math.isclose(
                b.total, b.end_to_end, rel_tol=1e-9, abs_tol=1e-6
            ), (b.total, b.end_to_end)
            assert b.completed == served.completed
            assert min(b.queue_wait, b.device_queue, b.service, b.retry) >= 0.0

    def test_overload_shows_up_as_queueing_not_service(self):
        _, fast = run_at(50_000.0, count=100)
        _, slow = run_at(100.0, count=100, queue_limit=512)
        mean_wait = lambda r: sum(b.queue_wait for b in r.breakdowns) / len(  # noqa: E731
            r.breakdowns
        )
        assert mean_wait(fast) == 0.0
        assert mean_wait(slow) > 0.0

    def test_storm_charges_retry_cycles(self):
        _, res = run_at(
            400.0, faults="storm", policy="round_robin", queue_limit=64, count=300
        )
        assert sum(b.retry for b in res.breakdowns) > 0.0


class TestHedgingUnderLoad:
    def test_storm_survival_without_hangs(self):
        # The acceptance bar: a storm trips a device, the pool keeps
        # answering (drops allowed), and the run terminates.
        pool, res = run_at(400.0, faults="storm", queue_limit=32, deadline=60_000.0)
        assert len(res.answered) > 0.5 * res.offered
        hedged_and_answered = [r for r in res.served if r.hedges > 0 and r.ok]
        assert hedged_and_answered, "a storm run should rescue some calls by hedging"
        assert pool.invariant_violations == 0


class _RefuseFrom:
    """Duck-typed controller refusing every arrival at or after ``at``."""

    def __init__(self, at: float):
        self.at = at

    def admission_reason(self, request, priority, now, queue_depth):
        return REASON_ADMISSION_REJECTED if now >= self.at else None


class TestStoredRun:
    """The time-series store a run leaves behind stays in time order,
    and its final fold is the run's end state."""

    REFUSED = 'server_requests_total{outcome="dropped",reason="admission_rejected"}'

    def serve(self, refused: int):
        """40 unloaded requests, the last ``refused`` of them refused at
        the door (so the run ends on refusals after its last completion)."""
        msgs, arrivals = ENTERPRISE_MIX.sample_open(seed=13, count=40, mean_gap=50_000.0)
        obs = Obs.enabled(tracing=False, tsdb=True)
        controller = _RefuseFrom(arrivals[len(arrivals) - refused])
        server = OpenLoopServer(rpc_pool(obs=obs), controller=controller, obs=obs)
        res = server.run(msgs, arrivals)
        store = obs.tsdb
        for name in store.series_names():
            times = [at for at, _ in store.points(name)]
            assert times == sorted(times), name
        assert store.snapshot()["last_pump_at"] == arrivals[-1]
        assert store.latest(self.REFUSED) == (arrivals[-1], float(refused))
        assert store.rate(self.REFUSED) is not None
        return res, arrivals

    def test_nothing_served(self):
        res, _ = self.serve(refused=40)
        assert not res.served

    def test_run_ends_on_refusals(self):
        res, arrivals = self.serve(refused=20)
        assert len(res.served) == 20
        assert max(r.completed for r in res.served) < arrivals[-1]
