"""What the observability plane stores and decides, pinned by digest.

One seeded autoscaling run -- E17's arc cut to 200 requests, with
metrics, the drift observatory and the time-series store on and no
tracer -- and SHA-256 digests of what it leaves behind:

* every tsdb series' points, the event log and ``store.snapshot()``;
* ``metrics.snapshot()``;
* the controller's SLO verdicts, scale events and brownout rung moves;
* the drift observatory's per-key ``samples``, ``score``, ``threshold``,
  ``drifting`` and ``last_at``.

Values are rendered with ``repr`` (floats as their shortest round-trip
text), so a digest moves exactly when a stored bit does.  A change to
how the obs plane keeps its windows must leave every digest as it is.

The drift scores (the ``obs_drift_score`` series and gauges, and each
key's ``score``) are a float ``sum()`` over the detector's error window,
and Python 3.12 sums floats with compensated summation, so their last
bits differ between 3.11 and 3.12.  They are left out of the other
digests and pinned on their own, on Python before 3.12 only.
"""

import hashlib
import sys

import pytest

from repro.obs import Obs
from repro.scale.scenario import run_scale_scenario

DRIFT_SCORE = "obs_drift_score"


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def is_drift_score(key: str) -> bool:
    return key.startswith(DRIFT_SCORE)


@pytest.fixture(scope="module")
def run():
    out = run_scale_scenario(count=200, obs=Obs.enabled(tracing=False, tsdb=True))
    return out["pool"].obs, out["controller"]


def test_tsdb_points_events_and_snapshot(run):
    obs, _ = run
    store = obs.tsdb
    points = {
        name: store.points(name)
        for name in store.series_names()
        if not is_drift_score(name)
    }
    assert len(points) == 53
    assert digest(points) == (
        "425594d14c629b2ef3fb298243fd1e6ebb895e904f9bb12a021f2ba8625c57ff"
    )
    assert digest(store.events()) == (
        "65712bab31fe4bb7119069346044eb8f062ddae97c416f7173fb31fec65cc2fe"
    )
    assert digest(store.snapshot()) == (
        "c82bd49f05440e20d98b278b5a90ffcd8a85a40db960163462094f34b70d12ef"
    )


def test_metrics_snapshot(run):
    obs, _ = run
    snapshot = {k: v for k, v in obs.metrics.snapshot().items() if not is_drift_score(k)}
    assert digest(snapshot) == (
        "ca3d1f048a14133c2413b53f0dd0b66064e1f4d0156908b6bf90956618dfa95c"
    )


def test_controller_decisions(run):
    _, controller = run
    statuses = [
        (s.at, s.latency, s.loss_rate, s.served, s.losses, s.latency_ok, s.loss_ok)
        for s in controller.statuses
    ]
    scale_events = [
        (e.at, e.action, e.device, e.kind, e.reason, e.predicted_service, e.candidate_scores)
        for e in controller.scaler.events
    ]
    rung_moves = [
        (t.at, t.direction, int(t.from_rung), int(t.to_rung))
        for t in controller.ladder.transitions
    ]
    assert (len(statuses), len(scale_events), len(rung_moves)) == (89, 5, 2)
    assert digest(statuses) == (
        "b868d27a2e50142052c296779fcb7ce8ce03a2e8da94a9a4e25f833aeabab29c"
    )
    assert digest(scale_events) == (
        "6e897a85e919e0519cb7c4a484d7a4c87b8004f0c8118852b4372d95198cba7a"
    )
    assert digest(rung_moves) == (
        "2f0586dc584b4a7bdf028e6660765c11918f22f14540c8cc0ba8fe81e012f40a"
    )


def test_observatory_verdicts(run):
    obs, _ = run
    verdicts = {
        key: (e["samples"], e["threshold"], e["drifting"], e["last_at"])
        for key, e in obs.observatory.snapshot().items()
    }
    assert digest(verdicts) == (
        "467ccb98e4360f94486c4711f48ddc4575d41fd304a5a743362f4394b425838e"
    )


@pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="Python 3.12's compensated float sum moves the drift scores' last bits",
)
def test_drift_scores(run):
    obs, _ = run
    store = obs.tsdb
    scores = {
        "points": {n: store.points(n) for n in store.series_names() if is_drift_score(n)},
        "gauges": {k: v for k, v in obs.metrics.snapshot().items() if is_drift_score(k)},
        "observatory": {k: e["score"] for k, e in obs.observatory.snapshot().items()},
    }
    assert digest(scores) == (
        "971e4493f843d58db660049d9ae5d876acbde9dd2035ac7019a017ebae80b90c"
    )
