"""Symbolic latency bounds over compiled Petri nets.

Each net here is small enough to bound by hand; the tests pin the
derived forms against those hand calculations and then close the loop
with corner-point concretization on the compiled engine.
"""

from math import inf

from repro.lint.verify import (
    Interval,
    check_corners,
    corner_points,
    net_latency_bounds,
)
from repro.petri import parse

AFFINE_PNET = """
net affine

place in
place out

inject in fields size

transition serve
  consume in
  produce out
  delay expr: 10 + 2 * tok["size"]
"""

BRANCH_PNET = """
net branch

place in
place out

inject in fields size big

transition fast
  consume in
  produce out
  guard expr: tok["big"] == 0
  delay 5

transition slow
  consume in
  produce out
  guard expr: tok["big"] == 1
  delay expr: 50 + tok["size"]
"""

CYCLE_PNET = """
net cycle

place in
place loopback
place out

inject in

transition forward
  consume in
  produce loopback
  delay 1

transition spin
  consume loopback
  produce loopback
  delay 1

transition finish
  consume loopback
  produce out
  delay 1
"""

PIPELINE_PNET = """
net pipeline

place in
place mid
place out

inject in fields n

transition first
  consume in
  produce mid
  delay expr: 1 + tok["n"]

transition second
  consume mid
  produce out
  delay 4
"""


class TestAffineNet:
    def test_exact_form(self):
        bounds = net_latency_bounds(parse(AFFINE_PNET), entry="in")
        assert bounds.form is not None and bounds.form.exact
        assert bounds.evaluability == "closed-form"
        assert bounds.form.lower_expr() == "10 + 2*size"
        iv = bounds.form.interval({"size": Interval(0.0, 100.0)})
        assert iv == Interval(10.0, 210.0)

    def test_quotients_prove_monotonicity(self):
        bounds = net_latency_bounds(parse(AFFINE_PNET), entry="in")
        q = bounds.quotients["size"]
        assert q.lo == 2.0 and q.hi == 2.0

    def test_corner_concretization_passes(self):
        bounds = net_latency_bounds(parse(AFFINE_PNET), entry="in")
        domains = {"size": (0.0, 100.0)}
        checks = check_corners(lambda: parse(AFFINE_PNET), bounds, domains)
        assert len(checks) == 2
        assert all(c.ok for c in checks)


class TestBranchJoin:
    def test_guarded_branches_join_to_envelope(self):
        bounds = net_latency_bounds(parse(BRANCH_PNET), entry="in")
        assert bounds.form is not None
        assert not bounds.form.exact  # two regimes -> piecewise envelope
        assert bounds.evaluability == "piecewise"
        iv = bounds.form.interval(
            {"size": Interval(0.0, 10.0), "big": Interval(0.0, 1.0)}
        )
        # Envelope must cover both the 5-cycle fast path and the
        # slow path's worst case 50 + 10.
        assert iv.lo <= 5.0 and iv.hi >= 60.0

    def test_guard_features_widen_their_quotients(self):
        bounds = net_latency_bounds(parse(BRANCH_PNET), entry="in")
        # `big` selects between regimes: no slope claim may survive.
        q = bounds.quotients["big"]
        assert q.lo == -inf and q.hi == inf


class TestCycle:
    def test_cycle_makes_upper_bound_infinite(self):
        bounds = net_latency_bounds(parse(CYCLE_PNET), entry="in")
        assert bounds.unbounded
        assert bounds.form is not None
        assert bounds.form.interval().hi == inf
        assert any("cycle" in note for note in bounds.notes)


class TestPipeline:
    def test_delays_accumulate_along_the_path(self):
        bounds = net_latency_bounds(parse(PIPELINE_PNET), entry="in")
        iv = bounds.form.interval({"n": Interval(0.0, 3.0)})
        assert iv == Interval(5.0, 8.0)

    def test_corner_checks_on_compiled_engine(self):
        bounds = net_latency_bounds(parse(PIPELINE_PNET), entry="in")
        checks = check_corners(lambda: parse(PIPELINE_PNET), bounds, {"n": (0.0, 3.0)})
        assert [c.ok for c in checks] == [True, True]
        simulated = sorted(c.simulated for c in checks)
        assert simulated == [5.0, 8.0]


class TestCornerPoints:
    def test_product_of_extremes(self):
        points = list(
            corner_points({"a": (0.0, 1.0), "b": (2.0, 3.0)})
        )
        assert len(points) == 4
        assert {"a": 0.0, "b": 2.0} in points
        assert {"a": 1.0, "b": 3.0} in points

    def test_point_domain_yields_single_value(self):
        points = list(corner_points({"a": (5.0, 5.0)}))
        assert points == [{"a": 5.0}]

    def test_empty_domains_yield_empty_point(self):
        assert list(corner_points({})) == [{}]

    def test_limit_caps_explosion(self):
        domains = {f"f{i}": (0.0, 1.0) for i in range(10)}  # 1024 corners
        points = list(corner_points(domains, limit=64))
        assert len(points) <= 64
