"""Symbolic per-token latency bounds for a Petri-net interface.

The analysis lowers the net with :class:`~repro.petri.compiled.CompiledNet`
— the same flat ``(place, weight)`` arc tuples the fast engine executes —
and abstractly interprets every ``delay expr:`` over the
:mod:`~repro.lint.verify.domain` affine domain.  A token's journey from
the entry place to the sink is then a path through the flat arcs, and
the per-token latency bound is the join over every path of the summed
delay forms: one :class:`AffineForm` whose lower side is the best-case
latency and whose upper side is the worst case, symbolic in the token's
payload fields.

What the bound means — and does not mean:

* It is a **no-contention** bound: one token alone in the net.  Queueing
  behind other tokens, server contention, and capacity stalls are
  workload-dependent and deliberately out of scope (they are what the
  simulation engines are for).
* Branch places (several consumers) and forks (several outputs) are
  *joined*: the bound covers whichever way the token goes.
* A cycle reachable from the entry makes the upper bound ``inf``; the
  lower bound ignores the cycle (sound because delays are
  non-negative, which PL007 lints).
* A callable (``fn:`` or programmatic) delay on any reachable
  transition makes the net **opaque**: no symbolic bound is claimed.

:func:`check_corners` closes the loop: every symbolic bound is
concretized at the corner points of the declared feature domains and
checked against a real single-token run on the compiled engine.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from itertools import product
from math import inf

from repro.petri.compiled import CompiledNet
from repro.petri.errors import SimulationError
from repro.petri.net import PetriNet

from ..netrules import expr_ast
from .domain import TOP, AffineForm, Interval
from .monotone import Abs, analyze_delay_expr, expr_features

#: Enumerating every domain corner is exponential in the feature count;
#: past this many corners the check samples the first features only.
MAX_CORNERS = 64


# ----------------------------------------------------------------------
# Expression abstraction
# ----------------------------------------------------------------------
def _fold(tree: ast.expr, env: Mapping[str, object]) -> float | None:
    """Concretely evaluate a token-independent subexpression."""
    from repro.petri.dsl import _SAFE_GLOBALS

    from ..netrules import depends_on_token

    if depends_on_token(tree):
        return None
    scope = dict(_SAFE_GLOBALS)
    scope.update(env)
    try:
        value = eval(  # noqa: S307 - same restricted scope as the DSL
            compile(ast.Expression(body=tree), "<verify>", "eval"), scope
        )
        return float(value)
    except Exception:
        return None


def abstract_expr(
    tree: ast.expr,
    *,
    env: Mapping[str, object] | None = None,
    domains: Mapping[str, Interval] | None = None,
) -> AffineForm | None:
    """Enclose a ``delay expr:`` AST in an affine form, or ``None`` when
    the expression uses a construct the domain cannot soundly model."""
    env = env or {}

    folded = _fold(tree, env)
    if folded is not None:
        return AffineForm.constant(folded)

    def go(node: ast.expr) -> AffineForm | None:
        const = _fold(node, env)
        if const is not None:
            return AffineForm.constant(const)
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "tok"
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            return AffineForm.feature(node.slice.value)
        if isinstance(node, ast.UnaryOp):
            sub = go(node.operand)
            if sub is None:
                return None
            if isinstance(node.op, ast.USub):
                return -sub
            if isinstance(node.op, ast.UAdd):
                return sub
            return None
        if isinstance(node, ast.BinOp):
            left, right = go(node.left), go(node.right)
            if left is None or right is None:
                return None
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left.mul(right, domains)
            if isinstance(node.op, ast.Div):
                if right.is_constant and not right.const.contains(0.0):
                    return left.scale(Interval.point(1.0) / right.const)
                return AffineForm.constant(
                    left.interval(domains) / right.interval(domains), exact=False
                )
            if isinstance(node.op, ast.FloorDiv):
                if right.is_constant and right.const.lo > 0:
                    return left.scale(
                        Interval.point(1.0) / right.const
                    ).widen_const(Interval(-1.0, 0.0))
                quotient = left.interval(domains) / right.interval(domains)
                return AffineForm.constant(quotient + Interval(-1.0, 0.0), exact=False)
            if isinstance(node.op, ast.Mod):
                divisor = right.interval(domains)
                if divisor.lo > 0:
                    return AffineForm.constant(Interval(0.0, divisor.hi), exact=False)
                return None
            return None
        if isinstance(node, ast.IfExp):
            body, orelse = go(node.body), go(node.orelse)
            if body is None or orelse is None:
                return None
            return body.join(orelse)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            args = [go(a) for a in node.args]
            if any(a is None for a in args) or node.keywords:
                return None
            name = node.func.id
            if name == "ceil" and len(args) == 1:
                return args[0].widen_const(Interval(0.0, 1.0))
            if name == "floor" and len(args) == 1:
                return args[0].widen_const(Interval(-1.0, 0.0))
            if name == "abs" and len(args) == 1:
                return AffineForm.constant(
                    args[0].interval(domains).abs_(), exact=False
                )
            if name in ("min", "max") and len(args) >= 2:
                intervals = [a.interval(domains) for a in args]
                total = intervals[0]
                for iv in intervals[1:]:
                    total = total.min_(iv) if name == "min" else total.max_(iv)
                return AffineForm.constant(total, exact=False)
            return None
        return None

    return go(tree)


# ----------------------------------------------------------------------
# Path analysis over the compiled flat arcs
# ----------------------------------------------------------------------
@dataclass
class NetBounds:
    """Per-token latency bounds for one (entry, sink) pair."""

    entry: str
    sink: str
    #: Joined path form: lower side = best case, upper side = worst.
    #: ``None`` when the net is opaque or no path reaches the sink.
    form: AffineForm | None
    #: Per-feature difference-quotient intervals of the path latency
    #: (the monotonicity side-channel of the same traversal); ``None``
    #: exactly when ``form`` is.
    quotients: Mapping[str, Interval] | None = None
    #: Transitions whose delay could not be abstracted (callable / odd
    #: construct); non-empty forces ``form=None``.
    opaque: list[str] = field(default_factory=list)
    #: A cycle was reachable: the upper bound is unbounded.
    unbounded: bool = False
    notes: list[str] = field(default_factory=list)

    @property
    def evaluability(self) -> str:
        """Contract evaluability class for these bounds."""
        if self.form is None:
            return "opaque"
        return "closed-form" if self.form.exact and not self.notes else "piecewise"

    def interval(self, domains: Mapping[str, Interval] | None = None) -> Interval:
        if self.form is None:
            raise ValueError(f"net is opaque from entry {self.entry!r}")
        return self.form.interval(domains)


_CYCLE = object()


def net_latency_bounds(
    net: PetriNet,
    *,
    entry: str,
    sink: str = "out",
    env: Mapping[str, object] | None = None,
    domains: Mapping[str, Interval] | None = None,
) -> NetBounds:
    """Symbolic min/max per-token latency from ``entry`` to ``sink``."""
    if entry not in net.places:
        raise ValueError(f"entry place {entry!r} not in net")
    if sink not in net.places:
        raise ValueError(f"sink place {sink!r} not in net")

    bounds = NetBounds(entry=entry, sink=sink, form=None)
    try:
        compiled = CompiledNet(net)
    except SimulationError as exc:
        bounds.opaque.append(str(exc))
        return bounds

    ordered = net.ordered_transitions()
    delay_forms: list[AffineForm | None] = []
    delay_abs: list[Abs | None] = []
    guard_feats: list[set[str]] = []
    for ti, t in enumerate(ordered):
        guard_tree = expr_ast(getattr(t, "guard_src", None))
        guard_feats.append(
            expr_features(guard_tree, "tok") if guard_tree is not None else set()
        )
        const = compiled.t_delay_const[ti]
        if const is not None:
            delay_forms.append(AffineForm.constant(const))
            delay_abs.append(Abs.constant(const))
            continue
        tree = expr_ast(getattr(t, "delay_src", None))
        if tree is None:
            delay_forms.append(None)
            delay_abs.append(None)
            continue
        delay_forms.append(abstract_expr(tree, env=env, domains=domains))
        a, _ = analyze_delay_expr(tree, env=env, domains=domains)
        delay_abs.append(a)

    sink_idx = compiled.place_index[sink]
    entry_idx = compiled.place_index[entry]
    memo: dict[int, tuple[AffineForm, Abs] | None] = {}
    stack: set[int] = set()
    zero = (AffineForm.constant(0.0), Abs.constant(0.0))
    guards_seen = joins_seen = False

    def place_bound(p: int):
        nonlocal guards_seen, joins_seen
        if p == sink_idx:
            return zero
        if p in memo:
            return memo[p]
        if p in stack:
            return _CYCLE
        stack.add(p)
        joined: tuple[AffineForm, Abs] | None = None
        try:
            for ti in compiled.consumers[p]:
                f = delay_forms[ti]
                fa = delay_abs[ti]
                if f is None or fa is None:
                    name = compiled.t_names[ti]
                    if name not in bounds.opaque:
                        bounds.opaque.append(name)
                    continue
                if compiled.t_guard[ti] is not None:
                    guards_seen = True
                    if guard_feats[ti]:
                        # The routing decision itself depends on these
                        # fields: the latency can jump arbitrarily as
                        # they change, so their quotients are unknown.
                        fa = Abs(
                            fa.value,
                            {
                                **dict(fa.deriv),
                                **dict.fromkeys(guard_feats[ti], TOP),
                            },
                        )
                if len(compiled.t_in[ti]) > 1 or any(
                    w > 1 for _, w in compiled.t_in[ti]
                ):
                    joins_seen = True
                cont: tuple[AffineForm, Abs] | None = None
                n_outputs = 0
                for q, _w in compiled.t_out[ti]:
                    r = place_bound(q)
                    if r is _CYCLE:
                        bounds.unbounded = True
                        continue
                    if r is None:
                        continue
                    n_outputs += 1
                    cont = (
                        r
                        if cont is None
                        else (cont[0].join(r[0]), cont[1].join(r[1]))
                    )
                if cont is None:
                    continue
                option_form = f + cont[0]
                option_abs = fa + cont[1]
                if n_outputs > 1:
                    option_form = AffineForm(
                        option_form.const, dict(option_form.coeffs), exact=False
                    )
                joined = (
                    (option_form, option_abs)
                    if joined is None
                    else (
                        joined[0].join(option_form),
                        joined[1].join(option_abs),
                    )
                )
        finally:
            stack.discard(p)
        memo[p] = joined
        return joined

    result = place_bound(entry_idx)
    if result is _CYCLE or result is None:
        if not bounds.opaque:
            bounds.notes.append(
                f"no acyclic path from {entry!r} to {sink!r} with boundable delays"
            )
            return bounds
        result = None
    if bounds.opaque:
        # A token *could* route through the opaque transition; no sound
        # symbolic claim survives that.
        bounds.notes.append(
            "opaque delays reachable: " + ", ".join(sorted(bounds.opaque))
        )
        return bounds
    form, abs_ = result
    if bounds.unbounded:
        form = AffineForm(
            Interval(form.const.lo, inf), dict(form.coeffs), exact=False
        )
        abs_ = Abs(
            Interval(abs_.value.lo, inf),
            dict.fromkeys(abs_.deriv, TOP),
        )
        bounds.notes.append("cycle reachable from entry: upper bound is unbounded")
    if guards_seen:
        bounds.notes.append("guarded branches joined (guards not tracked)")
    if joins_seen:
        bounds.notes.append(
            "synchronizing transition on a path (single-token bound only)"
        )
    bounds.form = form
    bounds.quotients = dict(abs_.deriv)
    return bounds


# ----------------------------------------------------------------------
# Corner-point concretization against the compiled engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CornerCheck:
    """One concretization probe: a payload, the engine's latency, and
    the symbolic bound evaluated at that payload."""

    point: Mapping[str, float]
    simulated: float
    lower: float
    upper: float
    epsilon: float

    @property
    def ok(self) -> bool:
        tol_lo = self.epsilon * max(1.0, abs(self.lower))
        tol_hi = self.epsilon * max(1.0, abs(self.upper))
        return self.lower - tol_lo <= self.simulated <= self.upper + tol_hi


def corner_points(
    domains: Mapping[str, tuple[float, float]],
    *,
    limit: int = MAX_CORNERS,
) -> Iterator[dict[str, float]]:
    """The corners of the domain box (every feature at its lo or hi),
    capped at ``limit`` points for high-dimensional domains."""
    names = sorted(domains)
    if not names:
        yield {}
        return
    emitted = 0
    # Point domains (lo == hi) would duplicate every corner; dedupe so
    # each distinct corner is simulated once.
    axes = [
        (domains[n][0],) if domains[n][0] == domains[n][1] else domains[n]
        for n in names
    ]
    for combo in product(*axes):
        if emitted >= limit:
            return
        yield dict(zip(names, combo, strict=True))
        emitted += 1


def _payload(point: Mapping[str, float]) -> dict | None:
    if not point:
        return None
    out = {}
    for name, v in point.items():
        fv = float(v)
        out[name] = int(fv) if fv.is_integer() else fv
    return out


def check_corners(
    net_factory,
    bounds: NetBounds,
    domains: Mapping[str, tuple[float, float]],
    *,
    epsilon: float = 0.02,
) -> list[CornerCheck]:
    """Run one token per domain corner through the engine and check the
    observed latency lies inside the concretized symbolic bound.

    ``net_factory`` must build a fresh net per run (simulation mutates
    marking state).  Features with unbounded domains are skipped — the
    corner box must be finite to enumerate.
    """
    from repro.petri.compiled import make_simulator

    if bounds.form is None:
        return []
    finite = {
        n: d for n, d in domains.items() if d[1] < inf and d[0] > -inf
    }
    checks: list[CornerCheck] = []
    for point in corner_points(finite):
        # Features without a declared finite domain sit at 0 (their
        # non-negative floor) so the bound evaluation stays sound.
        full = {n: 0.0 for n in bounds.form.features}
        full.update(point)
        net = net_factory()
        sim = make_simulator(net, sinks=(bounds.sink,))
        sim.inject_stream(bounds.entry, [_payload(full)])
        result = sim.run()
        latencies = result.latencies()
        if not latencies:
            # No completion: either a guard refused the probe token or
            # the net needs resident tokens; report as a failed check.
            checks.append(
                CornerCheck(
                    point=full,
                    simulated=float("nan"),
                    lower=bounds.form.lower_at(full),
                    upper=bounds.form.upper_at(full),
                    epsilon=epsilon,
                )
            )
            continue
        for lat in latencies:
            checks.append(
                CornerCheck(
                    point=full,
                    simulated=float(lat),
                    lower=bounds.form.lower_at(full),
                    upper=bounds.form.upper_at(full),
                    epsilon=epsilon,
                )
            )
    return checks
