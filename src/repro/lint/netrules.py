"""Net-family lint passes: static audits of a Petri-net interface.

These are the checks a consumer's toolchain runs on a vendor-shipped
``.pnet`` before trusting it — the performance-IR analogue of
type-checking a header on ingestion.  Structural rules (siphons,
starvation, capacity) work on any :class:`~repro.petri.net.PetriNet`;
expression rules additionally use the delay/guard source text the DSL
parser retains, so their diagnostics point at real lines of the
shipped document.

Rule ids are ``PL0xx`` (Performance-interface Lint / net family); the
catalog with minimal failing examples lives in ``docs/perf-lint.md``.
"""

from __future__ import annotations

import ast
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

from repro.petri.analysis import (
    covers_all_positive,
    incidence_matrix,
    maximal_siphon,
    p_invariants,
    t_invariants,
)
from repro.petri.compiled import key_groups
from repro.petri.errors import KeyRuleError
from repro.petri.net import PetriNet, Transition

from .diagnostics import Diagnostic, Severity, SourceLocation
from .registry import rule


@dataclass
class NetLintContext:
    """Everything a net-family rule may look at.

    Args:
        net: The parsed or programmatically built net.
        filename: Where the net came from (for diagnostics).
        extra_injections: Injection declarations merged over the net's
            own (used by CLIs and by bundles whose nets are built in
            Python and thus carry no ``inject`` clauses).
    """

    net: PetriNet
    filename: str | None = None
    extra_injections: Mapping[str, frozenset[str] | None] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.injections: dict[str, frozenset[str] | None] = dict(
            getattr(self.net, "injections", {})
        )
        self.injections.update(self.extra_injections)
        #: Places with no ordinary or fault arc producing into them.
        self.source_places = sorted(
            set(self.net.places) - self._produced_places()
        )
        #: When a net declares no injection point at all, assume every
        #: source place is one (legacy documents); PL017 reports this.
        self.implicit_injections: list[str] = []
        if not self.injections:
            self.implicit_injections = list(self.source_places)
            self.injections = {p: None for p in self.implicit_injections}

    def _produced_places(self) -> set[str]:
        produced: set[str] = set()
        for t in self.net.transitions.values():
            produced.update(a.place for a in t.outputs)
            if t.timeout is not None:
                produced.add(t.timeout[1])
        return produced

    # ------------------------------------------------------------------
    # Diagnostic helpers
    # ------------------------------------------------------------------
    def loc(self, kind: str, name: str) -> SourceLocation:
        span = getattr(self.net, "source_map", {}).get((kind, name))
        if span is None:
            return SourceLocation(file=self.filename)
        return SourceLocation(file=self.filename, line=span[0], col=span[1])

    def diag(
        self,
        rule_id: str,
        severity: Severity,
        message: str,
        *,
        kind: str = "transition",
        name: str = "",
        hint: str | None = None,
    ) -> Diagnostic:
        return Diagnostic(
            rule_id=rule_id,
            severity=severity,
            message=message,
            location=self.loc(kind, name),
            subject=name or None,
            hint=hint,
        )

    # ------------------------------------------------------------------
    # Structure helpers shared by rules
    # ------------------------------------------------------------------
    def producers_of(self, place: str) -> list[Transition]:
        out = []
        for t in self.net.transitions.values():
            if any(a.place == place for a in t.outputs) or (
                t.timeout is not None and t.timeout[1] == place
            ):
                out.append(t)
        return out

    def consumers_of(self, place: str) -> list[Transition]:
        return [
            t
            for t in self.net.transitions.values()
            if any(a.place == place for a in t.inputs)
        ]


# ----------------------------------------------------------------------
# Expression helpers
# ----------------------------------------------------------------------
def expr_ast(src: str | None) -> ast.expr | None:
    """AST of a stored ``delay``/``guard`` source, or None for
    constants, ``fn:`` references, and unparseable text."""
    if not src or not src.startswith("expr:"):
        return None
    try:
        return ast.parse(src[len("expr:"):].strip(), mode="eval").body
    except SyntaxError:  # the parser already rejected it; be safe
        return None


def tok_fields(tree: ast.expr) -> set[str]:
    """Token payload keys the expression reads via ``tok["key"]``."""
    fields: set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "tok"
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            fields.add(node.slice.value)
    return fields


def depends_on_token(tree: ast.expr) -> bool:
    return any(
        isinstance(n, ast.Name) and n.id in ("tok", "toks") for n in ast.walk(tree)
    )


def fold_constant(tree: ast.expr) -> float | None:
    """Evaluate a token-independent expression; None when it depends on
    the token or fails to evaluate."""
    if depends_on_token(tree):
        return None
    from repro.petri.dsl import _SAFE_GLOBALS

    try:
        value = eval(  # noqa: S307 - same restricted scope as the DSL
            compile(ast.Expression(body=tree), "<lint>", "eval"), dict(_SAFE_GLOBALS)
        )
        return float(value)
    except Exception:
        return None


def _transition_exprs(t: Transition) -> Iterator[tuple[str, ast.expr]]:
    for kind, src in (
        ("delay", getattr(t, "delay_src", None)),
        ("guard", getattr(t, "guard_src", None)),
    ):
        tree = expr_ast(src)
        if tree is not None:
            yield kind, tree


# ----------------------------------------------------------------------
# Structural rules
# ----------------------------------------------------------------------
@rule("PL001", "net", "Empty siphon: a cyclically starved place set deadlocks the net")
def check_empty_siphon(ctx: NetLintContext) -> Iterator[Diagnostic]:
    siphon = maximal_siphon(ctx.net, excluded=ctx.injections)
    # Places with no producer at all are PL002's subject; this rule
    # reports the genuinely cyclic case, where every producer exists
    # but sits behind the very places it is supposed to fill.
    cyclic = sorted(p for p in siphon if ctx.producers_of(p))
    if not cyclic:
        return
    dead = sorted(
        t.name
        for t in ctx.net.transitions.values()
        if any(a.place in siphon for a in t.inputs)
    )
    if not dead:
        return
    yield ctx.diag(
        "PL001",
        Severity.ERROR,
        f"places {cyclic} form an empty siphon: they start empty and no "
        f"firing can ever fill them, deadlocking transitions {dead}",
        kind="place",
        name=cyclic[0],
        hint="declare an injection point inside the cycle (inject PLACE) "
        "or seed it from outside the cycle",
    )


@rule("PL002", "net", "Dead transition: an input place is never produced or injected")
def check_starved_inputs(ctx: NetLintContext) -> Iterator[Diagnostic]:
    for t in ctx.net.transitions.values():
        for arc in t.inputs:
            if arc.place in ctx.injections:
                continue
            if ctx.producers_of(arc.place):
                continue
            yield ctx.diag(
                "PL002",
                Severity.ERROR,
                f"transition {t.name!r} consumes from {arc.place!r}, which no "
                f"transition produces and no injection feeds: it can never fire",
                name=t.name,
                hint=f"add a producer for {arc.place!r} or declare "
                f"'inject {arc.place}'",
            )


@rule("PL003", "net", "Arc weight exceeds place capacity: transition can never fire")
def check_arc_capacity(ctx: NetLintContext) -> Iterator[Diagnostic]:
    for t in ctx.net.transitions.values():
        for direction, arcs in (("consumes", t.inputs), ("outputs", t.outputs)):
            for arc in arcs:
                cap = ctx.net.places[arc.place].capacity
                if cap is not None and arc.weight > cap:
                    yield ctx.diag(
                        "PL003",
                        Severity.ERROR,
                        f"transition {t.name!r} {direction} {arc.weight} tokens "
                        f"at {arc.place!r}, whose capacity is only {cap}: "
                        f"it can never fire",
                        name=t.name,
                        hint=f"raise the capacity of {arc.place!r} or lower "
                        f"the arc weight",
                    )


@rule("PL004", "net", "Disconnected place: no arc touches it")
def check_disconnected(ctx: NetLintContext) -> Iterator[Diagnostic]:
    for name in ctx.net.places:
        if ctx.producers_of(name) or ctx.consumers_of(name):
            continue
        if name in ctx.injections:
            continue
        yield ctx.diag(
            "PL004",
            Severity.WARNING,
            f"place {name!r} is disconnected: no transition reads or writes it",
            kind="place",
            name=name,
            hint="remove it, or wire it into the net",
        )


@rule("PL005", "net", "Sink place: tokens accumulate (fine for observation sinks)")
def check_sinks(ctx: NetLintContext) -> Iterator[Diagnostic]:
    for name in ctx.net.places:
        if ctx.consumers_of(name) or not ctx.producers_of(name):
            continue
        yield ctx.diag(
            "PL005",
            Severity.INFO,
            f"place {name!r} is a sink: produced but never consumed",
            kind="place",
            name=name,
            hint="expected for the observation sink; otherwise tokens leak here",
        )


@rule("PL009", "net", "Unbounded internal place: no backpressure modeled")
def check_unbounded_internal(ctx: NetLintContext) -> Iterator[Diagnostic]:
    for name, place in ctx.net.places.items():
        if place.capacity is not None:
            continue
        if not ctx.producers_of(name) or not ctx.consumers_of(name):
            continue  # sources and sinks are legitimately unbounded
        yield ctx.diag(
            "PL009",
            Severity.INFO,
            f"internal place {name!r} is unbounded: the stage it feeds can "
            f"never exert backpressure upstream",
            kind="place",
            name=name,
            hint="give it a capacity matching the hardware FIFO depth, or "
            "leave unbounded if the queue really is elastic",
        )


@rule("PL010", "net", "Cycles exist but no firing sequence can repeat")
def check_repeatable_firing(ctx: NetLintContext) -> Iterator[Diagnostic]:
    if not _has_cycle(ctx.net):
        return
    c, _, _ = incidence_matrix(ctx.net)
    if c.size and t_invariants(c).shape[0] == 0:
        yield ctx.diag(
            "PL010",
            Severity.INFO,
            "the net contains cycles, but its incidence matrix has no "
            "T-invariant: no firing sequence returns the net to a previous "
            "marking, so every cycle turn consumes external tokens",
            kind="place",
            name=next(iter(ctx.net.places), ""),
            hint="expected for credit/mutex rings fed per item; a ring meant "
            "to spin freely is missing a return arc",
        )


@rule("PL012", "net", "Not conservative: no positive P-invariant covers all places")
def check_conservation(ctx: NetLintContext) -> Iterator[Diagnostic]:
    c, _, _ = incidence_matrix(ctx.net)
    if not c.size:
        return
    if covers_all_positive(p_invariants(c)):
        return
    yield ctx.diag(
        "PL012",
        Severity.INFO,
        "no positive place invariant covers every place: the net can create "
        "or destroy data units internally",
        kind="place",
        name=next(iter(ctx.net.places), ""),
        hint="forks/joins with asymmetric weights do this legitimately; "
        "check that token creation matches the hardware's behavior",
    )


@rule("PL013", "net", "Duplicate arc: the same place listed twice on one side")
def check_duplicate_arcs(ctx: NetLintContext) -> Iterator[Diagnostic]:
    for t in ctx.net.transitions.values():
        for side, arcs in (("consume", t.inputs), ("produce", t.outputs)):
            seen: set[str] = set()
            for arc in arcs:
                if arc.place in seen:
                    yield ctx.diag(
                        "PL013",
                        Severity.WARNING,
                        f"transition {t.name!r} lists {arc.place!r} more than "
                        f"once in its {side} clause",
                        name=t.name,
                        hint=f"use an explicit weight ({arc.place}:2) instead "
                        f"of repeating the place",
                    )
                seen.add(arc.place)


@rule("PL017", "net", "Implicit injection point: workload contract undeclared")
def check_implicit_injection(ctx: NetLintContext) -> Iterator[Diagnostic]:
    for place in ctx.implicit_injections:
        yield ctx.diag(
            "PL017",
            Severity.INFO,
            f"place {place!r} is assumed to be an injection point (the net "
            f"declares none)",
            kind="place",
            name=place,
            hint=f"declare 'inject {place} [fields ...]' to make the workload "
            f"contract explicit and enable token-field dataflow checks",
        )


@rule("PL018", "net", "Dispatch keys break a grouping rule")
def check_dispatch_keys(ctx: NetLintContext) -> Iterator[Diagnostic]:
    # The engine's own validator: a net it would refuse to lower fails
    # here first, at the offending transition's line.
    try:
        key_groups(ctx.net)
    except KeyRuleError as exc:
        for name, message in exc.violations:
            yield ctx.diag(
                "PL018",
                Severity.ERROR,
                message,
                kind="key" if ("key", name) in ctx.net.source_map else "transition",
                name=name,
                hint="every consumer of a key's place must key on it, on one "
                "field, with a value no other consumer uses",
            )


def _has_cycle(net: PetriNet) -> bool:
    """Back-edge DFS over the bipartite graph — existence only, O(V+E)."""
    graph: dict[str, list[str]] = {}
    for t in net.transitions.values():
        tnode = f"t:{t.name}"
        graph.setdefault(tnode, [])
        for arc in t.inputs:
            graph.setdefault(f"p:{arc.place}", []).append(tnode)
        for arc in t.outputs:
            graph[tnode].append(f"p:{arc.place}")
            graph.setdefault(f"p:{arc.place}", [])
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in graph}
    for root in graph:
        if color[root] != WHITE:
            continue
        stack: list[tuple[str, Iterator[str]]] = [(root, iter(graph[root]))]
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:
                    return True
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(graph[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return False


# ----------------------------------------------------------------------
# Token-field dataflow
# ----------------------------------------------------------------------
OPAQUE = None  # payload shape unknown: anything may be present


def available_fields(ctx: NetLintContext) -> dict[str, frozenset[str] | None]:
    """Fixpoint of possibly-present payload fields per place.

    Seeds are the declared injections; default production forwards the
    first consumed token's payload, so a transition's output fields are
    the union over its input places (any of them may be first).  An
    opaque injection (``inject p`` with no field list) makes everything
    downstream opaque — the dataflow rule then stays silent there.
    """
    avail: dict[str, frozenset[str] | None] = {
        p: frozenset() for p in ctx.net.places
    }
    for place, decl in ctx.injections.items():
        avail[place] = OPAQUE if decl is None else frozenset(decl)

    changed = True
    while changed:
        changed = False
        for t in ctx.net.transitions.values():
            incoming: frozenset[str] | None = frozenset()
            for arc in t.inputs:
                got = avail[arc.place]
                if got is OPAQUE:
                    incoming = OPAQUE
                    break
                incoming = incoming | got
            targets = [a.place for a in t.outputs]
            if t.timeout is not None:
                targets.append(t.timeout[1])
            for out in targets:
                cur = avail[out]
                if cur is OPAQUE:
                    continue
                if incoming is OPAQUE:
                    avail[out] = OPAQUE
                    changed = True
                elif not incoming <= cur:
                    avail[out] = cur | incoming
                    changed = True
    return avail


@rule("PL006", "net", "Expression reads a token field no upstream source defines")
def check_token_dataflow(ctx: NetLintContext) -> Iterator[Diagnostic]:
    avail = available_fields(ctx)
    for t in ctx.net.transitions.values():
        possible: frozenset[str] | None = frozenset()
        for arc in t.inputs:
            got = avail[arc.place]
            if got is OPAQUE:
                possible = OPAQUE
                break
            possible = possible | got
        if possible is OPAQUE or not possible:
            continue  # opaque payloads, or starved (PL001/PL002 report that)
        for kind, tree in _transition_exprs(t):
            for fname in sorted(tok_fields(tree) - possible):
                yield ctx.diag(
                    "PL006",
                    Severity.ERROR,
                    f"{kind} of transition {t.name!r} reads tok[{fname!r}], "
                    f"but no upstream injection or production defines it "
                    f"(available: {sorted(possible)})",
                    kind=kind,
                    name=t.name,
                    hint=f"add {fname!r} to the inject declaration feeding "
                    f"this path, or fix the field name",
                )


# ----------------------------------------------------------------------
# Delay/guard expression rules
# ----------------------------------------------------------------------
@rule("PL007", "net", "Delay is negative or non-finite")
def check_negative_delay(ctx: NetLintContext) -> Iterator[Diagnostic]:
    for t in ctx.net.transitions.values():
        value: float | None = None
        if not callable(t.delay):
            value = float(t.delay)
        else:
            tree = expr_ast(getattr(t, "delay_src", None))
            if tree is not None:
                value = fold_constant(tree)
        if value is None:
            continue
        if value < 0 or math.isnan(value) or math.isinf(value):
            yield ctx.diag(
                "PL007",
                Severity.ERROR,
                f"transition {t.name!r} has delay {value}, which is not a "
                f"finite non-negative cycle count",
                kind="delay",
                name=t.name,
                hint="delays are service times; clamp with max(0, ...) if an "
                "expression can undershoot",
            )


@rule("PL008", "net", "Delay expression can go negative or divide by a field")
def check_suspicious_delay(ctx: NetLintContext) -> Iterator[Diagnostic]:
    for t in ctx.net.transitions.values():
        tree = expr_ast(getattr(t, "delay_src", None))
        if tree is None or not depends_on_token(tree):
            continue
        for problem in _suspicious_ops(tree):
            yield ctx.diag(
                "PL008",
                Severity.WARNING,
                f"delay of transition {t.name!r} {problem}",
                kind="delay",
                name=t.name,
                hint="wrap subtractions in max(0, ...) and guard divisors "
                "against zero-valued fields",
            )


def _suspicious_ops(tree: ast.expr) -> list[str]:
    problems: list[str] = []

    def visit(node: ast.AST, guarded: bool) -> None:
        if isinstance(node, ast.Call):
            inner = guarded or (
                isinstance(node.func, ast.Name) and node.func.id in ("max", "abs")
            )
            for child in ast.iter_child_nodes(node):
                visit(child, inner)
            return
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Sub) and not guarded and (
                depends_on_token(node.left) or depends_on_token(node.right)
            ):
                problems.append(
                    "subtracts a workload-dependent term without a max(0, ...) "
                    "clamp: it can evaluate negative"
                )
            if isinstance(node.op, (ast.Div, ast.FloorDiv, ast.Mod)) and (
                depends_on_token(node.right)
            ):
                problems.append(
                    "divides by a workload-dependent term: a zero-valued "
                    "field makes the delay undefined"
                )
        if (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.USub)
            and not guarded
            and depends_on_token(node.operand)
        ):
            problems.append(
                "negates a workload-dependent term without a clamp: it "
                "can evaluate negative"
            )
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    visit(tree, False)
    return problems


@rule("PL011", "net", "Guard is statically constant")
def check_constant_guard(ctx: NetLintContext) -> Iterator[Diagnostic]:
    for t in ctx.net.transitions.values():
        tree = expr_ast(getattr(t, "guard_src", None))
        if tree is None or depends_on_token(tree):
            continue
        value = fold_constant(tree)
        if value is None:
            continue
        if not value:
            yield ctx.diag(
                "PL011",
                Severity.ERROR,
                f"guard of transition {t.name!r} is constantly false: the "
                f"transition can never fire",
                kind="guard",
                name=t.name,
                hint="delete the transition or fix the guard",
            )
        else:
            yield ctx.diag(
                "PL011",
                Severity.WARNING,
                f"guard of transition {t.name!r} is constantly true: it "
                f"never filters anything",
                kind="guard",
                name=t.name,
                hint="drop the guard",
            )


# ----------------------------------------------------------------------
# Fault-arc rules (ROADMAP: fault-aware transitions)
# ----------------------------------------------------------------------
@rule("PL014", "net", "Timeout place is never drained")
def check_timeout_drained(ctx: NetLintContext) -> Iterator[Diagnostic]:
    for t in ctx.net.transitions.values():
        if t.timeout is None:
            continue
        place = t.timeout[1]
        if ctx.consumers_of(place):
            continue
        yield ctx.diag(
            "PL014",
            Severity.WARNING,
            f"timeout place {place!r} of transition {t.name!r} has no "
            f"consumer: fault tokens accumulate there",
            kind="timeout",
            name=t.name,
            hint="fine if the simulation harness treats it as a sink; "
            "otherwise add a recovery transition draining it",
        )


@rule("PL015", "net", "Fault arc can never trigger")
def check_dead_fault_arc(ctx: NetLintContext) -> Iterator[Diagnostic]:
    for t in ctx.net.transitions.values():
        if t.timeout is None:
            continue
        after = t.timeout[0]
        value: float | None = None
        if not callable(t.delay):
            value = float(t.delay)
        else:
            tree = expr_ast(getattr(t, "delay_src", None))
            if tree is not None:
                value = fold_constant(tree)
        if value is not None and value <= after:
            yield ctx.diag(
                "PL015",
                Severity.WARNING,
                f"transition {t.name!r} has constant delay {value} <= timeout "
                f"{after}: the fault arc can never trigger",
                kind="timeout",
                name=t.name,
                hint="lower the timeout below the worst-case delay, or drop "
                "the fault arc",
            )


@rule("PL016", "net", "Timeout place is capacity-bounded")
def check_timeout_capacity(ctx: NetLintContext) -> Iterator[Diagnostic]:
    for t in ctx.net.transitions.values():
        if t.timeout is None:
            continue
        place = t.timeout[1]
        if ctx.net.places[place].capacity is None:
            continue
        yield ctx.diag(
            "PL016",
            Severity.WARNING,
            f"timeout place {place!r} of transition {t.name!r} is bounded: a "
            f"fault burst overflowing it aborts the simulation instead of "
            f"degrading gracefully",
            kind="timeout",
            name=t.name,
            hint="leave fault queues unbounded; the runtime drains them",
        )


