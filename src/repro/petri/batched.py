"""Mega-batch evaluation: lower a net once, evaluate thousands of items.

The compiled engine (:mod:`repro.petri.compiled`) made one simulation
cheap; sweep-shaped consumers — validation, autotuning, capacity
planning, ``interface_predicted`` pricing — still paid the *per-item
dispatch* cost on every point: a fresh :class:`CompiledNet` lowering,
fresh run-state construction, a full ``SimResult`` with ``Completion``
objects, and a write-back into the net, per workload item.  For the
small nets accelerator interfaces actually ship, that fixed cost
dwarfs the event loop.

This module evaluates an entire matrix of workload items against one
net in a single pass.  Two engines, selected per net:

* **codegen** — for the dominant shipped-net shape (a feed-forward
  chain of single-input/single-output, single-server, guardless
  transitions: JPEG, Protoacc, Optimus Prime, bitcoin), the simulation
  collapses to a per-token recurrence::

      fire[i][s]  = max(done[i][s-1], done[i-1][s], fire[i-K_s][s+1])
      done[i][s]  = fire[i][s] + delay(token_i)

  (arrival, single server frees, reserve-at-start backpressure with
  output capacity ``K_s``).  The recurrence is emitted as straight-line
  Python specialized to the net — no event heap, no deques, no Token
  churn — and executed per item.  An item given as
  :class:`TokenColumns` (every token on the entry place at one time,
  per-field arrays) runs the same recurrence over per-stage delay
  lists: each inlinable ``expr:`` delay is lowered once to an array
  expression (:func:`_array_delay`) and evaluated over the item's
  arrays.  A column item whose delays do not lower, or do not all come
  out finite and positive, runs as its triples instead.

* **columnar** — every other net: the compiled engine's own
  :class:`~repro.petri.compiled.PlanLoop`, the one firing loop
  :class:`CompiledSimulator` runs too, built on first use per
  ``(CompiledNet, sinks)``.  An item makes one token per injection, runs
  to quiescence, and is reduced from the sinks' completion times; it
  skips what only a per-item run reads (``Completion`` objects, the
  write-back into the net).

Both engines are **bit-identical** to :class:`CompiledSimulator` per
item — same completion times, fired counts, deadlock flags, and error
types/messages — and :mod:`repro.petri.differential` asserts it on
every accelerator net and on seeded random structural and keyed nets,
item for item.  Both engines inherit the compiled engine's contract
that guard/delay callables are pure functions of the peeked tokens'
payloads, and do not keep or mutate their argument.

Batch runs are plain quiescent runs: no ``until``/``max_time``
watchdogs and no tracer (per-item deadline control and traces go
through :class:`CompiledSimulator`).
"""

from __future__ import annotations

import ast
import operator
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Any

import numpy as np

from .compiled import CompiledNet
from .dsl import _SAFE_GLOBALS
from .errors import DefinitionError, SimulationError
from .net import PetriNet
from .token import Token, _token_ids

#: Batch engine selector values (``auto`` = codegen when the net is a
#: supported chain, columnar otherwise).
BATCH_ENGINES: tuple[str, ...] = ("auto", "codegen", "columnar")


class BatchItemResult:
    """One item's outcome inside a batch run.

    A trimmed :class:`~repro.petri.simulate.SimResult`: everything a
    sweep consumer reads (makespan, per-sink completion counts, flags),
    nothing a sweep consumer allocates and throws away (``Completion``
    objects, per-token latencies).  ``completion_times`` and ``fired``
    are populated only when the batch ran with ``collect=True`` (the
    differential harness does; the hot path does not).
    """

    __slots__ = (
        "makespan",
        "end_time",
        "counts",
        "first_injection",
        "deadlocked",
        "residual_tokens",
        "completion_times",
        "fired",
    )

    def __init__(
        self,
        makespan: float,
        end_time: float,
        counts: dict[str, int],
        first_injection: float | None,
        deadlocked: bool = False,
        residual_tokens: int = 0,
        completion_times: dict[str, list[float]] | None = None,
        fired: dict[str, int] | None = None,
    ):
        self.makespan = makespan
        self.end_time = end_time
        self.counts = counts
        self.first_injection = first_injection
        self.deadlocked = deadlocked
        self.residual_tokens = residual_tokens
        self.completion_times = completion_times
        self.fired = fired

    @property
    def total_completions(self) -> int:
        return sum(self.counts.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchItemResult(makespan={self.makespan}, "
            f"counts={self.counts}, deadlocked={self.deadlocked})"
        )


@dataclass(frozen=True, eq=False)
class TokenColumns:
    """One workload item's tokens in column form: ``n`` tokens that all
    enter ``place`` at time ``at``, with one 1-D numpy array of length
    ``n`` per payload field.

    Iterating yields the ``(place, payload, at)`` triples the columns
    stand for, in index order: one fresh payload dict per token, fields
    in column order, values as Python scalars (``ndarray.tolist``).  So
    every consumer of triples (the per-item engines, a tracer-enabled
    run, the columnar loop) accepts a ``TokenColumns`` unchanged, while
    the codegen engine reads the arrays themselves and a cache keys the
    item by its arrays' bytes.  ``n`` is the arrays' length; it must be
    given when there are no fields.
    """

    place: str
    at: float
    columns: Mapping[str, np.ndarray]
    n: int = -1

    def __post_init__(self) -> None:
        columns = {name: np.asarray(col) for name, col in self.columns.items()}
        lengths = {col.shape for col in columns.values()}
        n = self.n
        if n < 0:
            if not columns:
                raise ValueError("TokenColumns without fields needs its token count n")
            n = len(next(iter(columns.values())))
        if lengths - {(n,)}:
            raise ValueError(f"TokenColumns fields must be 1-D arrays of length {n}")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "n", n)

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[tuple[str, dict[str, Any], float]]:
        place, at = self.place, self.at
        names = tuple(self.columns)
        if not names:
            return ((place, {}, at) for _ in range(self.n))
        rows = zip(*[col.tolist() for col in self.columns.values()], strict=True)
        return ((place, dict(zip(names, row, strict=True)), at) for row in rows)


# ----------------------------------------------------------------------
# Chain detection (the codegen-supported shape)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChainSpec:
    """A net proven to be a codegen-supported feed-forward chain."""

    entry: str
    sink: str
    stage_names: tuple[str, ...]
    in_names: tuple[str, ...]  # input place of each stage
    delay_consts: tuple[float | None, ...]
    delay_fns: tuple[Any, ...]
    delay_srcs: tuple[str | None, ...]  # inlinable DSL source per stage
    out_caps: tuple[int | None, ...]  # capacity of each stage's output place


def chain_unsupported_reasons(
    net: PetriNet, sinks: Sequence[str] = ("out",), *, compiled: CompiledNet | None = None
) -> list[str]:
    """Why the codegen engine cannot run ``net`` (empty list = it can).

    ``compiled`` reuses an existing lowering of ``net``.
    """
    walk = _walk_chain(net, sinks, compiled)
    return walk if isinstance(walk, list) else []


def chain_spec(
    net: PetriNet, sinks: Sequence[str] = ("out",), *, compiled: CompiledNet | None = None
) -> ChainSpec | None:
    """The :class:`ChainSpec` for ``net``, or ``None`` when unsupported.

    ``compiled`` reuses an existing lowering of ``net``.
    """
    walk = _walk_chain(net, sinks, compiled)
    return walk if isinstance(walk, ChainSpec) else None


def _walk_chain(
    net: PetriNet, sinks: Sequence[str], compiled: CompiledNet | None
) -> list[str] | ChainSpec:
    """The codegen checks and the entry->sink walk, done once: the
    reasons the net is unsupported, or its :class:`ChainSpec`."""
    if len(sinks) != 1:
        return [f"codegen needs exactly one sink (got {list(sinks)!r})"]
    sink = sinks[0]
    c = compiled if compiled is not None else CompiledNet(net)
    n_places = len(c.place_names)
    # Per-transition shape checks.
    reasons: list[str] = []
    for ti, name in enumerate(c.t_names):
        if len(c.t_in[ti]) != 1 or c.t_in[ti][0][1] != 1:
            reasons.append(f"transition {name!r} is not single-input weight-1")
        elif len(c.t_out[ti]) != 1 or c.t_out[ti][0][1] != 1:
            reasons.append(f"transition {name!r} is not single-output weight-1")
        elif c.t_guard[ti] is not None:
            reasons.append(f"transition {name!r} has a guard")
        elif c.t_servers[ti] != 1:
            reasons.append(f"transition {name!r} is not single-server")
        elif c.t_timeout_after[ti] is not None:
            reasons.append(f"transition {name!r} has a timeout fault arc")
        elif (
            len(c.t_out[ti]) == 1
            and (cap := c.capacity[c.t_out[ti][0][0]]) is not None
            and cap < 1
        ):
            reasons.append(
                f"place {c.place_names[c.t_out[ti][0][0]]!r} has capacity {cap} (< 1)"
            )
        elif c.t_delay_const[ti] is not None and c.t_delay_const[ti] <= 0:
            # Zero-delay stages can cascade unboundedly within one
            # instant (the engines' firing budget applies); negative
            # constants raise at first firing.  Both stay on columnar.
            reasons.append(f"transition {name!r} has a non-positive constant delay")
    if reasons:
        return reasons
    # Topology: one entry, one sink, a single linear chain covering
    # every place and transition.
    entries = [
        i
        for i in range(n_places)
        if not c.producers[i] and c.consumers[i]
    ]
    if len(entries) != 1:
        return ["net does not have exactly one entry place"]
    entry = entries[0]
    if c.place_names[entry] == sink:
        return ["entry place is the sink"]
    if c.capacity[entry] is not None:
        return [f"entry place {c.place_names[entry]!r} has finite capacity"]
    if sink not in c.place_index:
        return [f"sink {sink!r} is not a place of net {net.name!r}"]
    sink_idx = c.place_index[sink]
    if c.consumers[sink_idx]:
        return [f"sink {sink!r} has consumers"]
    if c.capacity[sink_idx] is not None:
        return [f"sink place {sink!r} has finite capacity"]
    order: list[int] = []
    place = entry
    seen_places = {entry}
    while place != sink_idx:
        cons = c.consumers[place]
        if len(cons) != 1:
            return [f"place {c.place_names[place]!r} has {len(cons)} consumers (need 1)"]
        ti = cons[0]
        if len(c.producers[place]) > (0 if place == entry else 1):
            return [f"place {c.place_names[place]!r} has multiple producers"]
        order.append(ti)
        place = c.t_out[ti][0][0]
        if place in seen_places:
            return ["net has a cycle"]
        seen_places.add(place)
    if len(order) != len(c.t_names):
        return ["net has transitions outside the entry->sink chain"]
    if len(seen_places) != n_places:
        return ["net has places outside the entry->sink chain"]
    return ChainSpec(
        entry=c.place_names[entry],
        sink=sink,
        stage_names=tuple(c.t_names[ti] for ti in order),
        in_names=tuple(c.t_in_names[ti][0] for ti in order),
        delay_consts=tuple(c.t_delay_const[ti] for ti in order),
        delay_fns=tuple(c.t_delay_fn[ti] for ti in order),
        delay_srcs=tuple(_inlinable_src(c.t_delay_fn[ti]) for ti in order),
        out_caps=tuple(c.capacity[c.t_out[ti][0][0]] for ti in order),
    )


def _inlinable_src(fn: Any) -> str | None:
    """The DSL source of a delay callable, when it can be textually
    inlined into generated code.

    A ``.pnet`` ``expr:`` evaluates its source with ``tok`` bound to the
    head token's payload and the fixed safe-globals in scope.  When the
    expression references only those names (and not ``toks``, the full
    consumed mapping), evaluating the same source against the same
    payload under the same globals is the same computation — so the
    generated loop can run it without the per-firing callable dispatch,
    Token mutation, or consumed-dict plumbing.
    """
    if fn is None:
        return None
    src = getattr(fn, "src", None)
    if not isinstance(src, str):
        return None
    try:
        code = compile(src, "<inline-check>", "eval")
    except SyntaxError:  # pragma: no cover - DSL already validated it
        return None
    names = set(code.co_names)
    if "toks" in names or not names <= (set(_SAFE_GLOBALS) | {"tok"}):
        return None
    return src


# ----------------------------------------------------------------------
# Array lowering of inlinable delays (the column form)
# ----------------------------------------------------------------------

#: The integers the array form carries: int64 arithmetic on them is
#: Python's int arithmetic, and they convert to float64 exactly.
_EXACT_INT = 2**53

#: One value of a lowered expression: ``(value, intish, bound)``.  The
#: value is an array (a Python number for a constant); ``intish`` says an
#: element may be a Python int in the per-token evaluation, and ``bound``
#: then bounds those ints' magnitude (at most 2**53; 0 when not intish).
#: An int64 array holds ints only; an ``intish`` float64 array mixes ints
#: and floats, every int exact.
_Value = tuple[Any, bool, int]

#: A lowered expression: the item's field values in, its value out.
_Lowered = Callable[[Mapping[str, _Value]], _Value]

_ARITH = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}
_BY_CONSTANT = {ast.FloorDiv: operator.floordiv, ast.Mod: operator.mod}
_COMPARE = {
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
}
_min, _max = np.minimum.reduce, np.maximum.reduce
_INF = float("inf")


class _NotLowerable(Exception):
    """The expression uses syntax outside the array subset."""


class _Unfit(Exception):
    """An item's arrays fall outside what the array form computes
    exactly (a missing field, a column of another kind, an int beyond
    2**53, a zero divisor): the item runs as its triples."""


@dataclass(frozen=True)
class ArrayDelay:
    """An inlinable ``expr:`` delay lowered to an array expression: the
    fields it reads, and the lowered expression."""

    fields: frozenset[str]
    evaluate: _Lowered


def _array_delay(src: str) -> ArrayDelay | None:
    """Lower the DSL source of an inlinable delay to an array expression,
    or ``None`` when it uses anything outside the subset: numeric
    constants, ``tok["field"]``, ``+ - * /``, ``//`` and ``%`` by a
    non-zero constant, a comparison with one operator, and ``a if c else
    b`` (a select).

    Over an item's columns the expression gives, element for element,
    the value the per-token evaluation of ``src`` gives: float64
    arithmetic is Python's float arithmetic, and ints are carried only
    while they provably stay within 2**53 (see :data:`_Value`), where
    int64 and exact float64 arithmetic agree with Python's ints.
    Whatever the array form cannot vouch for raises :class:`_Unfit` at
    evaluation.  A select evaluates both branches, so a branch Python
    would skip can make the item fall back, never change a value.
    """
    try:
        tree = ast.parse(src, mode="eval")
        fields: set[str] = set()
        evaluate = _lower(tree.body, fields)
    except (SyntaxError, _NotLowerable):
        return None
    return ArrayDelay(frozenset(fields), evaluate)


def _constant(node: ast.expr) -> int | float:
    """A numeric literal, possibly signed; ints within 2**53."""
    negate = isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if not isinstance(node, ast.Constant) or type(node.value) not in (int, float):
        raise _NotLowerable
    if type(node.value) is int and abs(node.value) > _EXACT_INT:
        raise _NotLowerable
    return -node.value if negate else node.value


def _lower(node: ast.expr, fields: set[str]) -> _Lowered:
    if isinstance(node, (ast.Constant, ast.UnaryOp)):
        c = _constant(node)
        value = (c, True, abs(c)) if type(c) is int else (c, False, 0)
        return lambda env: value
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "tok"
        and isinstance(node.slice, ast.Constant)
        and type(node.slice.value) is str
    ):
        name = node.slice.value
        fields.add(name)
        return lambda env: env[name]
    if isinstance(node, ast.BinOp) and type(node.op) in _BY_CONSTANT:
        return _lower_by_constant(node, fields)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return _lower_div(_lower(node.left, fields), _lower(node.right, fields))
    if isinstance(node, ast.BinOp) and type(node.op) in _ARITH:
        return _lower_arith(node.op, _lower(node.left, fields), _lower(node.right, fields))
    if isinstance(node, ast.Compare):
        test = _lower_compare(node, fields)

        def compared(env):
            flag = test(env)  # a bool is an int in arithmetic
            return (flag.astype(np.int64) if type(flag) is np.ndarray else int(flag)), True, 1

        return compared
    if isinstance(node, ast.IfExp):
        return _lower_select(node, fields)
    raise _NotLowerable


def _lower_arith(op: ast.operator, left: _Lowered, right: _Lowered) -> _Lowered:
    fn = _ARITH[type(op)]
    product = isinstance(op, ast.Mult)

    def arith(env):
        a, a_int, a_bound = left(env)
        b, b_int, b_bound = right(env)
        if a_int and b_int:
            bound = a_bound * b_bound if product else a_bound + b_bound
            if bound > _EXACT_INT:
                raise _Unfit
            return fn(a, b), True, bound
        return fn(a, b), False, 0

    return arith


def _lower_div(left: _Lowered, right: _Lowered) -> _Lowered:
    def div(env):
        a = left(env)[0]
        b = right(env)[0]
        if not (b.all() if type(b) is np.ndarray else b):
            raise _Unfit  # Python raises ZeroDivisionError
        return a / b, False, 0

    return div


def _lower_by_constant(node: ast.BinOp, fields: set[str]) -> _Lowered:
    left = _lower(node.left, fields)
    c = _constant(node.right)
    if c == 0:
        raise _NotLowerable
    fn = _BY_CONSTANT[type(node.op)]
    int_divisor = type(c) is int
    floor_div = isinstance(node.op, ast.FloorDiv)

    def by_constant(env):
        a, a_int, a_bound = left(env)
        if a_int and int_divisor:
            # For an int c != 0: |a // c| <= |a| // |c| + 1, |a % c| < |c|.
            return fn(a, c), True, a_bound // abs(c) + 1 if floor_div else abs(c)
        return fn(a, c), False, 0

    return by_constant


def _lower_compare(node: ast.Compare, fields: set[str]) -> _Lowered:
    """A one-operator comparison: a bool array (a bool for constants)."""
    if len(node.ops) != 1 or type(node.ops[0]) not in _COMPARE:
        raise _NotLowerable
    fn = _COMPARE[type(node.ops[0])]
    left = _lower(node.left, fields)
    right = _lower(node.comparators[0], fields)
    return lambda env: fn(left(env)[0], right(env)[0])


def _lower_test(node: ast.expr, fields: set[str]) -> _Lowered:
    """A select's condition: Python's truth value of each element."""
    if isinstance(node, ast.Compare):
        return _lower_compare(node, fields)
    value = _lower(node, fields)
    return lambda env: value(env)[0] != 0


def _lower_select(node: ast.IfExp, fields: set[str]) -> _Lowered:
    test = _lower_test(node.test, fields)
    body = _lower(node.body, fields)
    orelse = _lower(node.orelse, fields)

    def select(env):
        cond = test(env)
        if type(cond) is not np.ndarray:
            return body(env) if cond else orelse(env)
        a, a_int, a_bound = body(env)
        b, b_int, b_bound = orelse(env)
        return np.where(cond, a, b), a_int or b_int, max(a_bound, b_bound)

    return select


def _column_env(columns: Mapping[str, np.ndarray], fields: frozenset[str]) -> dict:
    """The values of ``fields`` for a lowered expression: bool and
    integer columns as int64 with their bound, float columns as float64.
    A missing field, a column of any other kind, or an int beyond 2**53
    raises :class:`_Unfit`."""
    env = {}
    for name in fields:
        col = columns.get(name)
        if col is None:
            raise _Unfit
        kind = col.dtype.kind
        if kind == "f" and col.dtype.itemsize <= 8:
            env[name] = (col.astype(np.float64, copy=False), False, 0)
        elif kind == "b":
            env[name] = (col.astype(np.int64), True, 1)
        elif kind in "iu":
            bound = max(int(_max(col)), -int(_min(col)))
            if bound > _EXACT_INT:
                raise _Unfit
            env[name] = (col.astype(np.int64, copy=False), True, bound)
        else:
            raise _Unfit
    return env


def codegen_supported(net: PetriNet, sinks: Sequence[str] = ("out",)) -> bool:
    """True when the codegen batch engine can run ``net`` exactly."""
    return not chain_unsupported_reasons(net, sinks)


# ----------------------------------------------------------------------
# Codegen engine: straight-line per-net recurrence
# ----------------------------------------------------------------------


class _ZeroDelayBailout(Exception):
    """A callable delay returned 0.0: the item falls back to the columnar
    loop, whose per-instant firing budget the recurrence cannot model."""


def _codegen_source(spec: ChainSpec, *, columns: bool = False) -> str:
    """Emit a specialized per-item runner for a chain net: the chain
    recurrence, specialized to one item form.

    ``_run_item(injections, collect)`` takes a list of ``(place,
    payload, at)`` triples on the entry place, sorted by ``at`` (ties
    keep injection order, matching the engines' (at, uid) ordering), and
    computes each stage's delay per token: the inlined DSL source, or
    the delay callable.  With ``columns``, ``_run_columns(n, first_at,
    delays, collect)`` takes ``n`` tokens injected at ``first_at`` and,
    for each stage with a callable delay in stage order, the list of its
    ``n`` delays, already checked finite and positive.  Both return
    ``(makespan, n, first_at, times)``.
    """
    if not columns:
        inline_any = any(src is not None for src in spec.delay_srcs)
        lines = _recurrence(
            spec,
            head=[
                "def _run_item(injections, collect):",
                "    n = len(injections)",
                "    first_at = injections[0][2] if n else None",
            ],
            loop=[
                "    for _, payload, at in injections:",
                "        c = at",
                *(["        tok = payload"] if inline_any else []),
            ],
            token_delay=lambda s: _token_delay_lines(spec, s),
        )
        return "\n".join(lines)
    varying = [s for s, fn in enumerate(spec.delay_fns) if fn is not None]
    if not varying:
        loop = "    for _ in range(n):"
    elif len(varying) == 1:
        loop = f"    for d{varying[0]} in delays[0]:"
    else:
        loop = f"    for {', '.join(f'd{s}' for s in varying)} in zip(*delays):"
    lines = _recurrence(
        spec,
        head=["def _run_columns(n, first_at, delays, collect):"],
        loop=[loop, "        c = first_at"],
        token_delay=lambda s: [f"        c = f + d{s}"],
    )
    return "\n".join(lines)


def _recurrence(
    spec: ChainSpec,
    *,
    head: list[str],
    loop: list[str],
    token_delay: Callable[[int], list[str]],
) -> list[str]:
    """One runner: ``head`` binds ``n`` and ``first_at``, ``loop`` opens
    the per-token loop and sets the arrival ``c``, ``token_delay(s)``
    sets ``c`` past stage ``s``'s callable delay."""
    lines = [
        *head,
        "    if n == 0:",
        "        return (0.0, 0, None, [] if collect else None)",
        "    if first_at < 0.0:",
        "        raise SimulationError(",
        "            f'event scheduled in the past ({first_at} < 0.0)'",
        "        )",
        "    times = [] if collect else None",
        "    c = 0.0",
    ]
    # One rolled ring cursor per distinct capacity (cheaper than idx % K
    # per stage per token).
    ring_caps = sorted({k for k in spec.out_caps if k is not None})
    for k in ring_caps:
        lines.append(f"    i{k} = 0")
    for s in range(len(spec.stage_names)):
        lines.append(f"    done{s} = 0.0")
        if spec.out_caps[s] is not None:
            lines.append(f"    ring{s} = [0.0] * {spec.out_caps[s]}")
    lines.extend(loop)
    for s in range(len(spec.stage_names)):
        lines.append(f"        # stage {s}: {spec.stage_names[s]}")
        lines.append("        f = c")
        lines.append(f"        if done{s} > f: f = done{s}")
        if spec.out_caps[s] is not None:
            lines.append(f"        r = ring{s}[i{spec.out_caps[s]}]")
            lines.append("        if r > f: f = r")
        if s >= 1 and spec.out_caps[s - 1] is not None:
            # f is this stage's fire time == when it consumes from the
            # upstream place, freeing one capacity slot there.
            lines.append(f"        ring{s - 1}[i{spec.out_caps[s - 1]}] = f")
        if spec.delay_fns[s] is None:
            lines.append(f"        c = f + {spec.delay_consts[s]!r}")
        else:
            lines.extend(token_delay(s))
        lines.append(f"        done{s} = c")
    lines.append("        if collect:")
    lines.append("            times.append(c)")
    for k in ring_caps:
        lines.append(f"        i{k} += 1")
        lines.append(f"        if i{k} == {k}: i{k} = 0")
    lines.append("    return (c, n, first_at, times)")
    return lines


def _token_delay_lines(spec: ChainSpec, s: int) -> list[str]:
    """Stage ``s``'s callable delay for the triple form, computed per
    token: inlined DSL source or a call, then the negative-delay error
    and the zero-delay bailout."""
    if spec.delay_srcs[s] is not None:
        lines = [f"        d = float(({spec.delay_srcs[s]}))"]
    else:
        lines = [
            f"        tok{s}.payload = payload",
            f"        tok{s}.born = at",
            f"        d = float(delay{s}(consumed{s}))",
        ]
    msg = f"transition {spec.stage_names[s]!r} computed a negative delay"
    return lines + [
        "        if d < 0.0:",
        f"            raise DefinitionError({msg!r})",
        "        if d == 0.0:",
        "            raise _ZeroDelayBailout",
        "        c = f + d",
    ]


class _CodegenRunner:
    """Executes the generated recurrence for one chain net."""

    def __init__(self, spec: ChainSpec):
        self.spec = spec
        self._namespace: dict[str, Any] = {
            # The exact objects DSL expressions evaluate against, so an
            # inlined ``expr:`` computes bit-identical floats.
            **{k: v for k, v in _SAFE_GLOBALS.items() if k != "__builtins__"},
            "__builtins__": {},
            "SimulationError": SimulationError,
            "DefinitionError": DefinitionError,
            "_ZeroDelayBailout": _ZeroDelayBailout,
            "float": float,
            "len": len,
            "range": range,
            "zip": zip,
        }
        for s, fn in enumerate(spec.delay_fns):
            if fn is None or spec.delay_srcs[s] is not None:
                continue
            tok = Token.__new__(Token)
            tok.payload = None
            tok.born = None
            tok.uid = next(_token_ids)
            self._namespace[f"delay{s}"] = fn
            self._namespace[f"tok{s}"] = tok
            self._namespace[f"consumed{s}"] = {spec.in_names[s]: [tok]}
        self._run_item = self._compile(_codegen_source(spec), "_run_item")

    def _compile(self, source: str, name: str) -> Callable:
        exec(compile(source, f"<batched:{self.spec.sink}>", "exec"), self._namespace)
        return self._namespace[name]

    @cached_property
    def _column_form(self) -> tuple[Callable, tuple[ArrayDelay, ...], frozenset[str]] | None:
        """The column runner, each callable delay as an array expression
        in stage order, and the fields they read; ``None`` when a delay
        does not lower (a Python callable, or a source outside the
        subset), which sends every column item to its triples.  Built at
        the first column item, so an evaluator that sees none (serving's)
        never pays for it."""
        lowered = [
            _array_delay(src) if src is not None else None
            for fn, src in zip(self.spec.delay_fns, self.spec.delay_srcs, strict=True)
            if fn is not None
        ]
        if None in lowered:
            return None
        run = self._compile(_codegen_source(self.spec, columns=True), "_run_columns")
        return run, tuple(lowered), frozenset().union(*(d.fields for d in lowered))

    def _result(self, ran: tuple, collect: bool) -> BatchItemResult:
        makespan, n, first_at, times = ran
        return BatchItemResult(
            makespan=makespan,
            end_time=makespan,
            counts={self.spec.sink: n},
            first_injection=first_at,
            completion_times={self.spec.sink: times} if collect else None,
            fired=dict.fromkeys(self.spec.stage_names, n) if collect else None,
        )

    def run_item(
        self, injections: list[tuple[str, Any, float]], collect: bool
    ) -> BatchItemResult:
        return self._result(self._run_item(injections, collect), collect)

    def column_delays(self, item: TokenColumns) -> list[list[float]] | None:
        """Each callable stage's delays over ``item``'s arrays, when every
        stage lowered and every delay came out finite and positive, else
        ``None``: the item then runs as its triples, which raise or bail
        out exactly where the per-token evaluation does."""
        form = self._column_form
        if form is None:
            return None
        _, array_delays, fields = form
        n = item.n
        if n == 0:
            return [[] for _ in array_delays]
        delays = []
        try:
            env = _column_env(item.columns, fields)
            with np.errstate(all="ignore"):
                for lowered in array_delays:
                    d = lowered.evaluate(env)[0]
                    if type(d) is not np.ndarray:
                        d = float(d)
                        if not 0.0 < d < _INF:
                            return None
                        delays.append([d] * n)
                        continue
                    d = d.astype(np.float64, copy=False)
                    if not (_min(d) > 0.0 and _max(d) < _INF):
                        return None
                    delays.append(d.tolist())
        except _Unfit:
            return None
        return delays

    def run_columns(
        self, item: TokenColumns, delays: list[list[float]], collect: bool
    ) -> BatchItemResult:
        run = self._column_form[0]
        return self._result(run(item.n, item.at, delays, collect), collect)


# ----------------------------------------------------------------------
# Public facade
# ----------------------------------------------------------------------


class BatchEvaluator:
    """Evaluate many workload items against one lowered net.

    Args:
        net: The net to evaluate (lowered once, at construction).
        sinks: Places whose deposits count as completions.
        engine: ``"auto"`` (codegen when the net is a supported chain,
            columnar otherwise), ``"codegen"`` (raises when the net is
            not a chain), or ``"columnar"``.
        compiled: Share a pre-built :class:`CompiledNet`.

    Each item is a sequence of ``(place, payload, at)`` injections
    (plain tuples or ``Injection`` named tuples; both unpack alike), or a
    :class:`TokenColumns`.  Results are bit-identical to running
    :class:`CompiledSimulator` on each item in isolation (a column item:
    on its triples).
    """

    def __init__(
        self,
        net: PetriNet,
        sinks: Sequence[str] = ("out",),
        *,
        engine: str = "auto",
        compiled: CompiledNet | None = None,
    ):
        if engine not in BATCH_ENGINES:
            raise ValueError(
                f"unknown batch engine {engine!r}; expected one of "
                f"{', '.join(BATCH_ENGINES)}"
            )
        if compiled is not None and compiled.net is not net:
            raise SimulationError("compiled form belongs to a different net object")
        self.net = net
        self.sinks = list(sinks)
        self.compiled = compiled if compiled is not None else CompiledNet(net)
        self.compiled.check_sinks(self.sinks)
        self._codegen: _CodegenRunner | None = None
        if engine in ("auto", "codegen"):
            spec = chain_spec(net, self.sinks, compiled=self.compiled)
            if spec is not None:
                self._codegen = _CodegenRunner(spec)
            elif engine == "codegen":
                reasons = chain_unsupported_reasons(net, self.sinks, compiled=self.compiled)
                raise SimulationError(
                    f"engine='codegen' cannot run net {net.name!r}: " + "; ".join(reasons)
                )
        self.engine = "codegen" if self._codegen is not None else "columnar"
        #: Per-engine item counters, surfaced in reports and benches.
        self.items_codegen = 0
        self.items_columnar = 0
        #: Of the codegen items, the column items that ran the recurrence
        #: over their delay lists (the others ran as their triples).
        self.items_from_columns = 0

    def evaluate(
        self, items: Sequence[Sequence[Any]], *, collect: bool = False
    ) -> list[BatchItemResult]:
        """Run every item; one :class:`BatchItemResult` per item, in
        input order.  ``collect=True`` additionally records completion
        times and fired counts (the differential harness's observables).
        """
        results = []
        loop = None  # the columnar loop, fetched at the first item it runs
        codegen = self._codegen
        # The codegen entry is a place, so the scan below may skip its
        # lookup; with no codegen, no place equals the stand-in object.
        entry = codegen.spec.entry if codegen is not None else object()
        place_index = self.compiled.place_index
        for injections in items:
            if type(injections) is TokenColumns:
                if injections.place == entry:
                    delays = codegen.column_delays(injections)
                    if delays is not None:
                        results.append(codegen.run_columns(injections, delays, collect))
                        self.items_codegen += 1
                        self.items_from_columns += 1
                        continue
                injections = list(injections)
            # One pass validates the places and picks the engine: the
            # codegen chain takes only plain payloads on its entry place.
            chain = codegen is not None
            for place, payload, _ in injections:
                if place != entry:
                    if place not in place_index:
                        raise SimulationError(f"unknown place {place!r}")
                    chain = False
                elif isinstance(payload, Token):
                    chain = False
            if chain:
                by_at = sorted(injections, key=itemgetter(2))
                try:
                    results.append(codegen.run_item(by_at, collect))
                    self.items_codegen += 1
                    continue
                except _ZeroDelayBailout:
                    pass  # re-run this item on the columnar loop
            if loop is None:
                loop = self.compiled.plan_loop(self.sinks)
            results.append(BatchItemResult(*loop.run_item(injections, collect)))
            self.items_columnar += 1
        return results

    def evaluate_makespans(self, items: Sequence[Sequence[Any]]) -> list[float]:
        """Makespan per item — the latency-interface fast path."""
        return [r.makespan for r in self.evaluate(items)]
