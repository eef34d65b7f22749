"""A small textual DSL (``.pnet``) for shipping performance-IR nets.

The paper envisions vendors *shipping* Petri-net interfaces with their
accelerators.  That requires a concrete exchange format; we define a
line-oriented one that is diff-friendly and keeps the Table 1
"complexity" metric honest (interface size is measured on this text).

Example::

    net jpeg_decoder

    place in
    place q_idct capacity 4
    place out

    transition huffman
      consume in
      produce q_idct
      delay expr: tok["coeffs"] * 1.5 + 6
      servers 1

    transition idct
      consume q_idct
      produce out
      delay fn: idct_cost

Delay/guard forms:

* ``delay 12.5`` — constant cycles.
* ``delay expr: <expression>`` — evaluated with ``tok`` bound to the
  payload of the first consumed token, ``toks`` to the full consumption
  mapping, and a small math whitelist (``ceil``, ``floor``, ``min``,
  ``max``, ``abs``, ``len``).  Expressions run under a restricted
  ``eval`` with no builtins; a ``.pnet`` file is trusted the way a
  header file is.
* ``delay fn: name`` — looks up ``name`` in the ``env`` mapping passed
  to :func:`parse`; the function receives the consumption mapping.

A guarded transition may also declare a dispatch key (see
:class:`~repro.petri.net.Transition`)::

    key PLACE FIELD VALUE

``VALUE`` is a Python literal read with :func:`ast.literal_eval`, e.g.
``key cmd kind (True, 2)``.
"""

from __future__ import annotations

import ast
import math
from collections.abc import Callable, Mapping, Sequence
from typing import Any

from .errors import DefinitionError, DslError
from .net import Arc, PetriNet
from .token import Token

_SAFE_GLOBALS: dict[str, Any] = {
    "__builtins__": {},
    "ceil": math.ceil,
    "floor": math.floor,
    "sqrt": math.sqrt,
    "log2": math.log2,
    "min": min,
    "max": max,
    "abs": abs,
    "len": len,
}


#: Names an ``expr:`` clause may reference (besides ``tok``/``toks``).
EXPR_NAMES = frozenset(n for n in _SAFE_GLOBALS if n != "__builtins__")


def _compile_expr(src: str, line_no: int, kind: str) -> Callable[[Mapping[str, Sequence[Token]]], Any]:
    try:
        code = compile(src, f"<pnet:{kind}>", "eval")
    except SyntaxError as exc:
        raise DslError(f"bad {kind} expression {src!r}: {exc.msg}", line_no) from exc

    def evaluate(consumed: Mapping[str, Sequence[Token]]) -> Any:
        first = None
        for toks in consumed.values():
            if toks:
                first = toks[0].payload
                break
        scope = dict(_SAFE_GLOBALS)
        scope["tok"] = first
        scope["toks"] = consumed
        return eval(code, scope)  # noqa: S307 - restricted scope, trusted input

    evaluate.src = src  # type: ignore[attr-defined]
    evaluate.line = line_no  # type: ignore[attr-defined]
    return evaluate


def _parse_arcs(fields: list[str], line_no: int) -> list[Arc]:
    arcs = []
    for f in fields:
        if ":" in f:
            place, _, w = f.partition(":")
            try:
                arcs.append(Arc(place, int(w)))
            except ValueError as exc:
                raise DslError(f"bad arc weight in {f!r}", line_no) from exc
        else:
            arcs.append(Arc(f))
    if not arcs:
        raise DslError("expected at least one place name", line_no)
    return arcs


def parse(text: str, env: Mapping[str, Callable] | None = None) -> PetriNet:
    """Parse a ``.pnet`` document into a :class:`PetriNet`.

    Args:
        text: The document.
        env: Named delay/guard functions referenced by ``fn:`` clauses.
    """
    env = env or {}
    net: PetriNet | None = None
    pending: dict[str, Any] | None = None
    injects: list[tuple[str, frozenset[str] | None, int, int]] = []

    def flush(line_no: int) -> None:
        nonlocal pending
        if pending is None:
            return
        if net is None:
            raise DslError("transition before net declaration", line_no)
        if "consume" not in pending:
            raise DslError(f"transition {pending['name']!r} has no consume clause", line_no)
        try:
            t = net.add_transition(
                pending["name"],
                pending["consume"],
                pending.get("produce", []),
                delay=pending.get("delay", 0.0),
                guard=pending.get("guard"),
                servers=pending.get("servers", 1),
                priority=pending.get("priority", 0),
                timeout=pending.get("timeout"),
                key=pending.get("key"),
            )
        except DefinitionError as exc:
            t_line = pending.get("transition_span", (line_no, 1))[0]
            raise DslError(str(exc), t_line) from exc
        t.delay_src = pending.get("delay_src")  # type: ignore[attr-defined]
        t.guard_src = pending.get("guard_src")  # type: ignore[attr-defined]
        name = pending["name"]
        for kind in ("transition", "delay", "guard", "timeout", "key"):
            span = pending.get(f"{kind}_span")
            if span is not None:
                net.source_map[(kind, name)] = span
        pending = None

    def col_of(raw: str, needle: str) -> int:
        pos = raw.find(needle)
        return pos + 1 if pos >= 0 else 1

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0]

        if keyword == "net":
            if net is not None:
                raise DslError("multiple net declarations", line_no)
            if len(fields) != 2:
                raise DslError("usage: net NAME", line_no)
            net = PetriNet(fields[1])
        elif keyword == "place":
            flush(line_no)
            if net is None:
                raise DslError("place before net declaration", line_no)
            if len(fields) == 2:
                net.add_place(fields[1])
            elif len(fields) == 4 and fields[2] == "capacity":
                try:
                    net.add_place(fields[1], capacity=int(fields[3]))
                except ValueError as exc:
                    raise DslError(f"bad capacity {fields[3]!r}", line_no) from exc
            else:
                raise DslError("usage: place NAME [capacity N]", line_no)
            net.source_map[("place", fields[1])] = (line_no, col_of(raw, fields[1]))
        elif keyword == "inject":
            flush(line_no)
            if net is None:
                raise DslError("inject before net declaration", line_no)
            if len(fields) == 2:
                injects.append((fields[1], None, line_no, col_of(raw, fields[1])))
            elif len(fields) >= 4 and fields[2] == "fields":
                injects.append(
                    (fields[1], frozenset(fields[3:]), line_no, col_of(raw, fields[1]))
                )
            else:
                raise DslError("usage: inject PLACE [fields NAME...]", line_no)
        elif keyword == "transition":
            flush(line_no)
            if len(fields) != 2:
                raise DslError("usage: transition NAME", line_no)
            pending = {
                "name": fields[1],
                "transition_span": (line_no, col_of(raw, fields[1])),
            }
        elif pending is not None:
            _parse_clause(pending, keyword, line, fields, line_no, env, raw)
        else:
            raise DslError(f"unexpected keyword {keyword!r}", line_no)

    flush(len(text.splitlines()))
    if net is None:
        raise DslError("document contains no net declaration")
    for place, decl_fields, line_no, col in injects:
        if place not in net.places:
            raise DslError(f"inject references unknown place {place!r}", line_no)
        net.declare_injection(place, decl_fields)
        net.source_map[("inject", place)] = (line_no, col)
    return net


def _parse_clause(
    pending: dict[str, Any],
    keyword: str,
    line: str,
    fields: list[str],
    line_no: int,
    env: Mapping[str, Callable],
    raw: str = "",
) -> None:
    def span_of(needle: str) -> tuple[int, int]:
        pos = raw.find(needle) if needle else -1
        return (line_no, pos + 1 if pos >= 0 else 1)

    if keyword == "consume":
        pending["consume"] = _parse_arcs(fields[1:], line_no)
    elif keyword == "produce":
        pending["produce"] = _parse_arcs(fields[1:], line_no)
    elif keyword == "delay":
        rest = line[len("delay"):].strip()
        if rest.startswith("expr:"):
            src = rest[len("expr:"):].strip()
            pending["delay"] = _compile_expr(src, line_no, "delay")
            pending["delay_src"] = f"expr: {src}"
            pending["delay_span"] = span_of(src)
        elif rest.startswith("fn:"):
            name = rest[len("fn:"):].strip()
            if name not in env:
                raise DslError(f"unknown delay function {name!r}", line_no)
            pending["delay"] = env[name]
            pending["delay_src"] = f"fn: {name}"
            pending["delay_span"] = span_of(name)
        else:
            try:
                pending["delay"] = float(rest)
            except ValueError as exc:
                raise DslError(f"bad delay {rest!r}", line_no) from exc
            pending["delay_src"] = rest
            pending["delay_span"] = span_of(rest)
    elif keyword == "guard":
        rest = line[len("guard"):].strip()
        if rest.startswith("expr:"):
            src = rest[len("expr:"):].strip()
            expr = _compile_expr(src, line_no, "guard")
            pending["guard"] = lambda consumed: bool(expr(consumed))
            pending["guard_src"] = f"expr: {src}"
            pending["guard_span"] = span_of(src)
        elif rest.startswith("fn:"):
            name = rest[len("fn:"):].strip()
            if name not in env:
                raise DslError(f"unknown guard function {name!r}", line_no)
            pending["guard"] = env[name]
            pending["guard_src"] = f"fn: {name}"
            pending["guard_span"] = span_of(name)
        else:
            raise DslError("guard requires expr: or fn:", line_no)
    elif keyword == "timeout":
        if len(fields) != 3:
            raise DslError("usage: timeout AFTER PLACE", line_no)
        try:
            after = float(fields[1])
        except ValueError as exc:
            raise DslError(f"bad timeout {fields[1]!r}", line_no) from exc
        pending["timeout"] = (after, fields[2])
        pending["timeout_span"] = span_of(fields[2])
    elif keyword == "key":
        parts = line[len("key"):].split(None, 2)
        if len(parts) != 3:
            raise DslError("usage: key PLACE FIELD VALUE", line_no)
        try:
            value = ast.literal_eval(parts[2])
        except (ValueError, SyntaxError) as exc:
            raise DslError(f"bad key value {parts[2]!r}: not a literal", line_no) from exc
        pending["key"] = (parts[0], parts[1], value)
        pending["key_span"] = span_of("key")
    elif keyword == "servers":
        if len(fields) != 2:
            raise DslError("usage: servers N|inf", line_no)
        pending["servers"] = None if fields[1] == "inf" else int(fields[1])
    elif keyword == "priority":
        if len(fields) != 2:
            raise DslError("usage: priority N", line_no)
        pending["priority"] = int(fields[1])
    else:
        raise DslError(f"unknown transition clause {keyword!r}", line_no)


def to_pnet(net: PetriNet) -> str:
    """Serialize a net back to ``.pnet`` text.

    Transitions created programmatically with Python callables (rather
    than parsed from DSL text) serialize their delay as ``fn: <name>``
    using the callable's ``__name__``; loading such a document requires
    passing the same functions via ``env``.
    """
    lines = [f"net {net.name}", ""]
    for name in net.places:
        place = net.places[name]
        if place.capacity is None:
            lines.append(f"place {name}")
        else:
            lines.append(f"place {name} capacity {place.capacity}")
    for place, decl in getattr(net, "injections", {}).items():
        if decl is None:
            lines.append(f"inject {place}")
        else:
            lines.append(f"inject {place} fields " + " ".join(sorted(decl)))
    for t in net.ordered_transitions():
        lines.append("")
        lines.append(f"transition {t.name}")
        lines.append("  consume " + " ".join(_fmt_arc(a) for a in t.inputs))
        if t.outputs:
            lines.append("  produce " + " ".join(_fmt_arc(a) for a in t.outputs))
        src = getattr(t, "delay_src", None)
        if src is not None:
            lines.append(f"  delay {src}")
        elif callable(t.delay):
            lines.append(f"  delay fn: {t.delay.__name__}")
        else:
            lines.append(f"  delay {float(t.delay)}")
        guard_src = getattr(t, "guard_src", None)
        if guard_src is not None:
            lines.append(f"  guard {guard_src}")
        elif t.guard is not None:
            lines.append(f"  guard fn: {getattr(t.guard, '__name__', 'guard')}")
        if t.key is not None:
            place, field, value = t.key
            lines.append(f"  key {place} {field} {value!r}")
        if t.timeout is not None:
            after, fault_place = t.timeout
            lines.append(f"  timeout {after} {fault_place}")
        if t.servers != 1:
            lines.append(f"  servers {'inf' if t.servers is None else t.servers}")
        if t.priority != 0:
            lines.append(f"  priority {t.priority}")
    lines.append("")
    return "\n".join(lines)


def _fmt_arc(arc: Arc) -> str:
    return arc.place if arc.weight == 1 else f"{arc.place}:{arc.weight}"
