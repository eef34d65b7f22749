"""Stable content fingerprints for nets and workload features.

A cache entry must outlive the Python objects that produced it, so keys
cannot use ``id()`` or ``hash()`` (salted per process for strings).
Instead every key is a SHA-256 digest of a *canonical byte encoding* of
content:

* **Workload features** — :func:`canonical_bytes` writes the value as a
  ``pickle`` protocol-5 stream with no memo, so the C pickler does the
  walk.  Exact builtins (``None``, ``bool``, ``int``, ``float``, ``str``,
  ``bytes``, ``tuple``, ``list``, ``dict``, ``set``, ``frozenset``) get
  type-distinct opcodes, so ``1``, ``1.0``, ``True``, ``"1"`` and
  ``(1,)`` never collide and ``-0.0`` is not ``0.0``.  Every other
  object is tagged by its class's ``__module__`` and ``__qualname__``
  plus its content: an enum member's name (a flag's value), a
  dataclass's field values, a numpy value's dtype, shape and bytes, a
  builtin subclass's builtin value, a function's
  :func:`callable_fingerprint`.  Without a memo, a value encodes the
  same whether its sub-objects are shared or distinct.  Dicts are
  written in insertion order and sets in iteration order: an equal value
  built in another order gets another key, which costs a miss, never a
  wrong hit.
* **Nets** — every place (name, capacity) and transition (arcs, delay,
  guard, servers, priority, timeout) is rendered as text in sorted
  order.  A delay or guard compiled from ``.pnet`` text is identified by
  its DSL source (the expression's ``.src``); a Python callable by its
  bytecode, constants, closure values and defaults, a bound method also
  by the object it is bound to, and transitively by the globals it
  names: a helper function by its own fingerprint, a plain-data
  constant by its canonical bytes, anything else (modules, classes,
  opaque objects) by module and qualified name.  Editing a formula, a
  helper it calls or a module constant it reads changes the fingerprint
  and invalidates the cached results.

The pickle stream is hashed, never unpickled.  Bytecode and pickle bytes
may change between Python versions, which costs a miss, not a wrong hit.

Anything without a stable encoding — opaque objects, C callables,
cyclic or too deeply nested values — raises :class:`UncacheableError`;
callers (see :class:`repro.perf.cache.EvalCache`) treat that as
"simulate, don't cache" and count it, rather than guessing a key.
"""

from __future__ import annotations

import enum
import hashlib
import io
import pickle
import types
from collections.abc import Callable
from dataclasses import fields, is_dataclass
from operator import attrgetter
from typing import Any

from repro.petri.net import PetriNet, Transition


class UncacheableError(TypeError):
    """A value has no stable content encoding; do not cache results for it."""


def _tagged(*_: Any) -> Any:
    """The constructor every tagged object names in the stream."""
    raise TypeError("canonical encodings are hashed, never unpickled")


#: Preloaded into each pickler's memo: every tagged object then names
#: ``_tagged`` with a two-byte memo reference instead of a global lookup.
_PRESET_MEMO = {id(_tagged): (0, _tagged)}

#: Builtin bases whose subclasses encode as their builtin value.
_BUILTINS = (int, float, str, bytes, bytearray, tuple, list, dict, set, frozenset)

_Handler = Callable[["_CanonicalPickler", Any], tuple]

#: Handler per exact type, resolved on first sight by :func:`_resolve`.
_HANDLERS: dict[type, _Handler] = {}


class _CanonicalPickler(pickle.Pickler):
    """Pickler whose every non-builtin object is tagged by the handler
    of its exact type; ``active`` guards callable fingerprints against
    cycles."""

    def __init__(self, file: io.BytesIO, active: set[int]) -> None:
        super().__init__(file, protocol=5)
        self.fast = True  # no memo: shared and distinct sub-objects encode alike
        self.memo = _PRESET_MEMO
        self.active = active

    def reducer_override(self, obj: Any) -> tuple:
        cls = type(obj)
        handler = _HANDLERS.get(cls) or _resolve(cls)
        return handler(self, obj)


def canonical_bytes(value: Any) -> bytes:
    """Canonical byte encoding of a workload-feature value.

    Deterministic across processes and sessions; raises
    :class:`UncacheableError` for values with unstable identity and for
    cyclic or too deeply nested ones.
    """
    return _encode(value, set())


def _encode(value: Any, active: set[int]) -> bytes:
    buf = io.BytesIO()
    try:
        _CanonicalPickler(buf, active).dump(value)
    except (RecursionError, ValueError) as exc:
        # RecursionError: nested past the interpreter's limit (or a cycle
        # through objects); ValueError: the pickler's own cycle check.
        raise UncacheableError(f"cannot encode a cyclic or too deep value: {exc}") from exc
    return buf.getvalue()


def _resolve(cls: type) -> _Handler:
    """Pick (once per type) how instances of ``cls`` are tagged.

    The tag is one string, the ``repr`` of the class's module and
    qualified name (and a dataclass's field names): one opcode per
    object, and unambiguous, since ``repr`` of a tuple of strings is.
    """
    tag = repr((cls.__module__, cls.__qualname__))
    if issubclass(cls, enum.Flag):
        # Composite flags have no single member name; the value is exact.
        def handler(p, obj):
            return _tagged, (tag, obj._value_)
    elif issubclass(cls, enum.Enum):
        def handler(p, obj):
            return _tagged, (tag, obj._name_)
    elif is_dataclass(cls):
        names = tuple(f.name for f in fields(cls))
        tag = repr((cls.__module__, cls.__qualname__, names))
        get = attrgetter(*names) if names else _no_fields

        def handler(p, obj):
            return _tagged, (tag, get(obj))
    elif hasattr(cls, "tobytes") and hasattr(cls, "dtype"):
        # numpy arrays and scalars, without importing numpy here.
        def handler(p, obj):
            dtype = obj.dtype
            if dtype.hasobject:  # object arrays hold pointers
                return _reject(p, obj)
            return _tagged, (tag, dtype.descr, obj.shape, obj.tobytes())
    elif issubclass(cls, _BUILTINS) and cls not in _BUILTINS:
        base = next(b for b in cls.__mro__ if b in _BUILTINS)

        def handler(p, obj):
            return _tagged, (tag, base(obj), getattr(obj, "__dict__", None) or None)
    elif cls is types.CodeType:
        def handler(p, obj):
            return _tagged, (tag, _code_content(obj))
    elif any("__call__" in vars(k) for k in cls.__mro__):
        def handler(p, obj):
            return _tagged, (tag, _fingerprint(obj, p.active))
    else:
        handler = _reject
    _HANDLERS[cls] = handler
    return handler


def _no_fields(obj: Any) -> tuple:
    return ()


def _reject(p: _CanonicalPickler, obj: Any) -> tuple:
    raise UncacheableError(
        f"cannot build a stable cache key for {type(obj).__qualname__} value {obj!r}"
    )


def _code_content(code: types.CodeType) -> tuple:
    """Bytecode, constants (nested code objects recurse through the
    pickler), referenced names and argument names of a code object."""
    consts = tuple(
        # A frozenset literal's iteration order follows the hash seed;
        # sort it.  Code constants are never lists, so a list marks it.
        sorted(c, key=canonical_bytes) if type(c) is frozenset else c
        for c in code.co_consts
    )
    args = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
    return code.co_code, consts, code.co_names, args


def callable_fingerprint(fn: Any) -> str:
    """Content identity for a guard/delay callable.

    DSL-compiled expressions carry their source (``fn.src``); plain Python
    functions are identified by bytecode + constants + closure values +
    defaults, plus the globals their code names: helper functions by
    their own fingerprint (transitively), plain-data values by their
    canonical bytes, anything else by module and qualified name.  A
    bound method adds the object it is bound to: a class or module by
    qualified name, an instance by its canonical bytes (an instance
    with no stable encoding is rejected).  Builtins / C callables have
    no inspectable content and are rejected.
    """
    return _fingerprint(fn, set())


def _fingerprint(fn: Any, active: set[int]) -> str:
    src = getattr(fn, "src", None)
    if isinstance(src, str):
        return f"src:{src}"
    code = getattr(fn, "__code__", None)
    if code is None:
        raise UncacheableError(
            f"callable {fn!r} has no source or code object to fingerprint"
        )
    ident = id(getattr(fn, "__func__", fn))
    if ident in active:
        # Recursion: the function's content is already being encoded
        # further up this fingerprint.
        return f"cycle:{getattr(fn, '__module__', None)}.{getattr(fn, '__qualname__', '')}"
    active.add(ident)
    try:
        closure = getattr(fn, "__closure__", None) or ()
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, (type, types.ModuleType)):
            owner = _qualified_name(owner)
        content = (
            code,
            tuple(cell.cell_contents for cell in closure),
            getattr(fn, "__defaults__", None),
            getattr(fn, "__kwdefaults__", None),
            _globals_content(code, getattr(fn, "__globals__", {}), active),
            owner,
        )
        return "code:" + hashlib.sha256(_encode(content, active)).hexdigest()
    finally:
        active.discard(ident)


def _globals_content(code: types.CodeType, namespace: dict, active: set[int]) -> tuple:
    """What the globals named by ``code`` (and its nested code) hold."""
    out = []
    for name in _referenced_names(code):
        if name not in namespace:  # a builtin or an attribute name
            continue
        value = namespace[name]
        if isinstance(value, types.FunctionType):
            entry = _fingerprint(value, active)
        elif isinstance(value, (type, types.ModuleType)):
            entry = _qualified_name(value)
        else:
            try:
                entry = _encode(value, active)
            except UncacheableError:
                entry = _qualified_name(value)
        out.append((name, entry))
    return tuple(out)


def _referenced_names(code: types.CodeType) -> dict[str, None]:
    names = dict.fromkeys(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names.update(_referenced_names(const))
    return names


def _qualified_name(value: Any) -> str:
    if isinstance(value, types.ModuleType):
        return f"module:{value.__name__}"
    owner = value if hasattr(value, "__qualname__") else type(value)
    return f"ref:{getattr(owner, '__module__', None)}.{owner.__qualname__}"


def _transition_lines(t: Transition) -> list[str]:
    """Canonical description of one transition.

    The *current* ``delay``/``guard`` objects are authoritative — the
    DSL's ``delay_src``/``guard_src`` attributes are ignored, since they
    go stale if a transition is mutated after parsing.  (DSL-compiled
    expression callables carry their own ``.src``, which
    :func:`callable_fingerprint` prefers, so ``.pnet`` nets still key on
    source text, not bytecode.)
    """
    delay = (
        callable_fingerprint(t.delay)
        if callable(t.delay)
        else f"const:{float(t.delay).hex()}"
    )
    guard = "none" if t.guard is None else callable_fingerprint(t.guard)
    timeout = (
        "none" if t.timeout is None else f"{float(t.timeout[0]).hex()}->{t.timeout[1]}"
    )
    return [
        f"transition {t.name}",
        "  in " + " ".join(f"{a.place}:{a.weight}" for a in t.inputs),
        "  out " + " ".join(f"{a.place}:{a.weight}" for a in t.outputs),
        f"  delay {delay}",
        f"  guard {guard}",
        f"  servers {t.servers}",
        f"  priority {t.priority}",
        f"  timeout {timeout}",
    ]


def net_fingerprint(net: PetriNet) -> str:
    """SHA-256 hex digest of the net's performance-relevant content.

    Stable across processes; changes whenever any structural element,
    any delay/guard formula, or any helper or module constant such a
    formula names changes.  Simulation *state* (markings, busy counts,
    statistics) is deliberately excluded — the simulator resets it at
    the start of every run, so it cannot affect results.
    """
    lines = [f"net {net.name}"]
    for name in sorted(net.places):
        place = net.places[name]
        lines.append(f"place {name} capacity={place.capacity}")
    for name in sorted(net.transitions):
        lines.extend(_transition_lines(net.transitions[name]))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digest


def workload_key(features: Any) -> str:
    """SHA-256 hex digest of the canonical bytes of workload features.

    Raises :class:`UncacheableError` when the features have no stable
    encoding (opaque objects, C callables, cycles, ...).
    """
    return hashlib.sha256(canonical_bytes(features)).hexdigest()
