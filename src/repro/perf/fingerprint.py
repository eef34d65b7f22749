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
  guard, servers, priority, timeout, dispatch key) is rendered as text in
  sorted order.  A delay or guard compiled from ``.pnet`` text is
  identified by its DSL source (the expression's ``.src``) and the
  evaluator it runs under (:mod:`repro.petri.dsl`'s source and the
  names an expression may call); a Python callable by its bytecode,
  constants, closure values and defaults, a bound method also by the
  object it is bound to, and transitively by the globals it names: a
  helper function by its own fingerprint, a plain-data constant by its
  canonical bytes.  Code reached through a class or a module — one the
  callable names as a global or is bound to, or the class of any value
  in its closure, defaults, globals or owner — counts by name plus a
  digest of its defining module's source (:func:`code_reference`), read
  once per module per process.  Editing a formula, a helper it calls, a
  module constant it reads, or any code in a module it reaches through
  a class or a module changes the fingerprint and invalidates the
  cached results.  A module without loadable source (builtins, C
  extensions, code run with ``exec``) counts by name alone.

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
import sys
import types
from collections.abc import Callable, Iterable
from dataclasses import fields, is_dataclass
from operator import attrgetter
from typing import Any

from repro.petri import dsl
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


class _CodePickler(_CanonicalPickler):
    """A canonical pickler that also collects the class of every object
    it tags: the classes a callable reaches through its values."""

    def __init__(self, file: io.BytesIO, active: set[int], classes: set[type]) -> None:
        super().__init__(file, active)
        self.classes = classes

    def reducer_override(self, obj: Any) -> tuple:
        self.classes.add(type(obj))
        return super().reducer_override(obj)


def canonical_bytes(value: Any) -> bytes:
    """Canonical byte encoding of a workload-feature value.

    Deterministic across processes and sessions; raises
    :class:`UncacheableError` for values with unstable identity and for
    cyclic or too deeply nested ones.
    """
    return _encode(value, set())


def _encode(value: Any, active: set[int], classes: set[type] | None = None) -> bytes:
    """:func:`canonical_bytes`; with ``classes``, also collect there the
    class of every object tagged."""
    buf = io.BytesIO()
    if classes is None:
        pickler = _CanonicalPickler(buf, active)
    else:
        pickler = _CodePickler(buf, active, classes)
    try:
        pickler.dump(value)
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

    DSL-compiled expressions carry their source (``fn.src``), keyed with
    the DSL evaluator's digest; plain Python functions are identified by
    bytecode + constants + closure values + defaults, plus the globals
    their code names: helper functions by their own fingerprint
    (transitively), plain-data values by their canonical bytes.  A
    bound method adds the object it is bound to: an instance by its
    canonical bytes (an instance with no stable encoding is rejected).
    A class or module named as a global or bound to, and the class of
    every value encoded here, count by :func:`code_reference`: their
    name plus their defining module's source.  Builtins / C callables
    have no inspectable content and are rejected.
    """
    return _fingerprint(fn, set())


def _fingerprint(fn: Any, active: set[int]) -> str:
    src = getattr(fn, "src", None)
    if isinstance(src, str):
        return f"src:{_dsl_evaluator_digest()}:{src}"
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
        classes: set[type] = set()
        closure = getattr(fn, "__closure__", None) or ()
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, (type, types.ModuleType)):
            owner = code_reference(owner)
        namespace = getattr(fn, "__globals__", {})
        content = (
            code,
            tuple(cell.cell_contents for cell in closure),
            getattr(fn, "__defaults__", None),
            getattr(fn, "__kwdefaults__", None),
            _globals_content(_referenced_names(code), namespace, active, classes),
            owner,
        )
        digest = hashlib.sha256(_encode(content, active, classes))
        # The source of every module defining a class the values hold.
        for module in sorted({cls.__module__ for cls in classes}):
            source = _module_digest(module)
            if source:
                digest.update(f"\n{module}@{source}".encode())
        return "code:" + digest.hexdigest()
    finally:
        active.discard(ident)


def _globals_content(
    names: Iterable[str], namespace: dict, active: set[int], classes: set[type] | None
) -> tuple:
    """What the globals ``names`` hold in ``namespace`` (names it lacks,
    builtins and attribute names, are skipped)."""
    out = []
    for name in names:
        if name not in namespace:
            continue
        value = namespace[name]
        if isinstance(value, types.FunctionType):
            entry = _fingerprint(value, active)
        elif isinstance(value, (type, types.ModuleType)):
            entry = code_reference(value)
        else:
            try:
                entry = _encode(value, active, classes)
            except UncacheableError:
                entry = code_reference(value)
        out.append((name, entry))
    return tuple(out)


def _referenced_names(code: types.CodeType) -> dict[str, None]:
    names = dict.fromkeys(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names.update(_referenced_names(const))
    return names


def code_reference(value: Any) -> str:
    """A module, class or function by its module and qualified name (any
    other object by its class's), plus a digest of its defining module's
    source when that module has one: the code reached through it, its
    methods, attributes and functions, then counts in the key however it
    is reached."""
    if isinstance(value, types.ModuleType):
        module, ref = value.__name__, f"module:{value.__name__}"
    else:
        owner = value if hasattr(value, "__qualname__") else type(value)
        module = getattr(owner, "__module__", None)
        ref = f"ref:{module}.{owner.__qualname__}"
    source = _module_digest(module) if isinstance(module, str) else ""
    return f"{ref}@{source}" if source else ref


#: SHA-256 of each imported module's source ("" without loadable source).
_MODULE_DIGESTS: dict[str, str] = {}


def _module_digest(name: str) -> str:
    """SHA-256 of module ``name``'s source, read once per process; "" for
    a module with no loadable source (builtins, C extensions, code run
    with ``exec``), or when no module of that name is imported."""
    digest = _MODULE_DIGESTS.get(name)
    if digest is None:
        module = sys.modules.get(name)
        try:
            source = module.__loader__.get_source(name)
        except (AttributeError, ImportError, OSError, ValueError):
            source = None
        digest = hashlib.sha256(source.encode()).hexdigest() if source else ""
        if module is not None:
            _MODULE_DIGESTS[name] = digest
    return digest


#: The DSL bindings the evaluator digest was taken for, and that digest.
_DSL_EVALUATOR: list[Any] = [None, ""]


def _dsl_evaluator_digest() -> str:
    """Digest of the evaluator every ``.pnet`` expression runs under:
    :mod:`repro.petri.dsl`'s source and the names an expression may call
    (its ``_SAFE_GLOBALS``).  Taken again only when a binding changes, so
    keying a DSL expression stays a lookup."""
    bound = dsl._SAFE_GLOBALS
    items = tuple(bound.items())
    if items != _DSL_EVALUATOR[0]:
        names = _globals_content(bound, bound, set(), None)
        text = _module_digest(dsl.__name__).encode() + _encode(names, set())
        _DSL_EVALUATOR[:] = [items, hashlib.sha256(text).hexdigest()]
    return _DSL_EVALUATOR[1]


def _transition_lines(t: Transition) -> list[str]:
    """Canonical description of one transition.

    The *current* ``delay``/``guard`` objects are authoritative — the
    DSL's ``delay_src``/``guard_src`` attributes are ignored, since they
    go stale if a transition is mutated after parsing.  (DSL-compiled
    expression callables carry their own ``.src``, which
    :func:`callable_fingerprint` prefers, so ``.pnet`` nets still key on
    source text and the DSL evaluator, not bytecode.)
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
    lines = [
        f"transition {t.name}",
        "  in " + " ".join(f"{a.place}:{a.weight}" for a in t.inputs),
        "  out " + " ".join(f"{a.place}:{a.weight}" for a in t.outputs),
        f"  delay {delay}",
        f"  guard {guard}",
        f"  servers {t.servers}",
        f"  priority {t.priority}",
        f"  timeout {timeout}",
    ]
    if t.key is not None:
        # Only keyed transitions get the line, so unkeyed nets keep
        # their fingerprints (and their persisted entries).
        place, field, value = t.key
        lines.append(f"  key {place} {field} {canonical_bytes(value).hex()}")
    return lines


def net_fingerprint(net: PetriNet) -> str:
    """SHA-256 hex digest of the net's performance-relevant content.

    Stable across processes; changes whenever any structural element,
    any delay/guard formula, any helper or module constant such a
    formula names, or the source of a module it reaches through a class
    or a module changes.  Simulation *state* (markings, busy counts,
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
