"""Cache layer: hit/miss accounting, key stability, invalidation."""

import copy
import enum
import os
import shutil
import struct
import subprocess
import sys
import types
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import EvalCache, UncacheableError, net_fingerprint, workload_key
from repro.petri import PetriNet, parse, run_workload

PNET = """\
net demo

place in
place mid capacity 4
place out

transition a
  consume in
  produce mid
  delay expr: 1 + tok["x"] % 3

transition b
  consume mid
  produce out
  delay 2
"""


def programmatic_net(delay=3.0, capacity=None):
    net = PetriNet("prog")
    net.add_place("in", capacity=capacity)
    net.add_place("out")
    net.add_transition("t", ["in"], ["out"], delay=delay)
    return net


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


def test_same_source_same_fingerprint():
    assert net_fingerprint(parse(PNET)) == net_fingerprint(parse(PNET))


def test_programmatic_net_fingerprint_is_reproducible():
    assert net_fingerprint(programmatic_net()) == net_fingerprint(programmatic_net())


@pytest.mark.parametrize(
    "mutate",
    [
        lambda n: setattr(n.transitions["a"], "servers", 9),
        lambda n: setattr(n.transitions["a"], "priority", 5),
        lambda n: setattr(n.places["mid"], "capacity", 99),
        lambda n: setattr(n.transitions["b"], "delay", 7.0),
        lambda n: setattr(n.transitions["b"], "timeout", (4.0, "in")),
    ],
)
def test_mutated_net_changes_fingerprint(mutate):
    net = parse(PNET)
    before = net_fingerprint(net)
    mutate(net)
    assert net_fingerprint(net) != before


def test_key_changes_net_fingerprint():
    def keyed(value):
        net = PetriNet("keyed")
        net.add_place("in")
        net.add_place("out")
        net.add_transition(
            "t", ["in"], ["out"], guard=lambda c: True, key=("in", "kind", value)
        )
        return net

    assert net_fingerprint(keyed(1)) == net_fingerprint(keyed(1))
    assert net_fingerprint(keyed(1)) != net_fingerprint(keyed(2))
    # Type-distinct like workload keys: 1 and True select alike but differ.
    assert net_fingerprint(keyed(1)) != net_fingerprint(keyed(True))


def test_changed_lambda_formula_changes_fingerprint():
    a = programmatic_net(delay=3.0)
    b = programmatic_net(delay=3.0)
    b.transitions["t"].delay = lambda c: 3.0 + c["in"][0].payload
    assert net_fingerprint(a) != net_fingerprint(b)


def test_closure_value_is_part_of_fingerprint():
    def with_factor(k):
        net = programmatic_net()
        net.transitions["t"].delay = lambda c: k * 1.0
        return net

    assert net_fingerprint(with_factor(2)) != net_fingerprint(with_factor(3))
    assert net_fingerprint(with_factor(2)) == net_fingerprint(with_factor(2))


def test_simulation_state_does_not_affect_fingerprint():
    from repro.petri import Simulator

    net = parse(PNET)
    before = net_fingerprint(net)
    sim = Simulator(net, sinks=["out"])
    sim.inject_stream("in", [{"x": i} for i in range(5)])
    sim.run()
    assert net_fingerprint(net) == before


def test_workload_key_distinguishes_types():
    values = (1, 1.0, True, "1", b"1", [1], (1,), {1}, frozenset({1}))
    assert len({workload_key(v) for v in values}) == len(values)


class Level(enum.IntEnum):
    LOW = 1


class Perm(enum.Flag):
    R = 1
    W = 2
    X = 4


Pair = namedtuple("Pair", "a b")


@pytest.mark.parametrize(
    ("a", "b"),
    [
        (-0.0, 0.0),
        (Level.LOW, 1),
        (Pair(1, 2), (1, 2)),
        (np.zeros(2, np.int32), np.zeros(1, np.int64)),
        (np.float64(1.0), 1.0),
        (np.array([1], ">i4"), np.array([1 << 24], "<i4")),  # same bytes
    ],
    ids=["signed-zero", "intenum", "namedtuple", "array-dtype", "numpy-scalar", "byte-order"],
)
def test_workload_key_tells_equal_looking_values_apart(a, b):
    assert workload_key(a) != workload_key(b)


def test_composite_flag_values_get_distinct_keys():
    keys = {workload_key(v) for v in (Perm.R | Perm.W, Perm.R | Perm.X, Perm.R, Perm(0))}
    assert len(keys) == 4
    assert workload_key(Perm.R | Perm.W) == workload_key(Perm.W | Perm.R)


def point_class(module: str):
    @dataclass
    class Point:
        x: int

    Point.__module__ = module
    Point.__qualname__ = "Point"
    return Point


def test_same_qualname_dataclasses_from_different_modules_differ():
    a, b = point_class("geometry.flat"), point_class("geometry.sphere")
    assert workload_key(a(1)) != workload_key(b(1))
    assert workload_key(a(1)) == workload_key(point_class("geometry.flat")(1))


def test_workload_key_rejects_opaque_objects():
    class Opaque:
        pass

    with pytest.raises(UncacheableError):
        workload_key(Opaque())
    with pytest.raises(UncacheableError):
        workload_key([1, {"k": (Opaque(),)}])


def test_shared_and_distinct_sub_objects_key_equal():
    row = {"i": 0, "bytes": 68}
    shared = [("in", row, 1.5), ("in", row, 1.5)]
    distinct = [("in", {"i": 0, "bytes": 68}, 1.5), ("in", dict(row), 1.5)]
    assert workload_key(shared) == workload_key(distinct)


def nested(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


@dataclass
class Link:
    to: object = None


def self_linked() -> Link:
    node = Link()
    node.to = node
    return node


def self_listed() -> list:
    value: list = [1]
    value.append(value)
    return value


@pytest.mark.parametrize(
    "make",
    [self_listed, self_linked, lambda: nested(5000)],
    ids=["cyclic-list", "cyclic-dataclass", "5k-deep"],
)
def test_cyclic_and_too_deep_features_compute_uncached(make):
    cache = EvalCache()
    calls = []
    for _ in range(2):
        assert cache.get_or_compute("ns", make(), lambda: calls.append(1) or 7) == 7
    assert len(calls) == 2
    assert cache.stats.uncacheable == 2 and cache.stats.lookups == 0


def same(a, b) -> bool:
    """Equal with the same types at every level, in the same order."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)  # -0.0 is not 0.0
    if type(a) in (list, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is dict:
        return same(list(a.items()), list(b.items()))
    if type(a) in (set, frozenset):
        return same(list(a), list(b))
    return a == b


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
    | st.binary(max_size=4)
)
HASHABLE = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3).map(tuple) | st.frozensets(inner, max_size=3),
    max_leaves=6,
)
PLAIN = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(HASHABLE, inner, max_size=3)
        | st.sets(HASHABLE, max_size=3)
        | st.frozensets(HASHABLE, max_size=3)
    ),
    max_leaves=12,
)


@given(PLAIN, PLAIN)
@settings(max_examples=200, deadline=None)
def test_keys_equal_exactly_when_values_are_the_same(a, b):
    assert (workload_key(a) == workload_key(b)) == same(a, b)


@given(PLAIN)
@settings(max_examples=100, deadline=None)
def test_a_rebuilt_value_keys_like_the_original(a):
    b = copy.deepcopy(a)
    assert (workload_key(a) == workload_key(b)) == same(a, b)
    assert workload_key(a) == workload_key(a)


INJECTIONS = (
    "makespan",
    3,
    [("in", {"i": i, "bytes": 68 + i, "wr": i % 2 == 0}, 150.0 * i) for i in range(3)],
)

# A Python formula whose code holds a set literal (a frozenset constant).
SET_LITERAL_NET = """
def set_literal_net():
    net = PetriNet("kinds")
    net.add_place("in")
    net.add_place("out")
    kinds = lambda c: c["in"][0].payload in {"read", "write", "scan", "seek", "sync"}
    net.add_transition("t", ["in"], ["out"], delay=lambda c: 2.0 if kinds(c) else 1.0)
    return net
"""


def test_key_stable_across_processes(tmp_path: Path):
    """The whole point of content addressing: a different process building
    the same net from the same source computes the same key, whatever its
    string hash seed."""
    script = f"""
import sys
sys.path.insert(0, {str(Path("src").resolve())!r})
from repro.perf import EvalCache, net_fingerprint
from repro.petri import PetriNet, parse
cache = EvalCache()
print(cache.key(parse({PNET!r}), {{"items": 10, "gap": 0.5}}))
print(cache.key(parse({PNET!r}), {INJECTIONS!r}))
{SET_LITERAL_NET}
print(net_fingerprint(set_literal_net()))
"""
    runs = [
        subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        ).stdout.split()
        for seed in ("1", "2")
    ]
    cache = EvalCache()
    namespace = {"PetriNet": PetriNet}
    exec(SET_LITERAL_NET, namespace)
    here = [
        cache.key(parse(PNET), {"items": 10, "gap": 0.5}),
        cache.key(parse(PNET), INJECTIONS),
        net_fingerprint(namespace["set_literal_net"]()),
    ]
    assert runs[0] == runs[1] == here


# ----------------------------------------------------------------------
# Python-callable nets: helpers and module constants are part of the key
# ----------------------------------------------------------------------

HELPERS = """
SCALE = {scale}


def helper(n):
    return n * SCALE{extra}


def delay(consumed):
    return helper(len(consumed["in"]))
"""


def helper_module(scale=2.0, extra=""):
    module = types.ModuleType("helpers")
    exec(HELPERS.format(scale=scale, extra=extra), module.__dict__)
    return module


def net_with_delay(delay) -> PetriNet:
    net = PetriNet("edited")
    net.add_place("in")
    net.add_place("out")
    net.add_transition("t", ["in"], ["out"], delay=delay)
    return net


def test_helper_body_and_module_constant_are_part_of_the_fingerprint():
    base = net_fingerprint(net_with_delay(helper_module().delay))
    assert base == net_fingerprint(net_with_delay(helper_module().delay))
    assert base != net_fingerprint(net_with_delay(helper_module(extra=" + 1").delay))
    assert base != net_fingerprint(net_with_delay(helper_module(scale=3.0).delay))


def test_recursive_callables_fingerprint_without_looping():
    module = types.ModuleType("recursive")
    exec(
        "def even(n):\n    return n == 0 or odd(n - 1)\n\n"
        "def odd(n):\n    return n != 0 and even(n - 1)\n",
        module.__dict__,
    )

    def make_countdown():
        def countdown(consumed, n=3):
            return 1.0 if n == 0 else countdown(consumed, n - 1)

        return countdown

    assert net_fingerprint(net_with_delay(module.even)) == net_fingerprint(
        net_with_delay(module.even)
    )
    assert net_fingerprint(net_with_delay(make_countdown())) == net_fingerprint(
        net_with_delay(make_countdown())
    )


@dataclass
class PerByte:
    rate: float

    def cost(self, consumed):
        return self.rate * consumed["in"][0].payload


class Opaque:
    def cost(self, consumed):
        return 1.0


def test_bound_method_formula_keys_on_its_instance():
    """A bound-method formula keys on the object it is bound to, so the
    cache never answers one rate with another rate's latency."""
    assert net_fingerprint(net_with_delay(PerByte(1.0).cost)) == net_fingerprint(
        net_with_delay(PerByte(1.0).cost)
    )

    cache = EvalCache()
    latencies = []
    for rate in (1.0, 5.0):
        net = net_with_delay(PerByte(rate).cost)
        compute = lambda net=net: run_workload(net, [10]).makespan()  # noqa: E731
        latencies.append(cache.get_or_compute(net, {"items": 1}, compute))
    assert latencies == [10.0, 50.0]

    with pytest.raises(UncacheableError):
        net_fingerprint(net_with_delay(Opaque().cost))


PERSISTED_RUN = """
import sys
sys.dont_write_bytecode = True
sys.path[:0] = [{src!r}, {modules!r}]
from repro.perf import EvalCache

cache = EvalCache({path!r})
{body}
print(cache.stats.hits, cache.stats.misses, value)
"""

#: Looks up the makespan of ``net`` for one token.
NET_LOOKUP = """
def compute():
    sim = Simulator(net, sinks=["out"])
    sim.inject_stream("in", [{"x": 1}])
    return sim.run().makespan()


value = cache.get_or_compute(net, {"items": 1}, compute)
"""

#: A one-transition net whose delay is ``helpers.delay``.
HELPER_NET = """
from repro.petri import PetriNet, Simulator
import helpers

net = PetriNet("edited")
net.add_place("in")
net.add_place("out")
net.add_transition("t", ["in"], ["out"], delay=helpers.delay)
""" + NET_LOOKUP

#: A ``.pnet`` net whose delay calls a DSL binding, after ``helpers.bind``
#: has had its say over the bindings.
DSL_NET = """
from repro.petri import Simulator, dsl, parse
import helpers

helpers.bind(dsl._SAFE_GLOBALS)
net = parse(
    "net dsl\\nplace in\\nplace out\\n"
    "transition t\\n  consume in\\n  produce out\\n  delay expr: ceil(tok['x'] * 1.5)\\n"
)
""" + NET_LOOKUP

#: A VTA program's cycles through a memoized ``helpers.profiler()``.
PROFILED_PROGRAM = """
from repro.accel.vta import GemmWorkload, Tiling, tiled_gemm_program
from repro.autotune import MemoizedProfiler
import helpers

program = tiled_gemm_program(GemmWorkload(4, 4, 4), Tiling(2, 2, 2))
value = MemoizedProfiler(helpers.profiler(), cache).profile(program)
"""

#: A tuning candidate's cycles through a memoized Petri-net tier.
PROFILED_CANDIDATE = """
from repro.accel.vta import GemmWorkload, Tiling
from repro.autotune import Candidate, MemoizedProfiler, PetriProfiler

memo = MemoizedProfiler(PetriProfiler(), cache)
value = memo.profile_candidates(GemmWorkload(4, 4, 4), [Candidate(Tiling(2, 2, 2))])[0]
"""


def persisted_runs(tmp_path: Path, body: str, src: Path = Path("src")):
    """``run(**sources)``: write each named module's source into an
    importable directory, then run ``body`` in a fresh process over one
    persistent cache file; returns its ``(hits, misses, value)``."""
    modules = tmp_path / "modules"
    modules.mkdir(exist_ok=True)
    script = PERSISTED_RUN.format(
        src=str(src.resolve()),
        modules=str(modules),
        path=str(tmp_path / "evals.jsonl"),
        body=body,
    )

    def run(**sources: str) -> tuple[int, int, float]:
        for name, text in sources.items():
            (modules / f"{name}.py").write_text(text)
        out = subprocess.run(
            [sys.executable, "-B", "-c", script], capture_output=True, text=True, check=True
        ).stdout.split()
        return int(out[0]), int(out[1]), float(out[2])

    return run


def test_helper_edit_misses_the_persistent_tier(tmp_path: Path):
    """A process that edits a delay's helper (or a constant it reads)
    must not be served the latency cached before the edit."""
    run = persisted_runs(tmp_path, HELPER_NET)
    assert run(helpers=HELPERS.format(scale=2.0, extra="")) == (0, 1, 2.0)
    assert run() == (1, 0, 2.0)  # unchanged code: served from disk
    assert run(helpers=HELPERS.format(scale=2.0, extra=" + 1")) == (0, 1, 3.0)  # helper body
    assert run(helpers=HELPERS.format(scale=5.0, extra=" + 1")) == (0, 1, 6.0)  # constant


CLOSURE_HELPERS = """
from dataclasses import dataclass


@dataclass(frozen=True)
class Rate:
    per_item: float

    def cost(self, n):
        return n * self.per_item{extra}


def make_delay(rate):
    def delay(consumed):
        return rate.cost(len(consumed["in"]))

    return delay


delay = make_delay(Rate(2.0))
"""

MODULE_HELPERS = """
import scales


def delay(consumed):
    return scales.cost(len(consumed["in"]))
"""

SCALES = """
def cost(n):
    return n * 2.0{extra}
"""

CLASS_HELPERS = """
class Config:
    SCALE = {scale}


def delay(consumed):
    return len(consumed["in"]) * Config.SCALE
"""

BIND_HELPERS = """
def bind(names):
    {rebind}
"""

TOKENIZER_HELPERS = """
from repro.accel.vta.interfaces import tokenize_program
from repro.autotune import PetriProfiler


def tokenize(program):
    return [(place, payload, at * {scale}) for place, payload, at in tokenize_program(program)]


def profiler():
    tier = PetriProfiler()
    tier._iface.tokenize = tokenize
    return tier
"""

#: Code an answer depends on, reached other than as a global function or
#: constant: gap -> (script body, module sources, the same after an edit).
CODE_EDITS = {
    "method-of-a-closure-value": (
        HELPER_NET,
        {"helpers": CLOSURE_HELPERS.format(extra="")},
        {"helpers": CLOSURE_HELPERS.format(extra=" + 1")},
    ),
    "function-of-a-module-attribute": (
        HELPER_NET,
        {"helpers": MODULE_HELPERS, "scales": SCALES.format(extra="")},
        {"scales": SCALES.format(extra=" + 1")},
    ),
    "class-attribute": (
        HELPER_NET,
        {"helpers": CLASS_HELPERS.format(scale=2.0)},
        {"helpers": CLASS_HELPERS.format(scale=5.0)},
    ),
    "dsl-binding": (
        DSL_NET,
        {"helpers": BIND_HELPERS.format(rebind="pass")},
        {"helpers": BIND_HELPERS.format(rebind='names["ceil"] = names["floor"]')},
    ),
    "tokenizer": (
        PROFILED_PROGRAM,
        {"helpers": TOKENIZER_HELPERS.format(scale=1)},
        {"helpers": TOKENIZER_HELPERS.format(scale=2)},
    ),
}


@pytest.mark.parametrize("gap", sorted(CODE_EDITS))
def test_code_edit_misses_the_persistent_tier(gap, tmp_path: Path):
    """Each way an answer reaches code — a method of a value a formula
    closes over, a function of a module it names, a class attribute, a
    DSL binding, a profiler tier's tokenizer — is in the key: after an
    edit of that code, a fresh process misses and computes the new
    answer instead of being served the old one."""
    body, before, after = CODE_EDITS[gap]
    run = persisted_runs(tmp_path, body)
    hits, misses, value = run(**before)
    assert (hits, misses) == (0, 1)
    assert run() == (1, 0, value)  # unchanged code: served from disk
    hits, misses, edited = run(**after)
    assert (hits, misses) == (0, 1) and edited != value


#: Edits of the code between a tuning candidate and its cycles, in the
#: order applied: its lowering, then the interface class that answers.
CANDIDATE_CODE_EDITS = [
    ("accel/vta/workload.py", "iterations=BLOCK,", "iterations=2 * BLOCK,"),
    ("autotune/tuner.py", "alu_relu=self.alu_relu)", "alu_relu=not self.alu_relu)"),
    ("core/petrinet.py", "makespan + self.epilogue for", "makespan + self.epilogue + 1 for"),
]


def test_candidate_code_edit_misses_the_persistent_tier(tmp_path: Path):
    """A memoized tier keys a tuning candidate, not its lowered program,
    so an edit of the lowering (``tiled_gemm_program``, or
    ``Candidate.lower`` in the tuner) or of the Petri-net interface
    class that answers (``PetriNetInterface.evaluate_batch``) must miss
    in a fresh process."""
    src = tmp_path / "src"
    shutil.copytree(
        Path("src/repro"), src / "repro", ignore=shutil.ignore_patterns("__pycache__")
    )
    run = persisted_runs(tmp_path, PROFILED_CANDIDATE, src=src)
    hits, misses, value = run()
    assert (hits, misses) == (0, 1)
    assert run() == (1, 0, value)
    for path, old, new in CANDIDATE_CODE_EDITS:
        module = src / "repro" / path
        text = module.read_text()
        assert text.count(old) == 1
        module.write_text(text.replace(old, new))
        hits, misses, edited = run()
        assert (hits, misses) == (0, 1) and edited != value
        value = edited


# ----------------------------------------------------------------------
# EvalCache behavior
# ----------------------------------------------------------------------


def test_hit_miss_counting():
    cache = EvalCache()
    net = parse(PNET)
    calls = []

    def compute():
        calls.append(1)
        return len(calls)

    assert cache.get_or_compute(net, {"n": 1}, compute) == 1
    assert cache.get_or_compute(net, {"n": 1}, compute) == 1
    assert cache.get_or_compute(net, {"n": 2}, compute) == 2
    assert (cache.stats.hits, cache.stats.misses) == (1, 2)
    assert cache.stats.hit_rate == pytest.approx(1 / 3)
    assert len(calls) == 2
    assert len(cache) == 2


def test_uncacheable_features_always_compute():
    class Opaque:
        pass

    cache = EvalCache()
    net = parse(PNET)
    calls = []
    for _ in range(2):
        cache.get_or_compute(net, Opaque(), lambda: calls.append(1))
    assert len(calls) == 2
    assert cache.stats.uncacheable == 2
    assert cache.stats.lookups == 0


@pytest.fixture
def public_calls(monkeypatch):
    """Every call to the public ``EvalCache.get`` and ``EvalCache.put``
    (wrapped on the class, as perfbench's trace wraps them)."""
    calls: list[tuple] = []
    real_get, real_put = EvalCache.get, EvalCache.put

    def get(self, net, features):
        calls.append(("get", features))
        return real_get(self, net, features)

    def put(self, net, features, value, *, key=None):
        calls.append(("put", features, value, key is not None))
        return real_put(self, net, features, value, key=key)

    monkeypatch.setattr(EvalCache, "get", get)
    monkeypatch.setattr(EvalCache, "put", put)
    return calls


def test_get_many_and_get_or_compute_memo_loops(public_calls):
    class Opaque:
        pass

    cache = EvalCache()
    cache.put("ns", 2, "two")
    opaque = Opaque()
    features = [1, opaque, 2, 3]
    computed: list[list] = []

    def compute(missed):
        computed.append(missed)
        return [f"c{features.index(f)}" for f in missed]

    public_calls.clear()
    assert cache.get_many("ns", iter(features), compute) == ["c0", "c1", "two", "c3"]
    assert computed == [[1, opaque, 3]]  # once, with the misses in input order
    assert public_calls == [
        ("get", 1),
        ("get", opaque),
        ("get", 2),
        ("get", 3),
        ("put", 1, "c0", True),  # under the key its lookup derived
        ("put", 3, "c3", True),
    ]
    assert (cache.stats.hits, cache.stats.misses, cache.stats.uncacheable) == (1, 2, 1)
    assert len(cache) == 3  # the uncacheable item is never stored

    public_calls.clear()
    assert cache.get_many("ns", features, compute) == ["c0", "c1", "two", "c3"]
    assert computed[1:] == [[opaque]]  # only the uncacheable item computes again
    assert [c[0] for c in public_calls] == ["get"] * 4
    assert (cache.stats.hits, cache.stats.uncacheable) == (4, 2)

    assert cache.get_many("ns", [2, 3], compute) == ["two", "c3"]
    assert len(computed) == 2  # every item hit: compute is not called

    # The one-item loop shares the lookup and the store, not the public
    # methods (a wrapper counting lookups would count it twice).
    public_calls.clear()
    assert cache.get_or_compute("ns", 4, lambda: "v") == "v"
    assert cache.get_or_compute("ns", 4, lambda: "w") == "v"
    assert public_calls == []
    assert (cache.stats.hits, cache.stats.misses) == (7, 3)


def test_mutated_fingerprint_invalidates_entries():
    cache = EvalCache()
    net = parse(PNET)
    cache.get_or_compute(net, {"n": 1}, lambda: "old")
    net.transitions["a"].servers = 4  # a different accelerator now
    assert cache.get_or_compute(net, {"n": 1}, lambda: "new") == "new"
    assert cache.stats.misses == 2 and cache.stats.hits == 0


def test_string_namespace_keys():
    cache = EvalCache()
    a = cache.get_or_compute("profiler:x", {"p": 1}, lambda: "ax")
    b = cache.get_or_compute("profiler:y", {"p": 1}, lambda: "by")
    assert (a, b) == ("ax", "by")
    assert cache.get_or_compute("profiler:x", {"p": 1}, lambda: "zz") == "ax"


def test_clear_drops_entries_but_keeps_counters():
    cache = EvalCache()
    cache.get_or_compute("ns", 1, lambda: "v")
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.misses == 1
    cache.reset_stats()
    assert cache.stats.lookups == 0


def test_stats_summary_format():
    cache = EvalCache()
    cache.get_or_compute("ns", 1, lambda: "v")
    cache.get_or_compute("ns", 1, lambda: "v")
    assert cache.stats.summary() == "cache: 1/2 hits (50%)"
