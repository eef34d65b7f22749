"""Batch engines: chain detection, routing, and per-item compiled parity.

The parity sections drive ``repro.petri.differential``'s batched case
families — the same harness the CI engine-parity job runs — so a local
``pytest`` failure and a CI failure point at the same digest diff.
"""

import math
import random

import numpy as np
import pytest

from repro.petri import (
    BatchEvaluator,
    CompiledNet,
    CompiledSimulator,
    PetriNet,
    TokenColumns,
    chain_spec,
    chain_unsupported_reasons,
    codegen_supported,
    parse,
)
from repro.petri.batched import _array_delay, _column_env, _Unfit
from repro.petri.compiled import PlanLoop
from repro.petri.differential import (
    _random_columns,
    accel_batch_cases,
    batch_cases,
    batch_summarize,
    check_token_payload_routing,
    column_edge_cases,
    compare_batch_engines,
    compare_column_items,
    edge_batch_cases,
    item_forms,
    keyed_batch_case,
    keyed_parts,
    random_chain_case,
    random_dsl_chain_case,
    random_expression,
    random_structural_batch_case,
)
from repro.petri.dsl import _SAFE_GLOBALS
from repro.petri.errors import CapacityError, DeadlineError, DefinitionError, SimulationError

CHAIN_PNET = """\
net chain

place in
place mid capacity 3
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


def chain_net():
    return parse(CHAIN_PNET)


def items_for(n_items, per_item=8):
    return [
        [("in", {"x": i * per_item + k}, 0.5 * k) for k in range(per_item)]
        for i in range(n_items)
    ]


# ----------------------------------------------------------------------
# Chain detection
# ----------------------------------------------------------------------


def test_dsl_chain_is_codegen_supported():
    net = chain_net()
    assert chain_unsupported_reasons(net, ["out"]) == []
    assert codegen_supported(net, ["out"])
    spec = chain_spec(net, ["out"])
    assert spec.stage_names == ("a", "b")
    assert spec.out_caps == (3, None)
    # The DSL expr delay is inlinable; the constant stage has no fn.
    assert spec.delay_srcs[0] is not None
    assert spec.delay_fns[1] is None


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda n: setattr(n.transitions["a"], "servers", 2), "single-server"),
        (lambda n: setattr(n.transitions["a"], "servers", None), "single-server"),
        (lambda n: setattr(n.transitions["b"], "delay", 0.0), "non-positive"),
        (
            lambda n: setattr(n.transitions["a"], "guard", lambda c: True),
            "guard",
        ),
        (
            lambda n: setattr(n.transitions["b"], "timeout", (4.0, "mid")),
            "timeout",
        ),
    ],
)
def test_non_chain_features_are_rejected(mutate, fragment):
    net = chain_net()
    mutate(net)
    reasons = chain_unsupported_reasons(net, ["out"])
    assert reasons and any(fragment in r for r in reasons)
    assert chain_spec(net, ["out"]) is None


def test_fan_out_topology_is_rejected():
    net = PetriNet("fan")
    net.add_place("in")
    net.add_place("a")
    net.add_place("out")
    net.add_transition("t1", ["in"], ["a"], delay=1, servers=1)
    net.add_transition("t2", ["in"], ["out"], delay=1, servers=1)
    assert not codegen_supported(net, ["out"])


# ----------------------------------------------------------------------
# BatchEvaluator facade
# ----------------------------------------------------------------------


def test_auto_engine_picks_codegen_for_chains():
    ev = BatchEvaluator(chain_net(), ["out"])
    assert ev.engine == "codegen"
    ev.evaluate(items_for(3))
    assert ev.items_codegen == 3 and ev.items_columnar == 0


def test_forced_columnar_never_uses_codegen():
    ev = BatchEvaluator(chain_net(), ["out"], engine="columnar")
    assert ev.engine == "columnar"
    ev.evaluate(items_for(2))
    assert ev.items_codegen == 0 and ev.items_columnar == 2


def test_forced_codegen_rejects_non_chain_nets():
    net = chain_net()
    net.transitions["a"].servers = 4
    with pytest.raises(SimulationError, match="codegen"):
        BatchEvaluator(net, ["out"], engine="codegen")


def test_unknown_engine_and_place_raise():
    with pytest.raises(ValueError, match="unknown batch engine"):
        BatchEvaluator(chain_net(), ["out"], engine="warp")
    ev = BatchEvaluator(chain_net(), ["out"])
    with pytest.raises(SimulationError, match="unknown place"):
        ev.evaluate([[("nowhere", {"x": 1}, 0.0)]])


def test_empty_batch_and_empty_item():
    ev = BatchEvaluator(chain_net(), ["out"])
    assert ev.evaluate([]) == []
    [res] = ev.evaluate([[]])
    assert res.makespan == 0.0 and res.total_completions == 0


def test_building_an_evaluator_lowers_the_net_once(monkeypatch):
    """The chain checks and the codegen spec reuse the evaluator's own
    lowering instead of lowering the net again."""
    lowered = []
    lower = CompiledNet.__init__

    def counting(self, net):
        lowered.append(net.name)
        lower(self, net)

    monkeypatch.setattr(CompiledNet, "__init__", counting)
    ev = BatchEvaluator(chain_net(), ["out"])
    assert ev.engine == "codegen"
    assert lowered == ["chain"]


def test_shared_compiled_net_must_belong_to_the_net():
    net = chain_net()
    other = chain_net()
    with pytest.raises(SimulationError, match="different net"):
        BatchEvaluator(net, ["out"], compiled=CompiledNet(other))


def test_evaluate_makespans_matches_per_item_compiled_runs():
    items = items_for(4)
    got = BatchEvaluator(chain_net(), ["out"]).evaluate_makespans(items)
    want = []
    for item in items:
        sim = CompiledSimulator(chain_net(), sinks=["out"])
        for place, payload, at in item:
            sim.inject(place, payload, at=at)
        want.append(sim.run().makespan())
    assert got == want  # bit-identical, not approx


# ----------------------------------------------------------------------
# Differential parity vs the compiled engine (the contract)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("case", accel_batch_cases(), ids=lambda c: c.name)
def test_accelerator_batch_parity(case):
    digests = compare_batch_engines(case)
    assert "columnar" in digests
    for per_item in digests.values():
        assert all(d[0] == "ok" for d in per_item)


def test_chain_shaped_accelerators_exercise_codegen():
    by_name = {c.name: compare_batch_engines(c) for c in accel_batch_cases()}
    codegen_nets = {n for n, d in by_name.items() if "codegen" in d}
    # The acceptance bar: at least two real accelerator nets run the
    # codegen engine with proven per-item equality.
    assert {"jpeg", "optimusprime"} <= codegen_nets


@pytest.mark.parametrize("case", edge_batch_cases(), ids=lambda c: c.name)
def test_edge_batch_parity(case):
    compare_batch_engines(case)


def test_token_payloads_run_on_the_event_loop():
    # Digest parity and columnar routing, in every item form.
    assert check_token_payload_routing() == 2


def test_item_forms_spell_the_same_triples():
    items = [[("in", 1, 0.0), ("in", 2, 0.5), ("in", 3, 1.0)], []]
    forms = item_forms(items)
    assert set(forms) == {"tuples", "injections", "mixed"}
    for form in forms.values():
        assert [[tuple(inj) for inj in item] for item in form] == items
    assert [type(inj).__name__ for inj in forms["mixed"][0]] == [
        "tuple",
        "Injection",
        "tuple",
    ]


@pytest.mark.parametrize("seed", range(6))
def test_random_chain_batch_parity(seed):
    case = random_chain_case(seed)
    digests = compare_batch_engines(case)
    assert "codegen" in digests  # the family must exercise codegen


@pytest.mark.parametrize("seed", [500, 501, 502, 503])
def test_random_structural_batch_parity(seed):
    compare_batch_engines(random_structural_batch_case(seed))


def test_batch_case_family_is_reproducible():
    a = [(c.name, c.items) for c in batch_cases()]
    b = [(c.name, c.items) for c in batch_cases()]
    assert a == b


@pytest.mark.parametrize("seed", [0, 4, 9])
def test_keyed_batch_parity(seed):
    compare_batch_engines(keyed_batch_case(seed))


# ----------------------------------------------------------------------
# The columnar engine's loop: reuse across items and per-item runs
# ----------------------------------------------------------------------


def _digests(evaluator, items):
    return [batch_summarize(r) for r in evaluator.evaluate(items, collect=True)]


def _capped_net():
    """A columnar-only net whose callable delay goes negative on a zero
    payload, with a capped middle place, so a raising item leaves tokens
    queued, slots reserved and completions recorded behind it."""
    net = PetriNet("capped")
    net.add_place("in")
    net.add_place("mid", capacity=2)
    net.add_place("out")
    net.add_transition("a", ["in"], ["mid"], delay=1.0, servers=2)
    net.add_transition(
        "b", ["mid"], ["out"], delay=lambda c: c["mid"][0].payload - 1.0, servers=1
    )
    return net, ["out"]


def _keyed_net():
    net, sinks, _ = keyed_parts(3)
    return net, sinks


@pytest.mark.parametrize(
    "build, clean, bad, error",
    [
        (
            _capped_net,
            [
                [("in", 2.0 + k % 3, 0.25 * k) for k in range(9)],
                [("in", 5.0, 0.0), ("mid", 3.0, 0.0)],
            ],
            [("in", 4.0 + k, 0.5 * k) for k in range(6)] + [("in", 0.0, 3.0)],
            DefinitionError,
        ),
        (
            _keyed_net,
            keyed_batch_case(3).items,
            keyed_parts(3)[2] + [("qa", {"n": 99}, 0.0)],  # no key field "k"
            SimulationError,
        ),
    ],
    ids=["negative-delay", "missing-key"],
)
def test_an_item_that_raised_leaves_the_evaluator_clean(build, clean, bad, error):
    want = _digests(BatchEvaluator(*build(), engine="columnar"), clean)
    evaluator = BatchEvaluator(*build(), engine="columnar")
    with pytest.raises(error):
        evaluator.evaluate([bad])
    assert _digests(evaluator, clean) == want


@pytest.mark.parametrize(
    "case",
    [keyed_batch_case(1), keyed_batch_case(6), random_structural_batch_case(503)],
    ids=lambda c: c.name,
)
def test_matrix_order_does_not_change_item_results(case):
    forwards = _digests(BatchEvaluator(*case.build(), engine="columnar"), case.items)
    backwards = _digests(
        BatchEvaluator(*case.build(), engine="columnar"), case.items[::-1]
    )
    assert backwards[::-1] == forwards


def _shared_net():
    """A columnar-only net (two servers on ``a``) with a capped middle
    place and a payload-dependent delay."""
    net = PetriNet("shared")
    net.add_place("in")
    net.add_place("mid", capacity=2)
    net.add_place("out")
    net.add_transition("a", ["in"], ["mid"], delay=1.0, servers=2)
    net.add_transition(
        "b", ["mid"], ["out"], delay=lambda c: 0.5 + c["mid"][0].payload % 3, servers=1
    )
    return net


def _net_state(net):
    """Per place (tokens, reserved slots, payloads) and per transition
    (busy servers, fire count, busy time)."""
    return (
        {
            name: (len(p.tokens), p.reserved, [t.payload for t in p.tokens])
            for name, p in net.places.items()
        },
        {name: (t.busy, t.fire_count, t.busy_time) for name, t in net.transitions.items()},
    )


SHARED_ITEMS = [
    [("in", k, 0.5 * k) for k in range(6)],
    [("in", k, 0.0) for k in range(4)] + [("mid", 5, 0.0)],
    [],
]


def test_per_item_runs_and_batch_items_share_one_loop(monkeypatch):
    """A ``CompiledSimulator`` and a ``BatchEvaluator`` over one
    ``CompiledNet`` run the same loop.  Per-item runs stopped by
    ``until`` and by ``max_time`` (raising ``DeadlineError``) write back
    the marking, reservations and counters pinned below, one that raises
    ``CapacityError`` leaves the net as it was, and each leaves the loop
    clean for the next batch."""
    want = _digests(BatchEvaluator(_shared_net(), ["out"]), SHARED_ITEMS)
    ran = []
    run = PlanLoop._run

    def spy(self, *args):
        ran.append(self)
        return run(self, *args)

    monkeypatch.setattr(PlanLoop, "_run", spy)
    net = _shared_net()
    compiled = CompiledNet(net)
    evaluator = BatchEvaluator(net, ["out"], compiled=compiled)
    assert evaluator.engine == "columnar"

    sim = CompiledSimulator(net, ["out"], compiled=compiled)
    sim.inject_stream("in", range(6), gap=0.5)
    result = sim.run(until=3.0)
    assert (result.end_time, len(result.sink()), result.residual_tokens) == (3.0, 2, 2)
    assert not result.deadlocked and not result.deadline_exceeded
    stopped = (
        {"in": (1, 0, [5]), "mid": (1, 1, [3]), "out": (0, 1, [])},
        {"a": (1, 5, 5.0), "b": (1, 3, 4.5)},
    )
    assert _net_state(net) == stopped
    assert _digests(evaluator, SHARED_ITEMS) == want

    sim = CompiledSimulator(net, ["out"], compiled=compiled)
    sim.inject_stream("in", range(8), gap=0.25)
    with pytest.raises(DeadlineError) as exc:
        sim.run(max_time=4.0, on_deadline="raise")
    assert str(exc.value) == (
        "net 'shared' exceeded max_time=4.0 with 1 events pending (2 completions so far)"
    )
    partial = exc.value.result
    assert [(c.time, c.token.payload) for c in partial.sink()] == [(1.5, 0), (3.0, 1)]
    assert (partial.end_time, partial.residual_tokens, partial.deadline_exceeded) == (
        4.0,
        5,
        True,
    )
    deadline = (
        {"in": (3, 0, [5, 6, 7]), "mid": (2, 0, [3, 4]), "out": (0, 1, [])},
        {"a": (0, 5, 5.0), "b": (1, 3, 4.5)},
    )
    assert _net_state(net) == deadline
    assert _digests(evaluator, SHARED_ITEMS) == want

    sim = CompiledSimulator(net, ["out"], compiled=compiled)
    sim.inject_stream("in", range(3))
    sim.inject_stream("mid", [7, 8, 9], start=2.0)  # the third one overflows
    with pytest.raises(CapacityError, match="place 'mid' is full"):
        sim.run()
    assert _net_state(net) == deadline
    assert _digests(evaluator, SHARED_ITEMS) == want

    loop = compiled.plan_loop(["out"])
    assert len(ran) == 3 + 3 * len(SHARED_ITEMS)
    assert all(r is loop for r in ran)


# ----------------------------------------------------------------------
# Column items
# ----------------------------------------------------------------------


def test_token_columns_iterate_to_their_triples():
    cols = TokenColumns(
        "in",
        2.5,
        {"x": np.array([3, 1], dtype=np.int32), "w": np.array([True, False])},
    )
    assert len(cols) == 2
    triples = list(cols)
    assert triples == [("in", {"x": 3, "w": True}, 2.5), ("in", {"x": 1, "w": False}, 2.5)]
    assert [type(v) for v in triples[0][1].values()] == [int, bool]
    assert triples[0][1] is not triples[1][1]  # a fresh payload per token
    assert list(TokenColumns("in", 0.0, {}, 3)) == [("in", {}, 0.0)] * 3
    with pytest.raises(ValueError, match="token count"):
        TokenColumns("in", 0.0, {})
    with pytest.raises(ValueError, match="length 2"):
        TokenColumns("in", 0.0, {"x": np.arange(2), "y": np.arange(3)})
    with pytest.raises(ValueError, match="1-D"):
        TokenColumns("in", 0.0, {"x": np.zeros((2, 2))})


def test_only_the_array_subset_lowers():
    lowers = [
        "6 + 8.0 * tok['b'] + 0.875 + (12 if (tok['i'] + 1) % 64 == 0 else 0)",
        "134 + tok['n'] // 16",
        "32 + (33.7 if tok['w'] else 0)",
        "tok['a'] / tok['b'] - -2",
        "(tok['a'] <= 3) * 2.5",
    ]
    assert all(_array_delay(src) is not None for src in lowers)
    assert _array_delay(lowers[0]).fields == {"b", "i"}
    outside = [
        "ceil(tok['a'])",
        "max(tok['a'], 1)",
        "len(toks)",
        "tok['a'] ** 2",
        "-tok['a']",
        "tok['a'] // tok['b']",
        "tok['a'] % 0",
        "1 < tok['a'] < 3",
        "tok['a'] and 1",
        "tok[0]",
        "True + tok['a']",
        f"tok['a'] + {2**53 + 1}",
    ]
    assert [src for src in outside if _array_delay(src) is not None] == []


@pytest.mark.parametrize("seed", range(40))
def test_lowered_expressions_equal_the_per_token_values(seed):
    """Element for element, a lowered expression gives the float the
    per-token evaluation gives (by repr: signed zeros, NaN and infinities
    count), or the item falls back."""
    rng = random.Random(seed)
    scope = dict(_SAFE_GLOBALS)
    for _ in range(25):
        src = random_expression(rng, depth=rng.randint(1, 4))
        lowered = _array_delay(src)
        if lowered is None:
            continue
        columns = _random_columns(rng, rng.randint(1, 12), signed=True)
        try:
            with np.errstate(all="ignore"):
                got = lowered.evaluate(_column_env(columns, lowered.fields))[0]
        except _Unfit:
            continue
        n = len(columns["x"])
        got = np.broadcast_to(np.asarray(got, dtype=np.float64), (n,)).tolist()
        code = compile(src, "<expr>", "eval")
        for k, (_, payload, _) in enumerate(TokenColumns("in", 0.0, columns)):
            want = float(eval(code, {**scope, "tok": payload}))  # noqa: S307
            assert repr(got[k]) == repr(want), (src, payload)


def test_integers_past_2_53_fall_back():
    lowered = _array_delay("1 + tok['d'] % 4")
    env = _column_env({"d": np.array([2**53, 3])}, lowered.fields)
    assert lowered.evaluate(env)[0].tolist() == [1, 4]
    with pytest.raises(_Unfit):
        _column_env({"d": np.array([2**53 + 1])}, lowered.fields)
    with pytest.raises(_Unfit):  # int arithmetic that could leave 2**53
        product = _array_delay("tok['d'] * tok['d']")
        product.evaluate(_column_env({"d": np.array([2**27])}, product.fields))
    for bad in (np.array(["a"], dtype=object), np.array([1 + 2j])):
        with pytest.raises(_Unfit):
            _column_env({"d": bad}, lowered.fields)
    with pytest.raises(_Unfit):
        _column_env({"e": np.array([1])}, lowered.fields)


@pytest.mark.parametrize("case", column_edge_cases(), ids=lambda c: c.name)
def test_column_items_match_their_triples(case):
    compare_column_items(case)
    if case.oracle:
        compare_batch_engines(case)


def test_column_edge_routing():
    """Which edge items ran the recurrence over delay lists (counted
    once, on the codegen chain)."""
    listed = {case.name: compare_column_items(case)[1] for case in column_edge_cases()}
    assert listed["columns[int-past-2**53]"] == 1  # 2**53 lowers, 2**53 + 1 does not
    assert listed["columns[int-product-past-2**53]"] == 1
    assert listed["columns[kinds]"] == 2  # bool, int and float lower; object does not
    assert listed["columns[empty]"] == 2  # the two empty items on the entry place
    for name in (
        "columns[negative-then-zero]",
        "columns[zero-then-negative]",
        "columns[missing-field]",
        "columns[calls-and-toks]",
        "columns[non-chain]",
        "columns[nan]",
    ):
        assert listed[name] == 0, name


@pytest.mark.parametrize("seed", range(6))
def test_random_dsl_chain_batch_parity(seed):
    case = random_dsl_chain_case(seed)
    digests = compare_batch_engines(case)
    assert "codegen" in digests
    assert all(d[0] == "ok" for d in digests["codegen"])
    checked, listed = compare_column_items(case)
    assert listed == len(case.columns) == checked // 2  # every item ran the lists


def test_shipped_chain_matrices_run_in_column_form():
    by_name = {case.name: case for case in accel_batch_cases()}
    assert by_name["vta"].columns is None  # tokens on many places
    for name in ("jpeg", "bitcoin[loop=8]", "protoacc", "optimusprime"):
        case = by_name[name]
        checked, listed = compare_column_items(case)
        assert listed == len(case.columns) == checked // 2, name


def test_a_nan_delay_runs_as_its_triples():
    [case] = [c for c in column_edge_cases() if c.name == "columns[nan]"]
    net, sinks = case.build()
    evaluator = BatchEvaluator(net, sinks)
    [result] = evaluator.evaluate(case.columns, collect=True)
    assert evaluator.items_codegen == 1 and evaluator.items_from_columns == 0
    assert math.isnan(result.completion_times["out"][1])
