"""Tests for the .pnet DSL parser and serializer."""

import pytest

from repro.petri import DslError, Simulator, make_simulator, parse, run_workload, to_pnet

DOC = """
# A two-stage decoder.
net demo

place in
place q capacity 4
place out

transition front
  consume in
  produce q
  delay expr: tok * 2 + 1
  servers 1

transition back
  consume q
  produce out
  delay 3
  servers 2
  priority 1
"""


def test_parse_structure():
    net = parse(DOC)
    assert net.name == "demo"
    assert net.places["q"].capacity == 4
    assert net.transitions["back"].servers == 2
    assert net.transitions["back"].priority == 1


def test_parsed_net_simulates():
    net = parse(DOC)
    res = run_workload(net, [1])
    # front: 1*2+1 = 3, back: 3 -> 6 total.
    assert res.latencies() == [6.0]


def test_expr_delay_uses_math_whitelist():
    doc = """
net m
place in
place out
transition t
  consume in
  produce out
  delay expr: ceil(tok / 32) * 4
"""
    net = parse(doc)
    res = run_workload(net, [33])
    assert res.latencies() == [8.0]


def test_fn_delay_resolved_from_env():
    doc = """
net m
place in
place out
transition t
  consume in
  produce out
  delay fn: my_cost
"""
    net = parse(doc, env={"my_cost": lambda consumed: 7.0})
    assert run_workload(net, [None]).latencies() == [7.0]


def test_fn_delay_unknown_name_errors():
    doc = "net m\nplace in\nplace out\ntransition t\n consume in\n produce out\n delay fn: nope\n"
    with pytest.raises(DslError, match="unknown delay function"):
        parse(doc)


def test_guard_expr():
    doc = """
net m
place in
place out
place big
transition small
  consume in
  produce out
  delay 1
  guard expr: tok < 10
transition large
  consume in
  produce big
  delay 1
  guard expr: tok >= 10
"""
    net = parse(doc)
    res = run_workload(net, [3, 30], sinks=["out", "big"])
    assert len(res.completions["out"]) == 1
    assert len(res.completions["big"]) == 1


def test_arc_weights_in_dsl():
    doc = """
net m
place in
place out
transition t
  consume in:2
  produce out:3
  delay 1
"""
    net = parse(doc)
    res = run_workload(net, [None, None])
    assert len(res.sink()) == 3


def test_round_trip_preserves_behavior():
    net = parse(DOC)
    text = to_pnet(net)
    net2 = parse(text)
    r1 = run_workload(net, [1, 2, 3])
    r2 = run_workload(net2, [1, 2, 3])
    assert r1.latencies() == r2.latencies()


KEYED_DOC = """
net keyed
place cmd
place unit
place out
inject cmd fields kind size
inject unit

transition big
  consume cmd:2 unit
  produce unit out
  delay expr: tok["size"] * 2
  guard expr: tok["kind"] == (True, "b")
  key cmd kind (True, 'b')

transition bypass
  consume unit
  produce unit
  delay 5
  guard expr: False
  priority 1

transition small
  consume cmd unit
  produce unit out
  delay expr: tok["size"] + 1
  guard expr: tok["kind"] == (False, "s")
  key cmd kind (False, 's')
"""


def _keyed_run(net, simulator):
    sim = simulator(net, sinks=["out"])
    sim.inject("unit", payload=None)
    # ``big`` takes its head token and the one behind it.
    for k, size in enumerate([3, 4, 6, 1, 2, 8, 5]):
        kind = (True, "b") if size % 2 == 0 else (False, "s")
        sim.inject("cmd", payload={"kind": kind, "size": size}, at=0.5 * (k // 2))
    result = sim.run()
    return [(c.time, c.token.payload) for c in result.sink("out")], result.fired


def test_keyed_document_round_trips():
    net = parse(KEYED_DOC)
    assert net.transitions["big"].key == ("cmd", "kind", (True, "b"))
    assert net.source_map[("key", "small")][0] == KEYED_DOC.splitlines().index(
        "  key cmd kind (False, 's')"
    ) + 1
    text = to_pnet(net)
    assert "  key cmd kind (True, 'b')" in text
    net2 = parse(text)
    assert {t.name: t.key for t in net2.transitions.values()} == {
        t.name: t.key for t in net.transitions.values()
    }
    compiled = _keyed_run(net, make_simulator)
    assert compiled == _keyed_run(net2, make_simulator)
    assert compiled == _keyed_run(parse(KEYED_DOC), Simulator)
    assert compiled[1] == {"big": 2, "bypass": 0, "small": 3}


@pytest.mark.parametrize(
    "doc,msg",
    [
        ("place p\n", "place before net"),
        ("net a\nnet b\n", "multiple net"),
        ("net a\nplace p capacity x\n", "bad capacity"),
        ("net a\nplace in\ntransition t\n delay 1\n", "no consume clause"),
        ("net a\nbogus\n", "unexpected keyword"),
        ("net a\nplace in\nplace out\ntransition t\n consume in\n produce out\n delay expr: ][\n", "bad delay expression"),
        ("net a\nplace in\nplace out\ntransition t\n consume in\n produce out\n guard 1\n", "guard requires"),
        ("net a\nplace in\nplace out\ntransition t\n consume in\n key in kind\n", "usage: key"),
        ("net a\nplace in\nplace out\ntransition t\n consume in\n key in kind ][\n", "bad key value"),
        ("net a\nplace in\nplace out\ntransition t\n consume in\n guard expr: True\n key out kind 1\n", "not one of its inputs"),
        ("net a\nplace in\nplace out\ntransition t\n consume in\n key in kind 1\n", "needs a guard"),
    ],
)
def test_parse_errors(doc, msg):
    with pytest.raises(DslError, match=msg):
        parse(doc)


def test_error_carries_line_number():
    with pytest.raises(DslError) as exc:
        parse("net a\nplace p capacity zzz\n")
    assert exc.value.line == 2


def test_empty_document_rejected():
    with pytest.raises(DslError, match="no net declaration"):
        parse("# only a comment\n")
