"""Differential tests: compiled engine vs reference simulator.

These are the executable form of the compiled engine's parity contract —
see ``repro.petri.differential`` for the harness and digest definition.
"""

import pytest

from repro.petri import PetriNet
from repro.petri.differential import (
    DiffCase,
    EngineMismatch,
    KeyContractError,
    accel_cases,
    check_key_contract,
    compare_engines,
    edge_cases,
    keyed_cases,
    random_cases,
    run_differential,
    summarize,
)


@pytest.mark.parametrize("case", accel_cases(), ids=lambda c: c.name)
def test_accelerator_nets_match(case):
    digest = compare_engines(case)
    # Accelerator nets must complete, not error.
    assert digest[0] == "ok"


@pytest.mark.parametrize("case", edge_cases(), ids=lambda c: c.name)
def test_edge_cases_match(case):
    compare_engines(case)


@pytest.mark.parametrize(
    "case", random_cases(seed=1, count=15) + keyed_cases(seed=1, count=8), ids=lambda c: c.name
)
def test_random_structural_nets_match(case):
    compare_engines(case)


def test_run_differential_returns_digest_per_case():
    cases = random_cases(seed=2, count=3)
    digests = run_differential(cases)
    assert set(digests) == {c.name for c in cases}


def test_tracing_does_not_perturb_either_engine():
    # Observability contract: a tracer riding along must leave the
    # digest identical on both engines, for real accelerator nets too.
    cases = accel_cases() + random_cases(seed=4, count=5) + keyed_cases(seed=2, count=4)
    traced = run_differential(cases, tracing=True)
    plain = run_differential(cases)
    assert traced == plain


def test_mismatch_raises_with_both_digests():
    """A case whose behavior differs per engine must be flagged loudly.

    We fabricate divergence with a guard that reads mutable external
    state (forbidden by the engine contract, perfect for this test)."""
    calls = {"n": 0}

    def build():
        calls["n"] += 1
        net = PetriNet("diverge")
        net.add_place("in")
        net.add_place("out")
        net.add_transition("t", ["in"], ["out"], delay=float(calls["n"]))
        return net, ["out"], lambda sim: sim.inject("in", payload=0)

    with pytest.raises(EngineMismatch, match="diverge|reference"):
        compare_engines(DiffCase("divergent", build))


def test_summarize_excludes_token_uids():
    """Two runs of the *same* engine differ only in uids; the digest must
    not see them."""
    from repro.petri import Simulator

    def run_once():
        net = PetriNet("twice")
        net.add_place("in")
        net.add_place("out")
        net.add_transition("t", ["in"], ["out"], delay=2)
        sim = Simulator(net, sinks=["out"])
        sim.inject_stream("in", range(5))
        return summarize(sim.run(), net)

    assert run_once() == run_once()


def test_key_contract_holds_on_keyed_nets():
    checked = {c.name: check_key_contract(c) for c in accel_cases() + keyed_cases(seed=1, count=8)}
    assert checked["jpeg[0]"] is None  # unkeyed: nothing to check
    assert checked["vta[0]"] > 0 and checked["keyed[10000]"] > 0


def test_key_contract_names_a_doctored_transition():
    """A key that disagrees with its guard makes the compiled engine
    diverge; the contract check names the transition, with a witness."""
    vta = next(c for c in accel_cases() if c.name == "vta[0]")

    def doctored():
        net, sinks, load = vta.build()
        t = net.transitions["compute_1010"]
        t.key = (*t.key[:2], (False, "doctored"))
        return net, sinks, load

    case = DiffCase("vta-doctored", doctored)
    with pytest.raises(KeyContractError, match="'compute_1010'.*'cmd_compute'.*payload"):
        check_key_contract(case)
    with pytest.raises(EngineMismatch):
        compare_engines(case)
