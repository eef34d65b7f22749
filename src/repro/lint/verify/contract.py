"""Performance contracts: what an interface *promises*, as data.

A :class:`PerfContract` is the verifier's output and the runtime's
input: symbolic and numeric latency bounds, per-feature monotonicity
certificates, an evaluability class, and the epsilon within which the
bounds were checked against the compiled engine.  Contracts serialize
to a ``.contract.json`` sidecar next to the ``.pnet`` source, ride on
:class:`~repro.lint.bundle.InterfaceBundle`, and are what
``DevicePool`` checks at registration and ``HealingManager`` checks
before spending shadow traffic on a refit candidate.

:func:`analyze_bundle` derives a contract from a bundle's shipped
representations; :func:`verify_candidate` statically vets a runtime
refit candidate (an extracted linear interface) against basic sanity
and, when available, a contract's slope certificates.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from math import inf, isnan
from typing import TYPE_CHECKING, Any

from .bounds import CornerCheck, NetBounds, check_corners, net_latency_bounds
from .domain import TOP, Interval
from .monotone import (
    ANY_FEATURE,
    MonotoneCert,
    analyze_program,
    cert_for_deriv,
    sampled_cert,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..bundle import InterfaceBundle

EVALUABILITY = ("closed-form", "piecewise", "opaque")

#: Default relative tolerance for corner-point concretization checks.
DEFAULT_EPSILON = 0.02


def _num_to_json(v: float) -> Any:
    if v == inf:
        return "inf"
    if v == -inf:
        return "-inf"
    return v


def _num_from_json(v: Any) -> float:
    if v == "inf":
        return inf
    if v == "-inf":
        return -inf
    return float(v)


@dataclass(frozen=True)
class PerfContract:
    """A verified (or declared) performance promise for one interface.

    ``min_latency``/``max_latency`` bound a single request's
    no-contention latency over the declared feature ``domains``;
    ``min_expr``/``max_expr`` are the symbolic forms those numbers were
    concretized from (absent for opaque interfaces).  ``monotone``
    carries one certificate per feature; ``evaluability`` says how much
    of the promise is closed-form.  ``epsilon`` is the relative
    tolerance the contract's bounds were (or must be) validated to.
    """

    accelerator: str
    entry: str = "in"
    sink: str = "out"
    domains: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    min_expr: str | None = None
    max_expr: str | None = None
    min_latency: float = 0.0
    max_latency: float = inf
    monotone: tuple[MonotoneCert, ...] = ()
    evaluability: str = "opaque"
    epsilon: float = DEFAULT_EPSILON
    notes: tuple[str, ...] = ()

    def cert_for(self, feature: str) -> MonotoneCert | None:
        for cert in self.monotone:
            if cert.feature == feature:
                return cert
        return None

    def validate(self) -> list[str]:
        """Internal-consistency problems, empty when well-formed."""
        problems: list[str] = []
        if self.evaluability not in EVALUABILITY:
            problems.append(
                f"evaluability must be one of {EVALUABILITY}, "
                f"not {self.evaluability!r}"
            )
        if not self.epsilon > 0:
            problems.append(f"epsilon must be positive, not {self.epsilon!r}")
        if isnan(self.min_latency) or isnan(self.max_latency):
            problems.append("latency bounds cannot be NaN")
        elif self.min_latency > self.max_latency:
            problems.append(
                f"min latency {self.min_latency:g} exceeds max "
                f"{self.max_latency:g}"
            )
        if self.min_latency < 0:
            problems.append(f"min latency {self.min_latency:g} is negative")
        for name, (lo, hi) in self.domains.items():
            if lo > hi:
                problems.append(f"feature {name!r} domain [{lo:g}, {hi:g}] is empty")
            if lo < 0:
                problems.append(
                    f"feature {name!r} domain starts at {lo:g}: workload "
                    f"features are non-negative"
                )
        seen: set[str] = set()
        for cert in self.monotone:
            if cert.feature in seen:
                problems.append(f"duplicate certificate for feature {cert.feature!r}")
            seen.add(cert.feature)
        return problems

    # -- serialization --------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        return {
            "accelerator": self.accelerator,
            "entry": self.entry,
            "sink": self.sink,
            "domains": {
                k: [_num_to_json(lo), _num_to_json(hi)]
                for k, (lo, hi) in sorted(self.domains.items())
            },
            "min_expr": self.min_expr,
            "max_expr": self.max_expr,
            "min_latency": _num_to_json(self.min_latency),
            "max_latency": _num_to_json(self.max_latency),
            "monotone": [c.to_json() for c in self.monotone],
            "evaluability": self.evaluability,
            "epsilon": self.epsilon,
            "notes": list(self.notes),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> PerfContract:
        return cls(
            accelerator=data["accelerator"],
            entry=data.get("entry", "in"),
            sink=data.get("sink", "out"),
            domains={
                k: (_num_from_json(v[0]), _num_from_json(v[1]))
                for k, v in data.get("domains", {}).items()
            },
            min_expr=data.get("min_expr"),
            max_expr=data.get("max_expr"),
            min_latency=_num_from_json(data.get("min_latency", 0.0)),
            max_latency=_num_from_json(data.get("max_latency", "inf")),
            monotone=tuple(
                MonotoneCert.from_json(c) for c in data.get("monotone", ())
            ),
            evaluability=data.get("evaluability", "opaque"),
            epsilon=float(data.get("epsilon", DEFAULT_EPSILON)),
            notes=tuple(data.get("notes", ())),
        )


def sidecar_path(pnet_path: str) -> str:
    """Where a net's contract serializes: ``x.pnet`` -> ``x.contract.json``."""
    if pnet_path.endswith(".pnet"):
        return pnet_path[: -len(".pnet")] + ".contract.json"
    return pnet_path + ".contract.json"


def save_contract(contract: PerfContract, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(contract.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_contract(path: str) -> PerfContract:
    with open(path, encoding="utf-8") as fh:
        return PerfContract.from_json(json.load(fh))


# ----------------------------------------------------------------------
# Deriving a contract from a bundle
# ----------------------------------------------------------------------
@dataclass
class Verification:
    """Everything one verifier run over a bundle produced."""

    bundle: InterfaceBundle
    net: Any = None
    net_filename: str | None = None
    bounds: NetBounds | None = None
    corners: list[CornerCheck] = field(default_factory=list)
    certs: tuple[MonotoneCert, ...] = ()
    contract: PerfContract | None = None
    declared: PerfContract | None = None
    epsilon: float = DEFAULT_EPSILON
    notes: list[str] = field(default_factory=list)


def _merge_certs(
    into: dict[str, MonotoneCert], new: Sequence[MonotoneCert]
) -> None:
    """Keep the most informative certificate per feature: a proof
    beats anything; otherwise a witness beats a bare unknown."""
    for cert in new:
        current = into.get(cert.feature)
        if current is None:
            into[cert.feature] = cert
            continue
        if current.proven:
            continue
        if cert.proven or (cert.witness is not None and current.witness is None):
            into[cert.feature] = cert


def _feature_pairs(bundle: InterfaceBundle, feature: str):
    """(feature vector, predicted latency) samples for one feature,
    built from the bundle's workload samples; None when the feature or
    a latency prediction is not reachable from the samples."""
    if bundle.program is None or not bundle.samples:
        return None
    pairs = []
    for item in bundle.samples:
        try:
            value = getattr(item, feature)
            if callable(value):
                value = value()
            pairs.append(({feature: float(value)}, float(bundle.program.latency(item))))
        except Exception:
            return None
    return pairs if len({p[0][feature] for p in pairs}) >= 2 else None


def analyze_bundle(
    bundle: InterfaceBundle,
    *,
    epsilon: float | None = None,
) -> Verification:
    """Run the full static analysis over one bundle and derive its
    contract: net bounds + corner concretization + monotonicity
    certificates from every source (net quotients, program derivative
    analysis, sampled fallback for declared features)."""
    from repro.petri.errors import DslError, SimulationError

    declared = bundle.contract if isinstance(bundle.contract, PerfContract) else None
    eps = epsilon if epsilon is not None else (
        declared.epsilon if declared is not None else DEFAULT_EPSILON
    )
    v = Verification(bundle=bundle, declared=declared, epsilon=eps)

    domains = dict(bundle.feature_domains)
    iv_domains = {
        k: Interval(float(lo), float(hi)) for k, (lo, hi) in domains.items()
    }

    try:
        v.net, v.net_filename = bundle.build_net()
    except DslError as exc:
        v.notes.append(f"net does not parse: {exc}")

    if v.net is not None:
        try:
            v.bounds = net_latency_bounds(
                v.net,
                entry=bundle.entry,
                sink=bundle.sink,
                env=bundle.pnet_env,
                domains=iv_domains,
            )
        except ValueError as exc:
            v.notes.append(f"bound analysis skipped: {exc}")
    if v.bounds is not None and v.bounds.form is not None:
        try:
            v.corners = check_corners(
                lambda: bundle.build_net()[0],
                v.bounds,
                domains,
                epsilon=eps,
            )
        except SimulationError as exc:
            v.notes.append(f"corner simulation failed: {exc}")

    certs: dict[str, MonotoneCert] = {}
    if v.bounds is not None and v.bounds.quotients is not None:
        proof = "affine" if v.bounds.form is not None and v.bounds.form.exact else "derivative"
        quotients = dict(v.bounds.quotients)
        if quotients.pop(ANY_FEATURE, None) is not None:
            # The token escaped into something unmodeled: every
            # per-feature quotient is untrustworthy.
            quotients = dict.fromkeys(quotients, TOP)
        _merge_certs(
            certs,
            [
                cert_for_deriv(name, deriv, proof=proof)
                for name, deriv in sorted(quotients.items())
            ],
        )
    for role, fn in bundle.program_fns.items():
        if "latency" not in role.lower():
            continue
        analysis = analyze_program(
            fn, workload_type=bundle.workload_type, domains=domains
        )
        if analysis.ok:
            _merge_certs(certs, analysis.certs())
    for feature, sign in bundle.declared_monotone.items():
        current = certs.get(feature)
        if current is not None and current.proven:
            continue
        pairs = _feature_pairs(bundle, feature)
        if pairs is not None:
            _merge_certs(certs, [sampled_cert(feature, pairs, sign)])

    bound_interval: Interval | None = None
    if v.bounds is not None and v.bounds.form is not None:
        bound_interval = v.bounds.form.interval(iv_domains or None)
    v.contract = PerfContract(
        accelerator=bundle.accelerator,
        entry=bundle.entry,
        sink=bundle.sink,
        domains=domains,
        min_expr=v.bounds.form.lower_expr() if bound_interval is not None else None,
        max_expr=v.bounds.form.upper_expr() if bound_interval is not None else None,
        min_latency=max(0.0, bound_interval.lo) if bound_interval is not None else 0.0,
        max_latency=bound_interval.hi if bound_interval is not None else inf,
        monotone=tuple(certs[name] for name in sorted(certs)),
        evaluability=v.bounds.evaluability if v.bounds is not None else "opaque",
        epsilon=eps,
        notes=tuple(
            v.notes + (v.bounds.notes if v.bounds is not None else [])
        ),
    )
    return v


# ----------------------------------------------------------------------
# Statically vetting runtime refit candidates
# ----------------------------------------------------------------------
def verify_candidate(
    candidate: Any,
    contract: PerfContract | None = None,
    *,
    tol: float = 1e-9,
) -> list[str]:
    """Static objections to trusting ``candidate`` as a pricing
    interface; empty means no objection.

    Extracted linear interfaces (the healing loop's refit output)
    expose their coefficients, so their monotonicity is decidable
    exactly: a negative weight means the candidate prices larger
    workloads *cheaper* — the classic under-pricing defect — and is
    rejected outright.  When a contract is supplied, a weight may also
    not exceed the contract's certified slope bound for the same
    feature.  Opaque candidates are only checked against the
    contract's own well-formedness.
    """
    reasons: list[str] = []
    if contract is not None:
        reasons.extend(
            f"contract invalid: {problem}" for problem in contract.validate()
        )
    names = getattr(candidate, "_names", None)
    weights = getattr(candidate, "_weights", None)
    if names is None or weights is None:
        return reasons
    intercept = float(getattr(candidate, "_intercept", 0.0))
    if intercept < -tol:
        reasons.append(
            f"negative intercept {intercept:g}: the candidate predicts "
            f"negative cost for an empty workload"
        )
    for name, weight in zip(names, weights, strict=True):
        w = float(weight)
        if isnan(w):
            reasons.append(f"feature {name!r} has NaN weight")
            continue
        if w < -tol:
            reasons.append(
                f"feature {name!r} has negative weight {w:g}: the candidate "
                f"prices larger {name} cheaper (non-monotone in {name})"
            )
            continue
        if contract is None:
            continue
        cert = contract.cert_for(name)
        if (
            cert is not None
            and cert.proven
            and cert.direction == "non-decreasing"
            and cert.slope is not None
            and cert.slope != inf
            and w > cert.slope * (1.0 + contract.epsilon) + tol
        ):
            reasons.append(
                f"feature {name!r} weight {w:g} exceeds the contract's "
                f"certified slope bound {cert.slope:g}"
            )
    return reasons
