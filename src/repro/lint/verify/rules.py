"""Verify-family rules: the static promotion gate as lint passes.

These rules consume a completed :class:`~.contract.Verification` (the
bound analysis, corner checks, and certificates are computed once by
:func:`verify_bundle`, not per rule) and report through the same
diagnostic machinery as every other lint family — so ``pnet verify``
renders, filters, and exits exactly like ``pnet lint``.

Rule ids are ``VR0xx``; the catalog lives in ``docs/perf-lint.md``:

* VR001 (warning) — no symbolic bound could be proven (opaque delays,
  unparseable net, missing entry/sink).  A warning, not an error:
  opacity is a capability statement, not a defect.
* VR002 (error) — a corner-point concretization disagreed with the
  compiled engine: the symbolic bound is *wrong*, not just loose.
* VR003 (error) — the derived bounds escape a declared contract.
* VR004 — a declared monotone feature is refuted by a concrete
  witness (error) or cannot be certified at all (warning).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..diagnostics import Diagnostic, LintReport, Severity, SourceLocation
from ..registry import rule
from ..witness import Witness
from .contract import Verification, analyze_bundle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..bundle import InterfaceBundle
    from ..registry import RuleRegistry


@dataclass
class VerifyContext:
    """What a verify-family rule may look at: one finished run."""

    v: Verification

    def loc(self) -> SourceLocation:
        return SourceLocation(file=self.v.net_filename)

    def diag(
        self,
        rule_id: str,
        severity: Severity,
        message: str,
        *,
        hint: str | None = None,
        subject: str | None = None,
    ) -> Diagnostic:
        return Diagnostic(
            rule_id=rule_id,
            severity=severity,
            message=message,
            location=self.loc(),
            subject=subject or self.v.bundle.accelerator,
            hint=hint,
        )


@rule("VR001", "verify", "No symbolic latency bound could be proven")
def check_bound_exists(ctx: VerifyContext) -> Iterator[Diagnostic]:
    v = ctx.v
    if v.bounds is not None and v.bounds.form is not None:
        return
    if v.bounds is not None and v.bounds.opaque:
        detail = "opaque delays: " + ", ".join(sorted(v.bounds.opaque))
    elif v.notes:
        detail = "; ".join(v.notes)
    elif v.net is None:
        detail = "the bundle ships no Petri net"
    else:
        detail = "; ".join(v.bounds.notes) if v.bounds is not None else "unknown"
    yield ctx.diag(
        "VR001",
        Severity.WARNING,
        f"no symbolic latency bound could be proven ({detail}); the "
        f"contract is opaque and consumers fall back to simulation",
        hint="expression delays (`delay expr:`) are boundable; callable "
        "delays and missing nets are not",
    )


@rule("VR002", "verify", "Symbolic bound disagrees with the compiled engine")
def check_corner_concretization(ctx: VerifyContext) -> Iterator[Diagnostic]:
    v = ctx.v
    for check in v.corners:
        if check.ok:
            continue
        point = ", ".join(f"{k}={v_:g}" for k, v_ in sorted(check.point.items()))
        yield ctx.diag(
            "VR002",
            Severity.ERROR,
            f"at corner {{{point}}} the compiled engine measured "
            f"{check.simulated:g} cycles, outside the concretized bound "
            f"[{check.lower:g}, {check.upper:g}] (epsilon {check.epsilon:g})",
            hint="the symbolic bound is unsound for this net: fix the "
            "abstraction or the net, do not widen epsilon to paper over it",
        )


@rule("VR003", "verify", "Derived bounds escape the declared contract")
def check_declared_bounds(ctx: VerifyContext) -> Iterator[Diagnostic]:
    v = ctx.v
    declared = v.declared
    if declared is None or v.contract is None:
        return
    derived = v.contract
    tol_min = declared.epsilon * max(1.0, abs(declared.min_latency))
    if derived.min_latency < declared.min_latency - tol_min:
        yield ctx.diag(
            "VR003",
            Severity.ERROR,
            f"the declared contract promises latency >= "
            f"{declared.min_latency:g}, but the verifier derives a minimum "
            f"of {derived.min_latency:g}",
            hint="the shipped net can be faster than the contract admits; "
            "lower the declared floor or fix the net",
        )
    tol_max = declared.epsilon * max(1.0, abs(declared.max_latency))
    if derived.max_latency > declared.max_latency + tol_max:
        derived_max = (
            "unbounded" if derived.max_latency == float("inf")
            else f"{derived.max_latency:g}"
        )
        yield ctx.diag(
            "VR003",
            Severity.ERROR,
            f"the declared contract promises latency <= "
            f"{declared.max_latency:g}, but the verifier derives a maximum "
            f"of {derived_max} over the declared domains",
            hint="a consumer provisioning against the declared ceiling "
            "would miss deadlines; raise the ceiling or shrink the domains",
        )


@rule("VR004", "verify", "Declared monotone feature is refuted or uncertified")
def check_declared_monotone(ctx: VerifyContext) -> Iterator[Diagnostic]:
    v = ctx.v
    if v.contract is None:
        return
    for feature, sign in sorted(v.bundle.declared_monotone.items()):
        direction = "non-decreasing" if sign > 0 else "non-increasing"
        cert = v.contract.cert_for(feature)
        if cert is None:
            yield ctx.diag(
                "VR004",
                Severity.WARNING,
                f"feature {feature!r} is declared {direction} but no "
                f"representation reads it: nothing certifies the claim",
                hint="drop the declaration or wire the feature into a "
                "delay expression / program function",
            )
            continue
        agrees = cert.agrees(sign)
        if agrees is True and cert.proven:
            continue
        if agrees is False:
            slope = (
                f" (certified slope {cert.slope:g} the wrong way)"
                if cert.slope is not None and cert.slope != float("inf")
                else ""
            )
            yield ctx.diag(
                "VR004",
                Severity.ERROR,
                f"feature {feature!r} is declared {direction}, but the "
                f"verifier proves it {cert.direction}{slope}",
                hint="one side is wrong: fix the declaration or the model",
            )
            continue
        if cert.witness is not None:
            yield ctx.diag(
                "VR004",
                Severity.ERROR,
                f"feature {feature!r} is declared {direction}, but a "
                f"concrete counterexample exists: {cert.witness.render()}",
                hint="the model under-prices part of the workload space; "
                "a consumer provisioning from small-workload samples "
                "would be surprised",
            )
            continue
        detail = (
            "samples are consistent with the claim but prove nothing"
            if cert.proof == "sampled"
            else "the derivative analysis could not determine a direction"
        )
        yield ctx.diag(
            "VR004",
            Severity.WARNING,
            f"feature {feature!r} is declared {direction} but not proven: "
            f"{detail}",
            hint="simplify the model until the analysis can certify it, "
            "or accept sampled evidence explicitly",
        )


def verify_bundle(
    bundle: InterfaceBundle,
    *,
    epsilon: float | None = None,
    registry: RuleRegistry | None = None,
) -> tuple[LintReport, Verification]:
    """Statically verify one bundle: derive its contract, check every
    corner against the compiled engine, certify monotonicity, and run
    the verify-family rules.  Returns the report plus the full
    verification result (whose ``.contract`` is the derived contract)."""
    from ..registry import DEFAULT_REGISTRY

    v = analyze_bundle(bundle, epsilon=epsilon)
    ctx = VerifyContext(v=v)
    report = LintReport()
    report.extend((registry or DEFAULT_REGISTRY).run_family("verify", ctx))
    return report, v


__all__ = ["VerifyContext", "verify_bundle", "Witness"]
