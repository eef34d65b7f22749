"""The drift observatory: rolling predicted-vs-observed reconciliation.

A performance interface earns trust by *continuously* matching the
hardware, not by passing one offline validation.  The observatory is
the live half of that loop: every successful pool offload reports
``(device, request, predicted, observed)`` here, and per
``(device, rpc-class)`` key it maintains

* the exact running count, sum, min and max of the relative errors,
* a seeded :class:`~repro.hw.stats.Reservoir` of them (quantiles in
  bounded memory), and
* a :class:`~repro.runtime.degrade.DriftDetector` whose verdict feeds
  back to the caller (a drifting class is the operator's cue that the
  interface no longer describes the hardware).

``python -m repro.tools.perfscope report`` renders :meth:`DriftObservatory.report`
after a serving scenario; the E15 benchmark appends it to its output.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import Any

from repro.hw.stats import Reservoir, Summary, relative_error


@dataclass(frozen=True)
class SizeClasses:
    """Configurable wire-size bucketing for RPC requests.

    One spec is shared by every layer that labels traffic — the
    :class:`DriftObservatory`, the healing loop's refit keys
    (:mod:`repro.heal`), and tape windowing
    (:func:`repro.runtime.tape.tape_stats`) — so a request can never be
    "medium" to the observatory but "large" to the refitter.

    ``boundaries`` maps each label to its *inclusive* upper bound in
    encoded bytes, in ascending order; anything above the last bound is
    ``overflow``.  Requests without an ``encoded_size()`` method are
    labeled by their type name (they have no wire size to bucket).
    """

    boundaries: tuple[tuple[str, int], ...] = (("small", 96), ("medium", 1024))
    overflow: str = "large"

    def __post_init__(self) -> None:
        bounds = [b for _, b in self.boundaries]
        if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bounds must be strictly ascending: {bounds}")
        labels = [label for label, _ in self.boundaries] + [self.overflow]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate class labels: {labels}")

    @property
    def labels(self) -> tuple[str, ...]:
        """Every label this spec can produce for sized requests."""
        return tuple(label for label, _ in self.boundaries) + (self.overflow,)

    def classify(self, request: Any) -> str:
        """Label one request by encoded wire size (else its type name)."""
        sizer = getattr(request, "encoded_size", None)
        if not callable(sizer):
            return type(request).__name__
        size = sizer()
        for label, bound in self.boundaries:
            if size <= bound:
                return label
        return self.overflow


#: The stock spec (the bucket boundaries formerly hardcoded here).
DEFAULT_SIZE_CLASSES = SizeClasses()


def rpc_size_class(request: Any) -> str:
    """Default request classifier: :data:`DEFAULT_SIZE_CLASSES` buckets
    for RPC messages (anything exposing ``encoded_size()``), else the
    type name."""
    return DEFAULT_SIZE_CLASSES.classify(request)


class _StageState:
    """Per-(device, rpc-class, stage) predicted-vs-observed aggregate."""

    __slots__ = ("samples", "err_sum", "pred_sum", "obs_sum", "last_at")

    def __init__(self):
        self.samples = 0
        self.err_sum = 0.0
        self.pred_sum = 0.0
        self.obs_sum = 0.0
        self.last_at = 0.0

    @property
    def err_mean(self) -> float:
        return self.err_sum / self.samples if self.samples else 0.0


def _symmetric_error(predicted: float, observed: float) -> float:
    """|p - o| / max(|p|, |o|) — bounded to [0, 1], so a stage the
    interface predicts as zero (e.g. no modeled memory stalls) scores
    1.0 against any observed cycles instead of blowing up to inf."""
    denom = max(abs(predicted), abs(observed))
    if denom == 0.0:
        return 0.0
    return abs(predicted - observed) / denom


class _KeyState:
    """Per-(device, rpc-class) rolling state."""

    __slots__ = (
        "samples",
        "err_sum",
        "err_min",
        "err_max",
        "errors",
        "detector",
        "drifting",
        "last_at",
    )

    def __init__(self, reservoir_capacity: int, seed: int, detector):
        self.samples = 0
        self.err_sum = 0.0
        self.err_min = float("inf")
        self.err_max = -float("inf")
        self.errors = Reservoir(reservoir_capacity, seed=seed)
        self.detector = detector
        self.drifting = False
        self.last_at = 0.0


class DriftObservatory:
    """Per-(device, rpc-class) predicted-vs-observed error tracking.

    Args:
        classifier: maps a request to its rpc-class label — either a
            :class:`SizeClasses` spec (preferred: downstream consumers
            like :mod:`repro.heal` can then read
            :attr:`size_classes` and are guaranteed to agree on
            labels) or a bare callable.  Defaults to
            :data:`DEFAULT_SIZE_CLASSES`.
        reservoir_capacity: per-key error sample size.
        detector_factory: builds the per-key
            :class:`~repro.runtime.degrade.DriftDetector`; ``None``
            uses its defaults.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`
            receiving ``obs_drift_samples_total`` and
            ``obs_drift_score`` per key.
    """

    def __init__(
        self,
        *,
        classifier: SizeClasses | Callable[[Any], str] | None = None,
        reservoir_capacity: int = 256,
        seed: int = 0,
        detector_factory: Callable[[], Any] | None = None,
        metrics=None,
    ):
        if classifier is None:
            classifier = DEFAULT_SIZE_CLASSES
        if isinstance(classifier, SizeClasses):
            #: The shared bucketing spec, when the classifier is one
            #: (``None`` for a bare callable).
            self.size_classes: SizeClasses | None = classifier
            self.classifier: Callable[[Any], str] = classifier.classify
        else:
            self.size_classes = None
            self.classifier = classifier
        self.reservoir_capacity = reservoir_capacity
        self.seed = seed
        self._detector_factory = detector_factory
        self.metrics = metrics
        self._keys: dict[tuple[str, str], _KeyState] = {}
        self._stages: dict[tuple[str, str, str], _StageState] = {}
        self._subscribers: list[Callable[..., None]] = []

    # ------------------------------------------------------------------
    def _make_detector(self):
        if self._detector_factory is not None:
            return self._detector_factory()
        # Imported lazily: repro.runtime.device feeds this observatory,
        # so a module-level import would be a cycle.
        from repro.runtime.degrade import DriftDetector

        return DriftDetector()

    def _state(self, key: tuple[str, str]) -> _KeyState:
        state = self._keys.get(key)
        if state is None:
            state = self._keys[key] = _KeyState(
                self.reservoir_capacity,
                self.seed + len(self._keys),
                self._make_detector(),
            )
        return state

    def subscribe(self, fn: Callable[..., None]) -> None:
        """Register a live consumer of every observation.

        ``fn`` is called after each :meth:`observe` fold as
        ``fn(device, rpc_class, request, predicted, observed,
        drifting=..., at=...)`` — this is how the self-healing loop
        (:class:`repro.heal.HealingManager`) hears drift verdicts the
        moment they happen instead of polling snapshots."""
        self._subscribers.append(fn)

    def observe(
        self,
        device: str,
        request: Any,
        predicted: float,
        observed: float,
        *,
        at: float = 0.0,
    ) -> bool:
        """Fold one successful call; returns True when this key's
        detector currently reports drift."""
        key = (device, self.classifier(request))
        state = self._state(key)
        err = relative_error(predicted, observed)
        state.samples += 1
        state.last_at = at
        state.err_sum += err
        if err < state.err_min:
            state.err_min = err
        if err > state.err_max:
            state.err_max = err
        state.errors.add(err)
        state.drifting = bool(state.detector.update(predicted, observed))
        if self.metrics is not None:
            device_label, rpc_class = key
            self.metrics.counter(
                "obs_drift_samples_total", device=device_label, rpc_class=rpc_class
            ).inc()
            score = state.detector.last_score
            if score is not None:
                self.metrics.gauge(
                    "obs_drift_score", device=device_label, rpc_class=rpc_class
                ).set(score)
        for fn in self._subscribers:
            fn(
                key[0],
                key[1],
                request,
                predicted,
                observed,
                drifting=state.drifting,
                at=at,
            )
        return state.drifting

    # ------------------------------------------------------------------
    # Stage-level misprediction tracking (fed by
    # :func:`repro.obs.attribution.score_mispredictions`)
    # ------------------------------------------------------------------
    def observe_stage(
        self,
        device: str,
        rpc_class: str,
        stage: str,
        predicted: float,
        observed: float,
        *,
        at: float = 0.0,
    ) -> None:
        """Fold one per-stage (predicted, observed) pair — the causal
        refinement of :meth:`observe`: not just *that* the interface
        mispredicted, but *which stage* of the path it mispredicted."""
        key = (device, rpc_class, stage)
        state = self._stages.get(key)
        if state is None:
            state = self._stages[key] = _StageState()
        state.samples += 1
        state.err_sum += _symmetric_error(predicted, observed)
        state.pred_sum += predicted
        state.obs_sum += observed
        state.last_at = at
        if self.metrics is not None:
            self.metrics.counter(
                "obs_stage_samples_total",
                device=device,
                rpc_class=rpc_class,
                stage=stage,
            ).inc()
            self.metrics.gauge(
                "obs_stage_err",
                device=device,
                rpc_class=rpc_class,
                stage=stage,
            ).set(state.err_mean)

    def top_mispredicted_stage(
        self, device: str, rpc_class: str | None = None
    ) -> tuple[str, float] | None:
        """The stage with the worst mean symmetric error for one device
        (optionally narrowed to one rpc-class): ``(stage, err_mean)``,
        or ``None`` before any stage sample.  This is the refit hint
        the healing loop attaches to its candidates and the headline of
        ``DevicePool.snapshot()['attribution']``."""
        best: tuple[str, float] | None = None
        for (dev, cls, stage), state in self._stages.items():
            if dev != device or state.samples == 0:
                continue
            if rpc_class is not None and cls != rpc_class:
                continue
            if best is None or state.err_mean > best[1]:
                best = (stage, state.err_mean)
        return best

    def stage_snapshot(self) -> dict[str, Any]:
        """Programmatic view, one entry per (device, rpc-class, stage)."""
        out: dict[str, Any] = {}
        for (device, rpc_class, stage), state in sorted(self._stages.items()):
            out[f"{device}/{rpc_class}/{stage}"] = {
                "samples": state.samples,
                "err_mean": state.err_mean,
                "predicted_mean": state.pred_sum / state.samples,
                "observed_mean": state.obs_sum / state.samples,
                "last_at": state.last_at,
            }
        return out

    def stage_report(self) -> str:
        """Operator-facing table: one row per (device, rpc-class, stage)."""
        if not self._stages:
            return "stage attribution: no samples"
        lines = [
            f"{'device':14}  {'class':8}  {'stage':8}  {'n':>6}  "
            f"{'pred mean':>10}  {'obs mean':>10}  {'err':>7}"
        ]
        for (device, rpc_class, stage), state in sorted(self._stages.items()):
            lines.append(
                f"{device:14}  {rpc_class:8}  {stage:8}  {state.samples:6d}  "
                f"{state.pred_sum / state.samples:10.0f}  "
                f"{state.obs_sum / state.samples:10.0f}  "
                f"{state.err_mean:7.1%}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def keys(self) -> list[tuple[str, str]]:
        return sorted(self._keys)

    def samples(self, device: str, rpc_class: str) -> int:
        state = self._keys.get((device, rpc_class))
        return state.samples if state is not None else 0

    def error_summary(self, device: str, rpc_class: str) -> Summary | None:
        """Relative-error summary for one key (``None`` before its first
        sample): count, mean, min and max over every error seen, and
        quantiles of the reservoir's uniform sample of them."""
        state = self._keys.get((device, rpc_class))
        if state is None:
            return None
        return replace(
            state.errors.summary(),
            count=state.samples,
            mean=state.err_sum / state.samples,
            minimum=state.err_min,
            maximum=state.err_max,
        )

    def drifting_keys(self) -> list[tuple[str, str]]:
        return sorted(k for k, s in self._keys.items() if s.drifting)

    def detector(self, device: str, rpc_class: str):
        """The per-key drift detector (``None`` before the first
        sample) — consumers read its ``threshold``/``last_score``."""
        state = self._keys.get((device, rpc_class))
        return state.detector if state is not None else None

    def reset_detector(self, device: str, rpc_class: str) -> None:
        """Forget one key's drift *window* (samples and error history
        are kept).  Called by the healing loop after a hot-swap:
        the old window scored the old interface, and carrying it over
        would keep flagging drift the new interface no longer has."""
        state = self._keys.get((device, rpc_class))
        if state is None:
            return
        state.detector.reset()
        state.drifting = False

    def snapshot(self) -> dict[str, Any]:
        """Programmatic view, one entry per (device, rpc-class)."""
        out: dict[str, Any] = {}
        for (device, rpc_class), state in sorted(self._keys.items()):
            summary = self.error_summary(device, rpc_class)
            out[f"{device}/{rpc_class}"] = {
                "samples": state.samples,
                "drifting": state.drifting,
                "score": state.detector.last_score,
                "threshold": state.detector.threshold,
                "err_mean": summary.mean,
                "err_p50": summary.p50,
                "err_p95": summary.p95,
                "err_p99": summary.p99,
                "last_at": state.last_at,
            }
        return out

    def report(self) -> str:
        """Operator-facing table: one row per (device, rpc-class)."""
        if not self._keys:
            return "drift observatory: no samples"
        lines = [
            f"{'device':14}  {'class':8}  {'n':>6}  {'err mean':>8}  "
            f"{'p50':>7}  {'p95':>7}  {'p99':>7}  {'score':>7}  status"
        ]
        for (device, rpc_class), state in sorted(self._keys.items()):
            summary = self.error_summary(device, rpc_class)
            score = state.detector.last_score
            lines.append(
                f"{device:14}  {rpc_class:8}  {state.samples:6d}  "
                f"{summary.mean:8.1%}  "
                f"{summary.p50:7.1%}  {summary.p95:7.1%}  {summary.p99:7.1%}  "
                + (f"{score:7.1%}  " if score is not None else f"{'-':>7}  ")
                + ("DRIFTING" if state.drifting else "ok")
            )
        return "\n".join(lines)
