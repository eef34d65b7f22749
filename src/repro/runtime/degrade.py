"""Graceful degradation: drift detection and the CPU fallback path.

Two pieces:

* :class:`DriftDetector` — an online sliding window over
  (interface-predicted, model-observed) latency pairs, scored with the
  same relative-error machinery the offline validation harness uses
  (:func:`repro.core.validation.online_drift`).  When the windowed
  average relative error crosses the threshold, the interface has
  drifted off its calibrated envelope and the breaker should stop
  trusting the accelerator path.

* :class:`CpuFallback` — the degraded-mode service: a functional
  software implementation plus its latency model (typically the
  :mod:`repro.accel.cpu` Xeon baseline).  Slower, but it always answers,
  which is what bounds the tail when the accelerator does not.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import Generic, TypeVar

from repro.core.validation import online_drift
from repro.hw.stats import ErrorReport

RequestT = TypeVar("RequestT")
ResponseT = TypeVar("ResponseT")


#: Hand-chosen threshold used when no offline calibration is available.
DEFAULT_DRIFT_THRESHOLD = 0.5


def derive_drift_threshold(
    report: ErrorReport | None,
    *,
    headroom: float = 3.0,
    floor: float = 0.15,
    fallback: float = DEFAULT_DRIFT_THRESHOLD,
) -> float:
    """Drift threshold fitted to an interface's *offline* error profile.

    The validation harness (:func:`repro.core.validation.validate_interface`)
    reports the interface's relative error on healthy traffic; drift
    detection must not trip inside that envelope.  The threshold is
    ``headroom ×`` the offline p95 error (p95, not max: one calibration
    outlier should not deafen the detector), clamped below by ``floor``
    so a near-perfect interface does not trip on modeling noise.  With
    no report (or a pre-quantile report), the hand-chosen ``fallback``
    (0.5) applies unchanged.
    """
    if headroom <= 1.0:
        raise ValueError("headroom must exceed 1 (threshold sits above healthy error)")
    if report is None:
        return fallback
    quantile = report.p95 if report.p95 is not None else None
    if quantile is None:
        return fallback
    return max(floor, headroom * quantile)


class DriftDetector:
    """Sliding-window relative-error monitor for a performance interface.

    The drift signal is the windowed average of the *symmetric* relative
    error ``|p - o| / min(p, o)`` — unlike the offline harness's
    ``|p - o| / o``, it does not saturate at 1 when the device runs far
    slower than predicted, which is exactly the regime drift detection
    exists for.  Each pair's error is computed once, when it arrives,
    and kept in a window beside the pair, so an update costs one error
    plus a sum over the window.  The plain
    :class:`~repro.hw.stats.ErrorReport` from the validation machinery
    is computed when :attr:`last_report` is read.

    Args:
        window: number of recent (predicted, observed) pairs scored.
        threshold: windowed average symmetric relative error that counts
            as drift.  Set it above the interface's validated offline
            error (an interface that is 10% off in calibration should
            not trip a 10% threshold on the first sample).
        min_samples: pairs required before drift can be reported at all.
    """

    def __init__(
        self,
        *,
        window: int = 32,
        threshold: float = DEFAULT_DRIFT_THRESHOLD,
        min_samples: int = 8,
    ):
        if window < 1 or min_samples < 1 or min_samples > window:
            raise ValueError("need 1 <= min_samples <= window")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.threshold = threshold
        self.min_samples = min_samples
        self._pairs: deque[tuple[float, float]] = deque(maxlen=window)
        self._errors: deque[float] = deque(maxlen=window)
        self.last_score: float | None = None

    @classmethod
    def from_error_report(
        cls,
        report: ErrorReport | None,
        *,
        window: int = 32,
        min_samples: int = 8,
        headroom: float = 3.0,
        floor: float = 0.15,
    ) -> DriftDetector:
        """A detector whose threshold is refit from the offline
        :class:`~repro.hw.stats.ErrorReport` the validation harness
        produced for this interface (see :func:`derive_drift_threshold`).
        Passing ``None`` keeps the hand-chosen default threshold."""
        return cls(
            window=window,
            min_samples=min_samples,
            threshold=derive_drift_threshold(report, headroom=headroom, floor=floor),
        )

    @property
    def samples(self) -> int:
        return len(self._pairs)

    @property
    def last_report(self) -> ErrorReport | None:
        """The validation harness's report over the current window
        (:func:`~repro.core.validation.online_drift`); ``None`` below
        ``min_samples`` and after :meth:`reset`."""
        if self.samples < self.min_samples:
            return None
        predicted, observed = zip(*self._pairs)
        return online_drift(list(predicted), list(observed))

    @staticmethod
    def symmetric_error(predicted: float, observed: float) -> float:
        floor = min(abs(predicted), abs(observed))
        if floor == 0:
            return 0.0 if predicted == observed else float("inf")
        return abs(predicted - observed) / floor

    def update(self, predicted: float, observed: float) -> bool:
        """Record one pair; return True when the window is in drift."""
        self._pairs.append((predicted, observed))
        errors = self._errors
        errors.append(self.symmetric_error(predicted, observed))
        if len(errors) < self.min_samples:
            return False
        self.last_score = sum(errors) / len(errors)
        return self.last_score > self.threshold

    def reset(self) -> None:
        """Forget the window (e.g. after the breaker closes again)."""
        self._pairs.clear()
        self._errors.clear()
        self.last_score = None


@dataclass(frozen=True)
class CpuFallback(Generic[RequestT, ResponseT]):
    """The degraded-mode path: software answer plus software cycles."""

    software_fn: Callable[[RequestT], ResponseT]
    latency_fn: Callable[[RequestT], float]

    def call(self, request: RequestT) -> tuple[ResponseT, float]:
        return self.software_fn(request), self.latency_fn(request)


def rpc_cpu_fallback() -> CpuFallback:
    """The standard fallback for the RPC serialization scenario: encode
    on the Xeon software path at its modeled cost."""
    from repro.accel.cpu import CpuSerializerModel

    cpu = CpuSerializerModel()
    return CpuFallback(
        software_fn=lambda msg: msg.encode(),
        latency_fn=cpu.measure_latency,
    )
