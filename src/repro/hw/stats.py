"""Summary statistics shared by models, validation, and benchmarks."""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float

    @classmethod
    def of(cls, values: Sequence[float]) -> Summary:
        if len(values) == 0:
            raise ValueError("cannot summarize an empty sample")
        arr = np.asarray(values, dtype=float)
        return cls(
            count=int(arr.size),
            mean=float(arr.mean()),
            minimum=float(arr.min()),
            maximum=float(arr.max()),
            p50=float(np.percentile(arr, 50)),
            p95=float(np.percentile(arr, 95)),
            p99=float(np.percentile(arr, 99)),
        )

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.3f} min={self.minimum:.3f} "
            f"p50={self.p50:.3f} p95={self.p95:.3f} p99={self.p99:.3f} "
            f"max={self.maximum:.3f}"
        )


class Reservoir:
    """Seeded streaming uniform sample (Vitter's Algorithm R).

    Keeps at most ``capacity`` of the values seen so far, each with
    equal probability, in O(capacity) memory, so quantiles of a long
    stream cost a bounded sample (the drift observatory keeps one per
    key beside exact running moments).  Deterministic for a given seed
    and input order.
    """

    __slots__ = ("capacity", "seen", "_values", "_rng")

    def __init__(self, capacity: int = 256, *, seed: int = 0):
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self.capacity = capacity
        self.seen = 0
        self._values: list[float] = []
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        self.seen += 1
        if len(self._values) < self.capacity:
            self._values.append(float(value))
            return
        j = self._rng.randrange(self.seen)
        if j < self.capacity:
            self._values[j] = float(value)

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.add(v)

    @property
    def values(self) -> list[float]:
        """The current sample (a copy, in slot order)."""
        return list(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def summary(self) -> Summary:
        """Summary of the *sample*; ``count`` reports the sample size,
        :attr:`seen` has the stream size."""
        return Summary.of(self._values)


def relative_error(predicted: float, actual: float) -> float:
    """|predicted - actual| / actual, with a guard for zero actuals."""
    if actual == 0:
        return 0.0 if predicted == 0 else float("inf")
    return abs(predicted - actual) / abs(actual)


def relative_errors(
    predicted: Sequence[float], actual: Sequence[float]
) -> np.ndarray:
    """Vectorized :func:`relative_error`; lengths must match.

    Zero actuals follow the scalar guard (0 when the prediction is also
    0, ``inf`` otherwise) instead of numpy's divide-by-zero path — no
    ``nan``, no runtime warnings, element-for-element agreement with
    the scalar.
    """
    if len(predicted) != len(actual):
        raise ValueError("predicted and actual must have the same length")
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    out = np.empty_like(a)
    zero = a == 0
    nonzero = ~zero
    out[nonzero] = np.abs(p[nonzero] - a[nonzero]) / np.abs(a[nonzero])
    out[zero] = np.where(p[zero] == 0, 0.0, np.inf)
    return out


@dataclass(frozen=True)
class ErrorReport:
    """Average/max relative error between predictions and ground truth.

    ``p50``/``p95``/``p99`` are quantiles of the per-item error
    distribution; they are what downstream consumers that must set
    *thresholds* on healthy error (e.g. the serving runtime's drift
    detector, see :func:`repro.runtime.degrade.derive_drift_threshold`)
    should read — the average hides the tail and the max is one outlier.
    ``None`` on reports built before quantiles existed.

    ``infinite`` counts items whose error is unbounded (a nonzero
    prediction against a zero actual).  ``avg``/``max`` cover only the
    *finite* errors, so one degenerate pair cannot silently turn the
    whole report into ``inf`` — the degenerate pairs are reported by
    count instead of by poisoning the aggregates.
    """

    avg: float
    max: float
    count: int
    p50: float | None = None
    p95: float | None = None
    p99: float | None = None
    infinite: int = 0

    @classmethod
    def of(cls, predicted: Sequence[float], actual: Sequence[float]) -> ErrorReport:
        errs = relative_errors(predicted, actual)
        finite = errs[np.isfinite(errs)]
        quantiles = (
            tuple(float(np.percentile(finite, q)) for q in (50, 95, 99))
            if finite.size
            else (None, None, None)
        )
        return cls(
            avg=float(finite.mean()) if finite.size else 0.0,
            max=float(finite.max()) if finite.size else 0.0,
            count=int(errs.size),
            p50=quantiles[0],
            p95=quantiles[1],
            p99=quantiles[2],
            infinite=int(errs.size - finite.size),
        )

    def as_percent(self) -> str:
        text = f"avg {self.avg * 100:.2f}% (max {self.max * 100:.2f}%) over n={self.count}"
        if self.infinite:
            text += f" [{self.infinite} unbounded]"
        return text
