"""The performance-interface abstraction.

A performance interface answers, for a *workload item* (an image, an
RPC message, an instruction sequence), the two questions the paper
argues developers must be able to ask of any accelerator:

* ``latency(item)`` — predicted cycles to process ``item`` in isolation.
* ``throughput(item)`` — predicted sustained items/cycle when streaming
  items like ``item``.

Interfaces may also expose *bounds* when a point prediction is not
honest (the paper's Protoacc latency interface does exactly this).

The three concrete representations live in sibling modules:
:mod:`repro.core.nl` (English), :mod:`repro.core.program` (executable
Python), and :mod:`repro.core.petrinet` (the Petri-net IR).
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Generic, TypeVar

ItemT = TypeVar("ItemT")


@dataclass(frozen=True)
class LatencyBounds:
    """A guaranteed latency interval ``[lower, upper]`` in cycles."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"lower bound {self.lower} exceeds upper {self.upper}")

    def contains(self, value: float, slack: float = 0.0) -> bool:
        """True when ``value`` lies inside the interval (± relative slack)."""
        lo = self.lower * (1 - slack)
        hi = self.upper * (1 + slack)
        return lo <= value <= hi

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return (self.lower + self.upper) / 2


class PerformanceInterface(abc.ABC, Generic[ItemT]):
    """Base class for all interface representations.

    Attributes:
        accelerator: Name of the accelerator this interface describes.
        representation: One of ``"english"``, ``"program"``,
            ``"petri-net"`` — the paper's three candidates.
    """

    accelerator: str = "unknown"
    representation: str = "abstract"

    @abc.abstractmethod
    def latency(self, item: ItemT) -> float:
        """Predicted latency, in cycles, to process ``item`` in isolation."""

    def evaluate_batch(self, items: "Sequence[ItemT]") -> list[float]:
        """Predicted latency for every item, in input order.

        Semantically ``[self.latency(i) for i in items]`` — and that is
        the default — but representations with a cheaper whole-matrix
        path override it (the Petri-net interface lowers its net once
        and runs a batch engine); sweep-shaped consumers
        (:func:`repro.core.validation.validate_interface`, autotuners,
        pool pricing) call this instead of looping ``latency`` so they
        pick the fast path up automatically.
        """
        return [self.latency(item) for item in items]

    def throughput(self, item: ItemT) -> float:
        """Predicted sustained throughput (items/cycle) for a stream of
        items like ``item``.  Defaults to ``1 / latency`` — correct only
        for accelerators with no cross-item pipelining.
        """
        lat = self.latency(item)
        if lat <= 0:
            raise ValueError("latency must be positive to invert into throughput")
        return 1.0 / lat

    def latency_bounds(self, item: ItemT) -> LatencyBounds:
        """Guaranteed latency interval; defaults to the point prediction."""
        point = self.latency(item)
        return LatencyBounds(point, point)

    def describe(self) -> str:
        """One-line human description of what this interface covers."""
        return f"{self.representation} performance interface for {self.accelerator}"


class BoundsOnlyInterface(PerformanceInterface[ItemT]):
    """An interface that honestly provides only a latency interval.

    ``latency`` returns the interval midpoint so that tools expecting a
    point estimate still function; ``latency_bounds`` carries the real
    contract.  Subclasses implement :meth:`bounds`.
    """

    @abc.abstractmethod
    def bounds(self, item: ItemT) -> LatencyBounds:
        ...

    def latency_bounds(self, item: ItemT) -> LatencyBounds:
        return self.bounds(item)

    def latency(self, item: ItemT) -> float:
        return self.bounds(item).midpoint
