"""Tokens: the data units that flow through a performance IR net.

A token is a *colored* token in Petri-net terminology: it carries an
arbitrary payload describing the data unit it stands for (an 8x8 JPEG
block, a protobuf field, a VTA instruction, ...).  Transition delay
functions read the payload to compute data-dependent processing delays,
which is what lets a performance IR predict latency for *arbitrary*
workloads rather than a single aggregate number.

Tokens also carry timestamps so that observers can compute end-to-end
latency without any cooperation from the net definition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

_token_ids = itertools.count()


@dataclass
class Token:
    """A single data unit flowing through the net.

    Attributes:
        payload: Arbitrary, user-defined data describing the unit.
        born: Simulation time at which the token entered the net.
            ``None`` until the token is injected.
        uid: Unique id, assigned automatically; used for deterministic
            FIFO ordering.
    """

    payload: Any = None
    born: float | None = None
    uid: int = field(default_factory=lambda: next(_token_ids))

    def aged(self, now: float) -> float:
        """Return time elapsed since the token entered the net."""
        if self.born is None:
            raise ValueError("token was never injected into a net")
        return now - self.born

    def child(self) -> Token:
        """Create a derived token with this token's payload and birth
        time, so end-to-end latency is still measured from the original
        injection time."""
        tok = Token(payload=self.payload)
        tok.born = self.born
        return tok

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token(uid={self.uid}, born={self.born}, payload={self.payload!r})"
