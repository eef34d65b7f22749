"""Content-addressed result cache for interface evaluations.

An :class:`EvalCache` maps ``(net fingerprint, workload features)`` to a
previously computed result (a ``SimResult``, a latency, anything).  Keys
are content hashes — see :mod:`repro.perf.fingerprint` — so two processes
building the same net from the same source compute the *same* key, and
mutating a net (a delay formula, an arc weight, a capacity) changes its
fingerprint and silently invalidates every entry keyed under the old one.

The cache never guesses: features it cannot encode stably are counted as
``uncacheable`` and the computation runs uncached.

With ``path=`` the cache gains a persistent tier — an append-only JSONL
file (:class:`repro.perf.store.PersistentStore`) replayed on open, so a
fresh process warm-starts from every spillable result earlier processes
computed.  Only JSON-representable values spill (makespans, latencies,
plain data); richer objects such as ``SimResult`` stay in-memory and are
counted as ``unspillable``.  Appends are atomic, loads tolerate a
truncated tail, and :meth:`reload` picks up entries written concurrently
by other processes.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.petri.net import PetriNet

from .fingerprint import UncacheableError, net_fingerprint, workload_key
from .store import PersistentStore


@dataclass
class CacheStats:
    """Hit/miss accounting, surfaced in validation and autotune reports."""

    hits: int = 0
    misses: int = 0
    uncacheable: int = 0
    spills: int = 0
    unspillable: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of cacheable lookups served from the cache."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def summary(self) -> str:
        text = f"cache: {self.hits}/{self.lookups} hits ({self.hit_rate:.0%})"
        if self.uncacheable:
            text += f", {self.uncacheable} uncacheable"
        if self.spills:
            text += f", {self.spills} spilled"
        if self.unspillable:
            text += f", {self.unspillable} unspillable"
        return text


class EvalCache:
    """In-memory content-addressed store with hit/miss counters.

    One cache may serve many nets — the net fingerprint namespaces the
    keys.  Pass a string as ``net`` to namespace non-net computations
    (e.g. ``"profiler:cycle-accurate"``) or to key under a fingerprint
    taken once (a Petri-net interface's ``namespace``).
    :meth:`get_or_compute` and :meth:`get_many` are the memo loop.

    Args:
        path: Optional JSONL file enabling the persistent tier.  Existing
            entries are loaded immediately; every spillable store also
            appends to the file.
    """

    #: Sentinel returned by :meth:`get` on a miss (``None`` is a value).
    MISS: Any = object()

    def __init__(self, path: str | os.PathLike[str] | None = None) -> None:
        self._store: dict[str, Any] = {}
        self.stats = CacheStats()
        #: The key the latest :meth:`get` computed (``None`` when its
        #: features were uncacheable): a miss hands it to :meth:`put`.
        self.last_key: str | None = None
        self._mirrors: dict[str, Any] = {}  # stat -> metrics counter
        self.disk: PersistentStore | None = None
        if path is not None:
            self.disk = PersistentStore(path)
            self._store.update(self.disk.load())

    def bind_metrics(self, registry, **labels) -> None:
        """Mirror lookups into a :class:`repro.obs.MetricsRegistry` as
        ``eval_cache_{hits,misses,uncacheable,spills,unspillable}_total``
        counters (with ``labels``).  Only lookups *after* binding are
        counted; rebinding moves future counts to the new registry."""
        self._mirrors = {
            stat: registry.counter(f"eval_cache_{stat}_total", **labels)
            for stat in ("hits", "misses", "uncacheable", "spills", "unspillable")
        }

    def _count(self, stat: str) -> None:
        """One more ``stat`` in :attr:`stats` and in its metric mirror."""
        setattr(self.stats, stat, getattr(self.stats, stat) + 1)
        mirror = self._mirrors.get(stat)
        if mirror is not None:
            mirror.inc()

    def key(self, net: PetriNet | str, features: Any) -> str:
        """Content-addressed key; raises :class:`UncacheableError` when the
        features cannot be encoded stably."""
        namespace = net if isinstance(net, str) else net_fingerprint(net)
        return hashlib.sha256(
            f"{namespace}\n{workload_key(features)}".encode()
        ).hexdigest()

    def _lookup(self, net: PetriNet | str, features: Any) -> tuple[str | None, Any]:
        """One counted lookup: ``(key, value)``, with ``key`` ``None`` for
        uncacheable features and ``value`` :data:`MISS` unless a hit."""
        try:
            key = self.key(net, features)
        except UncacheableError:
            self._count("uncacheable")
            return None, self.MISS
        value = self._store.get(key, self.MISS)
        self._count("misses" if value is self.MISS else "hits")
        return key, value

    def _save(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key``, spilling it to the persistent
        tier when one is configured and the value is JSON-representable."""
        self._store[key] = value
        if self.disk is not None:
            self._count("spills" if self.disk.append(key, value) else "unspillable")

    # ------------------------------------------------------------------
    # Low-level API
    # ------------------------------------------------------------------
    def get(self, net: PetriNet | str, features: Any) -> Any:
        """The cached value, or :data:`EvalCache.MISS`.

        Records the key in :attr:`last_key`, so that a miss is keyed
        once: pass it to :meth:`put`.  Uncacheable features count as
        such, set ``last_key`` to ``None`` and report a miss (the caller
        must compute, and must not :meth:`put` the result).
        """
        self.last_key, value = self._lookup(net, features)
        return value

    def put(
        self, net: PetriNet | str, features: Any, value: Any, *, key: str | None = None
    ) -> None:
        """Store a computed value, spilling it to the persistent tier
        when one is configured and the value is JSON-representable.

        ``key`` is the key :meth:`get` recorded for ``(net, features)``;
        without it the key is derived again.
        """
        if key is None:
            try:
                key = self.key(net, features)
            except UncacheableError:
                return
        self._save(key, value)

    def reload(self) -> int:
        """Apply entries other processes appended since open/last reload.

        Returns how many entries were applied; a no-op (0) without a
        persistent tier.
        """
        if self.disk is None:
            return 0
        return self.disk.reload_into(self._store)

    # ------------------------------------------------------------------
    # High-level API: the memo loop
    # ------------------------------------------------------------------
    def get_or_compute(
        self,
        net: PetriNet | str,
        features: Any,
        compute: Callable[[], Any],
    ) -> Any:
        """Return the cached result for ``(net, features)``, computing and
        storing it on a miss.  Uncacheable features always compute."""
        key, value = self._lookup(net, features)
        if value is self.MISS:
            value = compute()
            if key is not None:
                self._save(key, value)
        return value

    def get_many(
        self,
        net: PetriNet | str,
        features: Iterable[Any],
        compute: Callable[[list[Any]], Sequence[Any]],
    ) -> list[Any]:
        """Every item's result, in input order, looked up through
        :meth:`get` as ``features`` yields it; only misses are kept.
        ``compute(missed)`` runs once, if any item missed, on their
        features in input order; each cacheable result is stored through
        :meth:`put` under the key its lookup derived."""
        out: list[Any] = []
        misses: list[tuple[int, str | None, Any]] = []  # (index, key, features)
        for item in features:
            value = self.get(net, item)
            if value is self.MISS:
                misses.append((len(out), self.last_key, item))
            out.append(value)
        if misses:
            values = compute([item for _, _, item in misses])
            for (i, key, item), value in zip(misses, values, strict=True):
                if key is not None:
                    self.put(net, item, value, key=key)
                out[i] = value
        return out

    def clear(self) -> None:
        """Drop all in-memory entries (counters are kept; use
        ``reset_stats`` too).  The persistent file is untouched — use
        :meth:`reload` (or a fresh cache) to re-apply it."""
        self._store.clear()

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store
