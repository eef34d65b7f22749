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
from collections.abc import Callable
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
    (e.g. ``"profiler:cycle-accurate"``).

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
        self._m_hits = self._m_misses = self._m_uncacheable = None
        self._m_spills = self._m_unspillable = None
        self.disk: PersistentStore | None = None
        if path is not None:
            self.disk = PersistentStore(path)
            self._store.update(self.disk.load())

    def bind_metrics(self, registry, **labels) -> None:
        """Mirror lookups into a :class:`repro.obs.MetricsRegistry` as
        ``eval_cache_{hits,misses,uncacheable,spills,unspillable}_total``
        counters (with ``labels``).  Only lookups *after* binding are
        counted; rebinding moves future counts to the new registry."""
        self._m_hits = registry.counter("eval_cache_hits_total", **labels)
        self._m_misses = registry.counter("eval_cache_misses_total", **labels)
        self._m_uncacheable = registry.counter(
            "eval_cache_uncacheable_total", **labels
        )
        self._m_spills = registry.counter("eval_cache_spills_total", **labels)
        self._m_unspillable = registry.counter(
            "eval_cache_unspillable_total", **labels
        )

    def key(self, net: PetriNet | str, features: Any) -> str:
        """Content-addressed key; raises :class:`UncacheableError` when the
        features cannot be encoded stably."""
        namespace = net if isinstance(net, str) else net_fingerprint(net)
        return hashlib.sha256(
            f"{namespace}\n{workload_key(features)}".encode()
        ).hexdigest()

    # ------------------------------------------------------------------
    # Low-level API (the batch evaluation path drives this directly)
    # ------------------------------------------------------------------
    def get(self, net: PetriNet | str, features: Any) -> Any:
        """The cached value, or :data:`EvalCache.MISS`.

        Records the key in :attr:`last_key`, so that a miss is keyed
        once: pass it to :meth:`put`.  Uncacheable features count as
        such, set ``last_key`` to ``None`` and report a miss (the caller
        must compute, and must not :meth:`put` the result).
        """
        try:
            key = self.key(net, features)
        except UncacheableError:
            self.last_key = None
            self.stats.uncacheable += 1
            if self._m_uncacheable is not None:
                self._m_uncacheable.inc()
            return self.MISS
        self.last_key = key
        if key in self._store:
            self.stats.hits += 1
            if self._m_hits is not None:
                self._m_hits.inc()
            return self._store[key]
        self.stats.misses += 1
        if self._m_misses is not None:
            self._m_misses.inc()
        return self.MISS

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
        self._store[key] = value
        if self.disk is not None:
            if self.disk.append(key, value):
                self.stats.spills += 1
                if self._m_spills is not None:
                    self._m_spills.inc()
            else:
                self.stats.unspillable += 1
                if self._m_unspillable is not None:
                    self._m_unspillable.inc()

    def reload(self) -> int:
        """Apply entries other processes appended since open/last reload.

        Returns how many entries were applied; a no-op (0) without a
        persistent tier.
        """
        if self.disk is None:
            return 0
        return self.disk.reload_into(self._store)

    # ------------------------------------------------------------------
    # High-level API
    # ------------------------------------------------------------------
    def get_or_compute(
        self,
        net: PetriNet | str,
        features: Any,
        compute: Callable[[], Any],
    ) -> Any:
        """Return the cached result for ``(net, features)``, computing and
        storing it on a miss.  Uncacheable features always compute."""
        try:
            key = self.key(net, features)
        except UncacheableError:
            self.stats.uncacheable += 1
            if self._m_uncacheable is not None:
                self._m_uncacheable.inc()
            return compute()
        if key in self._store:
            self.stats.hits += 1
            if self._m_hits is not None:
                self._m_hits.inc()
            return self._store[key]
        self.stats.misses += 1
        if self._m_misses is not None:
            self._m_misses.inc()
        value = compute()
        self._store[key] = value
        if self.disk is not None:
            if self.disk.append(key, value):
                self.stats.spills += 1
                if self._m_spills is not None:
                    self._m_spills.inc()
            else:
                self.stats.unspillable += 1
                if self._m_unspillable is not None:
                    self._m_unspillable.inc()
        return value

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
