"""Evaluation layer: memoized simulation of performance interfaces.

The paper's pitch is that performance interfaces are *cheap to evaluate*;
this package makes sure we never pay even that cheap cost twice:

* :mod:`repro.perf.fingerprint` — stable, content-addressed identities for
  nets and workload features (the cache key material).
* :mod:`repro.perf.cache` — :class:`EvalCache`, an in-memory
  content-addressed result store with hit/miss accounting and an
  optional persistent tier.
* :mod:`repro.perf.store` — :class:`PersistentStore`, the append-only
  JSONL file behind ``EvalCache(path=...)``: atomic cross-process
  appends, corruption-tolerant replay.

See ``docs/performance.md`` for key construction and invalidation rules.
"""

from .cache import CacheStats, EvalCache
from .fingerprint import UncacheableError, net_fingerprint, workload_key
from .store import PersistentStore, spillable

__all__ = [
    "CacheStats",
    "EvalCache",
    "PersistentStore",
    "UncacheableError",
    "net_fingerprint",
    "spillable",
    "workload_key",
]
