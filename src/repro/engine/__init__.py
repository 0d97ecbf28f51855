"""The memoizing execution engine (caching, DOM indexing, one exec seam).

Public surface:

* :class:`repro.engine.engine.ExecutionEngine` — the facade every
  synthesizer-stack module executes through.
* :class:`repro.engine.cache.ExecutionCache` — bounded LRU memoization
  of simulated execution, with exact-window and terminal-prefix tables.
* :class:`repro.engine.cache.SharedExecutionCache` — the process-level
  promotion of the cache: lock-striped shards plus snapshot interning,
  so concurrent sessions over the same site reuse each other's
  executions (``process_cache()`` holds the process-wide instance).
* :mod:`repro.engine.index` — lazy per-snapshot DOM indexes powering
  descendant-axis selector steps.
* :mod:`repro.engine.keys` — value-addressed key primitives (stable
  content digests for snapshots, windows, data sources, and composite
  cache keys) that make entries meaningful across processes and
  restarts.
"""

from repro.engine.cache import (
    CacheCounters,
    ExecutionCache,
    SharedCacheSession,
    SharedExecutionCache,
    process_cache,
    reset_process_cache,
)
from repro.engine.engine import EngineCounters, ExecutionEngine
from repro.engine.index import SnapshotIndex, build_count, index_for
from repro.engine.keys import (
    action_digest,
    data_key,
    digest_int,
    snapshot_key,
    stable_digest,
)

__all__ = [
    "CacheCounters",
    "EngineCounters",
    "ExecutionCache",
    "ExecutionEngine",
    "SharedCacheSession",
    "SharedExecutionCache",
    "SnapshotIndex",
    "action_digest",
    "build_count",
    "data_key",
    "digest_int",
    "index_for",
    "process_cache",
    "reset_process_cache",
    "snapshot_key",
    "stable_digest",
]
