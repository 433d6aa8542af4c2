"""Cross-shard result cache: memo-key-salted, file-backed.

The router answers idempotent, parameter-pure jobs
(:data:`repro.serve.jobs.CACHEABLE_OPS`: ``pi_digits`` and
``model_cycles``, the only ops the router lowers) from one cache
shared across the whole fleet, so a query served by shard 2 warms the
answer for every future client, whichever shard the router would
have placed it on.

The key *is* ``Job.cache_key()``, which embeds the plan's
``memo_key`` (lowering schema version + policy fingerprint +
algorithm + backend) — the same salt every in-process memo cache uses —
so a change of lowering or backend changes every key and the cache can
never serve a result computed under a stale plan.

Storage is a :class:`repro.parallel.cache.MemoCache`: a bounded
in-memory LRU with an atomic JSON spill under the cache root.  The
file backing is what makes it *cross-shard and cross-run*: a restarted
router (or a second router on the same host) starts warm from disk.
``REPRO_SHARD_CACHE=0`` disables the layer entirely.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.analysis import env as _env
from repro.parallel.cache import MemoCache
from repro.serve.jobs import Job

#: Killswitch (see the env registry / docs/ENV.md).
SHARD_CACHE_ENV = _env.SHARD_CACHE.name

#: Bump when the cached payload shape changes; the plan's own schema
#: version already rides inside every key via ``Plan.memo_key``.
SHARD_CACHE_VERSION = 1


def shard_cache_enabled() -> bool:
    """Whether the cross-shard cache layer is on (killswitch)."""
    return _env.enabled(_env.SHARD_CACHE)


class ShardResultCache:
    """The router-side get/put facade over the shared memo store."""

    def __init__(self, maxsize: int = 1024,
                 enabled: Optional[bool] = None,
                 persist: bool = True) -> None:
        self.enabled = shard_cache_enabled() if enabled is None \
            else enabled
        #: ``persist=False`` keeps the cache purely in-memory — the
        #: benchmark uses it so a disk-warmed cache can never flatter
        #: the sharded throughput numbers.
        self.persist = persist
        self._store = MemoCache("shard_results", maxsize=maxsize,
                                version=SHARD_CACHE_VERSION)
        self.hits = 0
        self.misses = 0

    def load(self) -> int:
        """Eagerly merge the on-disk spill (call at router start, off
        the request path — the lazy load does file I/O)."""
        if not self.enabled or not self.persist:
            return 0
        return self._store.load()

    def get(self, job: Job) -> Optional[Dict[str, Any]]:
        """Cached result payload for a cacheable job, else ``None``."""
        if not self.enabled:
            return None
        key = job.cache_key()
        if key is None:
            return None
        payload = self._store.get(self._store.key(*key))
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, job: Job, payload: Dict[str, Any]) -> None:
        """Store one shard-computed result payload for a cacheable job."""
        if not self.enabled:
            return
        key = job.cache_key()
        if key is None:
            return
        self._store.put(self._store.key(*key), payload)

    def save(self) -> None:
        """Spill new entries to disk (drain path; atomic, best-effort)."""
        if self.enabled and self.persist:
            self._store.save_if_dirty()

    def __len__(self) -> int:
        return len(self._store)
