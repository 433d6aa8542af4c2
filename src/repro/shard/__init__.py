"""repro.shard — sharded multi-process serving behind one router.

``repro serve --shards N`` boots :class:`~repro.shard.router.
ShardRouter`: N supervised OS processes each running the
single-event-loop :class:`~repro.serve.server.ReproServer`, fronted by
a least-loaded forwarding router with a fleet depth bound (each
shard prices and wait-gates its own jobs), a memo-key-salted
cross-shard result cache, and one merged
``/metrics``/``/healthz``/``/traces`` plane.  See ``docs/SERVING.md``.
"""

from repro.shard.cache import ShardResultCache, shard_cache_enabled
from repro.shard.router import (RouterConfig, RouterThread, ShardRouter,
                                run_router)
from repro.shard.supervisor import (ShardHandle, ShardSupervisor,
                                    shard_environment)

__all__ = [
    "RouterConfig",
    "RouterThread",
    "ShardHandle",
    "ShardResultCache",
    "ShardRouter",
    "ShardSupervisor",
    "run_router",
    "shard_cache_enabled",
    "shard_environment",
]
