"""The serving plane: hot-swap ingress lookups over compiled snapshots.

The pipeline produces :class:`~repro.core.snapshot.Snapshot` objects;
this package turns them into a queryable deployment surface:

* :class:`~repro.serving.service.IngressLookupService` — ip → (ingress,
  confidence, range, age) from an atomically hot-swapped
  :class:`~repro.serving.service.ServingEpoch`; point-in-time queries
  from the archive or checkpoints; per-shard load counters feeding a
  :class:`~repro.serving.service.ReshardPolicy` (checkpoint-reshard
  4 → 16 under skew).
* :class:`~repro.serving.server.LookupServer` — the asyncio
  line-protocol front end (``GET``/``MGET``/``AT``/``STATS``).

``cli serve`` wires both to an archive/CSV on disk; the ledger's
``serve_lookup`` workload measures lookups/s, latency and install cost.
"""

from .server import LookupServer
from .service import (
    IngressLookupService,
    LookupResult,
    NoEpochError,
    ReshardPolicy,
    ServingEpoch,
    ServingError,
    ShardLoadCounters,
)

__all__ = [
    "IngressLookupService",
    "LookupResult",
    "LookupServer",
    "NoEpochError",
    "ReshardPolicy",
    "ServingEpoch",
    "ServingError",
    "ShardLoadCounters",
]
