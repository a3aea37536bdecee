"""The serving plane: hot-swap ingress lookups over compiled snapshots.

The pipeline produces :class:`~repro.core.snapshot.Snapshot` objects;
this package turns them into a queryable deployment surface:

* :class:`~repro.serving.service.IngressLookupService` — ip → (ingress,
  confidence, range, age) from an atomically hot-swapped
  :class:`~repro.serving.service.ServingEpoch`, and point-in-time
  queries from an archive's records.
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
    ServingEpoch,
    ServingError,
)

__all__ = [
    "IngressLookupService",
    "LookupResult",
    "LookupServer",
    "NoEpochError",
    "ServingEpoch",
    "ServingError",
]
