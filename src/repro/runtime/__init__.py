"""The pipeline runtime: Source → Router → engine shards → Merger → Sinks.

One execution surface for every way of running IPD:

* :class:`~repro.runtime.pipeline.Pipeline` — deterministic offline
  replay (simulated time), single-engine or, for a fresh run,
  address-space-sharded.
* :class:`~repro.runtime.live.LivePipeline` — the deployment's
  wall-clock two-thread layout over one plain engine.
* :class:`~repro.runtime.sharding.ShardedIPD` — the shard coordinator
  itself, usable directly wherever an :class:`~repro.core.algorithm.IPD`
  is expected; it is only ever built empty.
* :func:`~repro.runtime.sharding.build_engine` — the one factory that
  maps a topology (``shards``, ``executor``) to a fresh plain or sharded
  engine.  Every restore (:func:`restore_engine`) is one plain engine.
* executors (``serial`` / ``mp``) — interchangeable backends driving
  the shard engines.
"""

from .checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointCorruptError,
    CheckpointStore,
    restore_engine,
)
from .executors import (
    EXECUTOR_KINDS,
    MultiprocessExecutor,
    SerialExecutor,
    WorkerCrashError,
    make_executor,
)
from .live import LivePipeline, PipelineStateError
from ..core.snapshot import Snapshot
from .pipeline import Pipeline
from .result import RunResult
from .sharding import ShardedIPD, build_engine
from .shards import ShardEngine
from .sinks import CallbackSink, CSVSink, MemorySink, ServiceSink, Sink

__all__ = [
    "Pipeline",
    "LivePipeline",
    "PipelineStateError",
    "ShardedIPD",
    "ShardEngine",
    "build_engine",
    "RunResult",
    "Checkpoint",
    "CheckpointCorruptError",
    "CheckpointStore",
    "CHECKPOINT_VERSION",
    "restore_engine",
    "Sink",
    "Snapshot",
    "MemorySink",
    "CallbackSink",
    "CSVSink",
    "ServiceSink",
    "SerialExecutor",
    "MultiprocessExecutor",
    "WorkerCrashError",
    "make_executor",
    "EXECUTOR_KINDS",
]
