"""The pipeline runtime: Source → Router → engine shards → Merger → Sinks.

One execution surface for every way of running IPD:

* :class:`~repro.runtime.pipeline.Pipeline` — deterministic offline
  replay (simulated time), single-engine or address-space-sharded.
* :class:`~repro.runtime.live.LivePipeline` — the deployment's
  wall-clock two-thread layout over the same engines.
* :class:`~repro.runtime.sharding.ShardedIPD` — the shard coordinator
  itself, usable directly wherever an :class:`~repro.core.algorithm.IPD`
  is expected.
* :func:`~repro.runtime.sharding.build_engine` — the one factory that
  maps a topology (``shards``, ``executor``, optionally a checkpoint
  blob) to a plain or sharded engine.
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
