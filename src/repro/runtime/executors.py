"""Executors for the sharded runtime: one pipe per worker.

The coordinator (:class:`~repro.runtime.sharding.ShardedIPD`) drives its
shard engines through four methods, and both executors implement them:

* ``send(index, cmd)`` — queue *cmd* for the worker owning shard
  *index*; there is no reply;
* ``broadcast(cmd)`` — queue *cmd* for every worker;
* ``gather()`` — one reply per worker to the last broadcast, in worker
  order;
* ``close()``.

A command is a tuple whose first item names it, and
:meth:`ShardWorker.handle` is the one dispatch for every command
(``feed``, the shard ops and the broadcast queries).

* :class:`SerialExecutor` — one :class:`ShardWorker` in the calling
  thread, fully deterministic; the reference implementation the
  equivalence suite pins the other against.
* :class:`MultiprocessExecutor` — one worker process per slot.
  Commands, :class:`~repro.netflow.records.FlowBatch` columns and
  replies all travel pickled over one duplex pipe per worker.

Shard *index* → worker *slot* is a fixed ``index % workers`` mapping,
and each worker handles its commands strictly in order (FIFO per pipe),
so no acknowledgement round-trips are needed for ``send``: a later
broadcast's reply implies every earlier command was applied.  Tick
replies are a barrier; state evolution is therefore identical across
executors — only wall-clock interleaving differs.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

from ..core.params import IPDParams
from .shards import ShardEngine, ShardMetrics

__all__ = [
    "SerialExecutor",
    "MultiprocessExecutor",
    "WorkerCrashError",
    "make_executor",
    "EXECUTOR_KINDS",
]

EXECUTOR_KINDS = ("serial", "mp")


class WorkerCrashError(RuntimeError):
    """A shard worker process died mid-run (pipe broken or closed).

    Raised by :class:`MultiprocessExecutor` instead of the raw OS-level
    error so the pipeline's recovery path can catch one well-known type,
    tear the executor down, and rebuild the engine from its last
    checkpoint.
    """


class ShardWorker:
    """The engines owned by one worker slot, plus the command dispatcher.

    Shared verbatim by both executors: the serial executor is one, the
    multiprocessing executor runs one inside each worker process.
    """

    def __init__(self, params: IPDParams, depth: int) -> None:
        self.params = params
        self.depth = depth
        self.engines: dict[int, ShardEngine] = {}

    def engine(self, index: int) -> ShardEngine:
        engine = self.engines.get(index)
        if engine is None:
            engine = self.engines[index] = ShardEngine(self.params, self.depth, index)
        return engine

    def handle(self, cmd: tuple) -> object:
        """Apply one command; returns a broadcast's reply, else ``None``.

        Sent commands carry their shard index second:
        ``("feed", index, batch)``; ``("seed", index, version, payload)``
        activates a family tree by planting an encoded subtree blob;
        ``("reset", index, version)`` deactivates it after a
        cross-boundary join or prune.  Broadcasts (``tick``,
        ``snapshot``, ``metrics``, ``export``) answer for every engine
        of the slot in shard-index order.
        """
        kind = cmd[0]
        if kind == "feed":
            self.engine(cmd[1]).ingest_batch(cmd[2])
        elif kind == "seed":
            self.engine(cmd[1]).seed(cmd[2], cmd[3])
        elif kind == "reset":
            self.engine(cmd[1]).reset(cmd[2])
        else:
            engines = sorted(self.engines.items())
            if kind == "tick":
                return {index: engine.tick(cmd[1]) for index, engine in engines}
            if kind == "snapshot":
                return [
                    record
                    for __, engine in engines
                    for record in engine.ipd.snapshot(
                        cmd[1], include_unclassified=cmd[2]
                    )
                ]
            if kind == "metrics":
                metrics = ShardMetrics()
                for __, engine in engines:
                    metrics.add(engine.metrics())
                return metrics
            if kind == "export":
                return {index: engine.export() for index, engine in engines}
            raise ValueError(f"unknown executor command: {kind!r}")
        return None


class SerialExecutor(ShardWorker):
    """All shards in the calling thread — the deterministic reference."""

    kind = "serial"
    _reply: object = None

    def send(self, index: int, cmd: tuple) -> None:
        self.handle(cmd)

    def broadcast(self, cmd: tuple) -> None:
        self._reply = self.handle(cmd)

    def gather(self) -> list:
        reply, self._reply = self._reply, None
        return [reply]

    def close(self) -> None:
        pass


def _mp_worker_main(conn: "Connection", params: IPDParams, depth: int) -> None:
    """Worker process entry (module-level: must be picklable)."""
    worker = ShardWorker(params, depth)
    while True:
        try:
            cmd = conn.recv()
        except EOFError:
            return
        if cmd[0] == "stop":
            conn.close()
            return
        reply = worker.handle(cmd)
        if reply is not None:
            conn.send(reply)


class MultiprocessExecutor:
    """One worker process per slot, driven over a duplex pipe."""

    kind = "mp"

    def __init__(self, params: IPDParams, depth: int, workers: int = 2) -> None:
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = multiprocessing.get_context()
        self.workers = max(1, workers)
        self._conns = []
        self._processes = []
        for slot in range(self.workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_mp_worker_main,
                args=(child_conn, params, depth),
                name=f"ipd-shard-{slot}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._processes.append(process)
        self._closed = False

    def _send(self, slot: int, cmd: tuple) -> None:
        try:
            self._conns[slot].send(cmd)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise WorkerCrashError(
                f"shard worker {slot} is gone ({exc!r})"
            ) from exc

    def send(self, index: int, cmd: tuple) -> None:
        self._send(index % self.workers, cmd)

    def broadcast(self, cmd: tuple) -> None:
        for slot in range(self.workers):
            self._send(slot, cmd)

    def gather(self) -> list:
        replies = []
        for slot, conn in enumerate(self._conns):
            try:
                replies.append(conn.recv())
            except (EOFError, ConnectionResetError, OSError) as exc:
                raise WorkerCrashError(
                    f"shard worker {slot} died before replying ({exc!r})"
                ) from exc
        return replies

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):  # worker already gone
                pass
        for process in self._processes:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
        for conn in self._conns:
            conn.close()


def make_executor(
    kind: str,
    params: IPDParams,
    depth: int,
    workers: Optional[int] = None,
) -> "Union[SerialExecutor, MultiprocessExecutor]":
    """Build an executor by name (``serial`` / ``mp``)."""
    if kind == "serial":
        return SerialExecutor(params, depth)
    if kind == "mp":
        if workers is None:
            workers = min(4, os.cpu_count() or 1)
        return MultiprocessExecutor(params, depth, workers)
    raise ValueError(
        f"unknown executor {kind!r}; expected one of {EXECUTOR_KINDS}"
    )
