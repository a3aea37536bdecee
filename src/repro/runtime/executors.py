"""Interchangeable executors for the sharded runtime.

The coordinator (:class:`~repro.runtime.sharding.ShardedIPD`) speaks one
small protocol — ``feed`` batches to a shard, ``tick`` all shards,
``apply`` seed/reset ops, ``snapshot``, ``metrics``, ``close`` — and the
two executors implement it with different parallelism:

* :class:`SerialExecutor` — everything in the calling thread, fully
  deterministic; the reference implementation the equivalence suite
  pins the other against.
* :class:`MultiprocessExecutor` — one worker process per slot.
  Commands, :class:`~repro.netflow.records.FlowBatch` columns, shard ops
  and replies all travel pickled over one duplex pipe per worker.  This
  is the executor that actually multiplies single-core ingest
  throughput.

Every executor carries a ``fault_hook`` attribute (default ``None``)
— the testkit's chaos seam.  When set to a
:class:`~repro.testkit.faults.FaultPlan`, the hook is consulted at
named injection sites: ``feed`` (a batch may be dropped or delivered
twice) and ``tick_begin`` (a worker crash may be injected).  Unset, each
site costs a single identity check on paths that are already dominated
by pipe traffic, so production behaviour is unchanged.

Shard *index* → worker *slot* is a fixed ``index % workers`` mapping,
and each worker handles its commands strictly in order (FIFO per pipe),
so no acknowledgement round-trips are needed for ``feed`` and ``apply``:
a later ``tick``/``snapshot``/``metrics`` reply implies every earlier
command was applied.  Tick replies are a barrier; state evolution is
therefore identical across executors — only wall-clock interleaving
differs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Union

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

from ..core.admission import AdmissionConfig, AdmissionImage
from ..core.output import IPDRecord
from ..core.params import IPDParams
from ..netflow.records import FlowBatch
from .faulthook import FaultHookLike
from .shards import ShardEngine, ShardMetrics, ShardTickResult

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

    Shared verbatim by both executors: the serial executor calls
    :meth:`handle` inline, the multiprocessing executor inside a worker
    process.
    """

    def __init__(
        self,
        params: IPDParams,
        depth: int,
        admission: Optional[AdmissionConfig] = None,
    ) -> None:
        self.params = params
        self.depth = depth
        self.admission = admission
        self.engines: dict[int, ShardEngine] = {}

    def engine(self, index: int) -> ShardEngine:
        engine = self.engines.get(index)
        if engine is None:
            engine = self.engines[index] = ShardEngine(
                self.params, self.depth, index, admission=self.admission
            )
        return engine

    def handle(self, cmd: tuple) -> object:
        """Process one command; returns the reply or ``None`` (no reply)."""
        kind = cmd[0]
        if kind == "feed":
            self.engine(cmd[1]).ingest_batch(cmd[2])
            return None
        if kind == "ops":
            for op in cmd[1]:
                self.engine(op[1]).apply_op(op)
            return None
        if kind == "tick":
            now = cmd[1]
            return {
                index: engine.tick(now)
                for index, engine in sorted(self.engines.items())
            }
        if kind == "snapshot":
            records: list[IPDRecord] = []
            for __, engine in sorted(self.engines.items()):
                records.extend(engine.snapshot(cmd[1], cmd[2]))
            return records
        if kind == "metrics":
            metrics = ShardMetrics()
            for engine in self.engines.values():
                metrics.add(engine.metrics())
            return metrics
        if kind == "export":
            return {
                index: engine.export()
                for index, engine in sorted(self.engines.items())
            }
        if kind == "admission_export":
            return {
                index: engine.admission_image()
                for index, engine in sorted(self.engines.items())
            }
        raise ValueError(f"unknown executor command: {kind!r}")


class SerialExecutor:
    """All shards in the calling thread — the deterministic reference."""

    kind = "serial"

    def __init__(
        self,
        params: IPDParams,
        depth: int,
        workers: int = 1,
        admission: Optional[AdmissionConfig] = None,
    ) -> None:
        self._worker = ShardWorker(params, depth, admission=admission)
        self._tick_results: Optional[dict[int, ShardTickResult]] = None
        self.fault_hook: Optional[FaultHookLike] = None

    def feed(self, index: int, batch: FlowBatch) -> None:
        if self.fault_hook is not None:
            action = self.fault_hook.on_feed(index, batch)
            if action == "drop":
                return
            if action == "duplicate":
                self._worker.handle(("feed", index, batch))
        self._worker.handle(("feed", index, batch))

    def apply(self, ops: Iterable[tuple]) -> None:
        self._worker.handle(("ops", list(ops)))

    def tick_begin(self, now: float) -> None:
        if self.fault_hook is not None:
            self.fault_hook.before_tick(self, now)
        self._tick_results = self._worker.handle(("tick", now))

    def tick_collect(self) -> dict[int, ShardTickResult]:
        results, self._tick_results = self._tick_results, None
        assert results is not None
        return results

    def snapshot(self, now: float, include_unclassified: bool) -> list[IPDRecord]:
        return self._worker.handle(("snapshot", now, include_unclassified))

    def metrics(self) -> ShardMetrics:
        return self._worker.handle(("metrics",))

    def export(self) -> dict[int, dict[int, bytes]]:
        return self._worker.handle(("export",))

    def admission_export(self) -> dict[int, Optional[AdmissionImage]]:
        return self._worker.handle(("admission_export",))

    def close(self) -> None:
        pass


def _mp_worker_main(
    conn: "Connection",
    params: IPDParams,
    depth: int,
    admission: Optional[AdmissionConfig] = None,
) -> None:
    """Worker process entry (module-level: must be picklable)."""
    worker = ShardWorker(params, depth, admission=admission)
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

    def __init__(
        self,
        params: IPDParams,
        depth: int,
        workers: int = 2,
        admission: Optional[AdmissionConfig] = None,
    ) -> None:
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
                args=(child_conn, params, depth, admission),
                name=f"ipd-shard-{slot}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._processes.append(process)
        self._closed = False
        self.fault_hook: Optional[FaultHookLike] = None

    def _slot(self, index: int) -> int:
        return index % self.workers

    def _send(self, slot: int, cmd: tuple) -> None:
        try:
            self._conns[slot].send(cmd)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise WorkerCrashError(
                f"shard worker {slot} is gone ({exc!r})"
            ) from exc

    def _recv(self, slot: int) -> object:
        try:
            return self._conns[slot].recv()
        except (EOFError, ConnectionResetError, OSError) as exc:
            raise WorkerCrashError(
                f"shard worker {slot} died before replying ({exc!r})"
            ) from exc

    def feed(self, index: int, batch: FlowBatch) -> None:
        cmd = ("feed", index, batch)
        if self.fault_hook is not None:
            action = self.fault_hook.on_feed(index, batch)
            if action == "drop":
                return
            if action == "duplicate":
                self._send(self._slot(index), cmd)
        self._send(self._slot(index), cmd)

    def apply(self, ops: Iterable[tuple]) -> None:
        by_slot: dict[int, list[tuple]] = {}
        for op in ops:
            by_slot.setdefault(self._slot(op[1]), []).append(op)
        for slot, slot_ops in by_slot.items():
            self._send(slot, ("ops", slot_ops))

    def tick_begin(self, now: float) -> None:
        if self.fault_hook is not None:
            self.fault_hook.before_tick(self, now)
        for slot in range(self.workers):
            self._send(slot, ("tick", now))

    def tick_collect(self) -> dict[int, ShardTickResult]:
        results: dict[int, ShardTickResult] = {}
        for slot in range(self.workers):
            results.update(self._recv(slot))
        return results

    def snapshot(self, now: float, include_unclassified: bool) -> list[IPDRecord]:
        for slot in range(self.workers):
            self._send(slot, ("snapshot", now, include_unclassified))
        records: list[IPDRecord] = []
        for slot in range(self.workers):
            records.extend(self._recv(slot))
        return records

    def metrics(self) -> ShardMetrics:
        for slot in range(self.workers):
            self._send(slot, ("metrics",))
        metrics = ShardMetrics()
        for slot in range(self.workers):
            metrics.add(self._recv(slot))
        return metrics

    def export(self) -> dict[int, dict[int, bytes]]:
        for slot in range(self.workers):
            self._send(slot, ("export",))
        exports: dict[int, dict[int, bytes]] = {}
        for slot in range(self.workers):
            exports.update(self._recv(slot))
        return exports

    def admission_export(self) -> dict[int, Optional[AdmissionImage]]:
        for slot in range(self.workers):
            self._send(slot, ("admission_export",))
        images: dict[int, Optional[AdmissionImage]] = {}
        for slot in range(self.workers):
            images.update(self._recv(slot))
        return images

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
    admission: Optional[AdmissionConfig] = None,
) -> "Union[SerialExecutor, MultiprocessExecutor]":
    """Build an executor by name (``serial`` / ``mp``)."""
    if kind == "serial":
        return SerialExecutor(params, depth, admission=admission)
    if kind == "mp":
        if workers is None:
            import os

            workers = min(4, os.cpu_count() or 1)
        return MultiprocessExecutor(params, depth, workers, admission=admission)
    raise ValueError(
        f"unknown executor {kind!r}; expected one of {EXECUTOR_KINDS}"
    )
