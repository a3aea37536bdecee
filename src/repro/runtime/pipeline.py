"""The unified replay pipeline: Source → Router → engines → Merger → Sinks.

:class:`Pipeline` is the one offline entry point for running IPD over a
flow stream, across engine shapes:

* ``shards=1`` — a single plain :class:`~repro.core.algorithm.IPD`;
  zero coordination overhead, the exact seed behaviour.
* ``shards >= 2`` — a :class:`~repro.runtime.sharding.ShardedIPD`
  coordinator routing flows over ``shards`` address-space shards driven
  by the chosen executor (``serial`` / ``mp``).  Merged
  snapshots are byte-identical to the single-engine ones by design,
  under any admission mode: the coordinator holds the deployment's one
  gate (the equivalence suites in ``tests/runtime`` pin this).

:func:`~repro.runtime.sharding.build_engine` makes that choice for a
fresh run only.

Sweeps fire exactly at ``t``-second boundaries of the trace clock,
snapshots every ``snapshot_seconds``, and a batch spanning a boundary is
cut at the boundary so "all ingest before each sweep tick" holds exactly.

With a checkpoint store attached, the pipeline saves a consistent
post-sweep image plus the replay cursor at sweep ticks (every
``checkpoint_every`` trace seconds).  A run continues in one way: one
restore step builds a plain engine from a checkpoint (the merged
single-engine image, so no run loses output), or a fresh one when there
is none, and the replay skips what the checkpoint covers.
:meth:`Pipeline.resume`, :class:`~repro.runtime.live.LivePipeline` and
the crash recovery inside :meth:`Pipeline.run` (a re-openable source, a
store and a pipeline-owned engine; at most :data:`MAX_RECOVERIES`) all
take it, and a checkpoint's ``sweep_count`` counts from the run's
start, across resumes.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from ..core.admission import AdmissionConfig
from ..core.algorithm import IPD, SweepReport
from ..core.output import IPDRecord
from ..core.params import IPDParams
from ..core.snapshot import Snapshot
from ..netflow.records import FlowBatch, FlowRecord, iter_flow_batches
from .checkpoint import Checkpoint, CheckpointStore
from .executors import WorkerCrashError
from .result import RunResult
from .sharding import Engine, build_engine
from .sinks import Sink

__all__ = ["Pipeline"]


#: crash recoveries one run makes before the crash escapes
MAX_RECOVERIES = 3


def _restore(
    store: CheckpointStore,
    checkpoint: Optional[Checkpoint],
    params: Optional[IPDParams] = None,
    admission: Optional[AdmissionConfig] = None,
) -> IPD:
    """The one engine a run continues on: one plain
    :class:`~repro.core.algorithm.IPD` restored from *checkpoint*, or
    fresh when there is none (a crash before the first save)."""
    if checkpoint is None:
        return IPD(params, admission=admission)
    return store.restore_engine(checkpoint, params, admission)


class Pipeline:
    """Deterministic offline replay over a single or sharded IPD engine."""

    def __init__(
        self,
        params: IPDParams | None = None,
        shards: int = 1,
        executor: str = "serial",
        workers: Optional[int] = None,
        snapshot_seconds: float = 300.0,
        include_unclassified: bool = False,
        on_sweep: Optional[Callable[[SweepReport, Engine], None]] = None,
        sinks: Optional[Sequence[Sink]] = None,
        engine: Optional[Engine] = None,
        checkpoint_store: "CheckpointStore | str | Path | None" = None,
        checkpoint_every: Optional[float] = None,
        admission: Optional[AdmissionConfig] = None,
    ) -> None:
        if snapshot_seconds <= 0:
            raise ValueError("snapshot_seconds must be positive")
        #: the one-engine arguments a crash recovery restores with; None
        #: means the engine is caller-owned and recovery must re-raise
        self._rebuild: Optional[dict] = None
        if engine is None:
            engine = build_engine(params, shards, executor, workers, admission)
            self._rebuild = dict(params=params, admission=admission)
        self.engine: Engine = engine
        self.snapshot_seconds = snapshot_seconds
        self.include_unclassified = include_unclassified
        self.on_sweep = on_sweep
        self.sinks: list[Sink] = list(sinks) if sinks is not None else []
        #: emission counter: each emitted Snapshot gets the next epoch
        #: number, strictly increasing for the life of this pipeline
        self._epoch = 0
        #: newest snapshot time the sinks hold when a crash recovery
        #: replays: the replay re-takes those snapshots for the result
        #: only, so each snapshot time reaches the sinks once
        self._delivered: Optional[float] = None
        #: exactly-once guard for sink teardown (close() is re-entrant)
        self._sinks_closed = False
        if checkpoint_store is not None and not isinstance(
            checkpoint_store, CheckpointStore
        ):
            checkpoint_store = CheckpointStore(checkpoint_store)
        self.checkpoint_store = checkpoint_store
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        self.checkpoint_every = (
            checkpoint_every if checkpoint_every is not None else snapshot_seconds
        )
        #: the checkpoint the next run continues from (None: the stream's start)
        self._resume: Optional[Checkpoint] = None
        #: sweeps the run made before this pipeline's first: a saved
        #: ``sweep_count`` counts from the run's start, across resumes
        self._base = 0
        #: teardown failures swallowed during crash recovery — the dead
        #: engine's state is unrecoverable either way, but the failures
        #: stay inspectable here (and each one raises a RuntimeWarning)
        self.teardown_errors: list[Exception] = []

    @property
    def params(self) -> IPDParams:
        return self.engine.params

    # ------------------------------------------------------------------ resume

    @classmethod
    def resume(
        cls,
        checkpoint_store: "CheckpointStore | str | Path",
        checkpoint: Optional[Checkpoint] = None,
        params: IPDParams | None = None,
        admission: Optional[AdmissionConfig] = None,
        **kwargs: object,
    ) -> "Pipeline":
        """Continue from a checkpoint (the latest one, unless given).

        The restored pipeline expects :meth:`run` to be fed the *same*
        flow stream the checkpointing run consumed, from the beginning —
        the replay cursor skips everything the checkpoint already
        covers, on one plain engine (the restore step above).

        ``params`` is only required when the original run used a custom
        (non-serializable) decay function.  ``admission`` only matters
        when the checkpoint carries no admission section of its own (a
        blob-embedded section always wins).
        """
        if not isinstance(checkpoint_store, CheckpointStore):
            checkpoint_store = CheckpointStore(checkpoint_store)
        if checkpoint is None:
            checkpoint = checkpoint_store.latest()
        if checkpoint is None:
            raise FileNotFoundError(
                f"no checkpoint found in {checkpoint_store.directory}"
            )
        rebuild = dict(params=params, admission=admission)
        pipeline = cls(
            engine=_restore(checkpoint_store, checkpoint, **rebuild),
            checkpoint_store=checkpoint_store,
            **kwargs,
        )
        pipeline._rebuild = rebuild
        pipeline._resume = checkpoint
        pipeline._base = checkpoint.sweep_count
        return pipeline

    # ------------------------------------------------------------------ replay

    def run(
        self,
        flows: "Iterable[FlowRecord | FlowBatch] | Callable[[], Iterable[FlowRecord | FlowBatch]]",
    ) -> RunResult:
        """Replay *flows* (non-decreasing timestamps) to completion.

        *flows* may also be a zero-argument callable returning the
        stream (e.g. a function re-opening a CSV).  With a checkpoint
        store attached and a pipeline-owned engine, a re-openable source
        enables crash recovery: on a :class:`WorkerCrashError` (a shard
        worker died), one plain engine is restored from the last intact
        checkpoint and the stream is replayed forward instead of the run
        failing, at most :data:`MAX_RECOVERIES` times.
        """
        reopen = None
        if callable(flows) and not isinstance(flows, Iterable):
            if self.checkpoint_store is not None and self._rebuild is not None:
                reopen = flows
            flows = flows()
        result = RunResult()
        recoveries = 0
        try:
            while True:
                try:
                    for __ in self.run_incremental(flows, result):
                        pass
                    return result
                except WorkerCrashError:
                    recoveries += 1
                    if reopen is None or recoveries > MAX_RECOVERIES:
                        raise
                    self._recover(result)
                    flows = reopen()
        finally:
            self._delivered = None

    def _recover(self, result: RunResult) -> None:
        """Continue a crashed run from the newest intact checkpoint, or
        from the stream's start when there is none."""
        assert self._rebuild is not None and self.checkpoint_store is not None
        close = getattr(self.engine, "close", None)
        if close is not None:
            try:
                close()
            except (OSError, RuntimeError, ValueError) as exc:
                # a dead executor may fail teardown: recovery proceeds
                # (the state is gone either way), the failure stays visible
                self.teardown_errors.append(exc)
                warnings.warn(
                    f"engine teardown failed during crash recovery: {exc!r}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        delivered = list(result.snapshots)
        if self._delivered is not None:
            delivered.append(self._delivered)
        self._delivered = max(delivered, default=None)
        # latest_valid: a corrupt newest checkpoint only costs extra
        # replay (recovery falls back to an older intact image, or to a
        # from-scratch replay), never a failed or wrong run
        checkpoint = self.checkpoint_store.latest_valid()
        self.engine = _restore(self.checkpoint_store, checkpoint, **self._rebuild)
        self._resume = checkpoint
        # roll the result back to the checkpoint, which may be older than
        # the one this pipeline resumed from: the replay reproduces every
        # later sweep and snapshot exactly
        count = 0 if checkpoint is None else checkpoint.sweep_count
        del result.sweeps[max(count - self._base, 0):]
        self._base = count - len(result.sweeps)
        when = -math.inf if checkpoint is None else checkpoint.when
        for stale in [ts for ts in result.snapshots if ts > when]:
            del result.snapshots[stale]
        result.flows_processed = 0 if checkpoint is None else checkpoint.flows_processed

    def run_incremental(
        self,
        flows: "Iterable[Union[FlowRecord, FlowBatch]]",
        result: RunResult | None = None,
    ) -> Iterator[tuple[float, list[IPDRecord]]]:
        """Like :meth:`run` but yields ``(time, records)`` per snapshot.

        The stream may mix :class:`FlowRecord` items and columnar
        :class:`FlowBatch` runs; timestamps must be non-decreasing
        across and within items.  Records are chunked into batches
        first (:func:`iter_flow_batches`), so engines only ever see
        ``ingest_batch``.  A batch spanning a sweep boundary is cut at
        the boundary (binary search on its timestamp column) so "all
        ingest before each sweep tick" holds exactly as in a
        flow-by-flow replay.

        When this pipeline was built by :meth:`resume` (or is replaying
        after crash recovery), the restored cursor takes over: the first
        ``flows_processed`` rows of the stream are skipped and the
        sweep/snapshot grids continue where the checkpoint left them.
        """
        engine = self.engine
        t = engine.params.t
        every = self.checkpoint_every
        store = self.checkpoint_store
        result = result if result is not None else RunResult()
        next_sweep: float | None = None
        next_snapshot: float | None = None
        next_checkpoint: float | None = None
        last_time: float | None = None
        resume, self._resume = self._resume, None
        skip = 0
        if resume is not None:
            skip = resume.flows_processed
            next_sweep = resume.next_sweep
            next_snapshot = resume.next_snapshot
            result.flows_processed = resume.flows_processed
            if store is not None:
                # the checkpointed tick was next_sweep - t; continue the
                # grid strictly after it (that tick is already on disk)
                next_checkpoint = (int((resume.next_sweep - t) // every) + 1) * every

        def _boundary(when: float) -> Iterator[tuple[float, list[IPDRecord]]]:
            # advance sweep/snapshot/checkpoint grids up to `when`
            nonlocal next_sweep, next_snapshot, next_checkpoint
            # callers align the grids at the first flow before boundaries
            assert next_sweep is not None
            sweep_at = next_sweep
            while when >= sweep_at:
                self._tick(sweep_at, result)
                if next_snapshot is not None and sweep_at >= next_snapshot:
                    yield sweep_at, self._emit(sweep_at, result)
                    next_snapshot += self.snapshot_seconds
                if next_checkpoint is not None and sweep_at >= next_checkpoint:
                    # post-sweep barrier: the image is consistent (all
                    # ingest before the tick applied, the sweep settled)
                    self._save_checkpoint(sweep_at, result, next_snapshot)
                    while next_checkpoint <= sweep_at:
                        next_checkpoint += every
                sweep_at += t
                next_sweep = sweep_at

        for item in iter_flow_batches(flows):
            timestamps = item.timestamps
            if not len(timestamps):
                continue
            if skip:
                rows = len(timestamps)
                if rows <= skip:
                    skip -= rows
                    continue
                item = item.slice(skip, rows)
                timestamps = item.timestamps
                skip = 0
            # NaN passes every ``<`` test below and never expires; +-inf
            # breaks the grids: reject the batch before any row is ingested
            broken = np.flatnonzero(~np.isfinite(timestamps))
            if broken.size:
                raise ValueError(
                    f"flow stream row {result.flows_processed + int(broken[0])}: "
                    f"timestamp {timestamps[broken[0]]} is not finite"
                )
            first_time = float(timestamps[0])
            # each row against the one before it, the first against the
            # previous batch's last
            previous = np.concatenate(
                ([first_time if last_time is None else last_time], timestamps[:-1])
            )
            late = np.flatnonzero(timestamps < previous - 1e-9)
            if late.size:
                raise ValueError(
                    "flow stream is not time-ordered: "
                    f"{timestamps[late[0]]} after {previous[late[0]]}"
                )
            last_time = float(timestamps[-1])
            if next_sweep is None:
                # Align sweep/snapshot grids to the trace start.
                next_sweep = (int(first_time // t) + 1) * t
                next_snapshot = (
                    int(first_time // self.snapshot_seconds) + 1
                ) * self.snapshot_seconds
                if store is not None:
                    next_checkpoint = (int(first_time // every) + 1) * every
            start = 0
            total = len(timestamps)
            while start < total:
                yield from _boundary(float(timestamps[start]))
                end = start + int(
                    np.searchsorted(timestamps[start:], next_sweep, side="left")
                )
                if start == 0 and end == total:
                    engine.ingest_batch(item)
                else:
                    engine.ingest_batch(item.slice(start, end))
                result.flows_processed += end - start
                start = end

        if last_time is not None and next_sweep is not None:
            # Close the final bucket.
            self._tick(next_sweep, result)
            yield next_sweep, self._emit(next_sweep, result)
            if store is not None:
                self._save_checkpoint(next_sweep, result, next_snapshot)
        elif resume is not None:
            # The checkpoint already covers the entire stream (it was
            # saved at the closing tick): nothing to replay, but the
            # resumed run still yields the final mapping.  No sweep —
            # the checkpointed image is already post-final-sweep.
            when = resume.next_sweep - t
            yield when, self._emit(when, result)

    def _tick(self, when: float, result: RunResult) -> None:
        report = self.engine.sweep(when)
        result.sweeps.append(report)
        if self.on_sweep is not None:
            self.on_sweep(report, self.engine)

    def _save_checkpoint(
        self, when: float, result: RunResult, next_snapshot: Optional[float]
    ) -> None:
        """Save the post-sweep image of the tick at *when*."""
        assert self.checkpoint_store is not None
        self.checkpoint_store.save(
            Checkpoint(
                when=when,
                flows_processed=result.flows_processed,
                next_sweep=when + self.engine.params.t,
                next_snapshot=next_snapshot,
                sweep_count=self._base + len(result.sweeps),
                engine_blob=self.engine.to_bytes(),
            )
        )

    def _emit(self, when: float, result: RunResult) -> list[IPDRecord]:
        records = self.engine.snapshot(
            when, include_unclassified=self.include_unclassified
        )
        result.snapshots[when] = records
        if self._delivered is None or when > self._delivered:
            self._epoch += 1
            snapshot = Snapshot(
                when, records, epoch=self._epoch, source="pipeline"
            )
            for sink in self.sinks:
                sink.emit(snapshot)
        return records

    # ------------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Flush sinks and shut down executor workers (idempotent).

        Sinks are closed exactly once per pipeline, whichever path gets
        here first — normal teardown, the context-manager exit, or an
        explicit close after crash recovery; :meth:`Sink.close` is
        itself idempotent as a second line of defense.
        """
        if not self._sinks_closed:
            self._sinks_closed = True
            for sink in self.sinks:
                sink.close()
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
