"""Wall-clock runtime: the deployment's two-thread layout over one engine.

:class:`LivePipeline` runs Stage 1 in a consumer thread fed through
:meth:`submit` / :meth:`submit_batch` and Stage 2 in a timer thread
every ``sweep_interval`` wall-clock seconds (§3.2, §5.7).  A single lock
serializes engine access — the deployment similarly runs Stage 2
single-threaded.  The engine is one plain
:class:`~repro.core.algorithm.IPD`, as in the paper's deployment: one
central process fed by per-router readers.

``stop()`` guarantees *no submitted flow is lost*: after the worker
threads exit, anything still sitting in the ingest queue — items that
raced the stop sentinel, or everything when the runtime was never
started — is drained into the engine before the final sweep.

With a checkpoint store attached, the sweep thread persists the engine
image after a sweep every ``checkpoint_every`` wall-clock seconds, and
``stop()`` saves a final image after the closing sweep — the live
analogue of the offline pipeline's sweep-tick barrier (state is only
ever saved under the lock, right after a sweep, so the image is a
consistent post-sweep one).  :meth:`LivePipeline.resume` restores the
latest image into a fresh runtime through the offline pipeline's one
restore step, and the ``sweep_count`` it saves counts from the run's
start, across resumes.
"""

from __future__ import annotations

import queue
import threading
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ..core.algorithm import IPD, SweepReport
from ..core.output import IPDRecord
from ..core.params import IPDParams
from ..netflow.records import FlowBatch, FlowRecord, iter_flow_batches
from .checkpoint import Checkpoint, CheckpointStore
from .pipeline import Pipeline

__all__ = ["LivePipeline", "PipelineStateError"]


class PipelineStateError(RuntimeError):
    """Lifecycle misuse of a live runtime (e.g. ``start()`` twice)."""


class LivePipeline:
    """Live (wall-clock) IPD: ingest queue + periodic sweep thread."""

    def __init__(
        self,
        params: IPDParams | None = None,
        sweep_interval: float = 1.0,
        clock: Callable[[], float] | None = None,
        engine: Optional[IPD] = None,
        checkpoint_store: "CheckpointStore | str | Path | None" = None,
        checkpoint_every: Optional[float] = None,
    ) -> None:
        self.engine = engine if engine is not None else IPD(params)
        self.sweep_interval = sweep_interval
        if checkpoint_store is not None and not isinstance(
            checkpoint_store, CheckpointStore
        ):
            checkpoint_store = CheckpointStore(checkpoint_store)
        self.checkpoint_store = checkpoint_store
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        #: wall-clock seconds between periodic saves; None saves only on stop
        self.checkpoint_every = checkpoint_every
        # the one legitimate wall-clock read: the injectable default of
        # the live runtime's clock seam (tests substitute a fake clock)
        self._clock = clock or time.monotonic  # ipd-lint: disable=IPD001
        self._next_checkpoint: float | None = None
        self._queue: "queue.Queue[FlowRecord | FlowBatch | None]" = queue.Queue(
            maxsize=100_000
        )
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._ingest_thread: threading.Thread | None = None
        self._sweep_thread: threading.Thread | None = None
        self.sweep_reports: list[SweepReport] = []
        #: sweeps the run made before this runtime's first: a saved
        #: ``sweep_count`` counts from the run's start, across resumes
        self._base = 0

    @classmethod
    def resume(
        cls,
        checkpoint_store: "CheckpointStore | str | Path",
        params: IPDParams | None = None,
        **kwargs: object,
    ) -> "LivePipeline":
        """Restore the latest checkpoint into a fresh live runtime, warm
        instead of paying a cold re-convergence: :meth:`Pipeline.resume`
        restores it, and the sweep count continues from the checkpoint's.
        """
        offline = Pipeline.resume(checkpoint_store, params=params)
        live = cls(
            engine=offline.engine,
            checkpoint_store=offline.checkpoint_store,
            **kwargs,
        )
        live._base = offline._base
        return live

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        if self._ingest_thread is not None:
            raise PipelineStateError("already started")
        self._ingest_thread = threading.Thread(
            target=self._ingest_loop, name="ipd-stage1", daemon=True
        )
        self._sweep_thread = threading.Thread(
            target=self._sweep_loop, name="ipd-stage2", daemon=True
        )
        self._ingest_thread.start()
        self._sweep_thread.start()

    def stop(self) -> None:
        """Drain the queue, stop both threads, run one final sweep.

        Every flow accepted by :meth:`submit` / :meth:`submit_batch` is
        ingested before the final sweep — including flows that were
        enqueued after the stop sentinel and flows submitted without
        :meth:`start` ever being called.
        """
        self._queue.put(None)
        if self._ingest_thread is not None:
            self._ingest_thread.join()
        self._stop.set()
        if self._sweep_thread is not None:
            self._sweep_thread.join()
        # a pass that ends at a stop sentinel (ours or a repeated
        # stop's) may have left items behind it: go again until empty
        while not self._drain(block=False):
            pass
        with self._lock:
            now = self._clock()
            self.sweep_reports.append(self.engine.sweep(now))
            if self.checkpoint_store is not None:
                self._save_checkpoint(now)

    # ------------------------------------------------------------------ stage 1

    def submit(self, flow: FlowRecord) -> None:
        """Enqueue one flow for Stage-1 ingestion.

        The flow is re-stamped with the live clock so that expiry and
        decay operate on a single time base (the trace clock of a
        replayed file would otherwise disagree with the sweep thread's
        wall clock).
        """
        self._queue.put(flow.with_timestamp(self._clock()))

    def submit_batch(self, batch: FlowBatch) -> None:
        """Enqueue a columnar batch for Stage-1 ingestion, re-stamped
        with the live clock like :meth:`submit`.

        One queue item per batch: the consumer hands it to
        ``ingest_batch`` as is, in submit order with any records around it.
        """
        self._queue.put(
            FlowBatch(
                batch.version,
                np.full(len(batch), self._clock()),
                batch.src_ips,
                batch.ingress_ids,
                batch.packet_counts,
                batch.byte_counts,
                batch.dst_ips,
                batch.ingress_table,
            )
        )

    def _drain(self, block: bool) -> bool:
        """Ingest everything queued right now; False at the stop sentinel.

        Records that piled up since the last wake-up are coalesced into
        batches in submit order (:func:`iter_flow_batches`; submitted
        batches pass through in place), so the engine only ever sees
        ``ingest_batch``; the lock is taken per batch, not per record.
        """
        items: "list[FlowRecord | FlowBatch]" = []
        running = True
        try:
            item = self._queue.get(block)
            while item is not None:
                items.append(item)
                item = self._queue.get_nowait()
            running = False
        except queue.Empty:
            pass
        for batch in iter_flow_batches(items):
            with self._lock:
                self.engine.ingest_batch(batch)
        return running

    # ------------------------------------------------------------------ output

    def snapshot(self, include_unclassified: bool = False) -> list[IPDRecord]:
        with self._lock:
            return self.engine.snapshot(
                self._clock(), include_unclassified=include_unclassified
            )

    # ------------------------------------------------------------------ threads

    def _ingest_loop(self) -> None:
        while self._drain(block=True):
            pass

    def _sweep_loop(self) -> None:
        while not self._stop.wait(self.sweep_interval):
            with self._lock:
                now = self._clock()
                self.sweep_reports.append(self.engine.sweep(now))
                if (
                    self.checkpoint_store is not None
                    and self.checkpoint_every is not None
                ):
                    if self._next_checkpoint is None:
                        self._next_checkpoint = now + self.checkpoint_every
                    elif now >= self._next_checkpoint:
                        self._save_checkpoint(now)
                        self._next_checkpoint = now + self.checkpoint_every

    def _save_checkpoint(self, now: float) -> None:
        """Persist a post-sweep image (caller holds the engine lock)."""
        assert self.checkpoint_store is not None
        self.checkpoint_store.save(
            Checkpoint(
                when=now,
                flows_processed=self.engine.flows_ingested,
                next_sweep=now + self.sweep_interval,
                next_snapshot=None,
                sweep_count=self._base + len(self.sweep_reports),
                engine_blob=self.engine.to_bytes(),
            )
        )
