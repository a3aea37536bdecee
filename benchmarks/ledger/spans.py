"""Spans recorded around the calls into each layer, from outside.

The traced pass of the ledger wraps the three things a
:class:`~repro.runtime.pipeline.Pipeline` is handed — its source, its
engine and its sinks (plus the checkpoint store) — in proxies that
record one :class:`Span` per call.  Nothing inside ``src/`` is touched:
the proxies sit on the benchmark's side of every layer boundary, so a
span covers exactly what the pipeline spends inside that layer.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; the self times of one run sum to the
root span's wall by construction, which the traced pass asserts.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import IO, Any, Iterable, Iterator, Optional

from repro.runtime.checkpoint import Checkpoint, CheckpointStore
from repro.runtime.sinks import Sink

__all__ = [
    "Span",
    "Tracer",
    "TimedCheckpointStore",
    "TimedEngine",
    "TimedSink",
    "TimedSource",
    "self_times",
    "write_jsonl",
]


@dataclass
class Span:
    """One timed call: ``[start, end)`` seconds on the perf counter."""

    name: str
    start: float
    end: float
    #: index of the enclosing span in the tracer's list (None = root)
    parent: Optional[int]
    #: shared by every span of one (workload, repeat)
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span list with a stack for parent links."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._open.pop()


class TimedSource:
    """Iterator proxy: one span per ``next()`` on the flow source."""

    def __init__(self, source: Iterable[Any], tracer: Tracer, name: str) -> None:
        self._inner = iter(source)
        self._tracer = tracer
        self._name = name

    def __iter__(self) -> "TimedSource":
        return self

    def __next__(self) -> Any:
        with self._tracer.span(self._name):
            return next(self._inner)


class TimedEngine:
    """Engine proxy for ``Pipeline(engine=…)``: spans per engine call.

    *layer* prefixes the span names (``algorithm`` for a plain engine,
    ``sharding`` for the sharded coordinator, whose spans then cover the
    router, the batch encode, the transport and the sweep barrier as
    seen from the parent).  Everything else falls through to the engine.
    """

    def __init__(self, engine: Any, tracer: Tracer, layer: str) -> None:
        self._engine = engine
        self._tracer = tracer
        self._layer = layer

    def __getattr__(self, name: str) -> Any:
        return getattr(self._engine, name)

    def ingest_batch(self, batch: Any) -> int:
        with self._tracer.span(f"{self._layer}.ingest"):
            return self._engine.ingest_batch(batch)

    def sweep(self, now: float) -> Any:
        with self._tracer.span(f"{self._layer}.sweep"):
            return self._engine.sweep(now)

    def snapshot(self, now: float, include_unclassified: bool = False) -> Any:
        with self._tracer.span(f"{self._layer}.snapshot"):
            return self._engine.snapshot(
                now, include_unclassified=include_unclassified
            )

    def to_bytes(self) -> bytes:
        with self._tracer.span("statecodec.encode"):
            return self._engine.to_bytes()


class TimedSink(Sink):
    """Sink proxy: spans around ``emit`` and the one real ``close``."""

    def __init__(self, inner: Sink, tracer: Tracer) -> None:
        super().__init__()
        self.inner = inner
        self._tracer = tracer

    def emit(self, snapshot: Any) -> None:
        with self._tracer.span("sinks.emit"):
            self.inner.emit(snapshot)

    def _close(self) -> None:
        with self._tracer.span("sinks.close"):
            self.inner.close()


class TimedCheckpointStore(CheckpointStore):
    """A real store whose ``save`` (container encode, fsync, prune) is a span."""

    def __init__(self, directory: Any, tracer: Tracer) -> None:
        super().__init__(directory)
        self._tracer = tracer

    def save(self, checkpoint: Checkpoint) -> Any:
        with self._tracer.span("checkpoint.save"):
            return super().save(checkpoint)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of *intervals* (they may overlap)."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` (Σ duration), ``self_s``.

    Self time is the span minus the interval its direct children cover,
    children clipped to the parent and overlapping children counted
    once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children[span.parent].append((start, end))
    table: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        row = table.setdefault(
            span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["busy_s"] += span.duration
        row["self_s"] += span.duration - _covered(children.get(index, []))
    return table


def write_jsonl(spans: Iterable[Span], stream: IO[str]) -> None:
    for span in spans:
        stream.write(json.dumps(asdict(span)) + "\n")
