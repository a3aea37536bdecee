"""Merging per-router flow streams into one time-ordered feed.

The deployment server runs one reader process per exporting router and a
single central IPD process (§5.7).  This module plays the role of those
reader processes: it merges many per-router streams — each individually
(roughly) time-ordered but mutually unsynchronized — into one stream
ordered by timestamp, ready for :class:`~repro.netflow.statstime.StatisticalTime`
or direct IPD ingestion.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from .records import FlowRecord

__all__ = ["merge_streams", "FlowCollector"]


def merge_streams(streams: Iterable[Iterable[FlowRecord]]) -> Iterator[FlowRecord]:
    """K-way merge of per-router streams by timestamp.

    Each input stream must be internally non-decreasing in time; the
    output is then globally non-decreasing.  Ties are broken by stream
    arrival order, which keeps the merge stable and deterministic.
    """
    return heapq.merge(
        *streams, key=lambda flow: flow.timestamp
    )


class FlowCollector:
    """Accumulates flows from many exporters and replays them in order.

    Unlike :func:`merge_streams`, the collector accepts *unordered*
    pushes (simulating UDP export arrival jitter) and sorts on drain.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, FlowRecord]] = []
        self._counter = 0
        self.received = 0

    def push(self, flow: FlowRecord) -> None:
        """Accept one exported record."""
        self._counter += 1
        self.received += 1
        heapq.heappush(self._heap, (flow.timestamp, self._counter, flow))

    def extend(self, flows: Iterable[FlowRecord]) -> None:
        for flow in flows:
            self.push(flow)

    def drain_until(self, timestamp: float) -> Iterator[FlowRecord]:
        """Yield all buffered flows with ``timestamp < timestamp`` in order."""
        heap = self._heap
        while heap and heap[0][0] < timestamp:
            __, __, flow = heapq.heappop(heap)
            yield flow

    def drain(self) -> Iterator[FlowRecord]:
        """Yield everything buffered, in timestamp order."""
        return self.drain_until(float("inf"))

    def __len__(self) -> int:
        return len(self._heap)
