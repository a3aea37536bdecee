"""The compiled snapshot artifact: one emission of the pipeline.

A :class:`Snapshot` is the first-class unit flowing out of a
:class:`~repro.runtime.pipeline.Pipeline`: the Table-3 records of one
snapshot tick, the tick's trace time (the *watermark* — nothing with a
timestamp ≤ ``when`` can change it anymore), a monotonically increasing
per-run ``epoch`` number, and a lazily compiled, cached
:class:`~repro.core.lpm.CompiledLPM` per address family.

Sinks receive Snapshot objects (:mod:`repro.runtime.sinks`) and the
serving plane installs them as query epochs (:mod:`repro.serving`).
Compilation happens at most once per family per snapshot, on first
use, and the result is shared by every consumer.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .iputil import IPV4
from .lpm import CompiledLPM
from .output import IPDRecord

__all__ = ["Snapshot"]


class Snapshot:
    """Records + lazily-compiled LPM + epoch/watermark metadata."""

    __slots__ = ("when", "records", "epoch", "source", "_compiled")

    def __init__(
        self,
        when: float,
        records: Sequence[IPDRecord],
        epoch: int = 0,
        source: Optional[str] = None,
    ) -> None:
        self.when = when
        #: the Table-3 rows; treated as immutable after construction
        self.records: list[IPDRecord] = list(records)
        #: per-run emission counter (strictly increasing, never reused —
        #: a recovered run continues the original numbering)
        self.epoch = epoch
        #: optional provenance label ("pipeline", "archive", "checkpoint")
        self.source = source
        self._compiled: dict[int, CompiledLPM] = {}

    @property
    def watermark(self) -> float:
        """The snapshot's trace time: all flows ≤ this instant applied."""
        return self.when

    def families(self) -> tuple[int, ...]:
        """Address families present in the records, sorted."""
        return tuple(sorted({record.version for record in self.records}))

    def compiled(self, version: int = IPV4) -> CompiledLPM:
        """The compiled LPM for *version* (built once, then cached)."""
        table = self._compiled.get(version)
        if table is None:
            table = CompiledLPM.from_records(self.records, version=version)
            self._compiled[version] = table
        return table

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[IPDRecord]:
        return iter(self.records)

    def __repr__(self) -> str:
        return (
            f"Snapshot(when={self.when!r}, epoch={self.epoch}, "
            f"records={len(self.records)})"
        )
