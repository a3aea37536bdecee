"""Replay results: what :meth:`~repro.runtime.pipeline.Pipeline.run` returns."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.algorithm import SweepReport
from ..core.output import IPDRecord

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """Everything an offline replay produced."""

    #: snapshot timestamp -> records (Table-3 rows) at that time
    snapshots: dict[float, list[IPDRecord]] = field(default_factory=dict)
    sweeps: list[SweepReport] = field(default_factory=list)
    flows_processed: int = 0

    def snapshot_times(self) -> list[float]:
        return sorted(self.snapshots)

    def final_snapshot(self) -> list[IPDRecord]:
        if not self.snapshots:
            return []
        return self.snapshots[max(self.snapshots)]
