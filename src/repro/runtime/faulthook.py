"""The fault-injection seam's structural type.

Every ``fault_hook`` in the runtime (the pipeline's and the checkpoint
store's parameters, the sharded engine's attribute) accepts any object
with this shape — in practice the testkit's
:class:`~repro.testkit.faults.FaultPlan` — and defaults to ``None`` (a
no-op; lint rule IPD006 enforces the default).  The protocol
lives here, dependency-free, so annotating the seam never couples the
runtime to the testkit.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

from ..netflow.records import FlowBatch

__all__ = ["FaultHookLike"]


@runtime_checkable
class FaultHookLike(Protocol):
    """What the runtime calls on an attached fault hook."""

    def on_feed(self, index: int, batch: FlowBatch) -> Optional[str]:
        """Sharded feed site: return a fault action name or ``None``."""

    def before_tick(self, executor: object, now: float) -> None:
        """Worker-crash site, before every sweep (``executor`` is ``None``
        for a plain engine)."""

    def before_sweep(self, engine: object, now: float) -> None:
        """Engine-level sweep site: may saturate the admission sketch."""

    def on_sink_emit(self, when: float) -> None:
        """Sink-write site: may raise to simulate a failing sink."""

    def on_checkpoint_save(self, when: float, data: bytes) -> bytes:
        """Checkpoint-save site: may corrupt or replace the image bytes."""
