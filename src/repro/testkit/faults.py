"""Deterministic fault injection for the runtime — the chaos harness.

A :class:`FaultPlan` is a seeded, reproducible schedule of failures.  It
enters a :class:`~repro.runtime.pipeline.Pipeline` through the doors the
pipeline already has; the runtime carries no fault code of its own:

====================  ===================================================
site                  where it enters
====================  ===================================================
``sketch_saturate``   ``on_sweep=plan.on_sweep``, after every sweep: the
                      engine's admission gate is forced to saturation,
                      so it must degrade to admit-everything (a no-op
                      when admission is off)
``worker_crash``      ``on_sweep=plan.on_sweep``, after every sweep (and
                      after ``sketch_saturate``): kills the mp worker
                      ``arg % workers``, whose crash surfaces as the
                      executor's :class:`WorkerCrashError` on its next
                      command, or raises that error for an in-process
                      engine
``sink_error``        ``sinks=[FaultySink(plan)]``: raises
                      :class:`InjectedSinkError` at its Nth emit
``checkpoint_...``    ``checkpoint_store=FaultyCheckpointStore(plan,
                      directory)``: the file a save has just written is
                      truncated to half (``checkpoint_truncate``) or has
                      bit ``arg`` flipped (``checkpoint_bitflip``)
====================  ===================================================

Faults are **one-shot**: each fires at the Nth occurrence of its site
(0-based) and is then spent, so a recovery replay that passes the same
site again does not re-crash forever.  The invariant the chaos suite
banks on: every run either equals the undisturbed run or dies with a
typed, documented exception.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from ..core.snapshot import Snapshot
from ..runtime.checkpoint import Checkpoint, CheckpointStore
from ..runtime.executors import WorkerCrashError
from ..runtime.sinks import Sink

if TYPE_CHECKING:
    from ..core.algorithm import SweepReport
    from ..runtime.sharding import Engine

__all__ = [
    "FAULT_SITES",
    "Fault",
    "FaultPlan",
    "FaultyCheckpointStore",
    "FaultySink",
    "InjectedSinkError",
]

FAULT_SITES = (
    "worker_crash",
    "checkpoint_truncate",
    "checkpoint_bitflip",
    "sink_error",
    "sketch_saturate",
)


class InjectedSinkError(RuntimeError):
    """Raised by the ``sink_error`` site in place of a real I/O failure."""


@dataclass(frozen=True)
class Fault:
    """One scheduled failure: fire at the *at*-th occurrence of *site*.

    ``arg`` parameterizes the failure: the worker slot to kill for
    ``worker_crash`` under an mp executor, the bit index to flip for
    ``checkpoint_bitflip``.
    """

    site: str
    at: int
    arg: int = 0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of {FAULT_SITES}"
            )
        if self.at < 0:
            raise ValueError("fault occurrence index must be >= 0")


class FaultPlan:
    """A deterministic schedule of faults, consulted at the sites above.

    Build one explicitly from :class:`Fault` entries, or draw a random
    (but fully seed-determined) plan with :meth:`generate`.  Sites whose
    door the run does not use simply never fire.

    The plan records every fault that actually fired in :attr:`fired`
    (as ``(site, occurrence)`` pairs, in firing order) so a test can
    decide post-hoc what outcome the run was required to have.
    """

    def __init__(self, faults: "tuple[Fault, ...] | list[Fault]" = ()) -> None:
        self.faults = tuple(faults)
        self._pending: dict[str, dict[int, Fault]] = {}
        for fault in self.faults:
            slot = self._pending.setdefault(fault.site, {})
            if fault.at in slot:
                raise ValueError(
                    f"duplicate fault at {fault.site}[{fault.at}]"
                )
            slot[fault.at] = fault
        self._counters: dict[str, int] = {}
        self.fired: list[tuple[str, int]] = []

    @classmethod
    def generate(
        cls, seed: int, ticks: int, max_faults: int = 3
    ) -> "FaultPlan":
        """A random plan for a run of roughly *ticks* sweep ticks.

        Fully determined by *seed*; the same seed always yields the same
        plan, so any chaos failure reproduces from its logged seed.
        """
        rng = random.Random(seed)
        faults: list[Fault] = []
        used: set[tuple[str, int]] = set()
        for __ in range(rng.randint(1, max_faults)):
            site = rng.choice(FAULT_SITES)
            if site == "worker_crash":
                at = rng.randint(1, max(1, ticks - 1))
            else:
                at = rng.randrange(max(1, ticks))
            if (site, at) in used:
                continue
            used.add((site, at))
            faults.append(Fault(site=site, at=at, arg=rng.randrange(64)))
        return cls(faults)

    def describe(self) -> str:
        return " ".join(
            f"{fault.site}@{fault.at}" for fault in self.faults
        ) or "(no faults)"

    def _take(self, site: str) -> Optional[Fault]:
        """Advance *site*'s occurrence counter; pop a due one-shot fault."""
        occurrence = self._counters.get(site, 0)
        self._counters[site] = occurrence + 1
        fault = self._pending.get(site, {}).pop(occurrence, None)
        if fault is not None:
            self.fired.append((site, occurrence))
        return fault

    def on_sweep(self, report: "SweepReport", engine: "Engine") -> None:
        """The ``sketch_saturate`` and ``worker_crash`` sites, as a
        pipeline's ``on_sweep`` observer (plain or sharded engine)."""
        saturate = self._take("sketch_saturate")
        if saturate is not None and engine.admission is not None:
            engine.admission.saturate()
        fault = self._take("worker_crash")
        if fault is None:
            return
        processes = getattr(getattr(engine, "_executor", None), "_processes", ())
        if processes:
            process = processes[fault.arg % len(processes)]
            process.kill()
            process.join()
            return
        raise WorkerCrashError(
            f"injected worker crash after the sweep at {report.timestamp} "
            f"({self.describe()})"
        )


class FaultySink(Sink):
    """The ``sink_error`` site: raises :class:`InjectedSinkError` at the
    plan's due emit, and otherwise drops what it is sent."""

    def __init__(self, plan: FaultPlan) -> None:
        super().__init__()
        self.plan = plan

    def emit(self, snapshot: Snapshot) -> None:
        if self.plan._take("sink_error") is not None:
            raise InjectedSinkError(
                f"injected sink write error at snapshot {snapshot.when}"
            )


class FaultyCheckpointStore(CheckpointStore):
    """The ``checkpoint_truncate`` / ``checkpoint_bitflip`` sites: a
    store whose due saves damage the file they have just written."""

    def __init__(
        self, plan: FaultPlan, directory: Union[str, Path], retain: int = 3
    ) -> None:
        super().__init__(directory, retain)
        self.plan = plan

    def save(self, checkpoint: Checkpoint) -> Path:
        path = super().save(checkpoint)
        truncate = self.plan._take("checkpoint_truncate")
        bitflip = self.plan._take("checkpoint_bitflip")
        if truncate is None and bitflip is None:
            return path
        data = bytearray(path.read_bytes())
        if truncate is not None and len(data) > 1:
            del data[max(1, len(data) // 2):]
        if bitflip is not None and data:
            position = bitflip.arg % (len(data) * 8)
            data[position // 8] ^= 1 << (position % 8)
        path.write_bytes(data)
        return path
