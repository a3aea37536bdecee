"""Deterministic fault injection for the runtime — the chaos harness.

A :class:`FaultPlan` is a seeded, reproducible schedule of failures the
runtime consults at its named injection sites, each wired behind a
no-op hook (an attribute that defaults to ``None`` and costs one
identity check when unset):

====================  ===================================================
site                  hook location
====================  ===================================================
``worker_crash``      ``Pipeline._tick``, before every sweep, for every
                      topology
``feed_drop`` /       ``ShardedIPD.ingest_batch``, once per fed shard
``feed_duplicate``    batch — the batch is swallowed or sent twice
``checkpoint_...``    ``CheckpointStore.save`` — the serialized bytes
                      are truncated (``checkpoint_truncate``) or
                      bit-flipped (``checkpoint_bitflip``) before disk
``sink_error``        ``Pipeline._emit`` — raises
                      :class:`InjectedSinkError` before the sinks write
``sketch_saturate``   ``Pipeline._tick`` — the engine's admission
                      sketch is forced to the saturation ceiling, so
                      the front-end must degrade to admit-everything
                      (a no-op when admission is off)
====================  ===================================================

Faults are **one-shot**: each fires at the Nth occurrence of its site
(0-based) and is then spent, so a recovery replay that passes the same
site again does not re-crash forever.

Feed faults are **crash-coupled**: dropping or duplicating a batch
silently corrupts shard state, which nothing downstream can detect — so
whenever a feed fault fires, the plan arms a worker crash at the next
tick.  Recovery then rebuilds from the last checkpoint (taken strictly
before the corruption, since checkpoints are post-sweep barriers) and
replays the clean stream, turning would-be silent divergence into an
exercised recovery path.  This is the invariant the chaos suite banks
on: every run either converges to the oracle-equivalent state or dies
with a typed, documented exception.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from ..netflow.records import FlowBatch

__all__ = ["FAULT_SITES", "Fault", "FaultPlan", "InjectedSinkError"]

FAULT_SITES = (
    "worker_crash",
    "feed_drop",
    "feed_duplicate",
    "checkpoint_truncate",
    "checkpoint_bitflip",
    "sink_error",
    "sketch_saturate",
)

#: upper bound on the feed occurrence index generate() schedules faults
#: at; small traces make fewer feeds, in which case the fault simply
#: never fires (a legal, if boring, plan)
_MAX_FEED_INDEX = 24


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
    """A deterministic schedule of faults, consulted by the runtime hooks.

    Build one explicitly from :class:`Fault` entries, or draw a random
    (but fully seed-determined) plan with :meth:`generate`.  Attach it
    via ``Pipeline(..., fault_hook=plan)`` and/or
    ``CheckpointStore(..., fault_hook=plan)``; unattached sites simply
    never fire.

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
        #: set after a feed fault fires: the next tick must crash so the
        #: corrupted shard state is thrown away and replayed
        self._crash_armed = False
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
            elif site.startswith("feed_"):
                at = rng.randrange(_MAX_FEED_INDEX)
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

    # ------------------------------------------------------------------ sites

    def _take(self, site: str) -> Optional[Fault]:
        """Advance *site*'s occurrence counter; pop a due one-shot fault."""
        occurrence = self._counters.get(site, 0)
        self._counters[site] = occurrence + 1
        fault = self._pending.get(site, {}).pop(occurrence, None)
        if fault is not None:
            self.fired.append((site, occurrence))
        return fault

    def before_tick(self, executor: object, now: float) -> None:
        """``worker_crash`` site: called by ``Pipeline._tick`` before
        every sweep, with the engine's executor (``None`` for a plain
        engine).

        Under an mp executor the selected worker process is killed — the
        crash then surfaces naturally as the executor's own
        :class:`~repro.runtime.executors.WorkerCrashError` when the tick
        reply is collected.  Everywhere else the error is raised
        directly; either way the pipeline's recovery path sees the one
        documented exception type.
        """
        fault = self._take("worker_crash")
        crash = fault is not None or self._crash_armed
        if not crash:
            return
        self._crash_armed = False
        processes = getattr(executor, "_processes", None)
        if processes:
            slot = (fault.arg if fault is not None else 0) % len(processes)
            process = processes[slot]
            process.kill()
            process.join()
            return
        from ..runtime.executors import WorkerCrashError

        raise WorkerCrashError(
            f"injected worker crash at tick {now} ({self.describe()})"
        )

    def before_sweep(self, engine: object, now: float) -> None:
        """``sketch_saturate`` site: called by ``Pipeline._tick`` with
        the engine (plain or sharded) just before its sweep.

        Saturation is a *degradation*, not a failure: the admission
        front-end must fall back to admit-everything, so the run still
        converges bit-exactly to the oracle — which is exactly what the
        chaos suite asserts.  Engines without admission ignore it.
        """
        fault = self._take("sketch_saturate")
        if fault is None:
            return
        saturate = getattr(engine, "saturate_admission", None)
        if saturate is not None:
            saturate()

    def on_feed(self, index: int, batch: "FlowBatch") -> Optional[str]:
        """``feed_drop`` / ``feed_duplicate`` site: called by the sharded
        engine per fed shard batch; returns ``"drop"``, ``"duplicate"``
        or ``None``.

        Firing either arms a worker crash at the next tick (see module
        docstring) so the corruption cannot survive to the output.
        """
        drop = self._take("feed_drop")
        duplicate = self._take("feed_duplicate")
        if drop is not None:
            self._crash_armed = True
            return "drop"
        if duplicate is not None:
            self._crash_armed = True
            return "duplicate"
        return None

    def on_checkpoint_save(self, when: float, data: bytes) -> bytes:
        """``checkpoint_truncate`` / ``checkpoint_bitflip`` site: called
        by :meth:`CheckpointStore.save` with the serialized bytes."""
        truncate = self._take("checkpoint_truncate")
        bitflip = self._take("checkpoint_bitflip")
        if truncate is not None and len(data) > 1:
            data = data[: max(1, len(data) // 2)]
        if bitflip is not None and data:
            position = bitflip.arg % (len(data) * 8)
            corrupted = bytearray(data)
            corrupted[position // 8] ^= 1 << (position % 8)
            data = bytes(corrupted)
        return data

    def on_sink_emit(self, when: float) -> None:
        """``sink_error`` site: called by ``Pipeline._emit`` before the
        sinks write; raises :class:`InjectedSinkError` when due."""
        fault = self._take("sink_error")
        if fault is not None:
            raise InjectedSinkError(
                f"injected sink write error at snapshot {when}"
            )
