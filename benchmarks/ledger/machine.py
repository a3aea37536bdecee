"""Machine-speed reference: what keeps the ledger's timings comparable.

The 2-core VM this ledger was built on flips, every few seconds,
between two speeds a factor 1.4 apart (a fixed pure-Python loop takes
36 ms or 53 ms; whole replays take 0.78 s or 1.11 s, correlation 0.89).
Raw flows/s medians of ten identical runs then spread by 27 %, which no
estimator over the repeats of one run removes: whole runs land in the
slow mode.  Dividing each sample by the speed of the machine around it
brings the spread to 5 %.

So every end-to-end *timing* is reported at reference speed: a fixed
mask-and-group loop (the one ``benchmarks/perf/run_all.py`` calibrates
its regression gate with) runs before and after each sample, on the CPU
the sample is pinned to, and the sample is scaled by
``REFERENCE_SECONDS / loop seconds``.  The loop
touches no code of the program under test, so a change to the program
cannot move it; the ledger also prints every value as measured, and the
traced pass reports ``machine.speed`` so raw and scaled figures convert.
"""

from __future__ import annotations

import os
import time
from typing import Iterable, Optional

__all__ = [
    "HOME_CPUS",
    "QUERY_CPU",
    "REFERENCE_SECONDS",
    "REPLAY_CPU",
    "Speedometer",
    "allowed_cpus",
    "loop_seconds",
    "pin",
]

#: the loop on the reference machine: this box in its fast mode
REFERENCE_SECONDS = 0.036
_OPS = 150_000


def loop_seconds() -> float:
    """Wall of one calibration loop (dict get/set on hashed int keys)."""
    started = time.perf_counter()
    grouped: dict[int, float] = {}
    get = grouped.get
    for value in range(_OPS):
        key = (value * 2654435761) & 0xFFFFFFF0
        grouped[key] = get(key, 0.0) + 1.0
    return time.perf_counter() - started


def allowed_cpus() -> list[int]:
    """CPUs this process may run on (``[0]`` where the OS cannot say)."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [0]


#: the CPUs the ledger started with, before it pinned anything
HOME_CPUS: tuple[int, ...] = tuple(allowed_cpus())


#: the core the ledger itself and single-process replays run on
REPLAY_CPU = HOME_CPUS[0]
#: the core the lookup client and its host share (the other one, where
#: there is one)
QUERY_CPU = HOME_CPUS[-1]


def pin(cpus: Iterable[int]) -> None:
    """Restrict this process (and what it forks) to *cpus*, where possible."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, set(cpus))


class Speedometer:
    """Speed of each watched CPU over each lap, relative to the reference.

    The two speeds are per vCPU, not per machine (one core can be slow
    while the other is fast), so the loop runs pinned to each CPU in
    turn and a sample is scaled by the CPU it ran on.  ``lap()`` returns
    ``{cpu: REFERENCE_SECONDS / mean(previous loop, this loop)}``: the
    speed around whatever ran in between, 1.0 on the reference machine,
    0.7 when 1.4 times slower.
    """

    def __init__(self, cpus: Iterable[int]) -> None:
        self._last = self._measure(tuple(dict.fromkeys(cpus)))
        self.laps: list[float] = []

    @staticmethod
    def _measure(cpus: Iterable[int]) -> dict[int, float]:
        home = allowed_cpus()
        seconds = {}
        try:
            for cpu in cpus:
                pin([cpu])
                seconds[cpu] = loop_seconds()
        finally:
            pin(home)
        return seconds

    def lap(self, cpus: Optional[Iterable[int]] = None) -> dict[int, float]:
        """Speeds of *cpus* (default: all watched) since their last loop."""
        now = self._measure(self._last if cpus is None else cpus)
        speeds = {
            cpu: REFERENCE_SECONDS / ((self._last[cpu] + seconds) / 2.0)
            for cpu, seconds in now.items()
        }
        self._last.update(now)
        self.laps.append(sum(speeds.values()) / len(speeds))
        return speeds
