"""Evaluators for the adversarial scenario pack (DESIGN.md §14).

Each evaluator consumes a :class:`~repro.runtime.result.RunResult` plus
the generator-side :class:`~repro.workloads.adversarial.AdversarialGroundTruth`
and reduces it to one typed report:

* :func:`pollution_report` — how much of the classified output a flood
  smuggled in (classified ranges outside the benign address plan).
* :func:`state_blowup` — peak trie growth of an attacked run over its
  attack-free baseline twin.
* :func:`clip_survival` — whether policed elephants kept their ingress
  classification through the clip window.
* :func:`flap_survival` — per flap period, the share of storm snapshots
  where the flapped prefix stayed classified: the decay function's
  stability envelope.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..core.iputil import Prefix
from ..core.output import IPDRecord
from ..runtime.result import RunResult
from ..workloads.adversarial import AdversarialGroundTruth
from ..workloads.events import PolicingEvent, RouteFlapEvent

__all__ = [
    "BenignFlips",
    "ClipSurvival",
    "FlapSurvivalPoint",
    "PollutionReport",
    "StateBlowup",
    "benign_flips",
    "clip_survival",
    "flap_survival",
    "peak_pollution",
    "pollution_report",
    "state_blowup",
]


# -- flood: classification pollution -------------------------------------------


@dataclass(frozen=True)
class PollutionReport:
    """Classified output attributable to spoofed sources.

    A classified range *pollutes* the map when it lies entirely outside
    the benign address plan — only spoofed traffic can have built it.
    Ranges overlapping the plan are counted as benign even during an
    attack (a coarse range covering both spaces is dominated by real
    traffic's structure).
    """

    snapshot_time: float
    classified: int
    benign: int
    polluted: int

    @property
    def pollution_rate(self) -> float:
        return self.polluted / self.classified if self.classified else 0.0


def pollution_report(
    records: Iterable[IPDRecord],
    benign_prefixes: Sequence[Prefix],
    snapshot_time: float = 0.0,
) -> PollutionReport:
    """Classify one snapshot's records as plan-backed or flood-built."""
    intervals = _merged_intervals(benign_prefixes)
    classified = benign = polluted = 0
    for record in records:
        if not record.classified:
            continue
        classified += 1
        if _overlaps(intervals, record.range):
            benign += 1
        else:
            polluted += 1
    return PollutionReport(
        snapshot_time=snapshot_time,
        classified=classified,
        benign=benign,
        polluted=polluted,
    )


def peak_pollution(
    result: RunResult,
    ground_truth: AdversarialGroundTruth,
    slack_seconds: float = 300.0,
) -> PollutionReport:
    """The worst pollution snapshot inside the attack window.

    Flood state expires with ``e`` once the attack stops, so end-of-run
    snapshots understate pollution; the bound is about the worst moment.
    *slack_seconds* extends the window to catch the sweep right after
    the flood's last flows.  Snapshots are ranked by polluted *count*
    first (rate only breaks ties): early attack sweeps classify a
    handful of ranges and a 5-of-14 moment would otherwise outrank the
    fully developed 9-of-98 one.
    """
    times = result.snapshot_times()
    window = ground_truth.attack_window or (
        min(times, default=0.0),
        max(times, default=0.0),
    )
    reports = [
        pollution_report(
            result.snapshots[when], ground_truth.benign_prefixes, when
        )
        for when in times
        if window[0] <= when <= window[1] + slack_seconds
    ]
    if not reports:
        return PollutionReport(snapshot_time=0.0, classified=0, benign=0, polluted=0)
    return max(
        reports, key=lambda r: (r.polluted, r.pollution_rate, r.snapshot_time)
    )


@dataclass(frozen=True)
class BenignFlips:
    """Benign blocks whose classified ingress the attack changed.

    Each benign block is probed in the baseline and the attacked run's
    final snapshots; a *flip* is a block classified in both whose
    ingress differs — the flood stole a real range's classification.
    """

    probed: int
    both_classified: int
    flipped: int

    @property
    def flip_rate(self) -> float:
        return self.flipped / self.both_classified if self.both_classified else 0.0


def benign_flips(
    baseline_records: Sequence[IPDRecord],
    attacked_records: Sequence[IPDRecord],
    benign_prefixes: Sequence[Prefix],
) -> BenignFlips:
    """Compare benign-space classification between two final snapshots."""
    both = flipped = 0
    for block in benign_prefixes:
        before = _lookup_ingress(baseline_records, block)
        after = _lookup_ingress(attacked_records, block)
        if before is None or after is None:
            continue
        both += 1
        if before != after:
            flipped += 1
    return BenignFlips(
        probed=len(benign_prefixes), both_classified=both, flipped=flipped
    )


# -- flood: state blow-up ------------------------------------------------------


@dataclass(frozen=True)
class StateBlowup:
    """Peak trie size of an attacked run over its baseline twin."""

    baseline_peak_leaves: int
    attacked_peak_leaves: int

    @property
    def factor(self) -> float:
        if self.baseline_peak_leaves == 0:
            return float(self.attacked_peak_leaves > 0)
        return self.attacked_peak_leaves / self.baseline_peak_leaves


def state_blowup(baseline: RunResult, attacked: RunResult) -> StateBlowup:
    """Compare peak leaf counts across two runs of the same benign stream."""
    return StateBlowup(
        baseline_peak_leaves=_peak_leaves(baseline),
        attacked_peak_leaves=_peak_leaves(attacked),
    )


def _peak_leaves(result: RunResult) -> int:
    return max((report.leaves for report in result.sweeps), default=0)


# -- policing: classification survival -----------------------------------------


@dataclass(frozen=True)
class ClipSurvival:
    """Did one policed prefix keep its classification through the clip?"""

    prefix: str
    window: tuple[float, float]
    #: ingress classified immediately before the clip (None: never seen)
    ingress_before: Optional[str]
    snapshots: int
    classified: int
    #: snapshots whose classified ingress differs from *ingress_before*
    ingress_changes: int

    @property
    def classified_share(self) -> float:
        return self.classified / self.snapshots if self.snapshots else 0.0

    @property
    def survived(self) -> bool:
        """Classified throughout the clip window, ingress unchanged."""
        return (
            self.ingress_before is not None
            and self.snapshots > 0
            and self.classified == self.snapshots
            and self.ingress_changes == 0
        )


def clip_survival(
    result: RunResult,
    ground_truth: AdversarialGroundTruth,
) -> list[ClipSurvival]:
    """Survival verdict per policing event in the ground truth."""
    times = result.snapshot_times()
    out: list[ClipSurvival] = []
    for event in ground_truth.clipped:
        before = _classified_ingress_before(result, times, event.prefix, event.start)
        window_times = [t for t in times if event.start <= t < event.end]
        classified = changes = 0
        for when in window_times:
            ingress = _lookup_ingress(result.snapshots[when], event.prefix)
            if ingress is None:
                continue
            classified += 1
            if before is not None and ingress != before:
                changes += 1
        out.append(
            ClipSurvival(
                prefix=str(event.prefix),
                window=(event.start, event.end),
                ingress_before=before,
                snapshots=len(window_times),
                classified=classified,
                ingress_changes=changes,
            )
        )
    return out


# -- route flaps: decay stability envelope -------------------------------------


@dataclass(frozen=True)
class FlapSurvivalPoint:
    """One point of the flap-survival curve: period vs. classified share."""

    prefix: str
    period_seconds: float
    snapshots: int
    classified: int
    #: distinct ingresses the prefix was classified at during the storm
    ingresses_seen: tuple[str, ...]

    @property
    def classified_share(self) -> float:
        return self.classified / self.snapshots if self.snapshots else 0.0

    def stable(self, threshold: float = 0.9) -> bool:
        return self.snapshots > 0 and self.classified_share >= threshold


def flap_survival(
    result: RunResult,
    ground_truth: AdversarialGroundTruth,
    settle_seconds: float = 300.0,
) -> list[FlapSurvivalPoint]:
    """The survival curve, one point per flap event, sorted by period.

    Snapshots inside the first *settle_seconds* of the storm are
    skipped: every period pays the same reconvergence cost once, the
    envelope is about the steady state under continued flapping.
    """
    times = result.snapshot_times()
    points: list[FlapSurvivalPoint] = []
    for event in sorted(ground_truth.flaps, key=lambda e: e.period_seconds):
        window_times = [
            t for t in times if event.start + settle_seconds <= t < event.end
        ]
        classified = 0
        seen: list[str] = []
        for when in window_times:
            ingress = _lookup_ingress(result.snapshots[when], event.prefix)
            if ingress is None:
                continue
            classified += 1
            if ingress not in seen:
                seen.append(ingress)
        points.append(
            FlapSurvivalPoint(
                prefix=str(event.prefix),
                period_seconds=event.period_seconds,
                snapshots=len(window_times),
                classified=classified,
                ingresses_seen=tuple(seen),
            )
        )
    return points


# -- shared internals ----------------------------------------------------------


def _merged_intervals(
    prefixes: Sequence[Prefix],
) -> dict[int, list[tuple[int, int]]]:
    """Per-family sorted, merged (first, last) address intervals."""
    by_version: dict[int, list[tuple[int, int]]] = {}
    for prefix in prefixes:
        by_version.setdefault(prefix.version, []).append(
            (prefix.value, prefix.last_value)
        )
    for version, intervals in by_version.items():
        intervals.sort()
        merged: list[tuple[int, int]] = []
        for first, last in intervals:
            if merged and first <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], last))
            else:
                merged.append((first, last))
        by_version[version] = merged
    return by_version


def _overlaps(
    intervals: dict[int, list[tuple[int, int]]], prefix: Prefix
) -> bool:
    """Does *prefix* overlap any benign interval of its family?"""
    family = intervals.get(prefix.version)
    if not family:
        return False
    first, last = prefix.value, prefix.last_value
    index = bisect_right(family, (first, first))
    if index < len(family) and family[index][0] <= last:
        return True
    return index > 0 and family[index - 1][1] >= first


def _lookup_ingress(
    records: Sequence[IPDRecord], prefix: Prefix
) -> Optional[str]:
    """LPM over one snapshot at the prefix's representative address.

    Returns the classified ingress covering the middle of *prefix* (the
    most specific classified range containing it), or ``None`` when the
    prefix is currently unclassified.
    """
    probe = prefix.value + prefix.num_addresses // 2
    best: Optional[IPDRecord] = None
    for record in records:
        if not record.classified or record.range.version != prefix.version:
            continue
        if not record.range.contains_ip(probe):
            continue
        if best is None or record.range.masklen > best.range.masklen:
            best = record
    return None if best is None else str(best.ingress)


def _classified_ingress_before(
    result: RunResult,
    times: Sequence[float],
    prefix: Prefix,
    when: float,
) -> Optional[str]:
    """The prefix's classified ingress at the last snapshot before *when*."""
    for snapshot_time in reversed([t for t in times if t < when]):
        ingress = _lookup_ingress(result.snapshots[snapshot_time], prefix)
        if ingress is not None:
            return ingress
    return None
