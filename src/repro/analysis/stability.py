"""Stability analyses: Fig. 2 (durations), Fig. 10 (longitudinal), Fig. 15.

Three related questions about the IPD output over time:

* How long does a (range -> ingress) mapping stay unchanged?  The paper
  finds 60 % of prefixes stable for less than an hour (Fig. 2), while
  *elephant* ranges — the top 1 % by sample counter — stay stable for
  months (Fig. 15).
* Longitudinally, how much of the address space mapped at a reference
  prime-time instant is still mapped (*matching*) and still mapped to
  the same ingress (*stable*) days/weeks later (Fig. 10)?  This works on
  the mapped address space directly, not on ranges, to avoid bias from
  the algorithm's dynamic re-aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from ..core.iputil import Prefix
from ..core.output import IPDRecord
from ..topology.elements import IngressPoint

__all__ = [
    "stability_durations",
    "matching_and_stable",
    "LongitudinalPoint",
    "longitudinal_series",
    "longitudinal_traffic_series",
    "clip_intervals",
    "elephant_ranges",
    "snapshot_intervals",
]


def stability_durations(
    snapshots: Mapping[float, Sequence[IPDRecord]],
    gap_tolerance: int = 0,
) -> list[float]:
    """Per-(range, ingress) stable-phase durations across snapshots.

    A stable phase of a range is a maximal run of snapshots in which the
    exact range exists classified and keeps the same assigned ingress
    (unclassified records are ignored).  A range may be absent for up to
    *gap_tolerance* consecutive snapshots without ending its phase (classification flaps around the ``n_cidr``/decay
    thresholds would otherwise fragment genuinely stable mappings).
    Returns one duration (seconds) per completed or trailing phase —
    the sample set behind the Fig. 2 / Fig. 15 CDFs.
    """
    times = sorted(snapshots)
    if len(times) < 2:
        return []
    #: range -> (ingress, phase_start, last_seen, missed_count)
    open_phases: dict[Prefix, tuple[IngressPoint, float, float, int]] = {}
    durations: list[float] = []

    for timestamp in times:
        current: dict[Prefix, IngressPoint] = {}
        for record in snapshots[timestamp]:
            if record.classified:
                current[record.range] = record.ingress

        for range_prefix, (ingress, started, last, missed) in list(
            open_phases.items()
        ):
            seen_now = current.get(range_prefix)
            if seen_now == ingress:
                open_phases[range_prefix] = (ingress, started, timestamp, 0)
            elif seen_now is None and missed < gap_tolerance:
                open_phases[range_prefix] = (ingress, started, last, missed + 1)
            else:
                durations.append(max(0.0, last - started))
                del open_phases[range_prefix]
                if seen_now is not None:
                    open_phases[range_prefix] = (
                        seen_now, timestamp, timestamp, 0
                    )
        for range_prefix, ingress in current.items():
            if range_prefix not in open_phases:
                open_phases[range_prefix] = (ingress, timestamp, timestamp, 0)

    durations.extend(
        max(0.0, last - started)
        for __, started, last, __ in open_phases.values()
    )
    return durations


def snapshot_intervals(
    records: Iterable[IPDRecord], version: int = 4
) -> list[tuple[int, int, IngressPoint]]:
    """Disjoint, sorted (start, end_exclusive, ingress) address intervals.

    IPD leaves partition the space, so classified records of a snapshot
    never overlap — making interval intersection between two snapshots
    linear.
    """
    intervals = [
        (record.range.value, record.range.value + record.range.num_addresses,
         record.ingress)
        for record in records
        if record.classified and record.version == version
    ]
    intervals.sort()
    return intervals


def clip_intervals(
    intervals: Sequence[tuple[int, int, IngressPoint]],
    allowed: Sequence[tuple[int, int]],
) -> list[tuple[int, int, IngressPoint]]:
    """Intersect sorted ingress intervals with sorted allowed spans.

    Used to restrict address-space accounting to *allocated* space: a
    coarse joined range (say a /4 classified because only one AS inside
    it sends traffic) legitimately maps its traffic but should not let
    the empty space in between dominate space-weighted metrics.
    """
    clipped: list[tuple[int, int, IngressPoint]] = []
    j = 0
    for start, end, ingress in intervals:
        while j > 0 and allowed[j - 1][1] > start:
            j -= 1
        k = j
        while k < len(allowed) and allowed[k][0] < end:
            overlap_start = max(start, allowed[k][0])
            overlap_end = min(end, allowed[k][1])
            if overlap_start < overlap_end:
                clipped.append((overlap_start, overlap_end, ingress))
            k += 1
        j = max(k - 1, 0)
    return clipped


def matching_and_stable(
    reference: Iterable[IPDRecord],
    later: Iterable[IPDRecord],
    version: int = 4,
    clip_to: Optional[Sequence[tuple[int, int]]] = None,
) -> tuple[float, float]:
    """(matching, stable) address-space shares between two snapshots.

    *matching*: fraction of the reference snapshot's mapped addresses
    that are still mapped in the later snapshot.  *stable*: fraction
    mapped to the same ingress in both (§5.3.1 definitions).

    *clip_to* optionally restricts accounting to sorted (start, end)
    address spans — typically the allocated blocks — so sparse coarse
    ranges don't dominate the space weighting.
    """
    ref_intervals = snapshot_intervals(reference, version)
    later_intervals = snapshot_intervals(later, version)
    if clip_to is not None:
        ref_intervals = clip_intervals(ref_intervals, clip_to)
        later_intervals = clip_intervals(later_intervals, clip_to)
    ref_space = sum(end - start for start, end, __ in ref_intervals)
    if ref_space == 0:
        return 0.0, 0.0

    matching = 0
    stable = 0
    i = j = 0
    while i < len(ref_intervals) and j < len(later_intervals):
        start, end, ingress = ref_intervals[i]
        other_start, other_end, other_ingress = later_intervals[j]
        overlap = min(end, other_end) - max(start, other_start)
        if overlap > 0:
            matching += overlap
            if other_ingress == ingress:
                stable += overlap
        # advance whichever interval finishes first
        if end <= other_end:
            i += 1
        else:
            j += 1
    return matching / ref_space, stable / ref_space


@dataclass(frozen=True)
class LongitudinalPoint:
    """One (t2) point of the Fig. 10 time series."""

    timestamp: float
    matching: float
    stable: float


def longitudinal_series(
    snapshots: Mapping[float, Sequence[IPDRecord]],
    reference_time: float,
    version: int = 4,
    clip_to: Optional[Sequence[tuple[int, int]]] = None,
) -> list[LongitudinalPoint]:
    """Fig. 10: compare the reference snapshot with every later one."""
    if reference_time not in snapshots:
        raise KeyError(f"no snapshot at reference time {reference_time}")
    reference = snapshots[reference_time]
    points = []
    for timestamp in sorted(snapshots):
        if timestamp <= reference_time:
            continue
        matching, stable = matching_and_stable(
            reference, snapshots[timestamp], version, clip_to=clip_to
        )
        points.append(
            LongitudinalPoint(timestamp=timestamp, matching=matching, stable=stable)
        )
    return points


def longitudinal_traffic_series(
    snapshots: Mapping[float, Sequence[IPDRecord]],
    reference_time: float,
    version: int = 4,
) -> list[LongitudinalPoint]:
    """Fig. 10, traffic-weighted variant.

    Space-weighted matching (the paper's exact method) assumes dense,
    evenly mapped coverage; at reduced simulation scale the day-to-day
    aggregation level of sparse regions dominates it.  This variant asks
    the operational question directly: *of the traffic mapped at the
    reference prime time (weighted by sample counters), what share is
    still mapped (matching) / mapped to the same ingress (stable) at
    t2?*  Each reference range is looked up in the later snapshot's LPM
    by its base address; bundle membership counts as the same ingress.
    """
    from ..core.lpm import build_lpm_from_records

    if reference_time not in snapshots:
        raise KeyError(f"no snapshot at reference time {reference_time}")
    reference = [
        record
        for record in snapshots[reference_time]
        if record.classified and record.version == version
    ]
    total_weight = sum(record.s_ipcount for record in reference)
    points: list[LongitudinalPoint] = []
    for timestamp in sorted(snapshots):
        if timestamp <= reference_time:
            continue
        if total_weight <= 0:
            points.append(LongitudinalPoint(timestamp, 0.0, 0.0))
            continue
        lpm = build_lpm_from_records(snapshots[timestamp], version)
        matching = stable = 0.0
        for record in reference:
            later_ingress = lpm.lookup(record.range.value)
            if later_ingress is None:
                continue
            matching += record.s_ipcount
            same_router = later_ingress.router == record.ingress.router
            overlap = set(later_ingress.interfaces()) & set(
                record.ingress.interfaces()
            )
            if same_router and overlap:
                stable += record.s_ipcount
        points.append(
            LongitudinalPoint(
                timestamp, matching / total_weight, stable / total_weight
            )
        )
    return points


def elephant_ranges(
    snapshots: Mapping[float, Sequence[IPDRecord]],
    top_fraction: float = 0.01,
    version: int = 4,
) -> set[Prefix]:
    """The §5.4 elephants: top ranges by peak sample counter.

    Returns the ``top_fraction`` of distinct classified ranges with the
    highest observed ``s_ipcount``.
    """
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError("top_fraction must be in (0, 1]")
    peak: dict[Prefix, float] = {}
    for records in snapshots.values():
        for record in records:
            if not record.classified or record.version != version:
                continue
            if record.s_ipcount > peak.get(record.range, 0.0):
                peak[record.range] = record.s_ipcount
    if not peak:
        return set()
    count = max(1, int(len(peak) * top_fraction))
    ordered = sorted(peak, key=lambda prefix: -peak[prefix])
    return set(ordered[:count])
