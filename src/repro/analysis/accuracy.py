"""IPD validation against ground truth (Fig. 6) and miss taxonomy (Figs. 7-8).

Reproduces the paper's three-step §5.1 methodology:

1. build an LPM lookup table from each 5-minute IPD output bin,
2. replay the flow trace and compare the predicted ingress (router and
   interface) against the ingress each flow actually used,
3. report the per-bin ratio of correctly classified flows, for ALL
   traffic and for the TOP5/TOP20 source-AS subsets.

Misses are classified with the paper's taxonomy — interface miss (same
router), router miss (same PoP), PoP miss (different site) — plus
``unmapped`` for flows without any covering classified range.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from ..core.iputil import Prefix
from ..core.lpm import CompiledLPM, LPMTable, build_lpm_from_records
from ..core.output import IPDRecord
from ..netflow.records import FlowRecord
from ..topology.elements import IngressPoint
from ..topology.network import ISPTopology, MissKind

__all__ = [
    "MissRecord",
    "BinAccuracy",
    "AccuracyReport",
    "evaluate_accuracy",
    "asn_lookup_from_blocks",
    "UNMAPPED",
]

UNMAPPED = "unmapped"


@dataclass(frozen=True)
class MissRecord:
    """One misclassified flow with its diagnosis."""

    timestamp: float
    src_ip: int
    asn: Optional[int]
    kind: str
    predicted: Optional[IngressPoint]
    actual: IngressPoint
    matched_range: Optional[Prefix] = None


@dataclass
class BinAccuracy:
    """Classification outcome of one validation time bin."""

    start: float
    total: int = 0
    correct: int = 0
    #: group name -> (correct, total)
    by_group: dict[str, list[int]] = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    def group_accuracy(self, group: str) -> Optional[float]:
        counts = self.by_group.get(group)
        if not counts or counts[1] == 0:
            return None
        return counts[0] / counts[1]


@dataclass
class AccuracyReport:
    """Full validation outcome across a run."""

    bins: list[BinAccuracy] = field(default_factory=list)
    misses: list[MissRecord] = field(default_factory=list)
    skipped_no_snapshot: int = 0

    def mean_accuracy(self, group: Optional[str] = None) -> float:
        """Flow-weighted accuracy over all bins (optionally one group)."""
        if group is None:
            total = sum(b.total for b in self.bins)
            correct = sum(b.correct for b in self.bins)
        else:
            total = sum(b.by_group.get(group, (0, 0))[1] for b in self.bins)
            correct = sum(b.by_group.get(group, (0, 0))[0] for b in self.bins)
        return correct / total if total else 0.0

    def miss_counts_by_kind(self) -> Counter:
        return Counter(miss.kind for miss in self.misses)

    def miss_counts_by_as(self) -> dict[Optional[int], Counter]:
        """Fig. 7 (left): per source AS, miss counts per kind."""
        result: dict[Optional[int], Counter] = {}
        for miss in self.misses:
            result.setdefault(miss.asn, Counter())[miss.kind] += 1
        return result

    def distinct_sources_by_as(self) -> dict[Optional[int], Counter]:
        """Fig. 7 (right): per source AS, distinct source IPs per kind."""
        seen: dict[tuple[Optional[int], str], set[int]] = {}
        for miss in self.misses:
            seen.setdefault((miss.asn, miss.kind), set()).add(miss.src_ip)
        result: dict[Optional[int], Counter] = {}
        for (asn, kind), sources in seen.items():
            result.setdefault(asn, Counter())[kind] = len(sources)
        return result

    def miss_timeseries(
        self, bin_seconds: float = 3600.0
    ) -> dict[Optional[int], Counter]:
        """Fig. 8: per AS, miss counts per time bin (keyed by bin start)."""
        result: dict[Optional[int], Counter] = {}
        for miss in self.misses:
            bin_start = int(miss.timestamp // bin_seconds) * bin_seconds
            result.setdefault(miss.asn, Counter())[bin_start] += 1
        return result


def asn_lookup_from_blocks(
    blocks: Iterable[tuple[int, Prefix]], version: int = 4
) -> Callable[[int], Optional[int]]:
    """Build a fast src-IP -> origin-ASN resolver from an address plan."""
    table: LPMTable[int] = LPMTable(version)
    for asn, block in blocks:
        if block.version == version:
            table.insert(block, asn)
    return table.lookup


def evaluate_accuracy(
    flows: Iterable[FlowRecord],
    snapshots: Mapping[float, list[IPDRecord]],
    topology: ISPTopology,
    asn_of: Optional[Callable[[int], Optional[int]]] = None,
    groups: Optional[Mapping[str, set[int]]] = None,
    bin_seconds: float = 300.0,
    keep_misses: bool = True,
) -> AccuracyReport:
    """Replay *flows* against per-bin LPM tables built from *snapshots*.

    Each flow in bin ``[T, T+bin)`` is validated against the snapshot
    taken at the bin's end (the paper compares each 5-minute output to
    the very flows that produced it).  Flows before the first snapshot
    are counted in ``skipped_no_snapshot`` (IPD warm-up).
    """
    groups = groups or {}
    report = AccuracyReport()
    snapshot_times = sorted(snapshots)
    if not snapshot_times:
        raise ValueError("no snapshots to validate against")
    lpm_cache: dict[tuple[float, int], CompiledLPM] = {}
    bins: dict[float, BinAccuracy] = {}

    for flow in flows:
        bin_start = int(flow.timestamp // bin_seconds) * bin_seconds
        bin_end = bin_start + bin_seconds
        index = bisect.bisect_left(snapshot_times, bin_end)
        snap_time = None
        if index < len(snapshot_times):
            candidate = snapshot_times[index]
            if candidate <= bin_end + 1e-9:
                snap_time = candidate
        if snap_time is None and index > 0:
            snap_time = snapshot_times[index - 1]
        if snap_time is None:
            report.skipped_no_snapshot += 1
            continue

        cache_key = (snap_time, flow.version)
        lpm = lpm_cache.get(cache_key)
        if lpm is None:
            lpm = build_lpm_from_records(snapshots[snap_time], flow.version)
            lpm_cache[cache_key] = lpm

        bin_stats = bins.get(bin_start)
        if bin_stats is None:
            bin_stats = BinAccuracy(start=bin_start)
            bins[bin_start] = bin_stats

        found = lpm.lookup_entry(flow.src_ip)
        if found is None:
            predicted, matched_range = None, None
            kind = UNMAPPED
        else:
            matched_range, predicted = found.prefix, found.ingress
            kind = topology.classify_miss(predicted, flow.ingress)

        correct = kind == MissKind.CORRECT
        asn = asn_of(flow.src_ip) if asn_of is not None else None

        bin_stats.total += 1
        if correct:
            bin_stats.correct += 1
        for group, members in groups.items():
            if asn in members:
                counts = bin_stats.by_group.setdefault(group, [0, 0])
                counts[1] += 1
                if correct:
                    counts[0] += 1
        if not correct and keep_misses:
            report.misses.append(
                MissRecord(
                    timestamp=flow.timestamp,
                    src_ip=flow.src_ip,
                    asn=asn,
                    kind=kind,
                    predicted=predicted,
                    actual=flow.ingress,
                    matched_range=matched_range,
                )
            )

    report.bins = [bins[start] for start in sorted(bins)]
    return report
