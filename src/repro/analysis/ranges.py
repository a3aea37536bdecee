"""Range-structure analyses: Figs. 3, 4, 9, 11 and 12.

These analyses look at *what* IPD carves the address space into:

* how many ingress points a prefix actually uses, versus how many BGP
  next-hops exist for it (Fig. 3);
* how dominant the top-ranked ingress is for multi-ingress prefixes
  (Fig. 4);
* the distribution of IPD range sizes compared to BGP prefix sizes
  (Fig. 9);
* how the mapped address space and the number of IPD prefixes evolve
  over the day, overall and for a single CDN (Figs. 11, 12).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from ..bgp.rib import BGPTable
from ..core.iputil import IPV4, Prefix, mask_ip
from ..core.output import IPDRecord
from ..netflow.records import FlowRecord
from ..workloads.diurnal import hour_of_day

__all__ = [
    "ingress_counts_from_flows",
    "simultaneous_ingress_counts",
    "bgp_next_hop_counts",
    "dominant_share_cdf",
    "mask_histogram",
    "bgp_mask_histogram",
    "DaytimeProfile",
    "daytime_profile",
]


def ingress_counts_from_flows(
    flows: Iterable[FlowRecord],
    prefix_masklen: int = 24,
    min_flows: int = 2,
    min_share: float = 0.02,
) -> dict[Prefix, Counter]:
    """Per aggregated prefix, the distribution of actual ingress routers.

    The solid lines of Fig. 3 count *simultaneous* ingress points per
    /24 as seen in the flow data; this returns the underlying counters
    (router-level, as the figure counts ingress routers).

    ``min_share`` drops ingress routers that carry less than that share
    of a prefix's flows — sampled flow data always contains a sprinkle
    of noise/spoofed samples on random links (§3.1's q-margin exists for
    the same reason), and counting those as "ingress points" would make
    every prefix look multi-homed.
    """
    counters: dict[Prefix, Counter] = defaultdict(Counter)
    for flow in flows:
        prefix = Prefix.from_ip(
            mask_ip(flow.src_ip, prefix_masklen, flow.version),
            prefix_masklen,
            flow.version,
        )
        counters[prefix][flow.ingress.router] += 1
    cleaned: dict[Prefix, Counter] = {}
    for prefix, counter in counters.items():
        total = sum(counter.values())
        if total < min_flows:
            continue
        kept = Counter({
            router: count
            for router, count in counter.items()
            if count / total >= min_share
        })
        if kept:
            cleaned[prefix] = kept
    return cleaned


def simultaneous_ingress_counts(
    flows: Iterable[FlowRecord],
    prefix_masklen: int = 24,
    bin_seconds: float = 300.0,
    min_flows: int = 5,
    min_share: float = 0.05,
) -> dict[Prefix, int]:
    """Typical number of *simultaneous* ingress routers per prefix (Fig. 3).

    Fig. 3's solid lines count ingress points that are active at the
    same time: within each time bin, count the distinct ingress routers
    carrying at least *min_share* of a prefix's flows, then report the
    median across bins for each prefix.  (Counting over a long window
    instead would conflate remaps-over-time with multi-homing.)
    """
    per_bin: dict[tuple[Prefix, int], Counter] = defaultdict(Counter)
    for flow in flows:
        prefix = Prefix.from_ip(
            mask_ip(flow.src_ip, prefix_masklen, flow.version),
            prefix_masklen,
            flow.version,
        )
        per_bin[(prefix, int(flow.timestamp // bin_seconds))][
            flow.ingress.router
        ] += 1

    counts_by_prefix: dict[Prefix, list[int]] = defaultdict(list)
    for (prefix, __), counter in per_bin.items():
        total = sum(counter.values())
        if total < min_flows:
            continue
        active = sum(
            1 for count in counter.values() if count / total >= min_share
        )
        if active:
            counts_by_prefix[prefix].append(active)
    result: dict[Prefix, int] = {}
    for prefix, counts in counts_by_prefix.items():
        counts.sort()
        result[prefix] = counts[len(counts) // 2]
    return result


def bgp_next_hop_counts(
    table: BGPTable, prefixes: Optional[Iterable[Prefix]] = None
) -> list[int]:
    """Next-hop router multiplicity per BGP prefix (Fig. 3, dotted)."""
    chosen = list(prefixes) if prefixes is not None else list(table.prefixes())
    return [len(table.next_hop_routers(prefix)) for prefix in chosen]


def dominant_share_cdf(
    ingress_counters: Mapping[Prefix, Counter],
    multi_ingress_only: bool = True,
) -> list[float]:
    """Traffic share of the first-ranked ingress per prefix (Fig. 4)."""
    shares = []
    for counter in ingress_counters.values():
        if multi_ingress_only and len(counter) < 2:
            continue
        total = sum(counter.values())
        if total == 0:
            continue
        shares.append(max(counter.values()) / total)
    return shares


def mask_histogram(
    records: Iterable[IPDRecord],
    version: int = IPV4,
    weight_by: str = "count",
) -> Counter:
    """Classified IPD range sizes: mask length -> count (or covered addresses).

    ``weight_by`` is ``"count"`` (Fig. 9 and the lower plots of
    Figs. 11/12) or ``"addresses"`` (the upper, space-weighted plots).
    """
    if weight_by not in ("count", "addresses"):
        raise ValueError(f"unknown weight_by: {weight_by!r}")
    histogram: Counter = Counter()
    for record in records:
        if record.version != version or not record.classified:
            continue
        weight = 1 if weight_by == "count" else record.range.num_addresses
        histogram[record.range.masklen] += weight
    return histogram


def bgp_mask_histogram(table: BGPTable, version: int = IPV4) -> Counter:
    """BGP announcement sizes: mask length -> prefix count (Fig. 9, gray)."""
    histogram: Counter = Counter()
    for prefix in table.prefixes():
        if prefix.version == version:
            histogram[prefix.masklen] += 1
    return histogram


@dataclass
class DaytimeProfile:
    """Hour-of-day aggregation of snapshot structure (Figs. 11, 12)."""

    #: hour (0-23) -> total mapped addresses
    mapped_addresses: dict[int, float]
    #: hour (0-23) -> number of classified IPD prefixes
    prefix_count: dict[int, float]
    #: hour -> mask length -> prefix count
    masks_by_hour: dict[int, Counter]

    def normalized_prefix_count(self) -> dict[int, float]:
        peak = max(self.prefix_count.values(), default=0.0)
        if peak == 0:
            return {hour: 0.0 for hour in self.prefix_count}
        return {h: v / peak for h, v in self.prefix_count.items()}

    def normalized_mapped_addresses(self) -> dict[int, float]:
        peak = max(self.mapped_addresses.values(), default=0.0)
        if peak == 0:
            return {hour: 0.0 for hour in self.mapped_addresses}
        return {h: v / peak for h, v in self.mapped_addresses.items()}


def daytime_profile(
    snapshots: Mapping[float, Sequence[IPDRecord]],
    record_filter: Optional[Callable[[IPDRecord], bool]] = None,
    version: int = IPV4,
) -> DaytimeProfile:
    """Aggregate snapshots by hour of day, averaging across days.

    *record_filter* restricts the view, e.g. to the address space of a
    single CDN AS (Fig. 12) or of the TOP5 set (Fig. 11).
    """
    sums_addresses: dict[int, float] = defaultdict(float)
    sums_prefixes: dict[int, float] = defaultdict(float)
    masks: dict[int, Counter] = defaultdict(Counter)
    observations: Counter = Counter()

    for timestamp, records in snapshots.items():
        hour = int(hour_of_day(timestamp))
        observations[hour] += 1
        for record in records:
            if record.version != version or not record.classified:
                continue
            if record_filter is not None and not record_filter(record):
                continue
            sums_addresses[hour] += record.range.num_addresses
            sums_prefixes[hour] += 1
            masks[hour][record.range.masklen] += 1

    mapped = {
        hour: sums_addresses[hour] / observations[hour] for hour in observations
    }
    prefixes = {
        hour: sums_prefixes[hour] / observations[hour] for hour in observations
    }
    return DaytimeProfile(
        mapped_addresses=mapped, prefix_count=prefixes, masks_by_hour=dict(masks)
    )
