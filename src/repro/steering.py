"""Hyper-giant traffic steering on top of IPD output (§5.8, [28]).

The paper's headline downstream product: "The studied ISP uses the IPD
as one component to build a platform that enables automated cooperation
between the ISP and CDNs to jointly optimize traffic engineering"
(hyper-giant traffic steering, Pujol et al. [28]).  The two joint
problems are (i) ISP inbound traffic engineering and (ii) CDN user→
server mapping; IPD supplies the missing input — *where each prefix
currently enters and how much it carries*.

This module implements the ISP side of that loop:

1. :func:`link_loads` — per-link load estimates from an IPD snapshot;
2. :class:`SteeringPolicy` — detect overloaded links and propose moving
   specific IPD ranges to underloaded *alternative* ingress links of
   the same neighbor (the request the ISP would hand to the CDN);
3. :func:`apply_plan` — turn an accepted plan into
   :class:`~repro.workloads.events.RemapEvent` rewrites, so the
   simulator can play the CDN honoring the request and IPD can verify
   the outcome (closing the loop end to end in tests/examples).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .core.iputil import Prefix
from .core.output import IPDRecord
from .topology.elements import IngressPoint
from .topology.network import ISPTopology
from .workloads.events import RemapEvent

__all__ = [
    "LinkLoad",
    "SteeringMove",
    "SteeringPlan",
    "SteeringPolicy",
    "link_loads",
    "subdivide_by_flows",
    "apply_plan",
]


@dataclass(frozen=True)
class LinkLoad:
    """Estimated load on one ingress link."""

    link_id: str
    load: float
    capacity: float

    @property
    def utilization(self) -> float:
        return self.load / self.capacity if self.capacity > 0 else float("inf")


def link_loads(
    records: Sequence[IPDRecord],
    topology: ISPTopology,
    capacities: Mapping[str, float],
) -> dict[str, LinkLoad]:
    """Aggregate per-range sample counters into per-link loads.

    Sample counters are the deployment's load proxy (§3.1: flow counts
    correlate with byte counts at 0.82); a byte-accurate deployment
    would feed byte counters through the same interface.
    """
    totals: dict[str, float] = defaultdict(float)
    for record in records:
        if not record.classified:
            continue
        try:
            link = topology.link_of_ingress(record.ingress)
        except KeyError:
            continue
        totals[link.link_id] += record.s_ipcount
    return {
        link_id: LinkLoad(
            link_id=link_id,
            load=totals.get(link_id, 0.0),
            capacity=capacities.get(link_id, float("inf")),
        )
        for link_id in set(totals) | set(capacities)
    }


def subdivide_by_flows(
    records: Sequence[IPDRecord],
    flows,
    masklen: int = 16,
    version: int = 4,
) -> list[IPDRecord]:
    """Refine coarse IPD ranges into flow-weighted sub-prefixes.

    A joined coarse range tells the ISP *where* its space enters, but
    not how load distributes inside it — and steering a /11 by assuming
    uniform load moves the wrong traffic.  The ISP has the flow stream,
    so this helper re-apportions each classified range's load onto the
    /``masklen`` sub-prefixes that actually carried flows, producing
    synthetic fine-grained records the :class:`SteeringPolicy` can plan
    with.  Ranges already finer than *masklen* pass through unchanged.
    """
    from dataclasses import replace as _replace

    from .core.iputil import Prefix as _Prefix
    from .core.iputil import mask_ip
    from .core.lpm import build_lpm_from_records

    classified = [
        r for r in records if r.classified and r.version == version
    ]
    lpm = build_lpm_from_records(classified, version)

    counts: dict[tuple[int, int], int] = defaultdict(int)
    for flow in flows:
        if flow.version != version:
            continue
        row = lpm.lookup_row(flow.src_ip)
        if row < 0 or lpm.records[row].range.masklen >= masklen:
            continue
        sub = mask_ip(flow.src_ip, masklen, version)
        counts[(row, sub)] += 1

    refined: list[IPDRecord] = []
    for (row, sub), count in counts.items():
        record = lpm.records[row]
        refined.append(_replace(
            record,
            range=_Prefix.from_ip(sub, masklen, version),
            s_ipcount=float(count),
            candidates=((record.ingress, float(count)),),
        ))
    # fine ranges pass through untouched
    refined.extend(r for r in classified if r.range.masklen >= masklen)
    return refined


@dataclass(frozen=True)
class SteeringMove:
    """One proposed reassignment: a range to a different ingress link."""

    range: Prefix
    load: float
    from_link: str
    to_link: str
    to_ingress: IngressPoint


@dataclass
class SteeringPlan:
    """The set of moves proposed for one snapshot."""

    moves: list[SteeringMove] = field(default_factory=list)
    #: links that remained overloaded after planning (no alternatives)
    unrelieved: list[str] = field(default_factory=list)

    def moved_load(self) -> float:
        return sum(move.load for move in self.moves)

    def by_target(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for move in self.moves:
            totals[move.to_link] += move.load
        return dict(totals)


class SteeringPolicy:
    """Greedy inbound traffic engineering over IPD ranges.

    For every link above *high_watermark* utilization, propose moving
    its heaviest ranges to the least-utilized alternative link of the
    *same neighbor AS* (a CDN can only serve the users from another of
    its own sites) until the link drops below *low_watermark* — the
    classic hysteresis pair, so accepted plans don't immediately
    re-trigger.
    """

    def __init__(
        self,
        topology: ISPTopology,
        capacities: Mapping[str, float],
        high_watermark: float = 0.9,
        low_watermark: float = 0.7,
        max_target_utilization: float = 0.8,
        max_split_depth: int = 4,
    ) -> None:
        if not 0.0 < low_watermark <= high_watermark:
            raise ValueError("watermarks must satisfy 0 < low <= high")
        self.topology = topology
        self.capacities = dict(capacities)
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.max_target_utilization = max_target_utilization
        #: an IPD range too heavy for any single target is split into
        #: child prefixes (load divided evenly) up to this depth — the
        #: steering request may be finer-grained than the current IPD
        #: aggregation, IPD simply re-learns the finer mapping
        self.max_split_depth = max_split_depth

    def plan(self, records: Sequence[IPDRecord]) -> SteeringPlan:
        """Propose moves for one snapshot."""
        loads = link_loads(records, self.topology, self.capacities)
        plan = SteeringPlan()

        # (prefix, load) pairs per link, heaviest first
        ranges_by_link: dict[str, list[tuple[Prefix, float]]] = defaultdict(list)
        for record in records:
            if not record.classified:
                continue
            try:
                link = self.topology.link_of_ingress(record.ingress)
            except KeyError:
                continue
            ranges_by_link[link.link_id].append(
                (record.range, float(record.s_ipcount))
            )
        for link_ranges in ranges_by_link.values():
            link_ranges.sort(key=lambda item: -item[1])

        current = {link_id: item.load for link_id, item in loads.items()}

        overloaded = sorted(
            (item for item in loads.values()
             if item.utilization > self.high_watermark),
            key=lambda item: -item.utilization,
        )
        for item in overloaded:
            target_load = self.low_watermark * item.capacity
            relieved = self._relieve(
                item.link_id, target_load, ranges_by_link, current, plan
            )
            if not relieved:
                plan.unrelieved.append(item.link_id)
        return plan

    def _relieve(
        self,
        link_id: str,
        target_load: float,
        ranges_by_link: dict[str, list[tuple[Prefix, float]]],
        current: dict[str, float],
        plan: SteeringPlan,
    ) -> bool:
        neighbor = self.topology.links[link_id].neighbor_asn
        queue = list(ranges_by_link[link_id])
        depth: dict[Prefix, int] = {}
        while queue and current[link_id] > target_load:
            prefix, load = queue.pop(0)
            target = self._best_alternative(link_id, neighbor, load, current)
            if target is None:
                # too heavy for any single alternative: split the request
                level = depth.get(prefix, 0)
                if (
                    level >= self.max_split_depth
                    or prefix.masklen >= prefix.bits
                ):
                    continue
                left, right = prefix.children()
                depth[left] = depth[right] = level + 1
                queue.insert(0, (right, load / 2.0))
                queue.insert(0, (left, load / 2.0))
                continue
            plan.moves.append(SteeringMove(
                range=prefix,
                load=load,
                from_link=link_id,
                to_link=target.link_id,
                to_ingress=target.interfaces[0].ingress_point(),
            ))
            current[link_id] -= load
            current[target.link_id] = (
                current.get(target.link_id, 0.0) + load
            )
        ranges_by_link[link_id] = queue
        return current[link_id] <= target_load

    def _best_alternative(
        self,
        from_link: str,
        neighbor_asn: int,
        load: float,
        current: dict[str, float],
    ):
        """Least-utilized same-neighbor link that can absorb *load*."""
        best = None
        best_utilization = None
        for link in self.topology.links_to_asn(neighbor_asn):
            if link.link_id == from_link:
                continue
            capacity = self.capacities.get(link.link_id, float("inf"))
            new_load = current.get(link.link_id, 0.0) + load
            utilization = new_load / capacity if capacity > 0 else float("inf")
            if utilization > self.max_target_utilization:
                continue
            if best is None or utilization < best_utilization:
                best, best_utilization = link, utilization
        return best


def apply_plan(
    plan: SteeringPlan,
    start: float,
    end: float,
) -> list[RemapEvent]:
    """Materialize an accepted plan as generator remap events.

    This plays the CDN's half of the collaboration: from *start*, the
    moved ranges are served from sites behind their new ingress links.
    """
    return [
        RemapEvent(
            prefix=move.range,
            start=start,
            end=end,
            new_ingress=move.to_ingress,
        )
        for move in plan.moves
    ]
