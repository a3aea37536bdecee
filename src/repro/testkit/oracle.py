"""A paper-literal reference implementation of IPD — the differential oracle.

:class:`ReferenceIPD` re-implements Algorithm 1 exactly as §3.2 of the
paper states it, with none of the production engine's machinery: no
dirty sets, no cell table, no leaf index, no incrementally maintained
counters, no columnar batching.  Every sweep walks every leaf; every
total is recomputed from the raw per-source dicts on demand.  It is
deliberately slow and deliberately simple — the point is that a reader
can check it against the paper line by line, and the differential suite
(``tests/testkit/``) can check the optimized engine against *it* at
every sweep tick.

It emits the production types (:class:`~repro.core.algorithm.SweepReport`
and :class:`~repro.core.output.IPDRecord`) so comparisons are plain
``==``.  Numeric equality is exact, not approximate: sample weights are
integer-valued (flow or byte counts), so float sums are order
independent, and the one non-integer path — decayed classified counters
— reproduces the engine's counter insertion order by construction
(per-source dicts grow in stream order, classification snapshots them in
that order, decay preserves it) and adds them left to right, as the
engine does on every interpreter.

Only the ``ORACLE_REPORT_FIELDS`` of a sweep report are comparable: the
oracle visits every leaf, so ``visited`` and ``duration_seconds``
legitimately differ from a dirty-sweep engine.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from ..runtime.result import RunResult

from ..core.algorithm import SweepReport
from ..core.iputil import IPV4, IPV6, Prefix, mask_ip
from ..core.output import IPDRecord
from ..core.params import DEFAULT_PARAMS, IPDParams
from ..netflow.records import FlowBatch, FlowRecord
from ..topology.elements import IngressPoint

__all__ = [
    "ORACLE_REPORT_FIELDS",
    "ReferenceIPD",
    "assert_engines_equivalent",
    "compare_reports",
    "replay_reference",
]

#: SweepReport fields that are algorithmically meaningful and therefore
#: must agree between the engine and the oracle.  ``visited`` is an
#: implementation detail of the dirty-sweep machinery;
#: ``duration_seconds`` is wall clock.
ORACLE_REPORT_FIELDS = (
    "timestamp", "leaves", "leaves_by_version", "classified",
    "classifications", "splits", "joins", "drops", "prunes",
    "expired_sources", "decayed_ranges",
)

#: counter floor used by the engine's decay (IPD._visit_classified)
_DECAY_FLOOR = 1e-9


@dataclass
class _Classified:
    """Aggregate state of a classified range (paper: "all state is
    removed for efficiency reasons" — only per-ingress counters stay)."""

    ingress: IngressPoint
    counters: dict[IngressPoint, float]
    last_seen: float
    classified_at: float

    @property
    def total(self) -> float:
        return _added(self.counters.values())


def _added(values: Iterable[float]) -> float:
    """*values* added left to right: the order the engine sums a classified
    range in, on every interpreter (``sum()`` compensates float sums from
    Python 3.12 on)."""
    total: float = reduce(operator.add, values, 0.0)
    return total


class _Node:
    """One trie node; a leaf holds either per-source dicts or ``cls``."""

    __slots__ = ("prefix", "parent", "left", "right", "per_ip", "last_seen",
                 "cls", "dead")

    def __init__(self, prefix: Prefix, parent: "Optional[_Node]" = None) -> None:
        self.prefix = prefix
        self.parent = parent
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        #: masked source IP -> ingress -> accumulated sample weight
        self.per_ip: dict[int, dict[IngressPoint, float]] = {}
        #: masked source IP -> newest sample timestamp
        self.last_seen: dict[int, float] = {}
        self.cls: Optional[_Classified] = None
        self.dead = False

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _leaves(root: _Node) -> Iterable[_Node]:
    """All leaves under *root* in address order."""
    stack = [root]
    while stack:
        node = stack.pop()
        if node.left is None:
            yield node
        else:
            right = node.right
            assert right is not None  # internal nodes have both children
            stack.append(right)
            stack.append(node.left)


class ReferenceIPD:
    """Naive, dict-based IPD Stage 1/2 — the executable specification.

    Mirrors the public surface the differential suite needs from
    :class:`~repro.core.algorithm.IPD`: ``ingest`` / ``ingest_many``,
    ``sweep``, ``snapshot``, ``state_size`` and ``leaf_count``.
    """

    def __init__(self, params: IPDParams | None = None) -> None:
        self.params = params or DEFAULT_PARAMS
        self.roots: dict[int, _Node] = {
            version: _Node(Prefix.root(version)) for version in (IPV4, IPV6)
        }
        self.flows_ingested = 0
        self.bytes_ingested = 0
        self.last_sweep_at: float | None = None

    # ------------------------------------------------------------------ stage 1

    def ingest(self, flow: FlowRecord) -> None:
        """Algorithm 1 lines 1-4: mask the source, add to the covering range."""
        params = self.params
        masked = mask_ip(flow.src_ip, params.cidr_max(flow.version), flow.version)
        leaf = self._lookup(self.roots[flow.version], masked)
        weight = float(flow.bytes) if params.count_bytes else 1.0
        if leaf.cls is None:
            by_ingress = leaf.per_ip.setdefault(masked, {})
            by_ingress[flow.ingress] = by_ingress.get(flow.ingress, 0.0) + weight
            previous = leaf.last_seen.get(masked)
            if previous is None or flow.timestamp > previous:
                leaf.last_seen[masked] = flow.timestamp
        else:
            cls = leaf.cls
            cls.counters[flow.ingress] = (
                cls.counters.get(flow.ingress, 0.0) + weight
            )
            if flow.timestamp > cls.last_seen:
                cls.last_seen = flow.timestamp
        self.flows_ingested += 1
        self.bytes_ingested += flow.bytes

    def ingest_many(self, flows: "Iterable[FlowRecord] | FlowBatch") -> int:
        """Ingest an iterable (or :class:`FlowBatch`) one flow at a time."""
        if isinstance(flows, FlowBatch):
            flows = flows.iter_flows()
        count = 0
        for flow in flows:
            self.ingest(flow)
            count += 1
        return count

    def _lookup(self, root: _Node, masked: int) -> _Node:
        node = root
        bits = root.prefix.bits
        while node.left is not None:
            bit_index = bits - node.prefix.masklen - 1
            if (masked >> bit_index) & 1:
                assert node.right is not None  # internal: both children
                node = node.right
            else:
                node = node.left
        return node

    # ------------------------------------------------------------------ stage 2

    def sweep(self, now: float) -> SweepReport:
        """Algorithm 1 lines 5-19, as one full walk per address family."""
        report = SweepReport(timestamp=now)
        for version, root in self.roots.items():
            self._sweep_tree(version, root, now, report)
            report.leaves_by_version[version] = sum(1 for __ in _leaves(root))
        report.leaves = sum(report.leaves_by_version.values())
        report.classified = sum(
            1
            for root in self.roots.values()
            for leaf in _leaves(root)
            if leaf.cls is not None
        )
        self.last_sweep_at = now
        return report

    def _sweep_tree(
        self, version: int, root: _Node, now: float, report: SweepReport
    ) -> None:
        params = self.params
        cidr_max = params.cidr_max(version)
        cutoff = now - params.e
        # Snapshot the visit list first: children created by a split are
        # not revisited within the same sweep (the engine behaves the
        # same — one split level per sweep).
        for leaf in list(_leaves(root)):
            if leaf.dead or leaf.left is not None:
                continue
            report.visited += 1
            if leaf.cls is None:
                stale = [
                    ip for ip, seen in leaf.last_seen.items() if seen < cutoff
                ]
                for ip in stale:
                    del leaf.per_ip[ip]
                    del leaf.last_seen[ip]
                report.expired_sources += len(stale)
                if leaf.per_ip:
                    self._handle_unclassified(
                        version, leaf, now, cidr_max, report
                    )
            else:
                self._handle_classified(leaf, now, report)
        report.joins += self._join_pass(version, root)
        report.prunes += self._prune(root)

    def _handle_unclassified(
        self,
        version: int,
        leaf: _Node,
        now: float,
        cidr_max: int,
        report: SweepReport,
    ) -> None:
        params = self.params
        masklen = leaf.prefix.masklen
        total = sum(
            weight
            for by_ingress in leaf.per_ip.values()
            for weight in by_ingress.values()
        )
        if total < params.n_cidr(masklen, version):
            return  # line 8: not enough samples yet
        totals = self._ingress_totals(leaf)
        found = self._dominant(totals)
        if found is None:
            return
        ingress, share, __ = found
        if share >= params.q:
            # line 10: classify; per-source detail is discarded.
            leaf.cls = _Classified(
                ingress=ingress,
                counters=self._ingress_totals(leaf),
                last_seen=max(leaf.last_seen.values()),
                classified_at=now,
            )
            leaf.per_ip = {}
            leaf.last_seen = {}
            report.classifications += 1
        elif masklen < cidr_max:
            self._split(leaf)  # line 13
            report.splits += 1
        # else line 15: cidr_max reached without dominance, no split

    def _handle_classified(
        self, leaf: _Node, now: float, report: SweepReport
    ) -> None:
        params = self.params
        cls = leaf.cls
        assert cls is not None
        age = now - cls.last_seen
        if age > params.t:
            # Table 1: decay is the fraction *removed* per idle sweep.
            keep = max(0.0, 1.0 - params.decay(age, params.t))
            cls.counters = {
                ingress: weight * keep
                for ingress, weight in cls.counters.items()
                if weight * keep >= _DECAY_FLOOR
            }
            report.decayed_ranges += 1
            if cls.total < params.drop_threshold:
                self._drop(leaf, report)  # line 19
                return
        share = self._confidence(cls, _members_of(cls.ingress))
        if share < params.q:
            self._drop(leaf, report)  # line 19

    def _drop(self, leaf: _Node, report: SweepReport) -> None:
        leaf.cls = None
        report.drops += 1

    def _split(self, leaf: _Node) -> None:
        """Split a leaf, redistributing sources in insertion order."""
        left_prefix, right_prefix = leaf.prefix.children()
        left = _Node(left_prefix, parent=leaf)
        right = _Node(right_prefix, parent=leaf)
        boundary = right_prefix.value
        for masked, by_ingress in leaf.per_ip.items():
            child = right if masked >= boundary else left
            child.per_ip[masked] = by_ingress
            child.last_seen[masked] = leaf.last_seen[masked]
        leaf.left = left
        leaf.right = right
        leaf.per_ip = {}
        leaf.last_seen = {}

    def _join_pass(self, version: int, root: _Node) -> int:
        """§3.2: join sibling ranges classified to the same ingress when
        the merged range meets its own (larger) n_cidr threshold."""
        params = self.params
        joins = 0
        classified = sorted(
            (leaf for leaf in _leaves(root) if leaf.cls is not None),
            key=lambda node: node.prefix.value,
        )
        for leaf in classified:
            if leaf.dead:
                continue  # merged away by an earlier candidate's cascade
            parent = leaf.parent
            while parent is not None:
                left, right = parent.left, parent.right
                if left is None or right is None:
                    break
                if not (left.is_leaf and right.is_leaf):
                    break
                if left.cls is None or right.cls is None:
                    break
                if left.cls.ingress != right.cls.ingress:
                    break
                combined = left.cls.total + right.cls.total
                if combined < params.n_cidr(parent.prefix.masklen, version):
                    break
                # merge: counters add (left's insertion order first, then
                # right's new keys — exactly the engine's span join)
                counters = dict(left.cls.counters)
                for ingress, weight in right.cls.counters.items():
                    counters[ingress] = counters.get(ingress, 0.0) + weight
                parent.cls = _Classified(
                    ingress=left.cls.ingress,
                    counters=counters,
                    last_seen=max(left.cls.last_seen, right.cls.last_seen),
                    classified_at=min(
                        left.cls.classified_at, right.cls.classified_at
                    ),
                )
                left.dead = right.dead = True
                parent.left = parent.right = None
                joins += 1
                parent = parent.parent
        return joins

    def _prune(self, root: _Node) -> int:
        """Collapse sibling pairs of empty unclassified leaves (postorder
        full walk, so collapses cascade bottom-up in one pass)."""
        collapsed = 0
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node.left is None:
                continue
            if not expanded:
                stack.append((node, True))
                right = node.right
                assert right is not None  # internal nodes have both children
                stack.append((right, False))
                stack.append((node.left, False))
                continue
            left, right = node.left, node.right
            if left is None or right is None:
                continue
            if not (left.is_leaf and right.is_leaf):
                continue
            if _is_empty_unclassified(left) and _is_empty_unclassified(right):
                left.dead = right.dead = True
                node.left = node.right = None
                node.cls = None
                node.per_ip = {}
                node.last_seen = {}
                collapsed += 1
        return collapsed

    # ------------------------------------------------------------------ decisions

    def _ingress_totals(self, leaf: _Node) -> dict[IngressPoint, float]:
        """Aggregate weights per ingress, in stream first-seen order."""
        totals: dict[IngressPoint, float] = {}
        for by_ingress in leaf.per_ip.values():
            for ingress, weight in by_ingress.items():
                totals[ingress] = totals.get(ingress, 0.0) + weight
        return totals

    def _dominant(
        self, totals: dict[IngressPoint, float]
    ) -> tuple[IngressPoint, float, tuple[IngressPoint, ...]] | None:
        """The most prevalent logical ingress, §3.2 bundling included.

        Interfaces of one router each holding at least ``bundle_min_share``
        of the router's subtotal form a single logical bundle; the winner
        is the heaviest candidate (ties broken by ingress ordering, as in
        :func:`repro.core.bundles.dominant_ingress`).
        """
        params = self.params
        if not totals:
            return None
        grand_total = sum(totals.values())
        if grand_total <= 0.0:
            return None
        candidates: dict[IngressPoint, tuple[float, tuple[IngressPoint, ...]]]
        if params.enable_bundles:
            candidates = {}
            by_router: dict[str, list[tuple[IngressPoint, float]]] = {}
            for ingress, weight in totals.items():
                by_router.setdefault(ingress.router, []).append((ingress, weight))
            for router, members in by_router.items():
                subtotal = sum(weight for __, weight in members)
                if subtotal <= 0.0:
                    continue
                major = [
                    (ingress, weight)
                    for ingress, weight in members
                    if weight / subtotal >= params.bundle_min_share
                ]
                if len(major) >= 2:
                    names = sorted(
                        ingress.interface for ingress, __ in major
                    )
                    bundle = IngressPoint(router, "+".join(names))
                    candidates[bundle] = (
                        sum(weight for __, weight in major),
                        tuple(ingress for ingress, __ in major),
                    )
                    minor = [
                        (ingress, weight)
                        for ingress, weight in members
                        if weight / subtotal < params.bundle_min_share
                    ]
                else:
                    minor = members
                for ingress, weight in minor:
                    candidates[ingress] = (weight, (ingress,))
        else:
            candidates = {
                ingress: (weight, (ingress,))
                for ingress, weight in totals.items()
            }
        winner, (weight, members) = max(
            candidates.items(), key=lambda item: (item[1][0], item[0])
        )
        return winner, weight / grand_total, members

    def _confidence(
        self, cls: _Classified, members: tuple[IngressPoint, ...]
    ) -> float:
        """The paper's ``s_ingress``: winner share of all samples."""
        total = cls.total
        if total <= 0.0:
            return 0.0
        matched = _added(cls.counters.get(member, 0.0) for member in members)
        return matched / total

    # ------------------------------------------------------------------ output

    def snapshot(
        self, now: float, include_unclassified: bool = False
    ) -> list[IPDRecord]:
        """The Table-3 raw output, identical to the engine's snapshot."""
        params = self.params
        records: list[IPDRecord] = []
        for version, root in self.roots.items():
            for leaf in _leaves(root):
                n_cidr = params.n_cidr(leaf.prefix.masklen, version)
                if leaf.cls is not None:
                    cls = leaf.cls
                    records.append(
                        IPDRecord(
                            timestamp=now,
                            range=leaf.prefix,
                            ingress=cls.ingress,
                            s_ingress=self._confidence(
                                cls, _members_of(cls.ingress)
                            ),
                            s_ipcount=cls.total,
                            n_cidr=n_cidr,
                            candidates=_sorted_candidates(cls.counters),
                            classified=True,
                        )
                    )
                elif include_unclassified and leaf.per_ip:
                    totals = self._ingress_totals(leaf)
                    found = self._dominant(totals)
                    if found is None:
                        continue
                    ingress, share, __ = found
                    records.append(
                        IPDRecord(
                            timestamp=now,
                            range=leaf.prefix,
                            ingress=ingress,
                            s_ingress=share,
                            s_ipcount=sum(totals.values()),
                            n_cidr=n_cidr,
                            candidates=_sorted_candidates(totals),
                            classified=False,
                        )
                    )
        records.sort(key=lambda record: (record.version, record.range.value))
        return records

    # ------------------------------------------------------------------ metrics

    def state_size(self) -> int:
        """Tracked (source, ingress) cells + classified counter cells."""
        size = 0
        for root in self.roots.values():
            for leaf in _leaves(root):
                if leaf.cls is not None:
                    size += len(leaf.cls.counters)
                else:
                    size += sum(
                        len(by_ingress) for by_ingress in leaf.per_ip.values()
                    )
        return size

    def leaf_count(self) -> int:
        return sum(
            1 for root in self.roots.values() for __ in _leaves(root)
        )


def _members_of(ingress: IngressPoint) -> tuple[IngressPoint, ...]:
    return tuple(
        IngressPoint(ingress.router, name) for name in ingress.interfaces()
    )


def _is_empty_unclassified(node: _Node) -> bool:
    return node.cls is None and not node.per_ip


def _sorted_candidates(
    counters: dict[IngressPoint, float]
) -> tuple[tuple[IngressPoint, float], ...]:
    return tuple(
        sorted(counters.items(), key=lambda item: (-item[1], str(item[0])))
    )


# ---------------------------------------------------------------- comparisons


def compare_reports(
    engine_report: SweepReport, oracle_report: SweepReport
) -> list[tuple[str, object, object]]:
    """Mismatched :data:`ORACLE_REPORT_FIELDS` as (field, engine, oracle)."""
    return [
        (name, getattr(engine_report, name), getattr(oracle_report, name))
        for name in ORACLE_REPORT_FIELDS
        if getattr(engine_report, name) != getattr(oracle_report, name)
    ]


def assert_engines_equivalent(
    engine: object,
    oracle: ReferenceIPD,
    now: float,
    include_unclassified: bool = True,
) -> None:
    """Full-state equivalence: snapshots, sizes and ingest counters.

    *engine* is anything with the IPD surface (:class:`~repro.core
    .algorithm.IPD` or a merged :class:`~repro.runtime.sharding
    .ShardedIPD`).
    """
    engine_records = engine.snapshot(now, include_unclassified=include_unclassified)
    oracle_records = oracle.snapshot(now, include_unclassified=include_unclassified)
    assert engine_records == oracle_records, (
        f"snapshot mismatch at t={now}: engine={engine_records!r} "
        f"oracle={oracle_records!r}"
    )
    assert engine.leaf_count() == oracle.leaf_count(), f"leaf count at t={now}"
    assert engine.state_size() == oracle.state_size(), f"state size at t={now}"
    assert engine.flows_ingested == oracle.flows_ingested
    assert engine.bytes_ingested == oracle.bytes_ingested


def replay_reference(
    flows: Iterable[FlowRecord],
    params: IPDParams,
    snapshot_seconds: float = 300.0,
    include_unclassified: bool = True,
) -> "RunResult":
    """Replay a per-flow stream through the oracle with the pipeline's
    event grid: sweeps at ``t`` boundaries of the trace clock, snapshots
    every *snapshot_seconds*, and a closing tick for the final bucket.

    Returns a :class:`~repro.runtime.result.RunResult`, so chaos tests
    can compare a recovered pipeline run against the oracle with the
    same helpers they use between pipeline runs.
    """
    from ..runtime.result import RunResult

    oracle = ReferenceIPD(params)
    result = RunResult()
    t = params.t
    next_sweep: float | None = None
    next_snapshot: float | None = None
    for flow in flows:
        if next_sweep is None:
            next_sweep = (int(flow.timestamp // t) + 1) * t
            next_snapshot = (
                int(flow.timestamp // snapshot_seconds) + 1
            ) * snapshot_seconds
        while flow.timestamp >= next_sweep:
            result.sweeps.append(oracle.sweep(next_sweep))
            if next_snapshot is not None and next_sweep >= next_snapshot:
                result.snapshots[next_sweep] = oracle.snapshot(
                    next_sweep, include_unclassified=include_unclassified
                )
                next_snapshot += snapshot_seconds
            next_sweep += t
        oracle.ingest(flow)
        result.flows_processed += 1
    if next_sweep is not None:
        result.sweeps.append(oracle.sweep(next_sweep))
        result.snapshots[next_sweep] = oracle.snapshot(
            next_sweep, include_unclassified=include_unclassified
        )
    return result
