"""Address-space-sharded IPD: the coordinator.

:class:`ShardedIPD` presents the single-engine surface — ``ingest``,
``ingest_batch``, ``sweep``, ``snapshot``, ``state_size`` — while the
work is split across ``2^k`` shard engines (``k >= 1``; one per
depth-``k`` subtree, routed on the masked source's top ``k`` bits) plus
a small *aggregator* engine that owns every range coarser than ``/k``.
:func:`build_engine` is the one place that picks between a plain
:class:`IPD` (one shard) and this coordinator, which is only ever built
empty: a checkpoint holds the merged single-engine image, and every
restore is one plain :class:`IPD`.

The design invariant is **byte-identical output**: the visible leaves of
aggregator + shards partition the address space exactly like one
engine's trie, and every Stage-2 decision is made by the same code on
the same per-range state.  Three properties make that hold:

* *Stable routing between ticks.*  Trie shape only changes inside
  :meth:`sweep`, so the delegation map (which depth-``k`` subtrees are
  shard-owned) is frozen while flows are routed; a flow lands in the
  same leaf state a single engine would have put it in.
* *Pure per-leaf decisions.*  Classification, split, expiry and decay
  depend only on (leaf state, ``now``, params) — never on other leaves —
  so running them inside a shard is indistinguishable from running them
  inside one big trie.
* *Confluent closures.*  Joins and prunes are applied to pairwise-
  independent sibling pairs and cascaded; the sharded sweep performs the
  shard-local pairs, then the cross-boundary pairs at ``/k`` (both shard
  roots reduced to a single agreeing leaf), then reruns the join pass
  and the prune cascade on the aggregator — reaching the same fixed
  point as the single engine's one-pass closure.

The deployment has one admission gate, :attr:`ShardedIPD.admission`: the
coordinator gates each batch on its raw columns before routing the kept
rows, and the aggregator and every shard engine run ungated, so lossy
admission too leaves the output of one engine unchanged.

Handoffs move ranges across the ``/k`` boundary: after each sweep the
aggregator delegates any visible unclassified leaf that reached depth
``k`` down to its shard (a ``seed`` op carrying the observation state),
and the reconciliation above pulls ranges back up (``reset`` ops).  Both
sides mark the vacated leaf with a
:class:`~repro.core.state.DelegatedState` so exactly one engine owns any
address at any time.

The §5.8 load-balance detector walks a plain :class:`IPD`'s trees after
each sweep; it does not observe a sharded engine.
"""

from __future__ import annotations

import math
import time
from typing import Iterable, Optional, Union

import numpy as np

from ..core.admission import AdmissionConfig, AdmissionController
from ..core.algorithm import (
    IPD,
    SweepReport,
    _check_rows,
    _coerce_admission,
    admit,
    open_sweep,
)
from ..core.iputil import IPV4, IPV6, Prefix
from ..core.output import IPDRecord
from ..core.params import DEFAULT_PARAMS, IPDParams
from ..core.rangetree import UNCLASSIFIED
from ..core.statecodec import (
    EngineImage,
    NodeImage,
    decode_subtree,
    encode_engine,
    encode_subtree,
    subtree_to_image,
    tree_to_image,
)
from ..netflow.records import FlowBatch, FlowRecord, iter_flow_batches
from .executors import EXECUTOR_KINDS, make_executor
from .shards import ShardMetrics, ShardTickResult

__all__ = ["ShardedIPD", "build_engine"]

#: what a pipeline drives: one plain engine, or the shard coordinator
Engine = Union[IPD, "ShardedIPD"]


def build_engine(
    params: Optional[IPDParams] = None,
    shards: int = 1,
    executor: str = "serial",
    workers: Optional[int] = None,
    admission: Optional[AdmissionConfig] = None,
) -> Engine:
    """A fresh engine for a runtime topology.

    One shard is a plain :class:`~repro.core.algorithm.IPD` in the
    calling process; anything else is an empty :class:`ShardedIPD` over
    the named executor.  Nothing restores into a coordinator: every
    engine restored from bytes is one :class:`IPD`
    (:func:`~repro.runtime.checkpoint.restore_engine`).
    """
    if shards != 1:
        return ShardedIPD(params, shards, executor, workers, admission)
    if executor != "serial":
        raise ValueError(
            f"shards=1 is one plain IPD engine in this process and takes "
            f"executor 'serial', not {executor!r} (executors "
            f"{EXECUTOR_KINDS}; 'mp' needs shards >= 2)"
        )
    return IPD(params, admission=admission)


class ShardedIPD:
    """A drop-in IPD engine that fans ingest out over ``2^k`` shards."""

    def __init__(
        self,
        params: IPDParams | None = None,
        shards: int = 4,
        executor: str = "serial",
        workers: Optional[int] = None,
        admission: "AdmissionController | AdmissionConfig | None" = None,
    ) -> None:
        params = params or DEFAULT_PARAMS
        if shards < 2 or shards & (shards - 1):
            raise ValueError(
                f"ShardedIPD needs shards >= 2 and a power of two, got {shards} "
                "(shards=1 is one plain IPD engine: build_engine)"
            )
        depth = shards.bit_length() - 1
        max_depth = min(params.cidr_max(IPV4), params.cidr_max(IPV6))
        if depth > max_depth:
            raise ValueError(
                f"split depth {depth} (shards={shards}) exceeds "
                f"cidr_max {max_depth}"
            )
        self.params = params
        self.shards = shards
        self.split_depth = depth
        #: the deployment's one admission gate, as :attr:`IPD.admission`
        #: (``None``: off); aggregator and shards run ungated
        self.admission: AdmissionController | None = _coerce_admission(admission)
        #: ranges coarser than /k live here, in a plain single engine
        self.aggregator = IPD(params)
        self._executor = make_executor(executor, params, depth, workers)
        #: family version -> shard indices currently delegated down (each
        #: one's portal is the aggregator's delegated leaf at that /k)
        self._delegated: dict[int, set[int]] = {IPV4: set(), IPV6: set()}
        self._shifts = {
            version: Prefix.root(version).bits - depth
            for version in (IPV4, IPV6)
        }
        self.flows_ingested = 0
        self.bytes_ingested = 0
        self.last_sweep_at: float | None = None
        self._closed = False

    # ------------------------------------------------------------------ stage 1

    def ingest(self, flow: FlowRecord) -> None:
        """Route one flow (API edge: a one-row :meth:`ingest_batch`)."""
        self.ingest_batch(FlowBatch.from_flows((flow,)))

    def ingest_batch(self, batch: FlowBatch) -> int:
        """Check every row, gate the batch once, and route the kept rows:
        aggregator rows inline, shard rows fed out.  A bad row is a
        ``ValueError`` naming it (as :meth:`IPD.ingest_batch`) before
        anything moves."""
        count = len(batch)
        if count == 0:
            return 0
        _check_rows(batch)
        self.flows_ingested += count
        self.bytes_ingested += int(batch.byte_counts.sum())
        batch = admit(self.admission, self.params, batch)
        version = batch.version
        delegated = self._delegated[version]
        if not delegated:
            self.aggregator.ingest_batch(batch)
            return count
        # each row's shard index: the top bits of its source (IPv6 reads
        # the high word; the split depth is far above bit 64)
        shift = self._shifts[version]
        if version == IPV4:
            index = batch.src_ips >> np.uint64(shift)
        else:
            index = batch.src_ips[:, 0] >> np.uint64(shift - 64)
        routed = np.isin(index, np.fromiter(delegated, np.uint64, len(delegated)))
        if not routed.all():
            self.aggregator.ingest_batch(batch.select(np.flatnonzero(~routed)))
        # one row array per shard, shards in order of their first row
        rows = np.flatnonzero(routed)
        by_shard = rows[np.argsort(index[rows], kind="stable")]
        keys = index[by_shard]
        groups = np.split(by_shard, np.flatnonzero(keys[1:] != keys[:-1]) + 1)
        groups.sort(key=lambda group: group[0] if len(group) else -1)
        send = self._executor.send
        for shard_rows in filter(len, groups):
            shard = int(index[shard_rows[0]])
            send(shard, ("feed", shard, batch.select(shard_rows)))
        return count

    def ingest_many(self, flows: "Iterable[FlowRecord] | FlowBatch") -> int:
        """Route an iterable of flows (API edge: chunked :meth:`ingest_batch`)."""
        if isinstance(flows, FlowBatch):
            return self.ingest_batch(flows)
        count = 0
        for batch in iter_flow_batches(flows):
            count += self.ingest_batch(batch)
        return count

    # ------------------------------------------------------------------ stage 2

    def sweep(self, now: float) -> SweepReport:
        """One coordinated Stage-2 tick across aggregator and shards."""
        if not math.isfinite(now):  # before any shard sees the tick
            raise ValueError(f"sweep time {now} is not finite")
        started = time.perf_counter()
        report = open_sweep(self.admission, now)
        # Shards sweep concurrently with the aggregator (disjoint state).
        self._executor.broadcast(("tick", now))
        aggregator_report = self.aggregator.sweep(now)
        results: dict[int, ShardTickResult] = {}
        for reply in self._executor.gather():
            results.update(reply)

        ops: list[tuple] = []
        boundary_joins, boundary_prunes = self._reconcile(results, ops)
        self._handoff(ops)
        self._send_all(ops)

        self._merge_reports(
            report, aggregator_report, results, boundary_joins, boundary_prunes
        )
        report.duration_seconds = time.perf_counter() - started
        self.last_sweep_at = now
        return report

    def _send_all(self, cmds: Iterable[tuple]) -> None:
        """Send shard commands, each to the shard its second item names."""
        for cmd in cmds:
            self._executor.send(cmd[1], cmd)

    def _ask(self, *cmd: object) -> list:
        """Broadcast one query and gather every worker's reply."""
        self._executor.broadcast(cmd)
        return self._executor.gather()

    def _metrics(self) -> ShardMetrics:
        metrics = ShardMetrics()
        for part in self._ask("metrics"):
            metrics.add(part)
        return metrics

    def _reconcile(
        self, results: dict[int, ShardTickResult], ops: list[tuple]
    ) -> tuple[int, int]:
        """Cross-boundary closure: joins and prunes spanning the /k cut.

        A sibling pair of shard roots that a single engine would have
        merged (both single classified leaves, same ingress, combined
        samples above the parent's ``n_cidr``) is joined into the
        aggregator's parent leaf; then :meth:`IPD._join_pass` reruns on
        the aggregator (at most ``2^(k+1)`` leaves), which cascades the
        merged ranges upward exactly as the single engine's pass does.
        Likewise a pair of empty roots collapses back into an
        (unclassified, empty) aggregator leaf and cascades through
        ``prune_upward``.  Joins run before prunes, matching the single
        engine's per-sweep order.
        """
        joins = 0
        prunes = 0
        params = self.params
        for version in (IPV4, IPV6):
            tree = self.aggregator.trees[version]
            delegated = self._delegated[version]
            new_empty: list[int] = []
            for index in sorted(delegated):
                if index & 1 or (index + 1) not in delegated:
                    continue
                sibling = index + 1
                left = results[index].roots[version]
                right = results[sibling].roots[version]
                parent = Prefix(
                    index << self._shifts[version], self.split_depth, version
                ).parent()
                if left.kind == "classified" and right.kind == "classified":
                    if left.ingress != right.ingress:
                        continue
                    threshold = params.n_cidr(parent.masklen, version)
                    if left.total + right.total < threshold:
                        continue
                    for half, root in zip(parent.children(), (left, right)):
                        tree.assign(half, root.as_classified_state())
                    tree.join_all(np.array([tree.rows_under(parent).start]))
                    joins += 1
                elif left.kind == "empty" and right.kind == "empty":
                    tree.collapse(parent)
                    new_empty.append(parent.value)
                    prunes += 1
                else:
                    continue
                self._undelegate(version, index, ops)
                self._undelegate(version, sibling, ops)
            joins += self.aggregator._join_pass(tree)
            prunes += tree.prune_upward(new_empty)
        return joins, prunes

    def _handoff(self, ops: list[tuple]) -> None:
        """Delegate aggregator leaves that reached the shard depth.

        The aggregator's split cascade descends one level per sweep;
        any visible unclassified leaf now sitting exactly at depth
        ``k`` is handed to its shard, so between ticks the aggregator
        only ever owns ranges coarser than ``/k``.  The walk is over
        the aggregator trie only — at most ``2^(k+1)`` nodes.
        """
        depth = self.split_depth
        for version, tree in self.aggregator.trees.items():
            rows = ((tree.masklens == depth) & (tree.kinds == UNCLASSIFIED)).nonzero()[0]
            for leaf in tree.prefixes(rows):
                self._delegate(version, leaf, ops)

    def _delegate(
        self, version: int, leaf: Prefix, ops: list[tuple]
    ) -> None:
        tree = self.aggregator.trees[version]
        # Handoff is state *transfer*, not state sharing: the leaf's
        # observation state crosses the boundary as an encoded subtree
        # blob, so aggregator and shard never alias one state object
        # even in-process.
        payload = encode_subtree(leaf, version, subtree_to_image(tree, leaf))
        tree.delegate(leaf)
        index = leaf.value >> self._shifts[version]
        self._delegated[version].add(index)
        ops.append(("seed", index, version, payload))

    def _undelegate(self, version: int, index: int, ops: list[tuple]) -> None:
        self._delegated[version].discard(index)
        ops.append(("reset", index, version))

    def _merge_reports(
        self,
        report: SweepReport,
        aggregator_report: SweepReport,
        results: dict[int, ShardTickResult],
        boundary_joins: int,
        boundary_prunes: int,
    ) -> None:
        for part in [aggregator_report] + [r.report for r in results.values()]:
            report.classifications += part.classifications
            report.splits += part.splits
            report.joins += part.joins
            report.drops += part.drops
            report.prunes += part.prunes
            report.expired_sources += part.expired_sources
            report.decayed_ranges += part.decayed_ranges
            report.visited += part.visited
        report.joins += boundary_joins
        report.prunes += boundary_prunes
        # Leaf/classified totals reflect the post-reconcile state (the
        # single engine likewise counts after its join/prune passes).
        metrics = self._metrics()
        for version, tree in self.aggregator.trees.items():
            report.leaves_by_version[version] = tree.leaf_count() + (
                metrics.leaves_by_version.get(version, 0)
            )
        report.leaves = sum(report.leaves_by_version.values())
        report.classified = sum(
            tree.classified_count() for tree in self.aggregator.trees.values()
        ) + sum(metrics.classified_by_version.values())

    # ------------------------------------------------------------------ state io

    def to_image(self) -> EngineImage:
        """The merged single-engine-equivalent image of the whole deployment.

        Shard engines export their family trees as encoded blobs; each
        active one is grafted into the aggregator trie at its portal (the
        delegated placeholder leaf), and the split/join counts of every
        shard tree, active or not, fold into the per-family totals.  The
        result contains no delegated nodes: it is exactly the image a
        plain :class:`IPD` holding the same state would produce, which is
        what makes a sharded run's checkpoint restore as one plain engine.
        """
        exports: dict[int, dict[int, bytes]] = {}
        for part in self._ask("export"):
            exports.update(part)
        trees = {}
        for version, tree in self.aggregator.trees.items():
            grafts: dict[Prefix, NodeImage] = {}
            shard_splits = 0
            shard_joins = 0
            for index in sorted(exports):
                subtree = decode_subtree(exports[index][version])
                if subtree.root.kind != "delegated":
                    grafts[subtree.prefix] = subtree.root
                shard_splits += subtree.split_count
                shard_joins += subtree.join_count
            image = tree_to_image(tree, grafts)
            image.split_count += shard_splits
            image.join_count += shard_joins
            trees[version] = image
        return EngineImage(
            params=self.params,
            flows_ingested=self.flows_ingested,
            bytes_ingested=self.bytes_ingested,
            last_sweep_at=self.last_sweep_at,
            trees=trees,
        )

    def to_bytes(self) -> bytes:
        """Serialize the merged deployment state to one engine blob.

        With admission on, the controller's section is appended after the
        engine section, exactly as :meth:`IPD.to_bytes` appends its own —
        so the blob restores as one :class:`IPD`, gate included.
        """
        blob = encode_engine(self.to_image())
        if self.admission is not None:
            blob += self.admission.to_bytes()
        return blob

    # ------------------------------------------------------------------ output

    def snapshot(
        self, now: float, include_unclassified: bool = False
    ) -> list[IPDRecord]:
        """The merged Table-3 view — byte-identical to a single engine's."""
        records = self.aggregator.snapshot(
            now, include_unclassified=include_unclassified
        )
        for part in self._ask("snapshot", now, include_unclassified):
            records.extend(part)
        records.sort(key=lambda record: (record.version, record.range.value))
        return records

    # ------------------------------------------------------------------ metrics

    def state_size(self) -> int:
        return self.aggregator.state_size() + self._metrics().state_size

    def leaf_count(self) -> int:
        return self.aggregator.leaf_count() + self._metrics().leaf_count()

    def close(self) -> None:
        """Shut down executor workers (idempotent)."""
        if not self._closed:
            self._closed = True
            self._executor.close()

    def __enter__(self) -> "ShardedIPD":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

