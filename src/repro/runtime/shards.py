"""The engine side of address-space sharding.

One :class:`ShardEngine` owns the depth-``k`` subtree at its shard
index: a full :class:`~repro.core.algorithm.IPD` whose per-family tries
are *rooted* at the shard's ``/k`` prefix instead of ``/0``.  A tree
whose root carries a :class:`~repro.core.state.DelegatedState` is
*inactive* — the aggregator still owns that range as a coarse leaf.
The coordinator activates a shard by shipping the aggregator leaf's
observation state down (a ``seed`` op) and deactivates it when a
cross-boundary join or prune pulls the range back up (a ``reset`` op).
A shard engine runs ungated: the coordinator's one admission gate has
already picked the rows it is fed.

Everything in this module is executor-agnostic: the executors'
:class:`~repro.runtime.executors.ShardWorker` calls it in-process or
inside a worker process (all types here are picklable for that reason).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..core.algorithm import IPD, SweepReport
from ..core.iputil import IPV4, IPV6, Prefix
from ..core.params import IPDParams
from ..core.state import ClassifiedState, DelegatedState, UnclassifiedState
from ..core.statecodec import (
    StateCodecError,
    decode_subtree,
    encode_subtree,
    plant_image,
    subtree_to_image,
)
from ..netflow.records import FlowBatch
from ..topology.elements import IngressPoint

if TYPE_CHECKING:
    from ..core.rangetree import RangeTree

__all__ = ["ShardEngine", "ShardTickResult", "RootSummary", "ShardMetrics"]


@dataclass
class RootSummary:
    """What the coordinator needs to know about one shard-family root.

    ``kind`` is one of:

    * ``"inactive"``   — the root is delegated (aggregator owns the range)
    * ``"busy"``       — the shard holds structure or samples under it
    * ``"empty"``      — single empty unclassified leaf (prunable)
    * ``"classified"`` — single classified leaf (joinable with its sibling)
    """

    kind: str
    ingress: Optional[IngressPoint] = None
    counters: Optional[dict[IngressPoint, float]] = None
    last_seen: float = 0.0
    classified_at: float = 0.0
    total: float = 0.0

    def as_classified_state(self) -> ClassifiedState:
        assert self.kind == "classified"
        assert self.ingress is not None and self.counters is not None
        return ClassifiedState(
            ingress=self.ingress,
            counters=dict(self.counters),
            last_seen=self.last_seen,
            classified_at=self.classified_at,
        )


@dataclass
class ShardTickResult:
    """One shard engine's contribution to a coordinated sweep tick."""

    index: int
    report: SweepReport
    #: family version -> post-sweep root summary
    roots: dict[int, RootSummary] = field(default_factory=dict)


@dataclass
class ShardMetrics:
    """Exact post-hoc counters for one or more shard engines."""

    state_size: int = 0
    leaves_by_version: dict[int, int] = field(default_factory=dict)
    classified_by_version: dict[int, int] = field(default_factory=dict)

    def add(self, other: "ShardMetrics") -> None:
        self.state_size += other.state_size
        for version, count in other.leaves_by_version.items():
            self.leaves_by_version[version] = (
                self.leaves_by_version.get(version, 0) + count
            )
        for version, count in other.classified_by_version.items():
            self.classified_by_version[version] = (
                self.classified_by_version.get(version, 0) + count
            )

    def leaf_count(self) -> int:
        return sum(self.leaves_by_version.values())


class ShardEngine:
    """One depth-``k`` subtree of the address space, run as a full IPD."""

    def __init__(self, params: IPDParams, depth: int, index: int) -> None:
        self.index = index
        self.depth = depth
        roots = {
            version: Prefix(index << (Prefix.root(version).bits - depth),
                            depth, version)
            for version in (IPV4, IPV6)
        }
        self.ipd = IPD(params, roots=roots)
        # Both family trees start inactive: the aggregator owns the whole
        # space until its split cascade reaches the shard depth.
        for tree in self.ipd.trees.values():
            tree.assign(tree.root_prefix, DelegatedState())

    # -- ops ----------------------------------------------------------------

    def seed(self, version: int, payload: "bytes | memoryview") -> None:
        """Activate one family tree by planting an encoded subtree blob.

        The blob is either a single handed-down aggregator leaf (the
        per-sweep handoff) or a whole subtree carved out of a merged
        checkpoint image on resume.  Planting through the state codec
        restores the tree's dirty flags, and the blob holds every other
        sweep input, so the shard's next sweep behaves exactly as the
        source engine's would have.
        """
        image = decode_subtree(payload)
        tree = self.ipd.trees[version]
        root = _root_leaf(tree)
        assert root is not None and isinstance(tree.state(root), DelegatedState)
        if image.version != version or image.prefix != root:
            raise StateCodecError(
                f"seed for {image.prefix} (IPv{image.version}) does not "
                f"match shard root {root} (IPv{version})"
            )
        plant_image(tree, root, image.root)
        tree.split_count += image.split_count
        tree.join_count += image.join_count

    def reset(self, version: int) -> None:
        """Deactivate one family tree (range pulled back into the aggregator)."""
        tree = self.ipd.trees[version]
        root = _root_leaf(tree)
        assert root is not None
        tree.assign(root, DelegatedState())

    def export(self) -> dict[int, bytes]:
        """Serialize every family tree as a subtree blob.

        The coordinator grafts the active ones into its aggregator image
        to form the merged single-engine-equivalent checkpoint.  An
        inactive tree (root delegated — the aggregator owns the range)
        encodes as a bare delegated root, exported only for the
        split/join counts it made while it was active.
        """
        return {
            version: encode_subtree(
                tree.root_prefix,
                version,
                subtree_to_image(tree, tree.root_prefix),
                tree.split_count,
                tree.join_count,
            )
            for version, tree in self.ipd.trees.items()
        }

    # -- data path ----------------------------------------------------------

    def ingest_batch(self, batch: FlowBatch) -> int:
        return self.ipd.ingest_batch(batch)

    def tick(self, now: float) -> ShardTickResult:
        """Sweep and summarize the roots for boundary reconciliation."""
        report = self.ipd.sweep(now)
        return ShardTickResult(
            index=self.index,
            report=report,
            roots={
                version: self._summarize_root(tree)
                for version, tree in self.ipd.trees.items()
            },
        )

    @staticmethod
    def _summarize_root(tree: "RangeTree") -> RootSummary:
        root = _root_leaf(tree)
        if root is None:
            return RootSummary("busy")
        state = tree.state(root)
        if isinstance(state, DelegatedState):
            return RootSummary("inactive")
        if isinstance(state, ClassifiedState):
            return RootSummary(
                "classified",
                ingress=state.ingress,
                counters=dict(state.counters),
                last_seen=state.last_seen,
                classified_at=state.classified_at,
                total=state.total,
            )
        assert isinstance(state, UnclassifiedState)
        return RootSummary("empty" if state.is_empty() else "busy")

    def metrics(self) -> ShardMetrics:
        return ShardMetrics(
            state_size=self.ipd.state_size(),
            leaves_by_version={
                version: tree.leaf_count()
                for version, tree in self.ipd.trees.items()
            },
            classified_by_version={
                version: tree.classified_count()
                for version, tree in self.ipd.trees.items()
            },
        )


def _root_leaf(tree: "RangeTree") -> "Optional[Prefix]":
    """The tree's root prefix while it is one unsplit leaf, else ``None``."""
    return tree.root_prefix if len(tree.starts) == 1 else None
