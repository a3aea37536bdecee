"""The binary trie of IPD ranges.

"This method treats the Internet's address space as a binary tree, with
each node representing a CIDR range" (§3.1).  The trie starts as a single
/0 leaf and is refined by splits and coarsened by joins as traffic
dictates.

Leaves are pairwise disjoint and tile the root range, so the tree is its
sorted leaf index — ``_leaf_starts`` (first address of each leaf) and
``_leaf_nodes`` (the leaves), both in address order — and a lookup is one
``bisect_right``.  A :class:`RangeNode` is always a leaf; internal ranges
are implicit.  The index changes in three ways: a split replaces one
entry by two, a join or a prune collapse replaces two siblings (index
neighbours) by one, and a restore (:meth:`RangeTree.plant`) replaces one
entry by the leaves that tile it.  Unclassified leaves keep their
per-source rows in one address-ordered
:class:`~repro.core.state.CellTable` (``table``), where a leaf's rows are
one span and a split moves none of them.

The tree also keeps the incremental bookkeeping the sweep machinery
needs to avoid full-trie walks:

* ``leaf_count()`` / ``classified_count()`` are O(1): the index length
  and a set maintained by split/join/prune and by state assignment.
* ``dirty`` is the set of leaves whose state changed since the last
  :meth:`drain_dirty` — the sweep visits those instead of every leaf.
* :meth:`expire` is one mask over the cell table and names, in address
  order, the leaves that lost a source — the sweep's other visits, so an
  idle leaf with nothing stale is never touched.

Every mutation of a node's state — including direct assignment like
``leaf.state = ClassifiedState(...)`` — funnels through the ``state``
property setter, which notifies the owning tree so the counters and
dirty set can never go stale.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from ..devtools.markers import hot_path
from .iputil import Prefix
from .state import CellTable, ClassifiedState, DelegatedState, UnclassifiedState, reduce_spans

__all__ = ["RangeNode", "RangeTree"]

RangeState = Union[UnclassifiedState, ClassifiedState, DelegatedState]

_INF = float("inf")


class RangeNode:
    """One leaf of the trie: a CIDR range and its state."""

    __slots__ = ("prefix", "_state", "dead", "tree")

    def __init__(
        self,
        prefix: Prefix,
        state: Optional[RangeState] = None,
        tree: "Optional[RangeTree]" = None,
    ) -> None:
        self.prefix = prefix
        self.tree = tree
        self.dead = False
        self._state: RangeState = state if state is not None else UnclassifiedState()
        if tree is not None:
            tree._note_state_change(self, None, self._state)

    @property
    def state(self) -> RangeState:
        return self._state

    @state.setter
    def state(self, value: RangeState) -> None:
        old = self._state
        self._state = value
        if self.tree is not None:
            self.tree._note_state_change(self, old, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RangeNode {self.prefix}>"


class RangeTree:
    """Binary trie over one address family, rooted at /0.

    The sharded runtime roots shard tries at a depth-``k`` subtree
    instead: pass *root_prefix* to cover only that CIDR range.  All
    operations (lookup, split, join, prune) are relative to the root, so
    a rooted tree behaves exactly like the corresponding subtree of a
    /0 tree.
    """

    def __init__(
        self,
        version: int,
        root_prefix: Optional[Prefix] = None,
    ) -> None:
        if root_prefix is not None and root_prefix.version != version:
            raise ValueError(
                f"root prefix {root_prefix} does not match IPv{version}"
            )
        self.version = version
        self.root_prefix = root_prefix if root_prefix is not None else Prefix.root(version)
        #: leaves currently owned by another engine (DelegatedState)
        self._delegated_count = 0
        self._classified: set[RangeNode] = set()
        #: leaves whose state changed since the last :meth:`drain_dirty`
        self.dirty: set[RangeNode] = set()
        #: the sorted leaf index: first address of every leaf, and the
        #: leaves themselves, in address order (delegated leaves included)
        self._leaf_starts: list[int] = [self.root_prefix.value]
        self._leaf_nodes: list[RangeNode] = [RangeNode(self.root_prefix, tree=self)]
        self._starts_array: Optional[np.ndarray] = None
        #: every unclassified leaf's sources and cells, in address order
        self.table = CellTable(version)
        #: number of splits/joins performed (resource-metric bookkeeping)
        self.split_count = 0
        self.join_count = 0

    # -- lookup -------------------------------------------------------------

    @hot_path
    def lookup_leaf(self, ip_value: int) -> RangeNode:
        """Return the unique leaf whose range contains *ip_value*.

        *ip_value* must lie inside the root prefix.  A rooted (shard)
        tree asked for a foreign address answers with an arbitrary leaf;
        the sharded router guarantees that never happens.
        """
        return self._leaf_nodes[bisect_right(self._leaf_starts, ip_value) - 1]

    def locate(self, addresses: np.ndarray) -> np.ndarray:
        """Leaf-index positions of *addresses* (the table's address dtype)."""
        if self._starts_array is None:
            self._starts_array = np.array(self._leaf_starts, dtype=self.table.ips.dtype)
        return np.searchsorted(self._starts_array, addresses, side="right") - 1

    def sources(self, leaf: RangeNode) -> list:
        """An unclassified leaf's ``(masked_ip, last_seen, [(ingress,
        weight), ...])`` per source, sources and cells in first-seen order."""
        return self.table.sources(self.table.spans([leaf.prefix]))[0]

    def expire(self, cutoff: float) -> tuple[int, list[RangeNode]]:
        """Drop every source last seen strictly before *cutoff*; returns how
        many, and the leaves that lost one in address order.  Such a leaf
        subtracts the removed weights from ``total`` (exact) and re-tightens
        ``oldest_seen``; no other leaf changes."""
        gone, owners, weights = self.table.expire(cutoff)
        if not len(gone):
            return 0, []
        touched = np.unique(self.locate(gone))
        removed = np.bincount(np.searchsorted(touched, self.locate(owners)), weights)
        leaves = [self._leaf_nodes[index] for index in touched.tolist()]
        a, b, __, __ = self.table.spans([leaf.prefix for leaf in leaves])
        oldest = reduce_spans(np.minimum, self.table.seen, a, b, _INF)
        for leaf, weight, bound in zip(leaves, removed.tolist(), oldest.tolist()):
            state = leaf._state
            assert isinstance(state, UnclassifiedState)
            state.total = state.total - weight if bound != _INF else 0.0
            state.oldest_seen = bound
        return len(gone), leaves

    def _splice(self, at: int, count: int, nodes: list[RangeNode]) -> list[RangeNode]:
        """Replace index entries ``at:at + count`` by *nodes*, which tile the
        same range; the replaced leaves die."""
        self._starts_array = None
        for node in self._leaf_nodes[at:at + count]:
            self._detach(node)
        self._leaf_nodes[at:at + count] = nodes
        self._leaf_starts[at:at + count] = [node.prefix.value for node in nodes]
        return nodes

    # -- incremental bookkeeping ------------------------------------------------

    def _note_state_change(
        self,
        node: RangeNode,
        old: Optional[RangeState],
        new: RangeState,
    ) -> None:
        """Keep the counters and the dirty set in sync.

        Called by the ``RangeNode.state`` setter on every assignment, so
        even tests that classify a leaf directly keep the tree honest.
        """
        if isinstance(old, ClassifiedState):
            self._classified.discard(node)
        elif isinstance(old, DelegatedState):
            self._delegated_count -= 1
        if node.dead:
            return
        if isinstance(new, DelegatedState):
            # the leaf's state now lives in another engine: inert here
            self._delegated_count += 1
            self.dirty.discard(node)
            return
        if isinstance(new, ClassifiedState):
            self._classified.add(node)
        self.dirty.add(node)

    def _detach(self, node: RangeNode) -> None:
        """Mark a removed (split, joined, pruned or replanted) leaf dead and
        forget it."""
        node.dead = True
        self.dirty.discard(node)
        self._classified.discard(node)
        if isinstance(node._state, DelegatedState):
            self._delegated_count -= 1

    @hot_path
    def drain_dirty(self) -> set[RangeNode]:
        """Return the leaves touched since the last drain and reset the set."""
        dirty = self.dirty
        self.dirty = set()
        return dirty

    # -- structure changes ----------------------------------------------------

    def split(self, node: RangeNode) -> tuple[RangeNode, RangeNode]:
        """Split a leaf into its two halves (:meth:`split_all` of one)."""
        return self.split_all([node])[0]

    def split_all(self, nodes: "list[RangeNode]") -> list[tuple[RangeNode, RangeNode]]:
        """Split unclassified leaves in halves, moving no row: each half's
        ``total`` and ``oldest_seen`` are read off its part of the span."""
        for node in nodes:
            if node.dead:
                raise ValueError(f"cannot split removed leaf {node.prefix}")
            if not isinstance(node._state, UnclassifiedState):
                raise ValueError(f"cannot split classified range {node.prefix}")
        halves = [half for node in nodes for half in node.prefix.children()]
        a, b, c, d = self.table.spans(halves)
        totals = reduce_spans(np.add, self.table.weights, c, d, 0.0).tolist()
        oldest = reduce_spans(np.minimum, self.table.seen, a, b, _INF).tolist()
        states = list(map(UnclassifiedState, totals, oldest))
        made = []
        for index, node in enumerate(nodes):
            # creating each node marks it dirty
            left, right = (
                RangeNode(halves[side], states[side], tree=self)
                for side in (2 * index, 2 * index + 1)
            )
            self._splice(bisect_left(self._leaf_starts, node.prefix.value), 1, [left, right])
            self.split_count += 1
            made.append((left, right))
        return made

    def join(self, prefix: Prefix, state: RangeState) -> RangeNode:
        """Merge the two leaves that halve *prefix* into one leaf there.

        The caller supplies the merged *state* (the classifier decides
        how counters combine).  The two halves are marked dead.
        """
        node = self._merge(self._halves_at(prefix), prefix, state)
        self.join_count += 1
        return node

    def collapse(self, prefix: Prefix) -> RangeNode:
        """The prune collapse for cross-engine callers: the two leaves that
        halve *prefix* become one empty unclassified leaf, returned."""
        return self._merge(self._halves_at(prefix), prefix, UnclassifiedState())

    def _halves_at(self, prefix: Prefix) -> int:
        """Index position of the two leaves that halve *prefix*."""
        at = bisect_left(self._leaf_starts, prefix.value)
        if [node.prefix for node in self._leaf_nodes[at:at + 2]] != list(prefix.children()):
            raise ValueError(f"the halves of {prefix} are not both leaves")
        return at

    def _merge(self, at: int, prefix: Prefix, state: RangeState) -> RangeNode:
        return self._splice(at, 2, [RangeNode(prefix, state, tree=self)])[0]

    def plant(self, prefix: Prefix, leaves: "list[tuple[Prefix, RangeState]]") -> list[RangeNode]:
        """Replace the leaf at *prefix* by *leaves*, ``(prefix, state)`` pairs
        that tile it in address order, in one splice; returns the new leaves.

        Structure for state restoration: unlike :meth:`split` it moves no
        row and counts no split.
        """
        at = bisect_left(self._leaf_starts, prefix.value)
        if at == len(self._leaf_nodes) or self._leaf_nodes[at].prefix != prefix:
            raise ValueError(f"{prefix} is not a leaf")
        return self._splice(at, 1, [RangeNode(part, state, tree=self) for part, state in leaves])

    def delegate(self, node: RangeNode) -> None:
        """Hand an unclassified leaf off to another engine: delete its rows
        (the caller images it first, to seed that engine) and mark it
        :class:`DelegatedState`.  Only unclassified leaves are delegated:
        the sharded runtime hands a range down once the split cascade
        reaches the shard depth, before it can classify."""
        if node.dead:
            raise ValueError(f"cannot delegate removed leaf {node.prefix}")
        if not isinstance(node._state, UnclassifiedState):
            raise ValueError(f"cannot delegate {node.prefix}: not unclassified")
        self.table.drop(self.table.spans([node.prefix]))
        node.state = DelegatedState()

    # -- iteration -------------------------------------------------------------

    def leaves(self) -> Iterator[RangeNode]:
        """Yield all leaves in address order.

        Iterates a snapshot of the leaf index, so a caller may
        restructure the tree while iterating.
        """
        return iter(tuple(self._leaf_nodes))

    def leaves_under(self, prefix: Prefix) -> list[RangeNode]:
        """The leaves inside *prefix*, in address order: a slice of the index."""
        starts = self._leaf_starts
        low = bisect_left(starts, prefix.value)
        return self._leaf_nodes[low:bisect_right(starts, prefix.last_value, low)]

    def leaf_count(self) -> int:
        """Number of *visible* leaves — O(1), the index length less delegations.

        Delegated leaves (ranges owned by another engine) are excluded,
        so the visible leaves of a sharded deployment's aggregator plus
        its shard trees sum to exactly the single-engine count.
        """
        return len(self._leaf_nodes) - self._delegated_count

    def delegated_count(self) -> int:
        """Number of leaves currently delegated to another engine — O(1)."""
        return self._delegated_count

    def classified_count(self) -> int:
        """Number of classified leaves — O(1)."""
        return len(self._classified)

    def classified_leaves(self) -> list[RangeNode]:
        """The classified leaves in address order."""
        return sorted(self._classified, key=lambda node: node.prefix.value)

    # -- maintenance -------------------------------------------------------------

    def prune_upward(self, candidates: Iterable[RangeNode]) -> int:
        """Collapse empty unclassified sibling pairs reachable from *candidates*.

        Instead of walking the whole trie, start from the leaves known to
        have just become empty and cascade upward.  This finds every
        collapse a full postorder walk would, because a pair can only
        become collapsible when one of its members changes — and every
        change puts that member in the candidate set.  A leaf's sibling,
        when it is a leaf, is its index neighbour: the one after it for a
        lower half, the one before it for an upper half.
        """
        collapsed = 0
        starts, nodes = self._leaf_starts, self._leaf_nodes
        top, bits = self.root_prefix.masklen, self.root_prefix.bits
        for leaf in candidates:
            if leaf.dead:
                continue  # already collapsed via an earlier candidate
            value, masklen, version = leaf.prefix
            at = bisect_left(starts, value)
            while masklen > top and _is_empty_unclassified(nodes[at]):
                size = 1 << (bits - masklen)
                other = at - 1 if value & size else at + 1
                if nodes[other].prefix.masklen != masklen or starts[other] != value ^ size:
                    break
                if not _is_empty_unclassified(nodes[other]):
                    break
                at, value, masklen = min(at, other), value & ~size, masklen - 1
                self._merge(at, Prefix(value, masklen, version), UnclassifiedState())
                collapsed += 1
        return collapsed


def _is_empty_unclassified(node: RangeNode) -> bool:
    state = node._state
    return isinstance(state, UnclassifiedState) and state.is_empty()
