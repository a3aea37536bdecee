"""The binary trie of IPD ranges.

"This method treats the Internet's address space as a binary tree, with
each node representing a CIDR range" (§3.1).  The trie starts as a single
/0 leaf and is refined by splits and coarsened by joins as traffic
dictates.  Leaves carry range state; internal nodes only route lookups.

Leaves are pairwise disjoint and tile the root range, so the tree keeps
them in a sorted leaf index — ``_leaf_starts`` (first address of each
leaf) and ``_leaf_nodes`` (the leaves), both in address order — and a
lookup is one ``bisect_right``.  The index is exact by construction: the
only four methods that change the trie's shape (``split_all``,
``sprout``, ``join``, ``_collapse``) replace one entry by two or two by
one.  Unclassified leaves keep their per-source rows in one
address-ordered :class:`~repro.core.state.CellTable` (``table``), where
a leaf's rows are one span and a split moves none of them.

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
    """One node of the trie: a CIDR range, either leaf or internal."""

    __slots__ = ("prefix", "left", "right", "_state", "dead", "tree", "parent")

    def __init__(
        self,
        prefix: Prefix,
        state: Optional[RangeState] = None,
        tree: "Optional[RangeTree]" = None,
        parent: "Optional[RangeNode]" = None,
    ) -> None:
        self.prefix = prefix
        self.left: Optional[RangeNode] = None
        self.right: Optional[RangeNode] = None
        self.tree = tree
        self.parent = parent
        self.dead = False
        self._state: Optional[RangeState] = (
            state if state is not None else UnclassifiedState()
        )
        if tree is not None:
            tree._note_state_change(self, None, self._state)

    @property
    def state(self) -> Optional[RangeState]:
        return self._state

    @state.setter
    def state(self, value: Optional[RangeState]) -> None:
        old = self._state
        self._state = value
        if self.tree is not None:
            self.tree._note_state_change(self, old, value)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else "node"
        return f"<RangeNode {self.prefix} {kind}>"


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
        #: leaves currently owned by another engine (DelegatedState)
        self._delegated_count = 0
        self._classified: set[RangeNode] = set()
        #: leaves whose state changed since the last :meth:`drain_dirty`
        self.dirty: set[RangeNode] = set()
        self.root = RangeNode(
            root_prefix if root_prefix is not None else Prefix.root(version),
            tree=self,
        )
        #: the sorted leaf index: first address of every leaf, and the
        #: leaves themselves, in address order (delegated leaves included)
        self._leaf_starts: list[int] = [self.root.prefix.value]
        self._leaf_nodes: list[RangeNode] = [self.root]
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

    def _index_halve(self, left: RangeNode, right: RangeNode) -> None:
        """Replace a leaf's index entry by its two new children."""
        self._starts_array = None
        i = bisect_left(self._leaf_starts, left.prefix.value)
        self._leaf_nodes[i] = left
        self._leaf_starts.insert(i + 1, right.prefix.value)
        self._leaf_nodes.insert(i + 1, right)

    def _index_merge(self, parent: RangeNode) -> None:
        """Replace two sibling leaves' index entries by their parent."""
        self._starts_array = None
        i = bisect_left(self._leaf_starts, parent.prefix.value)
        self._leaf_nodes[i] = parent
        del self._leaf_starts[i + 1]
        del self._leaf_nodes[i + 1]

    # -- incremental bookkeeping ------------------------------------------------

    def _note_state_change(
        self,
        node: RangeNode,
        old: Optional[RangeState],
        new: Optional[RangeState],
    ) -> None:
        """Keep the counters and the dirty set in sync.

        Called by the ``RangeNode.state`` setter on every assignment, so
        even tests that classify a leaf directly keep the tree honest.
        """
        if isinstance(old, ClassifiedState):
            self._classified.discard(node)
        elif isinstance(old, DelegatedState):
            self._delegated_count -= 1
        if new is None:
            # the node became internal (split) — it is no longer a leaf
            self.dirty.discard(node)
            return
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
        """Mark a removed (joined/pruned) leaf dead and forget it."""
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
            if not node.is_leaf:
                raise ValueError(f"cannot split internal node {node.prefix}")
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
                RangeNode(halves[side], states[side], tree=self, parent=node)
                for side in (2 * index, 2 * index + 1)
            )
            node.left, node.right = left, right
            node.state = None
            self._index_halve(left, right)
            self.split_count += 1
            made.append((left, right))
        return made

    def join(self, parent: RangeNode, state: RangeState) -> RangeNode:
        """Collapse an internal node's two leaf children into one leaf.

        The caller supplies the merged *state* (the classifier decides
        how counters combine).  The detached children are marked dead.
        """
        if parent.is_leaf:
            raise ValueError(f"cannot join leaf {parent.prefix}")
        left, right = parent.left, parent.right
        assert left is not None and right is not None
        if not (left.is_leaf and right.is_leaf):
            raise ValueError(f"children of {parent.prefix} are not both leaves")
        self._detach(left)
        self._detach(right)
        parent.left = None
        parent.right = None
        parent.state = state
        self._index_merge(parent)
        self.join_count += 1
        return parent

    def sprout(self, node: RangeNode) -> tuple[RangeNode, RangeNode]:
        """Turn a leaf into an internal node with two fresh empty children.

        Pure structure growth for state restoration: unlike :meth:`split`
        it does not redistribute any observation state and does not count
        as an algorithmic split.  The caller (the state codec's planting
        pass) assigns each child's state afterwards.
        """
        if not node.is_leaf:
            raise ValueError(f"cannot sprout internal node {node.prefix}")
        left_prefix, right_prefix = node.prefix.children()
        left = RangeNode(left_prefix, tree=self, parent=node)
        right = RangeNode(right_prefix, tree=self, parent=node)
        node.left = left
        node.right = right
        node.state = None
        self._index_halve(left, right)
        return left, right

    def delegate(self, node: RangeNode) -> None:
        """Hand an unclassified leaf off to another engine: delete its rows
        (the caller images it first, to seed that engine) and mark it
        :class:`DelegatedState`.  Only unclassified leaves are delegated:
        the sharded runtime hands a range down once the split cascade
        reaches the shard depth, before it can classify."""
        if not node.is_leaf:
            raise ValueError(f"cannot delegate internal node {node.prefix}")
        if not isinstance(node._state, UnclassifiedState):
            raise ValueError(f"cannot delegate {node.prefix}: not unclassified")
        self.table.drop(self.table.spans([node.prefix]))
        node.state = DelegatedState()

    def collapse(self, parent: RangeNode) -> RangeNode:
        """Public form of the prune collapse for cross-engine callers.

        Turns *parent* (whose children must both be leaves) back into a
        single empty unclassified leaf and returns it.
        """
        if parent.is_leaf:
            raise ValueError(f"cannot collapse leaf {parent.prefix}")
        left, right = parent.left, parent.right
        assert left is not None and right is not None
        if not (left.is_leaf and right.is_leaf):
            raise ValueError(f"children of {parent.prefix} are not both leaves")
        self._collapse(parent)
        return parent

    # -- iteration -------------------------------------------------------------

    def leaves(self) -> Iterator[RangeNode]:
        """Yield all leaves in address order.

        Iterates a snapshot of the leaf index, so a caller may
        restructure the tree while iterating.
        """
        return iter(tuple(self._leaf_nodes))

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
        have just become empty and cascade upward through their
        ancestors.  This finds every collapse a full postorder walk would,
        because a pair can only become collapsible when one of its
        members changes — and every change puts that member in the
        candidate set.
        """
        collapsed = 0
        for leaf in candidates:
            if leaf.dead:
                continue  # already collapsed via an earlier candidate
            parent = leaf.parent
            while parent is not None:
                left, right = parent.left, parent.right
                if left is None or right is None:
                    break
                if not (left.is_leaf and right.is_leaf):
                    break
                if not (_is_empty_unclassified(left) and _is_empty_unclassified(right)):
                    break
                self._collapse(parent)
                collapsed += 1
                parent = parent.parent
        return collapsed

    def _collapse(self, parent: RangeNode) -> None:
        """Turn *parent* back into a single empty unclassified leaf."""
        left, right = parent.left, parent.right
        assert left is not None and right is not None
        self._detach(left)
        self._detach(right)
        parent.left = None
        parent.right = None
        parent.state = UnclassifiedState()
        self._index_merge(parent)


def _is_empty_unclassified(node: RangeNode) -> bool:
    state = node._state
    return isinstance(state, UnclassifiedState) and state.is_empty()
