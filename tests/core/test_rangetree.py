"""Tests for the binary range trie."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm import IPD
from repro.core.iputil import IPV4, IPV6, Prefix, parse_ip
from repro.core.params import IPDParams
from repro.core.rangetree import CLASSIFIED, RangeTree
from repro.core.state import ClassifiedState, UnclassifiedState
from repro.netflow.records import FlowBatch, FlowRecord
from repro.topology.elements import IngressPoint

A = IngressPoint("R1", "et0")


def ip(text: str) -> int:
    return parse_ip(text)[0]


def root_leaf(tree: RangeTree):
    """The one leaf covering the whole root range, or None once it is split."""
    leaves = tree.leaves_under(tree.root_prefix)
    return leaves[0] if len(leaves) == 1 else None


def root_state(tree: RangeTree):
    """The state of the unsplit root leaf."""
    return tree.state(root_leaf(tree))


def dirty_leaves(tree: RangeTree) -> set:
    """The leaves whose dirty flag is set."""
    return set(tree.prefixes(tree.dirty.nonzero()[0]))


def drain(tree: RangeTree) -> set:
    """The dirty leaves, clearing the flags as a sweep does."""
    found = dirty_leaves(tree)
    tree.dirty[:] = False
    return found


#: folds samples into a bare tree: sources kept whole, weighted by bytes
FOLD = IPD(IPDParams(cidr_max_v4=32, cidr_max_v6=128, count_bytes=True))


def add(tree: RangeTree, address, ingress, timestamp, weight=1) -> None:
    """One sample into the leaf covering *address*, by the engine's fold."""
    FOLD.trees[tree.version] = tree
    FOLD.ingest_batch(
        FlowBatch.from_flows(
            [FlowRecord(timestamp, address, tree.version, ingress, bytes=int(weight))]
        )
    )


class TestLookup:
    def test_root_covers_everything(self):
        tree = RangeTree(IPV4)
        leaf = tree.lookup_leaf(ip("1.2.3.4"))
        assert leaf == root_leaf(tree)

    def test_lookup_after_split(self):
        tree = RangeTree(IPV4)
        add(tree, ip("10.0.0.0"), A, 0.0)
        add(tree, ip("200.0.0.0"), A, 0.0)
        left, right = tree.split(root_leaf(tree))
        assert tree.lookup_leaf(ip("10.0.0.1")) == left
        assert tree.lookup_leaf(ip("200.0.0.1")) == right

    def test_cache_invalidated_by_split(self):
        tree = RangeTree(IPV4)
        address = ip("10.0.0.0")
        root = root_leaf(tree)
        first = tree.lookup_leaf(address)
        assert first == root
        add(tree, address, A, 0.0)
        tree.split(root)
        second = tree.lookup_leaf(address)
        assert second != root
        assert second.contains_ip(address)


class TestSplit:
    def test_split_redistributes_per_ip_state(self):
        tree = RangeTree(IPV4)
        add(tree, ip("10.0.0.0"), A, 1.0, weight=3.0)
        add(tree, ip("200.0.0.0"), A, 2.0, weight=5.0)
        left, right = tree.split(root_leaf(tree))
        assert tree.state(left).sample_count == 3.0
        assert tree.state(right).sample_count == 5.0
        assert tree.sources(left) == [(ip("10.0.0.0"), 1.0, [(A, 3.0)])]
        assert tree.sources(right) == [(ip("200.0.0.0"), 2.0, [(A, 5.0)])]

    def test_split_conserves_total(self):
        tree = RangeTree(IPV4)
        for offset in range(50):
            add(tree, (offset * 77_000_000) % (1 << 32), A, 0.0)
        total = tree.state(root_leaf(tree)).sample_count
        left, right = tree.split(root_leaf(tree))
        assert tree.state(left).sample_count + tree.state(right).sample_count == total

    def test_split_internal_rejected(self):
        tree = RangeTree(IPV4)
        root = root_leaf(tree)
        tree.split(root)
        with pytest.raises(ValueError):
            tree.split(root)  # no longer a leaf

    def test_split_classified_rejected(self):
        tree = RangeTree(IPV4)
        tree.assign(root_leaf(tree), ClassifiedState(A, {A: 5.0}, 0.0, 0.0))
        with pytest.raises(ValueError):
            tree.split(root_leaf(tree))

    def test_split_counter(self):
        tree = RangeTree(IPV4)
        tree.split(root_leaf(tree))
        assert tree.split_count == 1


class TestJoin:
    def test_join_collapses_children(self):
        tree = RangeTree(IPV4)
        tree.split(root_leaf(tree))
        merged = ClassifiedState(A, {A: 10.0}, 0.0, 0.0)
        tree.join(tree.root_prefix, merged)
        assert root_leaf(tree) == tree.root_prefix
        assert tree.state(tree.root_prefix) == merged
        assert tree.join_count == 1

    def test_join_marks_children_dead(self):
        tree = RangeTree(IPV4)
        left, right = tree.split(root_leaf(tree))
        tree.lookup_leaf(ip("10.0.0.0"))
        tree.join(tree.root_prefix, UnclassifiedState())
        assert left not in tree.leaves() and right not in tree.leaves()
        for half in (left, right):
            with pytest.raises(ValueError):
                tree.state(half)
        assert tree.lookup_leaf(ip("10.0.0.0")) == root_leaf(tree)

    def test_join_leaf_rejected(self):
        tree = RangeTree(IPV4)
        with pytest.raises(ValueError):
            tree.join(tree.root_prefix, UnclassifiedState())

    def test_join_with_grandchildren_rejected(self):
        tree = RangeTree(IPV4)
        left, __ = tree.split(root_leaf(tree))
        tree.split(left)
        with pytest.raises(ValueError):
            tree.join(tree.root_prefix, UnclassifiedState())


class TestIteration:
    def test_leaves_in_address_order(self):
        tree = RangeTree(IPV4)
        left, right = tree.split(root_leaf(tree))
        tree.split(right)
        prefixes = tree.leaves()
        values = [prefix.value for prefix in prefixes]
        assert values == sorted(values)
        assert len(prefixes) == 3

    def test_leaves_partition_space(self):
        tree = RangeTree(IPV4)
        left, right = tree.split(root_leaf(tree))
        tree.split(left)
        total = sum(leaf.num_addresses for leaf in tree.leaves())
        assert total == 1 << 32

    def test_leaf_count(self):
        tree = RangeTree(IPV4)
        assert tree.leaf_count() == 1
        tree.split(root_leaf(tree))
        assert tree.leaf_count() == 2

    def test_classified_leaves_filter(self):
        tree = RangeTree(IPV4)
        left, right = tree.split(root_leaf(tree))
        tree.assign(left, ClassifiedState(A, {A: 1.0}, 0.0, 0.0))
        classified = tree.prefixes(tree.kinds == CLASSIFIED)
        assert classified == [left]

    def test_classified_leaves_ascend_whatever_the_classification_order(self):
        """The classified leaves are rows of the address-ordered leaf table,
        whatever order they were classified in."""
        tree = RangeTree(IPV4)
        frontier = [root_leaf(tree)]
        for __ in range(5):  # 32 leaves at /5
            frontier = [child for node in frontier for child in tree.split(node)]
        for index in sorted(range(32), key=lambda i: (i * 13) % 32):
            tree.assign(frontier[index], ClassifiedState(A, {A: 1.0}, 0.0, 0.0))
        values = [leaf.value for leaf in tree.prefixes(tree.kinds == CLASSIFIED)]
        assert len(values) == 32
        assert all(low < high for low, high in zip(values, values[1:]))


class TestIncrementalCounters:
    def walked_leaf_count(self, tree: RangeTree) -> int:
        return sum(1 for __ in tree.leaves())

    def test_leaf_count_tracks_split_join_prune(self):
        tree = RangeTree(IPV4)
        assert tree.leaf_count() == self.walked_leaf_count(tree) == 1
        left, right = tree.split(root_leaf(tree))
        tree.split(left)
        assert tree.leaf_count() == self.walked_leaf_count(tree) == 3
        tree.prune_upward([leaf.value for leaf in tree.leaves()])
        assert tree.leaf_count() == self.walked_leaf_count(tree) == 1
        tree.split(root_leaf(tree))
        tree.join(tree.root_prefix, UnclassifiedState())
        assert tree.leaf_count() == self.walked_leaf_count(tree) == 1

    def test_classified_count_tracks_state_assignment(self):
        tree = RangeTree(IPV4)
        left, right = tree.split(root_leaf(tree))
        assert tree.classified_count() == 0
        tree.assign(left, ClassifiedState(A, {A: 1.0}, 0.0, 0.0))
        tree.assign(right, ClassifiedState(A, {A: 1.0}, 0.0, 0.0))
        assert tree.classified_count() == 2
        tree.assign(right, UnclassifiedState())  # drop
        assert tree.classified_count() == 1
        assert tree.prefixes(tree.kinds == CLASSIFIED) == [left]
        tree.join(tree.root_prefix, ClassifiedState(A, {A: 2.0}, 0.0, 0.0))
        assert tree.classified_count() == 1
        assert tree.prefixes(tree.kinds == CLASSIFIED) == [root_leaf(tree)]

    def test_dirty_tracks_touched_leaves(self):
        tree = RangeTree(IPV4)
        assert drain(tree) == {tree.root_prefix}  # the root starts dirty
        left, right = tree.split(root_leaf(tree))
        assert drain(tree) == {left, right}
        assert drain(tree) == set()
        add(tree, ip("1.2.3.4"), A, 0.0)
        assert drain(tree) == {left}  # a fold marks its leaf
        tree.assign(right, ClassifiedState(A, {A: 1.0}, 0.0, 0.0))
        assert right in drain(tree)


class TestPrune:
    def test_prune_collapses_empty_siblings(self):
        tree = RangeTree(IPV4)
        left, __ = tree.split(root_leaf(tree))
        removed = tree.prune_upward([left.value])
        assert removed == 1
        assert root_leaf(tree) is not None

    def test_prune_cascades(self):
        tree = RangeTree(IPV4)
        left, __ = tree.split(root_leaf(tree))
        leftleft, __ = tree.split(left)
        removed = tree.prune_upward([leftleft.value])
        assert removed == 2  # cascades: /2 pair, then /1 pair
        assert root_leaf(tree) is not None
        assert tree.leaf_count() == 1

    def test_prune_upward_stops_at_nonremovable_sibling(self):
        tree = RangeTree(IPV4)
        left, right = tree.split(root_leaf(tree))
        add(tree, ip("200.0.0.0"), A, 0.0)
        removed = tree.prune_upward([left.value])
        assert removed == 0
        assert root_leaf(tree) is None

    def test_prune_keeps_nonempty(self):
        tree = RangeTree(IPV4)
        left, right = tree.split(root_leaf(tree))
        add(tree, ip("1.0.0.0"), A, 0.0)
        removed = tree.prune_upward([left.value, right.value])
        assert removed == 0
        assert root_leaf(tree) is None


class TestIPv6:
    def test_v6_tree_lookup_and_split(self):
        tree = RangeTree(IPV6)
        value = parse_ip("2001:db8::1")[0]
        add(tree, value, A, 0.0)
        left, right = tree.split(root_leaf(tree))
        found = tree.lookup_leaf(value)
        assert found.masklen == 1
        assert found.contains_ip(value)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        min_size=1,
        max_size=60,
    ),
    st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=30),
)
def test_property_lookup_always_contains(addresses, split_choices):
    """However the trie is split, lookups land in a covering leaf and
    the leaves always partition the full address space."""
    tree = RangeTree(IPV4)
    for address in addresses:
        add(tree, address, A, 0.0) if root_leaf(tree) is not None else None
    for choice in split_choices:
        leaves = [
            leaf
            for leaf in tree.leaves()
            if isinstance(tree.state(leaf), UnclassifiedState)
            and leaf.masklen < 28
        ]
        if not leaves:
            break
        tree.split(leaves[choice % len(leaves)])
    for address in addresses:
        leaf = tree.lookup_leaf(address)
        assert leaf.contains_ip(address)
    assert sum(leaf.num_addresses for leaf in tree.leaves()) == 1 << 32
