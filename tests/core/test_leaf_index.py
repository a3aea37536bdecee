"""The sorted leaf index of ``RangeTree`` against an independent pointer trie.

The index is the tree: ``lookup_leaf`` is one ``bisect_right`` over
``_leaf_starts``, a split replaces one entry by two, a join or a prune
collapse two by one, and a plant one by the leaves that tile it.  The
reference here is the pointer trie the tree kept before — every range a
node, an internal one with two children — kept in the test and stepped
alongside by the same split / join / collapse / plant / prune steps; it
never reads the index.  Lookups are also checked against a linear scan.
"""

import importlib.util
import sys
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm import IPD
from repro.core.iputil import IPV4, IPV6, Prefix
from repro.core.params import IPDParams
from repro.core.rangetree import RangeNode, RangeTree
from repro.core.state import ClassifiedState, DelegatedState, UnclassifiedState
from repro.core.statecodec import (
    NodeImage,
    decode_subtree,
    encode_subtree,
    plant_image,
    subtree_to_image,
)
from repro.netflow.records import FlowBatch, FlowRecord
from repro.runtime.pipeline import Pipeline
from repro.testkit import FIG05_PARAMS, fig05_trace
from repro.topology.elements import IngressPoint

A = IngressPoint("R1", "et0")
B = IngressPoint("R2", "xe0")

ROOTS = {
    "v4": (IPV4, None),
    "v6": (IPV6, None),
    "v4-rooted": (IPV4, Prefix.from_string("10.0.0.0/8")),
    "v6-rooted": (IPV6, Prefix.from_string("2001:db8::/32")),
}


# -- the independent references ----------------------------------------------------


class Node:
    __slots__ = ("prefix", "parent", "children")

    def __init__(self, prefix: Prefix, parent: "Optional[Node]" = None) -> None:
        self.prefix = prefix
        self.parent = parent
        self.children: "Optional[list[Node]]" = None


class PointerTrie:
    """Every range a node; an internal node has two children."""

    def __init__(self, root: Prefix) -> None:
        self.root = Node(root)

    def find(self, prefix: Prefix) -> Node:
        """The node at *prefix*, or the leaf above it."""
        node = self.root
        while node.children is not None and node.prefix != prefix:
            left, right = node.children
            node = right if right.prefix.contains(prefix) else left
        return node

    def walk(self, ip_value: int) -> Prefix:
        """The leaf covering *ip_value*, one address bit per level."""
        node = self.root
        bits = node.prefix.bits
        while node.children is not None:
            bit_index = bits - node.prefix.masklen - 1
            node = node.children[(ip_value >> bit_index) & 1]
        return node.prefix

    def nodes(self, top: "Optional[Node]" = None) -> list[Node]:
        """Every node under *top* (the root by default), in preorder."""
        found, stack = [], [top or self.root]
        while stack:
            node = stack.pop()
            found.append(node)
            stack.extend(reversed(node.children or ()))
        return found

    def leaves(self, top: "Optional[Node]" = None) -> list[Prefix]:
        return [node.prefix for node in self.nodes(top) if node.children is None]

    def joinable(self) -> list[Node]:
        """Internal nodes whose children are both leaves."""
        return [
            node for node in self.nodes()
            if node.children is not None
            and all(child.children is None for child in node.children)
        ]

    def split(self, prefix: Prefix) -> None:
        node = self.find(prefix)
        assert node.prefix == prefix and node.children is None
        node.children = [Node(half, node) for half in prefix.children()]

    def merge(self, prefix: Prefix) -> None:
        node = self.find(prefix)
        assert node.prefix == prefix and node.children is not None
        assert all(child.children is None for child in node.children)
        node.children = None

    def plant(self, prefix: Prefix, image: NodeImage) -> None:
        node = self.find(prefix)
        assert node.prefix == prefix and node.children is None

        def grow(target: Node, img: NodeImage) -> None:
            if img.kind == "internal":
                self.split(target.prefix)
                grow(target.children[0], img.left)
                grow(target.children[1], img.right)

        grow(node, image)

    def prune(self, candidates: list[Prefix], empty: set[Prefix]) -> int:
        """Collapse empty sibling leaves upward from each candidate leaf."""
        collapsed = 0
        for prefix in candidates:
            node = self.find(prefix)
            if node.prefix != prefix:
                continue  # already collapsed via an earlier candidate
            parent = node.parent
            while parent is not None:
                left, right = parent.children
                if left.children is not None or right.children is not None:
                    break
                if not (left.prefix in empty and right.prefix in empty):
                    break
                parent.children = None
                empty.add(parent.prefix)
                collapsed += 1
                parent = parent.parent
        return collapsed


def scan_leaf(tree: RangeTree, ip_value: int) -> RangeNode:
    """The leaf covering *ip_value*, by a linear scan of every leaf."""
    return next(leaf for leaf in tree._leaf_nodes if leaf.prefix.contains_ip(ip_value))


def assert_index_exact(tree: RangeTree, model: "Optional[PointerTrie]" = None) -> None:
    starts, nodes = tree._leaf_starts, tree._leaf_nodes
    root = tree.root_prefix
    assert starts == [node.prefix.value for node in nodes]
    # the leaves tile the root range, in address order
    assert starts[0] == root.value
    assert nodes[-1].prefix.last_value == root.last_value
    assert all(a.prefix.last_value + 1 == b.prefix.value for a, b in zip(nodes, nodes[1:]))
    assert all(root.contains(node.prefix) for node in nodes)
    assert not any(node.dead for node in nodes)
    assert len(nodes) == tree.leaf_count() + tree.delegated_count()
    assert list(tree.leaves()) == nodes
    if model is not None:
        assert [node.prefix for node in nodes] == model.leaves()
        for node in model.nodes():
            assert [leaf.prefix for leaf in tree.leaves_under(node.prefix)] == model.leaves(node)
    for leaf in nodes:
        first, last = leaf.prefix.value, leaf.prefix.last_value
        assert tree.lookup_leaf(first) is leaf
        assert tree.lookup_leaf(last) is leaf
        for probe in (first - 1, last + 1):
            if root.contains_ip(probe):  # outside the root: no contract
                assert tree.lookup_leaf(probe) is scan_leaf(tree, probe)
                if model is not None:
                    assert tree.lookup_leaf(probe).prefix == model.walk(probe)


# -- random restructuring ----------------------------------------------------------


#: folds samples into a bare tree: sources kept whole
FOLD = IPD(IPDParams(cidr_max_v4=32, cidr_max_v6=128))


def add(tree: RangeTree, address: int) -> None:
    """One sample into the leaf covering *address*, by the engine's fold."""
    FOLD.trees[tree.version] = tree
    FOLD.ingest_batch(FlowBatch.from_flows([FlowRecord(1.0, address, tree.version, A)]))


def clear(tree: RangeTree, prefix: Prefix) -> None:
    """Delete the cell-table rows under *prefix* (before its state is replaced)."""
    tree.table.drop(tree.table.spans([prefix]))


def random_image(prefix: Prefix, pick: int, depth: int = 3) -> NodeImage:
    """A small image of *prefix*: its shape, leaf kinds and dirty flags read
    off the bits of *pick*."""
    if depth and prefix.masklen < prefix.bits and pick & 1:
        left, right = prefix.children()
        return NodeImage(
            kind="internal",
            left=random_image(left, pick >> 1, depth - 1),
            right=random_image(right, pick >> 5, depth - 1),
        )
    kind, dirty = pick >> 1 & 3, bool(pick >> 3 & 1)
    if kind == 0:
        return NodeImage("unclassified", dirty, sources=[])
    if kind == 1:
        return NodeImage("unclassified", dirty, sources=[(prefix.value, 1.0, [(A, 1.0)])],
                         total=1.0, oldest_seen=1.0)
    if kind == 2:
        return NodeImage("classified", dirty, ingress=A, counters=[(A, 2.0), (B, 1.0)],
                         last_seen=1.0, classified_at=0.0)
    return NodeImage("delegated")


def apply_op(tree: RangeTree, model: PointerTrie, op: str, pick: int) -> None:
    """Run one restructuring step on both; a step with no legal target is a no-op."""
    leaves = list(tree.leaves())
    leaf = leaves[pick % len(leaves)]
    growable = leaf.prefix.masklen < leaf.prefix.bits
    if op == "split" and growable and isinstance(leaf.state, UnclassifiedState):
        # one source in each half, so the split has state to redistribute
        for address in (leaf.prefix.value, leaf.prefix.last_value):
            add(tree, address)
        tree.split(leaf)
        model.split(leaf.prefix)
    elif op == "plant":
        image = random_image(leaf.prefix, pick)
        clear(tree, leaf.prefix)
        plant_image(tree, leaf.prefix, image)
        model.plant(leaf.prefix, image)
    elif op == "delegate" and isinstance(leaf.state, UnclassifiedState):
        tree.delegate(leaf)
    elif op == "assign":
        clear(tree, leaf.prefix)
        leaf.state = (
            ClassifiedState(A, {A: 1.0 + pick % 5}, 0.0, 0.0) if pick % 2
            else UnclassifiedState()
        )
    elif op == "prune_upward":
        # empty the unclassified leaves but one depth class in four, so
        # cascades from every third leaf stop part-way
        for node in leaves:
            if isinstance(node.state, UnclassifiedState):
                if node.prefix.masklen % 4 == pick % 4:
                    add(tree, node.prefix.value)
                else:
                    clear(tree, node.prefix)
                    node.state = UnclassifiedState()
        empty = {
            node.prefix for node in leaves
            if isinstance(node.state, UnclassifiedState) and node.state.is_empty()
        }
        candidates = leaves[pick % 3::3]
        expected = model.prune([node.prefix for node in candidates], empty)
        assert tree.prune_upward(candidates) == expected
    elif op in ("join", "collapse"):
        parents = model.joinable()
        if not parents:
            return
        prefix = parents[pick % len(parents)].prefix
        clear(tree, prefix)
        if op == "join":
            tree.join(prefix, UnclassifiedState())
        else:
            tree.collapse(prefix)
        model.merge(prefix)


OPS = ("split", "split", "plant", "plant", "join", "collapse",
       "prune_upward", "delegate", "assign")

STEPS = st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 1 << 16)), max_size=60)


def grown(root: str, steps) -> tuple[RangeTree, PointerTrie]:
    version, root_prefix = ROOTS[root]
    tree = RangeTree(version, root_prefix=root_prefix)
    model = PointerTrie(tree.root_prefix)
    for op, pick in steps:
        apply_op(tree, model, op, pick)
    return tree, model


@pytest.mark.parametrize("root", ROOTS, ids=list(ROOTS))
@settings(max_examples=60)
@given(steps=STEPS)
def test_index_tracks_every_restructuring(root, steps):
    tree, model = grown(root, [])
    assert_index_exact(tree, model)
    for op, pick in steps:
        apply_op(tree, model, op, pick)
        assert_index_exact(tree, model)


@pytest.mark.parametrize("root", ROOTS, ids=list(ROOTS))
@settings(max_examples=40)
@given(steps=STEPS, dirty=st.integers(0, (1 << 64) - 1))
def test_subtree_blob_replants_the_same_leaves(root, steps, dirty):
    """``subtree_to_image`` -> ``encode_subtree`` -> ``decode_subtree`` ->
    ``plant_image`` into a fresh tree gives the same leaves, states, dirty
    set and rows, and re-imaging it gives the same bytes."""
    tree, model = grown(root, steps)
    tree.drain_dirty()
    tree.dirty.update(
        leaf for index, leaf in enumerate(tree.leaves())
        if dirty >> index % 64 & 1 and not isinstance(leaf.state, DelegatedState)
    )
    prefix = tree.root_prefix
    blob = encode_subtree(prefix, tree.version, subtree_to_image(tree, prefix))
    twin = RangeTree(tree.version, root_prefix=prefix)
    plant_image(twin, prefix, decode_subtree(blob).root)
    assert_index_exact(twin, model)
    assert [(leaf.prefix, leaf.state) for leaf in twin.leaves()] == [
        (leaf.prefix, leaf.state) for leaf in tree.leaves()
    ]
    assert {leaf.prefix for leaf in twin.dirty} == {leaf.prefix for leaf in tree.dirty}
    assert twin.delegated_count() == tree.delegated_count()
    assert twin.classified_count() == tree.classified_count()
    assert encode_subtree(prefix, tree.version, subtree_to_image(twin, prefix)) == blob


def test_ipv6_starts_past_64_bits_and_delegated_leaves_stay_indexed():
    tree = RangeTree(IPV6)
    model = PointerTrie(tree.root_prefix)
    for __ in range(12):
        apply_op(tree, model, "split", -1)  # always the last (highest) leaf
    apply_op(tree, model, "delegate", 0)
    assert_index_exact(tree, model)
    assert tree._leaf_starts[-1] >= 1 << 64
    assert isinstance(tree._leaf_nodes[0].state, DelegatedState)
    assert tree.delegated_count() == 1


#: an image of two empty halves
HALVES = NodeImage(
    "internal", left=NodeImage("unclassified", sources=[]),
    right=NodeImage("unclassified", sources=[]),
)


def test_leaves_is_a_snapshot_safe_to_restructure_under():
    tree = RangeTree(IPV4)
    model = PointerTrie(tree.root_prefix)
    for pick in range(8):
        apply_op(tree, model, "plant", pick)
    before = list(tree._leaf_nodes)
    seen = []
    for leaf in tree.leaves():
        seen.append(leaf)
        if leaf.prefix.masklen < 6:
            plant_image(tree, leaf.prefix, HALVES)
            model.plant(leaf.prefix, HALVES)
    assert seen == before
    assert_index_exact(tree, model)


# -- what the cache tests pinned that still means something ------------------------


def test_repeated_lookup_returns_the_same_leaf():
    tree = RangeTree(IPV4)
    plant_image(tree, tree.root_prefix, HALVES)
    for address in (0, 7, (1 << 31) - 1, 1 << 31, (1 << 32) - 1):
        assert tree.lookup_leaf(address) is tree.lookup_leaf(address)


def test_lookups_stay_correct_across_sweeps_splits_and_joins():
    """Two ingresses split the space, go quiet (drops, prune collapses),
    come back, then one takes it all (joins) — the index follows."""
    engine = IPD(IPDParams(n_cidr_factor_v4=0.001, cidr_max_v4=8))
    tree = engine.trees[IPV4]
    low, high = 10 << 24, 200 << 24
    probes = [base + (slot << 24) for base in (low, high) for slot in range(6)]
    owners = [(A, B)] * 3 + [None] * 40 + [(A, B)] * 3 + [(A, A)] * 30
    reports = []
    for round_index, owner in enumerate(owners):
        now = round_index * 60.0
        if owner is not None:
            for base, ingress in zip((low, high), owner):
                engine.ingest_batch(FlowBatch.from_flows([
                    FlowRecord(timestamp=now, src_ip=base + (slot % 6 << 24),
                               version=IPV4, ingress=ingress)
                    for slot in range(60)
                ]))
        for address in probes:
            assert tree.lookup_leaf(address) is scan_leaf(tree, address)
        reports.append(engine.sweep(now + 60.0))
        assert_index_exact(tree)
    assert tree.split_count and tree.join_count
    assert sum(report.prunes for report in reports)
    assert tree._leaf_starts == [0]


# -- restore -----------------------------------------------------------------------


def _fig05_run():
    return FIG05_PARAMS, fig05_trace()


def _multifractal_run():
    """The ledger's seed-7 cascade trace, loaded without touching ``sys.path``."""
    path = Path(__file__).parents[2] / "benchmarks" / "ledger" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_ledger_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    trace = module.multifractal_trace(7)
    return trace.params, trace.batches


@pytest.mark.parametrize(
    "load", [_fig05_run, _multifractal_run], ids=["fig05", "multifractal"]
)
def test_restored_engine_has_the_source_engines_index(load):
    params, flows = load()
    with Pipeline(params) as pipeline:
        pipeline.run(flows)
        engine = pipeline.engine
    restored = IPD.from_bytes(engine.to_bytes())
    assert restored.to_bytes() == engine.to_bytes()
    for version, tree in engine.trees.items():
        twin = restored.trees[version]
        assert_index_exact(twin)
        assert twin._leaf_starts == tree._leaf_starts
        assert [n.prefix for n in twin._leaf_nodes] == [
            n.prefix for n in tree._leaf_nodes
        ]
        assert [type(n.state) for n in twin._leaf_nodes] == [
            type(n.state) for n in tree._leaf_nodes
        ]
    assert len(engine.trees[IPV4]._leaf_starts) > 3
