"""The leaf table of ``RangeTree`` against an independent pointer trie.

The table is the tree: ``lookup_leaf`` is one ``searchsorted`` over
``starts``, a split turns one row into two, a join or a prune collapse
two into one, and a plant one into the leaves that tile it.  The
reference here is a pointer trie — every range a node, an internal one
with two children, each leaf with its kind and dirty flag — kept in the
test and stepped alongside by the same fold / split / join / collapse /
plant / prune / delegate / assign steps; it never reads the table, and
the table's ``kinds`` and ``dirty`` columns must equal its leaves'.
Lookups are also checked against a linear scan.
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
from repro.core.rangetree import CLASSIFIED, DELEGATED, UNCLASSIFIED, RangeTree
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
    __slots__ = ("prefix", "parent", "children", "kind", "dirty")

    def __init__(self, prefix: Prefix, parent: "Optional[Node]" = None) -> None:
        self.prefix = prefix
        self.parent = parent
        self.children: "Optional[list[Node]]" = None
        #: a leaf's kind code and dirty flag: a new leaf is unclassified
        #: and dirty, as every leaf a split or a merge makes
        self.kind, self.dirty = UNCLASSIFIED, True


#: the ``kinds`` code of an image leaf
IMAGE_KINDS = {"unclassified": UNCLASSIFIED, "classified": CLASSIFIED, "delegated": DELEGATED}


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

    def leaf_nodes(self, top: "Optional[Node]" = None) -> list[Node]:
        return [node for node in self.nodes(top) if node.children is None]

    def leaves(self, top: "Optional[Node]" = None) -> list[Prefix]:
        return [node.prefix for node in self.leaf_nodes(top)]

    def fold(self, ip_value: int) -> None:
        """A sample folded into the leaf holding *ip_value* dirties it
        when it is unclassified."""
        node = self.find(Prefix.from_ip(ip_value, self.root.prefix.bits, self.root.prefix.version))
        if node.kind == UNCLASSIFIED:
            node.dirty = True

    def assign(self, prefix: Prefix, kind: int) -> None:
        node = self.find(prefix)
        assert node.prefix == prefix and node.children is None
        node.kind, node.dirty = kind, kind != DELEGATED

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

    def merge(self, prefix: Prefix, kind: int = UNCLASSIFIED) -> None:
        node = self.find(prefix)
        assert node.prefix == prefix and node.children is not None
        assert all(child.children is None for child in node.children)
        node.children = None
        node.kind, node.dirty = kind, True

    def plant(self, prefix: Prefix, image: NodeImage) -> None:
        node = self.find(prefix)
        assert node.prefix == prefix and node.children is None

        def grow(target: Node, img: NodeImage) -> None:
            if img.kind == "internal":
                self.split(target.prefix)
                grow(target.children[0], img.left)
                grow(target.children[1], img.right)
            else:
                target.kind, target.dirty = IMAGE_KINDS[img.kind], img.dirty

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
                parent.kind, parent.dirty = UNCLASSIFIED, True
                empty.add(parent.prefix)
                collapsed += 1
                parent = parent.parent
        return collapsed


def scan_leaf(tree: RangeTree, ip_value: int) -> Prefix:
    """The leaf covering *ip_value*, by a linear scan of every leaf."""
    return next(leaf for leaf in tree.leaves() if leaf.contains_ip(ip_value))


COLUMNS = ("starts", "masklens", "kinds", "totals", "oldest", "dirty", "winners", "last_seen",
           "classified_at")


def assert_index_exact(tree: RangeTree, model: "Optional[PointerTrie]" = None) -> None:
    starts, leaves = tree.starts.tolist(), tree.leaves()
    root = tree.root_prefix
    assert len({len(getattr(tree, name)) for name in COLUMNS}) == 1
    assert starts == [leaf.value for leaf in leaves]
    # the leaves tile the root range, in address order
    assert starts[0] == root.value
    assert leaves[-1].last_value == root.last_value
    assert all(a.last_value + 1 == b.value for a, b in zip(leaves, leaves[1:]))
    assert all(root.contains(leaf) for leaf in leaves)
    assert len(leaves) == tree.leaf_count() + tree.delegated_count()
    # a winner exactly on the classified rows, counter rows under them
    # alone; a delegated row is never dirty
    kinds = tree.kinds.tolist()
    assert [winner >= 0 for winner in tree.winners] == [k == CLASSIFIED for k in kinds]
    assert set(tree.counters.starts.tolist()) <= set(tree.starts[tree.kinds == CLASSIFIED].tolist())
    assert not any(tree.dirty[tree.kinds == DELEGATED])
    if model is not None:
        assert leaves == model.leaves()
        assert kinds == [node.kind for node in model.leaf_nodes()]
        assert tree.dirty.tolist() == [node.dirty for node in model.leaf_nodes()]
        for node in model.nodes():
            assert tree.leaves_under(node.prefix) == model.leaves(node)
    for leaf in leaves:
        first, last = leaf.value, leaf.last_value
        assert tree.lookup_leaf(first) == leaf
        assert tree.lookup_leaf(last) == leaf
        for probe in (first - 1, last + 1):
            if root.contains_ip(probe):  # outside the root: no contract
                assert tree.lookup_leaf(probe) == scan_leaf(tree, probe)
                if model is not None:
                    assert tree.lookup_leaf(probe) == model.walk(probe)


# -- random restructuring ----------------------------------------------------------


#: folds samples into a bare tree: sources kept whole
FOLD = IPD(IPDParams(cidr_max_v4=32, cidr_max_v6=128))


def add(tree: RangeTree, address: int) -> None:
    """One sample into the leaf covering *address*, by the engine's fold."""
    FOLD.trees[tree.version] = tree
    FOLD.ingest_batch(FlowBatch.from_flows([FlowRecord(1.0, address, tree.version, A)]))


def clear(tree: RangeTree, prefix: Prefix) -> None:
    """Delete the cell-table rows under *prefix* (before its state is replaced)."""
    tree.table.drop(tree.table.spans([prefix.value], [prefix.masklen]))


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
    leaves = tree.leaves()
    leaf = leaves[pick % len(leaves)]
    growable = leaf.masklen < leaf.bits
    if op == "split" and growable and isinstance(tree.state(leaf), UnclassifiedState):
        # one source in each half, so the split has state to redistribute
        for address in (leaf.value, leaf.last_value):
            add(tree, address)
            model.fold(address)
        tree.split(leaf)
        model.split(leaf)
    elif op == "plant":
        image = random_image(leaf, pick)
        clear(tree, leaf)
        plant_image(tree, leaf, image)
        model.plant(leaf, image)
    elif op == "delegate" and isinstance(tree.state(leaf), UnclassifiedState):
        tree.delegate(leaf)
        model.assign(leaf, DELEGATED)
    elif op == "assign":
        clear(tree, leaf)
        tree.assign(leaf, (
            ClassifiedState(A, {A: 1.0 + pick % 5}, 0.0, 0.0) if pick % 2
            else UnclassifiedState()
        ))
        model.assign(leaf, CLASSIFIED if pick % 2 else UNCLASSIFIED)
    elif op == "prune_upward":
        # empty the unclassified leaves but one depth class in four, so
        # cascades from every third leaf stop part-way
        for node in leaves:
            if isinstance(tree.state(node), UnclassifiedState):
                if node.masklen % 4 == pick % 4:
                    add(tree, node.value)
                    model.fold(node.value)
                else:
                    clear(tree, node)
                    tree.assign(node, UnclassifiedState())
                    model.assign(node, UNCLASSIFIED)
        empty = {
            node for node in leaves
            if isinstance(tree.state(node), UnclassifiedState) and tree.state(node).is_empty()
        }
        candidates = leaves[pick % 3::3]
        expected = model.prune(candidates, empty)
        assert tree.prune_upward([node.value for node in candidates]) == expected
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
        model.merge(prefix, UNCLASSIFIED)


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
    for index, node in enumerate(model.leaf_nodes()):
        node.dirty = bool(dirty >> index % 64 & 1) and node.kind != DELEGATED
    tree.dirty[:] = [node.dirty for node in model.leaf_nodes()]
    prefix = tree.root_prefix
    blob = encode_subtree(prefix, tree.version, subtree_to_image(tree, prefix))
    twin = RangeTree(tree.version, root_prefix=prefix)
    plant_image(twin, prefix, decode_subtree(blob).root)
    assert_index_exact(twin, model)
    assert [(leaf, twin.state(leaf)) for leaf in twin.leaves()] == [
        (leaf, tree.state(leaf)) for leaf in tree.leaves()
    ]
    assert twin.dirty.tolist() == tree.dirty.tolist()
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
    assert tree.starts[-1] >= 1 << 64
    assert isinstance(tree.state(tree.leaves()[0]), DelegatedState)
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
    before = tree.leaves()
    seen = []
    for leaf in tree.leaves():
        seen.append(leaf)
        if leaf.masklen < 6:
            plant_image(tree, leaf, HALVES)
            model.plant(leaf, HALVES)
    assert seen == before
    assert_index_exact(tree, model)


# -- what the cache tests pinned that still means something ------------------------


def test_repeated_lookup_returns_the_same_leaf():
    tree = RangeTree(IPV4)
    plant_image(tree, tree.root_prefix, HALVES)
    for address in (0, 7, (1 << 31) - 1, 1 << 31, (1 << 32) - 1):
        assert tree.lookup_leaf(address) == tree.lookup_leaf(address)


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
            assert tree.lookup_leaf(address) == scan_leaf(tree, address)
        reports.append(engine.sweep(now + 60.0))
        assert_index_exact(tree)
    assert tree.split_count and tree.join_count
    assert sum(report.prunes for report in reports)
    assert tree.starts.tolist() == [0]


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
        assert twin.starts.tolist() == tree.starts.tolist()
        assert twin.leaves() == tree.leaves()
        assert twin.kinds.tolist() == tree.kinds.tolist()
        assert twin.dirty.tolist() == tree.dirty.tolist()
    assert len(engine.trees[IPV4].starts) > 3
