"""The sorted leaf index of ``RangeTree`` against an independent trie walk.

``RangeTree.lookup_leaf`` is one ``bisect_right`` over ``_leaf_starts``;
the index is kept in step by ``split`` / ``sprout`` / ``join`` /
``_collapse``.  The references here are what the tree used before the
index existed — a stack DFS over ``.left`` / ``.right`` for the leaf
order and a bit-by-bit descent for a lookup — and never read the index.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm import IPD
from repro.core.iputil import IPV4, IPV6, Prefix
from repro.core.params import IPDParams
from repro.core.rangetree import RangeNode, RangeTree
from repro.core.state import ClassifiedState, DelegatedState, UnclassifiedState
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


def dfs_leaves(tree: RangeTree) -> list[RangeNode]:
    """Leaves in address order by walking the child pointers."""
    found = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.left is None:
            found.append(node)
        else:
            stack.append(node.right)
            stack.append(node.left)
    return found


def walk_leaf(tree: RangeTree, ip_value: int) -> RangeNode:
    """The leaf covering *ip_value*, one address bit per level."""
    node = tree.root
    bits = node.prefix.bits
    while node.left is not None:
        bit_index = bits - node.prefix.masklen - 1
        node = node.right if (ip_value >> bit_index) & 1 else node.left
    return node


def assert_index_exact(tree: RangeTree) -> None:
    starts, nodes = tree._leaf_starts, tree._leaf_nodes
    reference = dfs_leaves(tree)
    assert all(a < b for a, b in zip(starts, starts[1:]))
    assert starts == [node.prefix.value for node in reference]
    assert len(nodes) == len(reference)
    assert all(got is want for got, want in zip(nodes, reference))
    assert not any(node.dead or node.left is not None for node in nodes)
    assert len(nodes) == tree.leaf_count() + tree.delegated_count()
    assert list(tree.leaves()) == reference
    root = tree.root.prefix
    for leaf in reference:
        first, last = leaf.prefix.value, leaf.prefix.last_value
        assert tree.lookup_leaf(first) is leaf
        assert tree.lookup_leaf(last) is leaf
        for probe in (first - 1, last + 1):
            if root.contains_ip(probe):  # outside the root: no contract
                assert tree.lookup_leaf(probe) is walk_leaf(tree, probe)


# -- random restructuring ----------------------------------------------------------


def joinable(tree: RangeTree) -> list[RangeNode]:
    """Internal nodes whose children are both leaves."""
    return [
        leaf.parent for leaf in dfs_leaves(tree)
        if leaf.parent is not None
        and leaf is leaf.parent.left and leaf.parent.right.left is None
    ]


#: folds samples into a bare tree: sources kept whole
FOLD = IPD(IPDParams(cidr_max_v4=32, cidr_max_v6=128))


def add(tree: RangeTree, address: int) -> None:
    """One sample into the leaf covering *address*, by the engine's fold."""
    FOLD.trees[tree.version] = tree
    FOLD.ingest_batch(FlowBatch.from_flows([FlowRecord(1.0, address, tree.version, A)]))


def clear(tree: RangeTree, node: RangeNode) -> None:
    """Delete the cell-table rows under *node* (before its state is replaced)."""
    tree.table.drop(tree.table.spans([node.prefix]))


def apply_op(tree: RangeTree, op: str, pick: int) -> None:
    """Run one restructuring step; a step with no legal target is a no-op."""
    leaves = dfs_leaves(tree)
    leaf = leaves[pick % len(leaves)]
    growable = leaf.prefix.masklen < leaf.prefix.bits
    if op == "split" and growable and isinstance(leaf.state, UnclassifiedState):
        # one source in each half, so the split has state to redistribute
        for address in (leaf.prefix.value, leaf.prefix.last_value):
            add(tree, address)
        tree.split(leaf)
    elif op == "sprout" and growable:
        tree.sprout(leaf)
    elif op == "delegate" and isinstance(leaf.state, UnclassifiedState):
        tree.delegate(leaf)
    elif op == "assign":
        clear(tree, leaf)
        leaf.state = (
            ClassifiedState(A, {A: 1.0}, 0.0, 0.0) if pick % 2
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
                    clear(tree, node)
                    node.state = UnclassifiedState()
        tree.prune_upward(leaves[pick % 3::3])
    elif op in ("join", "collapse"):
        parents = joinable(tree)
        if not parents:
            return
        parent = parents[pick % len(parents)]
        if op == "join":
            clear(tree, parent)
            tree.join(parent, UnclassifiedState())
        else:
            tree.collapse(parent)


OPS = ("split", "split", "sprout", "sprout", "join", "collapse",
       "prune_upward", "delegate", "assign")


@pytest.mark.parametrize("root", ROOTS, ids=list(ROOTS))
@settings(max_examples=60)
@given(steps=st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 1 << 16)), max_size=60
))
def test_index_tracks_every_restructuring(root, steps):
    version, root_prefix = ROOTS[root]
    tree = RangeTree(version, root_prefix=root_prefix)
    assert_index_exact(tree)
    for op, pick in steps:
        apply_op(tree, op, pick)
        assert_index_exact(tree)


def test_ipv6_starts_past_64_bits_and_delegated_leaves_stay_indexed():
    tree = RangeTree(IPV6)
    for __ in range(12):
        apply_op(tree, "split", -1)  # always the last (highest) leaf
    apply_op(tree, "delegate", 0)
    assert_index_exact(tree)
    assert tree._leaf_starts[-1] >= 1 << 64
    assert isinstance(tree._leaf_nodes[0].state, DelegatedState)
    assert tree.delegated_count() == 1


def test_leaves_is_a_snapshot_safe_to_restructure_under():
    tree = RangeTree(IPV4)
    for pick in range(8):
        apply_op(tree, "sprout", pick)
    before = dfs_leaves(tree)
    seen = []
    for leaf in tree.leaves():
        seen.append(leaf)
        if leaf.prefix.masklen < 6:
            tree.sprout(leaf)
    assert seen == before
    assert_index_exact(tree)


# -- what the cache tests pinned that still means something ------------------------


def test_repeated_lookup_returns_the_same_leaf():
    tree = RangeTree(IPV4)
    tree.sprout(tree.root)
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
            assert tree.lookup_leaf(address) is walk_leaf(tree, address)
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
