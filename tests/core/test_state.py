"""Tests for per-range state (unclassified and classified).

An unclassified range's sources live in its trie's :class:`CellTable`,
so these drive them through the one way rows get there —
``IPD.ingest_batch`` — and read them back through the tree.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.algorithm import IPD
from repro.core.bundles import router_peak
from repro.core.iputil import IPV4, IPV6
from repro.core.params import IPDParams
from repro.core.rangetree import CLASSIFIED, DELEGATED, UNCLASSIFIED, RangeTree
from repro.core.state import (
    ClassifiedState,
    DelegatedState,
    UnclassifiedState,
    ingress_points,
    per_span,
    reduce_spans,
)
from repro.core.statecodec import (
    StateCodecError,
    decode_subtree,
    encode_engine,
    encode_subtree,
    engine_to_image,
    subtree_to_image,
)
from repro.netflow.records import FlowBatch, FlowRecord
from repro.testkit.oracle import ReferenceIPD, _Classified
from repro.topology.elements import IngressPoint
from tests.core.test_rangetree import root_leaf, root_state

A = IngressPoint("R1", "et0")
B = IngressPoint("R2", "et0")
C = IngressPoint("R3", "et0")
INGRESSES = (A, B, C)

INF = float("inf")

#: sources kept whole (/32) and weighted by their byte count
PARAMS = IPDParams(cidr_max_v4=32, count_bytes=True)


def flow(ip, ingress, timestamp, weight=1) -> FlowRecord:
    return FlowRecord(
        timestamp=float(timestamp), src_ip=ip, version=IPV4, ingress=ingress,
        bytes=int(weight),
    )


def add(ipd: IPD, ip, ingress, timestamp, weight=1) -> None:
    """One sample, as a one-row batch."""
    ipd.ingest_batch(FlowBatch.from_flows([flow(ip, ingress, timestamp, weight)]))


def root(ipd: IPD) -> UnclassifiedState:
    return root_state(ipd.trees[IPV4])


def sources(ipd: IPD):
    tree = ipd.trees[IPV4]
    return tree.sources(root_leaf(tree))


def check_table(tree: RangeTree) -> None:
    """The cell table's invariants, exactly, for every leaf of *tree*."""
    table = tree.table.merged()
    ips, keys = table.ips.tolist(), table.keys.tolist()
    # sorted, no duplicate rows, every cell's source present, every
    # source with a cell
    assert ips == sorted(set(ips)) and keys == sorted(set(keys))
    assert sorted({key >> 32 for key in keys}) == ips
    assert len(ips) == len(table.seen) == len(table.ip_seq)
    assert len(keys) == len(table.weights) == len(table.key_seq)
    # a source's number is unique, and a cell's among its source's cells:
    # the only numbers the walk compares
    assert len(set(table.ip_seq.tolist())) == len(ips)
    assert len({(key >> 32, seq) for key, seq in zip(keys, table.key_seq.tolist())}) == len(keys)
    # each row lies in an unclassified leaf (no other leaf owns rows)
    for ip in ips:
        assert isinstance(tree.state(tree.lookup_leaf(ip)), UnclassifiedState)
    for leaf in tree.leaves():
        state = tree.state(leaf)
        a, b, c, d = (int(part[0]) for part in tree.table.spans([leaf.value], [leaf.masklen]))
        if not isinstance(state, UnclassifiedState):
            assert isinstance(state, (ClassifiedState, DelegatedState))
            assert a == b and c == d
            continue
        # the span is exactly the prefix's sources
        assert all(leaf.contains_ip(ip) for ip in ips[a:b])
        rows = tree.sources(leaf)
        assert [ip for ip, *__ in rows] == sorted(
            ips[a:b], key=lambda ip: table.ip_seq[ips.index(ip)]
        )
        assert sum(len(cells) for *__, cells in rows) == d - c
        weights = [weight for *__, cells in rows for __, weight in cells]
        assert state.total == sum(weights)  # exact, not approx: no drift
        # the grouped reads agree with the nested view they stand for
        span = (np.array([c]), np.array([d]))
        totals = per_span(*table.totals(*span)).get(0, {})
        assert totals == {
            point: sum(w for *__, cells in rows for p, w in cells if p == point)
            for point in totals
        }
        if state.total > 0:  # the router bound keeps exactly what router_peak would
            for q in (0.55, 0.8, 0.95):
                kept = table.totals(*span, np.array([state.total]), q)[0]
                assert (0 in kept) == (router_peak(totals) / state.total >= q)
        walk = [point for *__, cells in rows for point, __ in cells]
        owners, codes = table.first_seen(*span)
        assert not owners.any() and ingress_points(codes) == list(dict.fromkeys(walk))
        assert all(cells for *__, cells in rows)
        if rows:
            assert state.oldest_seen <= min(seen for __, seen, __ in rows)
        else:
            assert state.oldest_seen == INF


class TestUnclassifiedState:
    def test_add_accumulates_total(self):
        ipd = IPD(PARAMS)
        add(ipd, 10, A, timestamp=1.0)
        add(ipd, 10, A, timestamp=2.0)
        add(ipd, 20, B, timestamp=3.0)
        assert root(ipd).sample_count == 3.0

    def test_add_with_weight(self):
        ipd = IPD(PARAMS)
        add(ipd, 10, A, timestamp=1.0, weight=5.0)
        assert root(ipd).sample_count == 5.0

    def test_last_seen_keeps_newest(self):
        ipd = IPD(PARAMS)
        add(ipd, 10, A, timestamp=5.0)
        add(ipd, 10, A, timestamp=3.0)  # late sample, earlier clock
        assert sources(ipd) == [(10, 5.0, [(A, 2.0)])]

    def test_ingress_totals(self):
        ipd = IPD(PARAMS)
        add(ipd, 10, A, 1.0)
        add(ipd, 11, A, 1.0)
        add(ipd, 12, B, 1.0, weight=2.0)
        tree = ipd.trees[IPV4]
        __, __, c, d = tree.spans([0])
        assert per_span(*tree.table.totals(c, d)) == {0: {A: 2.0, B: 2.0}}

    def test_expire_removes_stale_sources(self):
        ipd = IPD(PARAMS)
        add(ipd, 10, A, timestamp=0.0)
        add(ipd, 20, A, timestamp=100.0)
        tree = ipd.trees[IPV4]
        removed, rows = tree.expire(cutoff=50.0)
        assert (removed, tree.prefixes(rows)) == (1, [root_leaf(tree)])
        assert sources(ipd) == [(20, 100.0, [(A, 1.0)])]
        assert root(ipd).sample_count == 1.0
        assert root(ipd).oldest_seen == 100.0

    def test_expire_everything_resets_total(self):
        ipd = IPD(PARAMS)
        add(ipd, 10, A, 0.0)
        ipd.trees[IPV4].expire(cutoff=1000.0)
        assert root(ipd).is_empty()
        assert root(ipd).sample_count == 0.0
        assert len(ipd.trees[IPV4].table.keys) == 0

    def test_expire_reads_a_leaf_whose_bound_is_just_before_the_cutoff(self):
        ipd = IPD(PARAMS)
        add(ipd, 10, A, timestamp=70.0)
        removed, rows = ipd.trees[IPV4].expire(cutoff=70.5)
        assert (removed, len(rows), sources(ipd)) == (1, 1, [])

    def test_expire_keeps_boundary(self):
        ipd = IPD(PARAMS)
        add(ipd, 10, A, timestamp=50.0)
        removed, rows = ipd.trees[IPV4].expire(cutoff=50.0)
        assert (removed, len(rows)) == (0, 0)  # strictly-before

    def test_newest_timestamp(self):
        ipd = IPD(PARAMS)
        tree = ipd.trees[IPV4]
        a, b, __, __ = tree.spans([0])
        assert reduce_spans(np.maximum, tree.table.seen, a, b, -INF).tolist() == [-INF]
        add(ipd, 10, A, 7.0)
        add(ipd, 11, A, 9.0)
        a, b, __, __ = tree.spans([0])
        assert reduce_spans(np.maximum, tree.table.seen, a, b, -INF).tolist() == [9.0]


class TestUnclassifiedBatch:
    """A batch adds each source's summed weight per ingress and its newest
    timestamp; the range's ``oldest_seen`` takes the batch's oldest."""

    def test_add_batch_new_source_adds_its_cells(self):
        ipd = IPD(PARAMS)
        ipd.ingest_batch(
            FlowBatch.from_flows(
                [flow(10, A, 3.0), flow(10, B, 5.0), flow(10, A, 4.0)]
            )
        )
        assert sources(ipd) == [(10, 5.0, [(A, 2.0), (B, 1.0)])]
        assert root(ipd).total == 3.0
        assert ipd.state_size() == 2
        assert root(ipd).oldest_seen == 3.0

    def test_add_batch_merges_existing_source(self):
        ipd = IPD(PARAMS)
        add(ipd, 10, A, timestamp=4.0, weight=1.0)
        ipd.ingest_batch(
            FlowBatch.from_flows(
                [flow(10, B, 2.0, 3), flow(10, A, 6.0, 2)]
            )
        )
        assert sources(ipd) == [(10, 6.0, [(A, 3.0), (B, 3.0)])]
        assert root(ipd).total == 6.0
        assert ipd.state_size() == 2
        assert root(ipd).oldest_seen == 2.0
        check_table(ipd.trees[IPV4])

    def test_add_batch_equals_per_sample_adds(self):
        samples = [flow(10, A, 4.0), flow(10, B, 2.0), flow(10, A, 6.0)]
        one_by_one = IPD(PARAMS)
        for sample in samples:
            one_by_one.ingest_batch(FlowBatch.from_flows([sample]))
        grouped = IPD(PARAMS)
        grouped.ingest_batch(FlowBatch.from_flows(samples))
        # the literal per-sample sums the paper's Stage 1 would keep
        for ipd in (one_by_one, grouped):
            assert sources(ipd) == [(10, 6.0, [(A, 2.0), (B, 1.0)])]
            assert (root(ipd).total, root(ipd).oldest_seen) == (3.0, 2.0)
        assert one_by_one.to_bytes() == grouped.to_bytes()


class TestRowNumbers:
    """A new row is numbered ``base + its first row in the batch`` and the
    base then moves by the batch's length; a batch's rows wait as one run
    until a reader merges the runs."""

    @pytest.mark.parametrize("merge_each", [False, True], ids=["pending", "merged"])
    def test_known_source_seen_again_keeps_its_place(self, merge_each):
        """Ten sources first, so the three small batches after them wait as
        three runs (runs merge early only once they outgrow the table)."""
        ipd = IPD(PARAMS)
        ipd.ingest_batch(FlowBatch.from_flows([flow(ip, C, 1.0) for ip in range(100, 110)]))
        batches = [[(20, A)], [(10, A), (30, B)], [(30, A), (20, B), (10, A)]]
        for pending, rows in enumerate(batches, 1):
            ipd.ingest_batch(FlowBatch.from_flows([flow(ip, point, 1.0) for ip, point in rows]))
            if merge_each:
                ipd.trees[IPV4].table.merged()
            assert len(ipd.trees[IPV4].table._runs) == (0 if merge_each else pending)
        assert [(ip, [point for point, __ in cells]) for ip, __, cells in sources(ipd)][10:] == [
            (20, [A, B]), (10, [A]), (30, [B, A])
        ]
        check_table(ipd.trees[IPV4])

    @pytest.mark.parametrize("merge_each", [False, True], ids=["pending", "merged"])
    def test_new_cell_of_a_known_source_sorts_after_its_older_cells(self, merge_each):
        """The old cell came last in its batch (rank 6), the new one first
        in the next (rank 0): the base puts the new number above the old."""
        ipd = IPD(PARAMS)
        batches = [[(ip, A) for ip in range(100, 106)] + [(10, B)], [(10, A)]]
        for rows in batches:
            ipd.ingest_batch(FlowBatch.from_flows([flow(ip, point, 1.0) for ip, point in rows]))
            if merge_each:
                ipd.trees[IPV4].table.merged()
        assert sources(ipd)[-1] == (10, 1.0, [(B, 1.0), (A, 1.0)])
        check_table(ipd.trees[IPV4])

    def test_loose_bound_leaf_is_a_candidate_that_loses_nothing(self):
        """The leaf's oldest source got fresh traffic, so its ``oldest_seen``
        (a lower bound) is before the cutoff while every source is after
        it: expiry reads its span and changes nothing — not the figures, not
        the visit set, not a byte of the blob but the sweep time."""
        ipd = IPD(PARAMS)
        tree = ipd.trees[IPV4]

        def blob() -> bytes:
            return encode_engine(replace(engine_to_image(ipd), last_sweep_at=None))

        ipd.ingest_batch(FlowBatch.from_flows([flow(10, A, 0.0), flow(20, A, 50.0)]))
        ipd.sweep(60.0)
        ipd.ingest_batch(FlowBatch.from_flows([flow(10, A, 100.0)]))
        ipd.sweep(110.0)
        before, bytes_before = root(ipd), blob()
        cutoff = 150.0 - PARAMS.e
        assert before.oldest_seen < cutoff <= min(seen for __, seen, __ in sources(ipd))
        report = ipd.sweep(150.0)
        assert (report.visited, report.expired_sources) == (0, 0)
        assert root(ipd) == before == UnclassifiedState(3.0, 0.0)
        assert not tree.dirty.any()
        assert blob() == bytes_before


def _batch(rows) -> FlowBatch:
    return FlowBatch.from_flows(
        [flow(ip, INGRESSES[code % 3], ts, weight) for ip, code, ts, weight in rows]
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),     # 0-2 add / 3 expire / 4 split / 5 batch
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            st.integers(min_value=0, max_value=600),   # timestamp
            st.integers(min_value=1, max_value=9),     # weight
        ),
        min_size=1,
        max_size=80,
    )
)
def test_property_total_never_drifts(operations):
    """After any add/expire/split/batch sequence, every range's ``total``
    equals the exact sum of its cell weights — the incremental counters
    cannot drift — and the table keeps its invariants."""
    ipd = IPD(PARAMS)
    tree = ipd.trees[IPV4]
    for opcode, address, timestamp, weight in operations:
        leaves = list(tree.leaves())
        target = leaves[address % len(leaves)]
        if opcode <= 2:
            add(ipd, address, INGRESSES[opcode], timestamp, weight)
        elif opcode == 3:
            tree.expire(cutoff=float(timestamp))
        elif opcode == 4 and target.masklen < 24:
            tree.split(target)
        else:
            ipd.ingest_batch(
                _batch(
                    [(address, weight, timestamp, weight),
                     (address ^ 1 << 31, weight + 1, max(0, timestamp - weight), 1),
                     (address, weight + 2, timestamp, weight)]
                )
            )
        check_table(tree)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.booleans(),                                   # batch / expire
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            st.integers(min_value=0, max_value=600),         # timestamp
            st.lists(st.integers(0, 1 << 40), min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_property_expire_subtracts_exactly(operations):
    """Expiry subtracts the removed sources instead of re-summing the
    survivors; with byte-sized integer weights (up to 2^40) the result is
    exactly what a fresh re-sum of the leaf's rows gives, and a split
    taken afterwards hands its children totals that add up to the
    parent's."""
    ipd = IPD(PARAMS)
    tree = ipd.trees[IPV4]
    for is_add, source, timestamp, weights in operations:
        if is_add:
            ipd.ingest_batch(
                _batch(
                    [(source, 0, max(0, timestamp - 30), 0)]
                    + [(source, code, timestamp, weight) for code, weight in enumerate(weights)]
                )
            )
            continue
        removed, __ = tree.expire(cutoff=float(timestamp))
        rows = sources(ipd)
        assert all(seen >= timestamp for __, seen, __ in rows)  # no stale source kept
        cells = [weight for *__, cells in rows for __, weight in cells]
        assert root(ipd).total == sum(cells)
        assert ipd.state_size() == len(cells)
        if removed:
            assert root(ipd).oldest_seen == min(
                (seen for __, seen, __ in rows), default=INF
            )
    total = root(ipd).total
    left, right = tree.split(root_leaf(tree))
    assert tree.state(left).total + tree.state(right).total == total
    check_table(tree)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.booleans(),                                    # batch / sweep
            st.lists(
                st.tuples(
                    st.integers(0, 255),                      # /8 of the source
                    st.integers(0, 2),                        # ingress
                    st.integers(0, 59),                       # offset in the tick
                    st.integers(1, 1500),                     # bytes
                ),
                min_size=1,
                max_size=12,
            ),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_property_table_invariants_hold_through_ingest_and_sweeps(steps):
    """After any mix of batches and sweeps the table is sorted, every
    unclassified leaf's span holds exactly its prefix's sources, ``total``
    is a fresh re-sum of the span, ``oldest_seen`` bounds the span's
    ``last_seen`` from below — and equals its minimum after an expiry
    that removed a source — and classified leaves own no rows.  The
    sources' numbers rise in first-seen order: by batch, then by first
    row in it (a source that left the table and came back is new)."""
    params = IPDParams(
        n_cidr_factor_v4=0.0005, cidr_max_v4=16, count_bytes=True, t=60.0, e=120.0
    )
    ipd = IPD(params)
    tree = ipd.trees[IPV4]
    now = 0.0
    first: dict[int, tuple[int, int]] = {}  # masked source -> (step, row)
    for step, (is_batch, rows) in enumerate(steps):
        if is_batch:
            for row, (top, *__) in enumerate(rows):
                first.setdefault(top << 24, (step, row))
            ipd.ingest_batch(
                _batch(
                    [(top << 24 | offset << 8, code, now + offset, size)
                     for top, code, offset, size in rows]
                )
            )
        else:
            now += params.t
            before = {
                leaf: {ip for ip, *__ in tree.sources(leaf)}
                for leaf in tree.leaves()
                if isinstance(tree.state(leaf), UnclassifiedState)
            }
            ipd.sweep(now)
            assert (tree.table.seen >= now - params.e).all()  # no stale source kept
            after = set(tree.leaves())
            for leaf, held in before.items():
                if leaf not in after:
                    continue  # split, joined or pruned away
                state = tree.state(leaf)
                if not isinstance(state, UnclassifiedState):
                    continue
                kept = tree.sources(leaf)
                if len(kept) < len(held):  # an expiry removed something
                    assert state.oldest_seen == min(
                        (seen for __, seen, __ in kept), default=INF
                    )
        check_table(tree)
        ips = tree.table.ips.tolist()
        first = {ip: first[ip] for ip in ips}  # the rest left the table
        numbers = dict(zip(ips, tree.table.ip_seq.tolist()))
        assert sorted(ips, key=numbers.get) == sorted(ips, key=first.get)


class LeafTableModel:
    """What the leaf table's ``dirty`` and ``oldest`` columns must read,
    kept from the outside: a leaf turns dirty when a fold reaches it
    unclassified, when a split, join, prune or sweep makes it, and when a
    sweep changes its kind; ``oldest`` takes a fold's oldest row and is
    re-read off the span (its exact minimum ``seen``) when a leaf is made
    or loses a source."""

    def __init__(self, tree: RangeTree) -> None:
        self.dirty = set(tree.leaves())
        self.oldest = {tree.root_prefix: INF}

    @staticmethod
    def exact(tree: RangeTree, leaf) -> float:
        a, b, __, __ = (int(part[0]) for part in tree.table.spans([leaf.value], [leaf.masklen]))
        return float(tree.table.seen[a:b].min()) if b > a else INF

    def fold(self, tree: RangeTree, rows) -> None:
        for source, timestamp in rows:
            leaf = tree.lookup_leaf(source)
            if tree.kinds[tree.leaves().index(leaf)] == UNCLASSIFIED:
                self.dirty.add(leaf)
                self.oldest[leaf] = min(self.oldest[leaf], timestamp)

    def restructured(self, tree: RangeTree, before: dict, sweep: bool = False) -> None:
        """After an op that may add, remove or re-kind leaves; *before* maps
        each leaf to its kind and, if unclassified, its sources."""
        if sweep:
            self.dirty = set()
        for row, leaf in enumerate(tree.leaves()):
            kind = int(tree.kinds[row])
            old = before.get(leaf)
            made = old is None or (sweep and old[0] != kind)
            if made and kind != DELEGATED:
                self.dirty.add(leaf)
            if kind != UNCLASSIFIED:
                self.oldest.pop(leaf, None)
            elif made or len({ip for ip, *__ in tree.sources(leaf)}) < len(old[1]):
                self.oldest[leaf] = self.exact(tree, leaf)
        alive = set(tree.leaves())
        self.dirty &= alive
        self.oldest = {leaf: bound for leaf, bound in self.oldest.items() if leaf in alive}


def snapshot_leaves(tree: RangeTree) -> dict:
    return {
        leaf: (int(kind), {ip for ip, *__ in tree.sources(leaf)} if kind == UNCLASSIFIED else None)
        for leaf, kind in zip(tree.leaves(), tree.kinds.tolist())
    }


def check_leaf_table(tree: RangeTree, model: LeafTableModel) -> None:
    """The leaf table's invariants, exactly, against *model*."""
    leaves, root = tree.leaves(), tree.root_prefix
    starts = tree.starts.tolist()
    assert all(low < high for low, high in zip(starts, starts[1:]))
    assert starts[0] == root.value and leaves[-1].last_value == root.last_value
    assert all(a.last_value + 1 == b.value for a, b in zip(leaves, leaves[1:]))
    assert set(tree.prefixes(tree.dirty.nonzero()[0])) == model.dirty
    # the counter rows tile exactly the classified leaves, sorted by leaf,
    # one row per (leaf, code)
    counters = tree.counters
    owners, codes = counters.starts.tolist(), counters.codes.tolist()
    assert len(owners) == len(codes) == len(counters.weights)
    assert owners == sorted(owners)
    assert set(owners) == set(tree.starts[tree.kinds == CLASSIFIED].tolist())
    assert len(set(zip(owners, codes))) == len(owners)
    for row, leaf in enumerate(leaves):
        a, b, c, d = (int(part[0]) for part in tree.spans([row]))
        classified = tree.kinds[row] == CLASSIFIED
        assert (tree.winners[row] >= 0) == classified
        if not classified:  # the classified columns hold their defaults
            assert tree.last_seen[row] == tree.classified_at[row] == 0.0
        if tree.kinds[row] != UNCLASSIFIED:
            assert a == b and c == d  # no cell-table row under it
            continue
        assert tree.totals[row] == sum(tree.table.weights[c:d].tolist())  # exact
        oldest = float(tree.oldest[row])
        assert (oldest == INF) == (a == b)
        assert oldest == model.oldest[leaf]
        if b > a:
            assert oldest <= tree.table.seen[a:b].min()  # a lower bound


#: per family: params classifying within a few sweeps, and where a row's
#: (top, offset) pair puts its source (inside the family's cidr_max)
LEAF_TABLE_FAMILIES = {
    IPV4: (
        IPDParams(n_cidr_factor_v4=0.0005, cidr_max_v4=16, count_bytes=True, t=60.0, e=120.0),
        lambda top, offset: top << 24 | offset << 16,
    ),
    IPV6: (
        IPDParams(n_cidr_factor_v6=1e-8, cidr_max_v6=16, count_bytes=True, t=60.0, e=120.0),
        lambda top, offset: top << 120 | offset << 112,
    ),
}

#: one batch's rows
LEAF_TABLE_ROWS = st.lists(
    st.tuples(
        st.integers(0, 255),                      # top byte of the source
        st.integers(0, 2),                        # ingress
        st.integers(0, 59),                       # offset in the tick
        st.integers(1, 1500),                     # bytes
    ),
    min_size=1,
    max_size=12,
)

LEAF_TABLE_STEPS = st.lists(
    st.tuples(
        st.sampled_from(("batch", "batch", "sweep", "sweep", "split", "join",
                         "prune", "delegate", "restore")),
        st.integers(0, 1 << 16),
        LEAF_TABLE_ROWS,
    ),
    min_size=1,
    max_size=30,
)


@pytest.mark.parametrize("version", [IPV4, IPV6], ids=["v4", "v6"])
@settings(max_examples=60, deadline=None)
@given(steps=LEAF_TABLE_STEPS)
def test_property_leaf_table_invariants(version, steps):
    """Through any mix of ingest, sweeps, splits, joins, prunes, delegation
    and restore: the leaves tile the root in strictly increasing ``starts``,
    every unclassified row's total is its span's exact weight sum and its
    ``oldest`` the model's (``inf`` exactly when the span is empty, else a
    lower bound on its ``seen``), no cell-table row sits under a classified
    or delegated leaf, and ``dirty`` is the model's."""
    params, place = LEAF_TABLE_FAMILIES[version]
    ipd = IPD(params)
    tree = ipd.trees[version]
    model = LeafTableModel(tree)
    now = 0.0
    for op, pick, rows in steps:
        leaves = tree.leaves()
        kinds = tree.kinds.tolist()
        leaf = leaves[pick % len(leaves)]
        kind = kinds[pick % len(leaves)]
        before = snapshot_leaves(tree)
        if op == "batch":
            flows = [
                FlowRecord(now + offset, place(top, offset), version, INGRESSES[code], bytes=size)
                for top, code, offset, size in rows
            ]
            # a delegated range is another engine's: the router never sends it flows
            flows = [
                flow for flow in flows
                if kinds[leaves.index(tree.lookup_leaf(flow.src_ip))] != DELEGATED
            ]
            if flows:
                model.fold(tree, [(flow.src_ip, flow.timestamp) for flow in flows])
                ipd.ingest_batch(FlowBatch.from_flows(flows))
        elif op == "sweep":
            now += params.t
            ipd.sweep(now)
            model.restructured(tree, before, sweep=True)
        elif op == "split" and kind == UNCLASSIFIED and leaf.masklen < 16:
            tree.split(leaf)
            model.restructured(tree, before)
        elif op == "join" and leaf.masklen > 0:
            parent = leaf.parent()
            halves = parent.children()
            if all(half in before for half in halves):
                states = [tree.state(half) for half in halves]
                if all(isinstance(state, ClassifiedState) for state in states):
                    tree.join_all(np.array([tree.rows_under(parent).start]))
                elif all(isinstance(state, UnclassifiedState) for state in states):
                    tree.table.drop(tree.table.spans([parent.value], [parent.masklen]))
                    tree.collapse(parent)
                model.restructured(tree, before)
        elif op == "prune":
            tree.prune_upward([candidate.value for candidate in leaves[pick % 3::3]])
            model.restructured(tree, before)
        elif op == "delegate" and kind == UNCLASSIFIED:
            tree.delegate(leaf)
            model.dirty.discard(leaf)
            model.oldest.pop(leaf)
        elif op == "restore":
            if tree.delegated_count():
                # a delegated range is another engine's: an engine blob
                # refuses it, and the tree travels as a subtree blob
                with pytest.raises(StateCodecError, match="delegated node"):
                    IPD.from_bytes(ipd.to_bytes())
                image, root = engine_to_image(ipd), tree.root_prefix
                image.trees[version].root = decode_subtree(
                    encode_subtree(root, version, subtree_to_image(tree, root))
                ).root
                ipd = IPD.from_image(image)
            else:
                ipd = IPD.from_bytes(ipd.to_bytes())
            tree = ipd.trees[version]
        check_leaf_table(tree, model)


@pytest.mark.parametrize("version", [IPV4, IPV6], ids=["v4", "v6"])
@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.sampled_from(("batch", "batch", "batch", "sweep")), LEAF_TABLE_ROWS),
        min_size=1,
        max_size=20,
    )
)
def test_property_pending_runs_merge_to_the_eager_table(version, steps):
    """Batches queue runs that a reader (here a sweep) merges: at every cut,
    a copy of the table with its runs pending, merged, equals column for
    column the table merged after every batch; the sweeps report alike and
    the blobs are the same bytes."""
    params, place = LEAF_TABLE_FAMILIES[version]
    lazy, eager = IPD(params), IPD(params)
    now = 0.0
    for op, rows in steps:
        if op == "sweep":
            now += params.t
            reports = [replace(ipd.sweep(now), duration_seconds=0.0) for ipd in (lazy, eager)]
            assert reports[0] == reports[1]
        else:
            batch = FlowBatch.from_flows([
                FlowRecord(now + offset, place(top, offset), version, INGRESSES[code], bytes=size)
                for top, code, offset, size in rows
            ])
            lazy.ingest_batch(batch)
            eager.ingest_batch(batch)
            eager.trees[version].table.merged()
        cut = copy.deepcopy(lazy.trees[version].table).merged()
        table = eager.trees[version].table
        for name in ("ips", "seen", "ip_seq", "keys", "weights", "key_seq"):
            assert getattr(cut, name).dtype == getattr(table, name).dtype
            assert getattr(cut, name).tolist() == getattr(table, name).tolist()
    assert lazy.to_bytes() == eager.to_bytes()


class TestClassifiedState:
    def make(self) -> ClassifiedState:
        return ClassifiedState(
            ingress=A, counters={A: 90.0, B: 10.0}, last_seen=0.0, classified_at=0.0
        )

    def test_total(self):
        assert self.make().total == 100.0

    def test_confidence_for_single(self):
        state = self.make()
        assert state.confidence_for([A]) == pytest.approx(0.9)
        assert state.confidence_for([B]) == pytest.approx(0.1)

    def test_confidence_for_bundle_members(self):
        state = self.make()
        assert state.confidence_for([A, B]) == pytest.approx(1.0)

    def test_confidence_empty_counters(self):
        state = ClassifiedState(A, {}, 0.0, 0.0)
        assert state.confidence_for([A]) == 0.0

    @staticmethod
    def decayed(counters: dict, removed: float, q: float = 0.85) -> IPD:
        """An engine whose root holds *counters*, swept once while idle with
        a decay that removes the fraction *removed*."""
        ipd = IPD(IPDParams(decay=lambda age, t: removed, q=q))
        tree = ipd.trees[IPV4]
        tree.assign(tree.root_prefix, ClassifiedState(A, counters, 0.0, 0.0))
        ipd.sweep(120.0)
        return ipd

    def test_decay_scales_all(self):
        state = root(self.decayed({A: 90.0, B: 10.0}, 0.5))
        assert state.counters == {A: 45.0, B: 5.0}
        assert state.total == 50.0

    def test_decay_drops_dust(self):
        state = root(self.decayed({A: 100.0, B: 1e-9}, 0.5))
        assert state.counters == {A: 50.0}

    def test_decay_validates_factor(self):
        """A decay callable that removes a negative fraction keeps more than
        everything: the sweep refuses it."""
        with pytest.raises(ValueError, match="decay factor out of range: 1.5"):
            self.decayed({A: 90.0, B: 10.0}, -0.5)


# -- the counter span table against a dict model ------------------------------------


def added(values) -> float:
    """Left to right, as the engine sums a span (``sum()`` compensates on 3.12)."""
    total = 0.0
    for value in values:
        total += value
    return total


#: raw interfaces (flows arrive on these) and the winners a leaf may hold,
#: bundles included; a bundle's members sum in name order
RAW = (IngressPoint("R1", "et0"), IngressPoint("R1", "et1"), IngressPoint("R1", "et2"),
       IngressPoint("R2", "et0"))
WINNERS = RAW + (IngressPoint("R1", "et0+et1"), IngressPoint("R1", "et0+et1+et2"))
COUNTER_PARAMS = IPDParams(cidr_max_v4=32, count_bytes=True, n_cidr_factor_v4=0.002, q=0.6,
                           t=60.0, e=120.0)


class CounterModel:
    """Every classified leaf as a dict: ``[winner, {ingress: weight}, last_seen,
    classified_at]``, folded, decayed, dropped and joined by the per-leaf
    loops the span table replaced."""

    def __init__(self, params: IPDParams) -> None:
        self.params = params
        self.leaves: dict = {}

    def leaf_of(self, address: int):
        return next(leaf for leaf in self.leaves if leaf.contains_ip(address))

    def fold(self, flows) -> None:
        """Cells (source, ingress) in batch order — by their source's first
        row, then their own — each adding its summed weight once."""
        sources, cells = {}, {}
        for row, flow in enumerate(flows):
            first = sources.setdefault(flow.src_ip, row)
            cells.setdefault((flow.src_ip, flow.ingress), [first, row, 0])[2] += flow.bytes
        for (source, ingress), (*__, weight) in sorted(cells.items(), key=lambda item: item[1][:2]):
            counters = self.leaves[self.leaf_of(source)][1]
            counters[ingress] = counters.get(ingress, 0.0) + float(weight)
        for flow in flows:
            entry = self.leaves[self.leaf_of(flow.src_ip)]
            entry[2] = max(entry[2], flow.timestamp)

    def sweep(self, now: float) -> tuple[int, int, int]:
        """Lines 16-19 and the join rule; returns (decayed, drops, joins)."""
        params = self.params
        decayed = drops = joins = 0
        for leaf, entry in list(self.leaves.items()):
            winner, counters, last, __ = entry
            idle = now - last > params.t
            if idle:
                keep = max(0.0, 1.0 - params.decay(now - last, params.t))
                entry[1] = counters = {
                    point: weight * keep for point, weight in counters.items()
                    if weight * keep >= 1e-9
                }
                decayed += 1
            total = added(counters.values())
            members = [IngressPoint(winner.router, name) for name in winner.interfaces()]
            share = added(counters.get(member, 0.0) for member in members) / total if total > 0 else 0
            if (idle and total < params.drop_threshold) or share < params.q:
                del self.leaves[leaf]
                drops += 1
        while True:
            pairs = [
                leaf.parent() for leaf in sorted(self.leaves, key=lambda leaf: leaf.value)
                if leaf.masklen and leaf == leaf.parent().children()[0]
                and leaf.parent().children()[1] in self.leaves
            ]
            for parent in pairs:
                low, high = (self.leaves[half] for half in parent.children())
                if low[0] == high[0] and added(low[1].values()) + added(high[1].values()) >= (
                    params.n_cidr(parent.masklen, IPV4)
                ):
                    counters = dict(low[1])
                    for point, weight in high[1].items():
                        counters[point] = counters.get(point, 0.0) + weight
                    self.leaves[parent] = [low[0], counters, max(low[2], high[2]),
                                           min(low[3], high[3])]
                    for half in parent.children():
                        del self.leaves[half]
                    joins += 1
                    break
            else:
                return decayed, drops, joins


def check_counters(ipd: IPD, model: CounterModel, now: float) -> None:
    """The span table, read back per leaf, is the model bit for bit, and the
    snapshot's totals and shares are the model's left-to-right sums."""
    tree = ipd.trees[IPV4]
    leaves = [leaf for leaf, kind in zip(tree.leaves(), tree.kinds.tolist()) if kind == CLASSIFIED]
    assert set(leaves) == set(model.leaves)
    for leaf in leaves:
        state, (winner, counters, last, at) = tree.state(leaf), model.leaves[leaf]
        assert (state.ingress, state.last_seen, state.classified_at) == (winner, last, at)
        assert list(state.counters.items()) == list(counters.items())
    for record in ipd.snapshot(now):
        winner, counters, *__ = model.leaves[record.range]
        total = added(counters.values())
        members = [IngressPoint(winner.router, name) for name in winner.interfaces()]
        assert record.s_ipcount == total
        assert record.s_ingress == (
            added(counters.get(member, 0.0) for member in members) / total if total > 0 else 0.0
        )


COUNTER_WEIGHTS = st.one_of(st.floats(0.5, 200.0), st.floats(1e-9, 3e-9))
#: a classified state: its winner, a weight for each of the winner's
#: members, other counters first (non-integer or near the floor) and how
#: many ticks it has been idle
STATES = st.tuples(
    st.integers(0, len(WINNERS) - 1),
    st.floats(20.0, 300.0),
    st.lists(st.tuples(st.integers(0, len(RAW) - 1), COUNTER_WEIGHTS), max_size=3),
    st.integers(0, 2),
)
COUNTER_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("split"), st.integers(0, 1 << 10)),
        st.tuples(st.just("assign"), st.integers(0, 1 << 10), STATES),
        st.tuples(st.just("twins"), st.integers(0, 1 << 10), STATES, STATES),
        st.tuples(st.just("batch"), st.lists(st.tuples(
            st.integers(0, 1 << 10),          # the classified leaf
            st.integers(0, 3),                # the source inside it
            st.integers(0, len(RAW) - 1),     # ingress
            st.integers(1, 1500),             # bytes
            st.integers(0, 59),               # seconds into the tick
        ), min_size=1, max_size=16)),
        st.tuples(st.just("sweep"), st.integers(1, 3)),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(steps=COUNTER_STEPS)
def test_property_counter_table_matches_a_dict_model(steps):
    """Through assigned non-integer and near-floor counters, batches that
    repeat a (leaf, ingress) cell and bring new ingresses, idle sweeps that
    decay and drop, bundle winners and joins of agreeing siblings, the
    counter span table holds exactly the model's dicts: the same ingresses
    in the same order, the same float bits, and the same sweep counts.  A
    fold that summed a batch's cells before adding them would not."""
    params = COUNTER_PARAMS
    ipd = IPD(params)
    tree = ipd.trees[IPV4]
    model = CounterModel(params)
    now = 0.0

    def make(spec, twin=None) -> ClassifiedState:
        winner, weight, others, idle = spec
        winner = WINNERS[winner if twin is None else twin]
        weights = {RAW[index]: other for index, other in others}
        for name in winner.interfaces():
            weights.setdefault(IngressPoint(winner.router, name), weight)
        return ClassifiedState(winner, weights, now - idle * params.t, now)

    for op, *args in steps:
        leaves = tree.leaves()
        if op in ("split", "twins"):
            leaf = leaves[args[0] % len(leaves)]
            if leaf in model.leaves or leaf.masklen == 32:
                continue
            halves = tree.split(leaf)
            if op == "twins":  # siblings on one winner: a join once both reach n_cidr
                for half, spec in zip(halves, args[1:]):
                    state = make(spec, twin=args[1][0])
                    tree.assign(half, state)
                    model.leaves[half] = [state.ingress, dict(state.counters),
                                          state.last_seen, now]
        elif op == "assign":
            leaf = leaves[args[0] % len(leaves)]
            state = make(args[1])
            tree.assign(leaf, state)
            model.leaves[leaf] = [state.ingress, dict(state.counters), state.last_seen, now]
        elif op == "batch" and model.leaves:
            owned = sorted(model.leaves, key=lambda leaf: leaf.value)
            flows = []
            for pick, source, ingress, size, second in args[0]:
                leaf = owned[pick % len(owned)]
                address = leaf.value + source % (leaf.last_value - leaf.value + 1)
                flows.append(FlowRecord(now + second, address, IPV4, RAW[ingress], bytes=size))
            model.fold(flows)
            ipd.ingest_batch(FlowBatch.from_flows(flows))
        elif op == "sweep":
            for __ in range(args[0]):
                now += params.t
                report = ipd.sweep(now)
                assert (report.decayed_ranges, report.drops, report.joins) == model.sweep(now)
        check_counters(ipd, model, now)


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=6),
    members=st.lists(st.integers(0, 5), max_size=6, unique=True),
)
@example(weights=[0.1, 0.2, 0.3], members=[0, 1, 2])
def test_property_counter_sums_add_left_to_right(weights, members):
    """A classified range's total and its winner's share add left to right
    in counter order, as ``np.bincount`` adds the engine's span rows, on
    every interpreter: ``ClassifiedState.total`` / ``confidence_for``,
    ``ReferenceIPD``'s sums and the engine's snapshot agree bit for bit.
    ``sum()`` would not on Python 3.12, which compensates: there
    ``sum([0.1, 0.2, 0.3])`` is 0.6, left to right 0.6000000000000001."""
    points = [IngressPoint("R1", f"et{index}") for index in range(len(weights))]
    counters = dict(zip(points, weights))
    chosen = [points[index] for index in members if index < len(points)]
    total = np.bincount(np.zeros(len(weights), np.intp), np.array(weights), minlength=1)[0]
    matched = np.bincount(
        np.zeros(len(chosen), np.intp), np.array([counters[point] for point in chosen]),
        minlength=1,
    )[0]
    share = matched / total if total > 0.0 else 0.0
    state = ClassifiedState(points[0], counters, 0.0, 0.0)
    assert state.total == total
    assert state.confidence_for(chosen) == share
    reference = _Classified(points[0], counters, 0.0, 0.0)
    assert reference.total == total
    assert ReferenceIPD()._confidence(reference, tuple(chosen)) == share
    # the engine: a bundle of the chosen interfaces, whose members sum in
    # name order (the counters' order here)
    if chosen:
        names = sorted(point.interface for point in chosen)
        ipd = IPD(IPDParams(n_cidr_factor_v4=0.001))
        tree = ipd.trees[IPV4]
        winner = IngressPoint("R1", "+".join(names)) if len(names) > 1 else chosen[0]
        tree.assign(tree.root_prefix, ClassifiedState(winner, counters, 0.0, 0.0))
        (record,) = ipd.snapshot(0.0)
        ordered = [counters[IngressPoint("R1", name)] for name in names]
        assert record.s_ipcount == total
        assert record.s_ingress == (
            np.bincount(np.zeros(len(ordered), np.intp), np.array(ordered))[0] / total
            if total > 0.0 else 0.0
        )
