"""Tests for per-range state (unclassified and classified).

An unclassified range's sources live in its trie's :class:`CellTable`,
so these drive them through the one way rows get there —
``IPD.ingest_batch`` — and read them back through the tree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm import IPD
from repro.core.bundles import router_peak
from repro.core.iputil import IPV4
from repro.core.params import IPDParams
from repro.core.rangetree import RangeTree
from repro.core.state import (
    ClassifiedState,
    DelegatedState,
    UnclassifiedState,
    reduce_spans,
)
from repro.netflow.records import FlowBatch, FlowRecord
from repro.topology.elements import IngressPoint
from tests.core.test_rangetree import root_leaf

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
    return root_leaf(ipd.trees[IPV4]).state


def sources(ipd: IPD):
    tree = ipd.trees[IPV4]
    return tree.sources(root_leaf(tree))


def check_table(tree: RangeTree) -> None:
    """The cell table's invariants, exactly, for every leaf of *tree*."""
    table = tree.table
    ips, keys = table.ips.tolist(), table.keys.tolist()
    # sorted, no duplicate rows, every cell's source present, every
    # source with a cell
    assert ips == sorted(set(ips)) and keys == sorted(set(keys))
    assert sorted({key >> 32 for key in keys}) == ips
    assert len(ips) == len(table.seen) == len(table.ip_seq)
    assert len(keys) == len(table.weights) == len(table.key_seq)
    # each row lies in an unclassified leaf (no other leaf owns rows)
    for ip in ips:
        assert isinstance(tree.lookup_leaf(ip).state, UnclassifiedState)
    for leaf in tree.leaves():
        state = leaf.state
        a, b, c, d = (int(part[0]) for part in tree.table.spans([leaf.prefix]))
        if not isinstance(state, UnclassifiedState):
            assert isinstance(state, (ClassifiedState, DelegatedState))
            assert a == b and c == d
            continue
        # the span is exactly the prefix's sources
        assert all(leaf.prefix.contains_ip(ip) for ip in ips[a:b])
        rows = tree.sources(leaf)
        assert [ip for ip, *__ in rows] == sorted(
            ips[a:b], key=lambda ip: table.ip_seq[ips.index(ip)]
        )
        assert sum(len(cells) for *__, cells in rows) == d - c
        weights = [weight for *__, cells in rows for __, weight in cells]
        assert state.total == sum(weights)  # exact, not approx: no drift
        # the grouped reads agree with the nested view they stand for
        span = (np.array([c]), np.array([d]))
        totals = table.totals(*span).get(0, {})
        assert totals == {
            point: sum(w for *__, cells in rows for p, w in cells if p == point)
            for point in totals
        }
        if state.total > 0:  # the router bound keeps exactly what router_peak would
            for q in (0.55, 0.8, 0.95):
                kept = table.totals(*span, np.array([state.total]), q)
                assert (0 in kept) == (router_peak(totals) / state.total >= q)
        walk = [point for *__, cells in rows for point, __ in cells]
        assert table.first_seen(*span) == [list(dict.fromkeys(walk))]
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
        __, __, c, d = tree.table.spans([tree.root_prefix])
        assert tree.table.totals(c, d) == {0: {A: 2.0, B: 2.0}}

    def test_expire_removes_stale_sources(self):
        ipd = IPD(PARAMS)
        add(ipd, 10, A, timestamp=0.0)
        add(ipd, 20, A, timestamp=100.0)
        tree = ipd.trees[IPV4]
        assert tree.expire(cutoff=50.0) == (1, [root_leaf(tree)])
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

    def test_expire_keeps_boundary(self):
        ipd = IPD(PARAMS)
        add(ipd, 10, A, timestamp=50.0)
        assert ipd.trees[IPV4].expire(cutoff=50.0) == (0, [])  # strictly-before

    def test_newest_timestamp(self):
        ipd = IPD(PARAMS)
        tree = ipd.trees[IPV4]
        a, b, __, __ = tree.table.spans([tree.root_prefix])
        assert reduce_spans(np.maximum, tree.table.seen, a, b, -INF).tolist() == [-INF]
        add(ipd, 10, A, 7.0)
        add(ipd, 11, A, 9.0)
        a, b, __, __ = tree.table.spans([tree.root_prefix])
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
        elif opcode == 4 and target.prefix.masklen < 24:
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
        cells = [weight for *__, cells in rows for __, weight in cells]
        assert root(ipd).total == sum(cells)
        assert ipd.state_size() == len(cells)
        if removed:
            assert root(ipd).oldest_seen == min(
                (seen for __, seen, __ in rows), default=INF
            )
    total = root(ipd).total
    left, right = tree.split(root_leaf(tree))
    assert left.state.total + right.state.total == total
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
    that removed a source — and classified leaves own no rows."""
    params = IPDParams(
        n_cidr_factor_v4=0.0005, cidr_max_v4=16, count_bytes=True, t=60.0, e=120.0
    )
    ipd = IPD(params)
    tree = ipd.trees[IPV4]
    now = 0.0
    for is_batch, rows in steps:
        if is_batch:
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
                if isinstance(leaf.state, UnclassifiedState)
            }
            ipd.sweep(now)
            for leaf, held in before.items():
                state = leaf.state
                if leaf.dead or not isinstance(state, UnclassifiedState):
                    continue
                kept = tree.sources(leaf)
                if len(kept) < len(held):  # an expiry removed something
                    assert state.oldest_seen == min(
                        (seen for __, seen, __ in kept), default=INF
                    )
        check_table(tree)


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

    def test_decay_scales_all(self):
        state = self.make()
        state.decay(0.5)
        assert state.counters[A] == pytest.approx(45.0)
        assert state.total == pytest.approx(50.0)

    def test_decay_drops_dust(self):
        state = ClassifiedState(A, {A: 1e-6, B: 100.0}, 0.0, 0.0)
        state.decay(0.5, floor=1e-4)
        assert A not in state.counters
        assert B in state.counters

    def test_decay_validates_factor(self):
        state = self.make()
        with pytest.raises(ValueError):
            state.decay(1.5)
        with pytest.raises(ValueError):
            state.decay(-0.1)
