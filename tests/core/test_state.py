"""Tests for per-range state (unclassified and classified)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.iputil import IPV4
from repro.core.rangetree import RangeTree
from repro.core.state import ClassifiedState, UnclassifiedState, cell_key
from repro.topology.elements import IngressPoint

A = IngressPoint("R1", "et0")
B = IngressPoint("R2", "et0")
C = IngressPoint("R3", "et0")
INGRESSES = (A, B, C)

INF = float("inf")


def add(state: UnclassifiedState, ip, ingress, timestamp, weight=1.0) -> None:
    """One sample, as a single-entry ``add_batch`` (what ingest folds)."""
    state.add_batch(ip, {ingress: weight}, newest=timestamp, oldest=timestamp)


def check_invariants(state: UnclassifiedState) -> None:
    """total/entry count/oldest_seen must track the cells exactly, always."""
    weights = [weight for *__, cells in state.sources() for __, weight in cells]
    assert state.total == sum(weights)  # exact, not approx: no drift
    assert state.entry_count() == len(weights)
    assert all(cells for *__, cells in state.sources())
    if state.last_seen:
        assert state.oldest_seen <= min(state.last_seen.values())
    else:
        assert state.oldest_seen == INF


class TestUnclassifiedState:
    def test_add_accumulates_total(self):
        state = UnclassifiedState()
        add(state, 10, A, timestamp=1.0)
        add(state, 10, A, timestamp=2.0)
        add(state, 20, B, timestamp=3.0)
        assert state.sample_count == 3.0

    def test_add_with_weight(self):
        state = UnclassifiedState()
        add(state, 10, A, timestamp=1.0, weight=5.0)
        assert state.sample_count == 5.0

    def test_last_seen_keeps_newest(self):
        state = UnclassifiedState()
        add(state, 10, A, timestamp=5.0)
        add(state, 10, A, timestamp=3.0)  # late sample, earlier clock
        assert state.last_seen[10] == 5.0

    def test_ingress_totals(self):
        state = UnclassifiedState()
        add(state, 10, A, 1.0)
        add(state, 11, A, 1.0)
        add(state, 12, B, 1.0, weight=2.0)
        totals = state.ingress_totals()
        assert totals[A] == 2.0
        assert totals[B] == 2.0

    def test_expire_removes_stale_sources(self):
        state = UnclassifiedState()
        add(state, 10, A, timestamp=0.0)
        add(state, 20, A, timestamp=100.0)
        removed = state.expire(cutoff=50.0)
        assert removed == 1
        assert 10 not in state.last_seen
        assert 20 in state.last_seen
        assert state.sources() == [(20, 100.0, [(A, 1.0)])]
        assert state.sample_count == 1.0

    def test_expire_everything_resets_total(self):
        state = UnclassifiedState()
        add(state, 10, A, 0.0)
        state.expire(cutoff=1000.0)
        assert state.is_empty()
        assert state.sample_count == 0.0

    def test_expire_keeps_boundary(self):
        state = UnclassifiedState()
        add(state, 10, A, timestamp=50.0)
        assert state.expire(cutoff=50.0) == 0  # strictly-before semantics

    def test_newest_timestamp(self):
        state = UnclassifiedState()
        assert state.newest_timestamp == float("-inf")
        add(state, 10, A, 7.0)
        add(state, 11, A, 9.0)
        assert state.newest_timestamp == 9.0


class TestUnclassifiedBatch:
    def test_add_batch_new_source_adds_its_cells(self):
        state = UnclassifiedState()
        state.add_batch(10, {A: 2.0, B: 1.0}, newest=5.0, oldest=3.0)
        assert state.sources() == [(10, 5.0, [(A, 2.0), (B, 1.0)])]
        assert state.total == 3.0
        assert state.entry_count() == 2
        assert state.last_seen[10] == 5.0
        assert state.oldest_seen == 3.0

    def test_add_batch_merges_existing_source(self):
        state = UnclassifiedState()
        add(state, 10, A, timestamp=4.0, weight=1.0)
        state.add_batch(10, {A: 2.0, B: 3.0}, newest=6.0, oldest=2.0)
        assert state.sources() == [(10, 6.0, [(A, 3.0), (B, 3.0)])]
        assert state.total == 6.0
        assert state.entry_count() == 2
        assert state.last_seen[10] == 6.0
        assert state.oldest_seen == 2.0
        check_invariants(state)

    def test_add_batch_equals_per_sample_adds(self):
        samples = [(10, A, 4.0), (10, B, 2.0), (10, A, 6.0)]
        # the literal per-sample sums the paper's Stage 1 would keep
        literal = UnclassifiedState(
            cells={cell_key(10, A): 2.0, cell_key(10, B): 1.0},
            last_seen={10: 6.0},
            total=3.0,
            oldest_seen=2.0,
        )
        one_by_one = UnclassifiedState()
        for ip, ingress, ts in samples:
            add(one_by_one, ip, ingress, ts)
        assert one_by_one == literal
        grouped = UnclassifiedState()
        by_ingress: dict = {}
        for __, ingress, ___ in samples:
            by_ingress[ingress] = by_ingress.get(ingress, 0.0) + 1.0
        grouped.add_batch(
            10, by_ingress,
            newest=max(ts for *__, ts in samples),
            oldest=min(ts for *__, ts in samples),
        )
        assert grouped == literal


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
    """After any add/expire/split/add_batch sequence, ``total`` equals the
    exact sum of the cell weights — the incremental counters cannot drift."""
    tree = RangeTree(IPV4)
    for opcode, address, timestamp, weight in operations:
        leaves = [
            leaf for leaf in tree.leaves()
            if isinstance(leaf.state, UnclassifiedState)
        ]
        target = leaves[address % len(leaves)]
        state = target.state
        if opcode <= 2:
            add(state, address, INGRESSES[opcode], float(timestamp),
                float(weight))
        elif opcode == 3:
            state.expire(cutoff=float(timestamp))
        elif opcode == 4 and target.prefix.masklen < 24:
            tree.split(target)
        else:
            state.add_batch(
                address,
                {INGRESSES[weight % 3]: float(weight)},
                newest=float(timestamp),
                oldest=float(max(0, timestamp - weight)),
            )
        for leaf in tree.leaves():
            if isinstance(leaf.state, UnclassifiedState):
                check_invariants(leaf.state)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.booleans(),                                   # add_batch / expire
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            st.integers(min_value=0, max_value=600),         # timestamp
            st.lists(st.integers(0, 1 << 40), min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_property_expire_subtracts_exactly(operations):
    """``expire`` subtracts the removed sources instead of re-summing the
    survivors; with byte-sized integer weights (up to 2^40) the result is
    exactly what a fresh re-sum gives, and a split taken afterwards hands
    its children totals that add up to the parent's."""
    tree = RangeTree(IPV4)
    state = tree.root.state
    for is_add, source, timestamp, weights in operations:
        if is_add:
            state.add_batch(
                source,
                {INGRESSES[i]: float(weight) for i, weight in enumerate(weights)},
                newest=float(timestamp),
                oldest=float(max(0, timestamp - 30)),
            )
            continue
        removed = state.expire(cutoff=float(timestamp))
        cells = [weight for *__, cells in state.sources() for __, weight in cells]
        assert state.total == sum(cells)
        assert state.entry_count() == len(cells)
        if removed:
            assert state.oldest_seen == min(state.last_seen.values(), default=INF)
    total = state.total
    left, right = tree.split(tree.root)
    assert left.state.total + right.state.total == total
    check_invariants(left.state)
    check_invariants(right.state)


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
