"""Tests for the two-stage IPD algorithm (Algorithm 1)."""

import hashlib

import pytest

from repro.core.algorithm import IPD
from repro.core.iputil import IPV4, IPV6, Prefix, parse_ip
from repro.core.params import IPDParams
from repro.core.state import ClassifiedState, UnclassifiedState
from repro.netflow.records import FlowBatch, FlowRecord
from repro.topology.elements import IngressPoint
from tests.core.test_rangetree import root_leaf, root_state

A = IngressPoint("R1", "et0")
A2 = IngressPoint("R1", "et1")
B = IngressPoint("R2", "xe0")
C = IngressPoint("R3", "hu0")


def ip(text: str) -> int:
    return parse_ip(text)[0]


def flow(src: str, ingress: IngressPoint, ts: float = 0.0, **kwargs) -> FlowRecord:
    value, version = parse_ip(src)
    return FlowRecord(timestamp=ts, src_ip=value, version=version,
                      ingress=ingress, **kwargs)


def feed(ipd: IPD, base: str, ingress: IngressPoint, count: int, ts: float,
         stride: int = 16) -> None:
    """Ingest *count* flows spread over /28 slots starting at *base*."""
    start = ip(base)
    for index in range(count):
        ipd.ingest(FlowRecord(timestamp=ts, src_ip=start + index * stride,
                              version=IPV4, ingress=ingress))


def params(**kwargs) -> IPDParams:
    defaults = dict(n_cidr_factor_v4=0.001, n_cidr_factor_v6=0.001)
    defaults.update(kwargs)
    return IPDParams(**defaults)


class TestIngest:
    def test_masks_to_cidr_max(self):
        ipd = IPD(params(cidr_max_v4=28))
        ipd.ingest(flow("10.0.0.1", A))
        ipd.ingest(flow("10.0.0.14", A))  # same /28
        tree = ipd.trees[IPV4]
        state = root_state(tree)
        assert isinstance(state, UnclassifiedState)
        assert [source for source, *__ in tree.sources(root_leaf(tree))] == [ip("10.0.0.0")]
        assert state.sample_count == 2.0

    def test_classified_range_adds_counters_and_keeps_its_newest(self):
        """The batch fold adds to a classified range's counters in row
        order and never rewinds its last_seen."""
        ipd = IPD(params())
        tree = ipd.trees[IPV4]
        tree.assign(root_leaf(tree), ClassifiedState(
            ingress=A, counters={A: 90.0, B: 10.0}, last_seen=5.0, classified_at=0.0
        ))
        ipd.ingest_many([flow("10.0.0.1", A, ts=2.0), flow("10.0.0.2", C, ts=1.0),
                         flow("10.0.0.1", A, ts=3.0)])
        assert root_state(tree).counters == {A: 92.0, B: 10.0, C: 1.0}
        assert list(root_state(tree).counters) == [A, B, C]
        assert root_state(tree).last_seen == 5.0
        ipd.ingest(flow("10.0.0.3", B, ts=9.0))
        assert root_state(tree).counters[B] == 11.0
        assert root_state(tree).last_seen == 9.0

    def test_families_are_separated(self):
        ipd = IPD(params())
        ipd.ingest(flow("10.0.0.1", A))
        ipd.ingest(flow("2001:db8::1", A))
        assert root_state(ipd.trees[IPV4]).sample_count == 1.0
        assert root_state(ipd.trees[IPV6]).sample_count == 1.0

    def test_counts_flows_not_bytes_by_default(self):
        ipd = IPD(params())
        ipd.ingest(flow("10.0.0.1", A, bytes=9000))
        assert root_state(ipd.trees[IPV4]).sample_count == 1.0

    def test_byte_mode(self):
        ipd = IPD(params(count_bytes=True))
        ipd.ingest(flow("10.0.0.1", A, bytes=9000))
        assert root_state(ipd.trees[IPV4]).sample_count == 9000.0

    def test_statistics(self):
        ipd = IPD(params())
        ipd.ingest(flow("10.0.0.1", A, bytes=100))
        ipd.ingest(flow("10.0.0.2", A, bytes=200))
        assert ipd.flows_ingested == 2
        assert ipd.bytes_ingested == 300


class TestClassification:
    def test_single_ingress_classifies_root(self):
        ipd = IPD(params())
        feed(ipd, "10.0.0.0", A, 100, ts=0.0)
        report = ipd.sweep(60.0)
        assert report.classifications == 1
        state = root_state(ipd.trees[IPV4])
        assert isinstance(state, ClassifiedState)
        assert state.ingress == A

    def test_below_n_cidr_waits(self):
        ipd = IPD(params(n_cidr_factor_v4=1.0))  # /0 needs 65536
        feed(ipd, "10.0.0.0", A, 100, ts=0.0)
        report = ipd.sweep(60.0)
        assert report.classifications == 0
        assert report.splits == 0

    def test_mixed_ingress_splits(self):
        ipd = IPD(params())
        feed(ipd, "10.0.0.0", A, 50, ts=0.0)
        feed(ipd, "200.0.0.0", B, 50, ts=0.0)
        report = ipd.sweep(60.0)
        assert report.splits == 1
        assert root_leaf(ipd.trees[IPV4]) is None

    def test_split_cascade_one_level_per_sweep(self):
        ipd = IPD(params())
        now = 0.0
        for sweep_index in range(3):
            feed(ipd, "10.0.0.0", A, 50, ts=now)
            feed(ipd, "10.64.0.0", B, 50, ts=now)  # differs at bit /2
            now += 60.0
            ipd.sweep(now)
        masklens = sorted(
            leaf.masklen for leaf in ipd.trees[IPV4].leaves()
        )
        assert max(masklens) == 3  # three sweeps -> three levels deep

    def test_noise_below_q_tolerated(self):
        ipd = IPD(params(q=0.95))
        feed(ipd, "10.0.0.0", A, 97, ts=0.0)
        feed(ipd, "10.0.1.0", B, 3, ts=0.0)  # 3% noise
        report = ipd.sweep(60.0)
        assert report.classifications == 1
        assert root_state(ipd.trees[IPV4]).ingress == A

    def test_noise_above_q_splits(self):
        ipd = IPD(params(q=0.95))
        feed(ipd, "10.0.0.0", A, 90, ts=0.0)
        feed(ipd, "200.0.0.0", B, 10, ts=0.0)
        report = ipd.sweep(60.0)
        assert report.classifications == 0
        assert report.splits == 1

    def test_lag_bundle_classified(self):
        ipd = IPD(params())
        feed(ipd, "10.0.0.0", A, 50, ts=0.0)
        feed(ipd, "10.0.4.0", A2, 50, ts=0.0)
        report = ipd.sweep(60.0)
        assert report.classifications == 1
        state = root_state(ipd.trees[IPV4])
        assert state.ingress.is_bundle
        assert state.ingress.router == "R1"

    def test_bundles_disabled_splits_instead(self):
        ipd = IPD(params(enable_bundles=False))
        feed(ipd, "10.0.0.0", A, 50, ts=0.0)
        feed(ipd, "200.0.0.0", A2, 50, ts=0.0)
        report = ipd.sweep(60.0)
        assert report.classifications == 0
        assert report.splits == 1

    def test_cidr_max_stops_splitting(self):
        ipd = IPD(params(cidr_max_v4=1))
        feed(ipd, "10.0.0.0", A, 50, ts=0.0)
        feed(ipd, "10.0.4.0", B, 50, ts=0.0)  # same /1, mixed ingress
        ipd.sweep(60.0)
        second = ipd.sweep(120.0)
        assert second.splits == 0
        assert all(
            leaf.masklen <= 1 for leaf in ipd.trees[IPV4].leaves()
        )


class TestClassifiedMaintenance:
    def build_classified(self) -> IPD:
        ipd = IPD(params())
        feed(ipd, "10.0.0.0", A, 100, ts=0.0)
        ipd.sweep(60.0)
        assert isinstance(root_state(ipd.trees[IPV4]), ClassifiedState)
        return ipd

    def test_continued_traffic_keeps_classification(self):
        ipd = self.build_classified()
        feed(ipd, "10.0.0.0", A, 100, ts=70.0)
        report = ipd.sweep(120.0)
        assert report.drops == 0
        assert isinstance(root_state(ipd.trees[IPV4]), ClassifiedState)

    def test_idle_range_decays_and_drops(self):
        ipd = self.build_classified()
        now = 120.0
        drops = 0
        for __ in range(40):
            report = ipd.sweep(now)
            drops += report.drops
            now += 60.0
        assert drops == 1
        assert isinstance(root_state(ipd.trees[IPV4]), UnclassifiedState)

    def test_ingress_change_invalidates(self):
        """Traffic moves from A to B: confidence falls below q -> drop."""
        ipd = self.build_classified()
        now = 60.0
        dropped = False
        for __ in range(10):
            feed(ipd, "10.0.0.0", B, 200, ts=now + 1.0)
            now += 60.0
            report = ipd.sweep(now)
            if report.drops:
                dropped = True
                break
        assert dropped

    def test_reclassifies_after_change(self):
        ipd = self.build_classified()
        now = 60.0
        for __ in range(12):
            feed(ipd, "10.0.0.0", B, 200, ts=now + 1.0)
            now += 60.0
            ipd.sweep(now)
        state = root_state(ipd.trees[IPV4])
        assert isinstance(state, ClassifiedState)
        assert state.ingress == B


class TestJoin:
    def test_siblings_same_ingress_join(self):
        ipd = IPD(params(cidr_max_v4=4))
        now = 0.0
        # Split down: two /1 halves with different ingresses first …
        for __ in range(3):
            feed(ipd, "10.0.0.0", A, 60, ts=now)
            feed(ipd, "200.0.0.0", B, 60, ts=now)
            now += 60.0
            ipd.sweep(now)
        # … then B's half goes quiet and A also claims it:
        for __ in range(30):
            feed(ipd, "10.0.0.0", A, 60, ts=now)
            feed(ipd, "200.0.0.0", A, 60, ts=now)
            now += 60.0
            ipd.sweep(now)
        state = root_state(ipd.trees[IPV4])
        assert isinstance(state, ClassifiedState)
        assert state.ingress == A
        assert ipd.trees[IPV4].join_count >= 1

    def test_join_requires_parent_threshold(self):
        """Siblings agreeing on the ingress still need the parent's n_cidr."""
        ipd = IPD(params(n_cidr_factor_v4=0.001))
        tree = ipd.trees[IPV4]
        left, right = tree.split(root_leaf(tree))
        small = 10.0  # n_cidr(/0) = 0.001*65536 ≈ 65.5 > 2*10
        tree.assign(left, ClassifiedState(A, {A: small}, last_seen=0.0, classified_at=0.0))
        tree.assign(right, ClassifiedState(A, {A: small}, last_seen=0.0, classified_at=0.0))
        ipd.sweep(30.0)
        assert root_leaf(tree) is None  # combined 20 < 65.5: no join

        big = 100.0  # combined 200 > 65.5: join fires
        tree.assign(left, ClassifiedState(A, {A: big}, last_seen=25.0, classified_at=0.0))
        tree.assign(right, ClassifiedState(A, {A: big}, last_seen=25.0, classified_at=0.0))
        ipd.sweep(60.0)
        assert root_leaf(tree) is not None
        assert isinstance(root_state(tree), ClassifiedState)
        assert root_state(tree).ingress == A


class TestSnapshot:
    def test_snapshot_contains_classified(self):
        ipd = IPD(params())
        feed(ipd, "10.0.0.0", A, 100, ts=0.0)
        ipd.sweep(60.0)
        records = ipd.snapshot(60.0)
        assert len(records) == 1
        record = records[0]
        assert record.classified
        assert record.ingress == A
        assert record.s_ingress == pytest.approx(1.0)
        assert record.s_ipcount == pytest.approx(100.0)

    def test_snapshot_unclassified_opt_in(self):
        ipd = IPD(params(n_cidr_factor_v4=100.0))
        feed(ipd, "10.0.0.0", A, 10, ts=0.0)
        ipd.sweep(60.0)
        assert ipd.snapshot(60.0) == []
        records = ipd.snapshot(60.0, include_unclassified=True)
        assert len(records) == 1
        assert not records[0].classified

    def test_snapshot_sorted_by_range(self):
        ipd = IPD(params())
        now = 0.0
        for __ in range(4):
            feed(ipd, "10.0.0.0", A, 60, ts=now)
            feed(ipd, "200.0.0.0", B, 60, ts=now)
            now += 60.0
            ipd.sweep(now)
        records = ipd.snapshot(now)
        values = [record.range.value for record in records]
        assert values == sorted(values)


class TestSweepVisiting:
    def test_idle_unclassified_leaves_are_skipped(self):
        ipd = IPD(params(n_cidr_factor_v4=100.0))  # never classifies
        feed(ipd, "10.0.0.0", A, 10, ts=0.0)
        first = ipd.sweep(60.0)
        assert first.visited >= 1
        # nothing changed and nothing can expire yet: second sweep is free
        second = ipd.sweep(90.0)
        assert second.visited == 0
        # once the expiry bound falls due the leaf is visited again
        third = ipd.sweep(1000.0)
        assert third.visited >= 1
        assert ipd.state_size() == 0

    def test_leaf_below_its_loose_bound_is_not_visited(self):
        """``oldest_seen`` folds a source's oldest row while the table keeps
        its newest, so a cutoff between the two expires nothing: the leaf
        lost no source and is not visited, and the blob is the one the
        sweep wrote when it still visited such a leaf."""
        ipd = IPD(params(n_cidr_factor_v4=100.0))  # never classifies
        ipd.ingest_batch(
            FlowBatch.from_flows([flow("10.0.0.0", A, ts) for ts in (0.0, 100.0)])
        )
        ipd.sweep(100.0)
        report = ipd.sweep(170.0)  # cutoff 50: below the newest row only
        assert (report.visited, report.expired_sources) == (0, 0)
        assert root_state(ipd.trees[IPV4]).oldest_seen == 0.0
        assert hashlib.sha256(ipd.to_bytes()).hexdigest() == (
            "58fce5ba45e84d0bebb5fa46b82537abacea39389f39d1c314faf819024b8b7f"
        )

    def test_leaf_losing_one_of_two_sources_is_visited(self):
        ipd = IPD(params(n_cidr_factor_v4=100.0))
        ipd.ingest(flow("10.0.0.0", A, 0.0))
        ipd.ingest(flow("10.0.0.16", A, 100.0))
        ipd.sweep(100.0)
        report = ipd.sweep(170.0)
        assert (report.visited, report.expired_sources) == (1, 1)
        state = root_state(ipd.trees[IPV4])
        assert (state.total, state.oldest_seen) == (1.0, 100.0)


class TestMetrics:
    def test_state_size_counts_entries(self):
        ipd = IPD(params(n_cidr_factor_v4=100.0))
        feed(ipd, "10.0.0.0", A, 3, ts=0.0)
        assert ipd.state_size() == 3  # three /28s, one ingress each

    def test_leaf_count_spans_families(self):
        ipd = IPD(params())
        assert ipd.leaf_count() == 2  # v4 root + v6 root

    def test_sweep_report_counts(self):
        ipd = IPD(params())
        feed(ipd, "10.0.0.0", A, 100, ts=0.0)
        report = ipd.sweep(60.0)
        assert report.leaves == 2
        assert report.classified == 1
        assert report.timestamp == 60.0
        assert report.duration_seconds >= 0.0
