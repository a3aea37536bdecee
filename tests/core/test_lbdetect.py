"""Tests for the §5.8 router-level load-balancing detection extension."""

import random

import pytest

from repro.core.algorithm import IPD
from repro.core.iputil import IPV4, IPV6, Prefix, parse_ip
from repro.core.lbdetect import LoadBalanceDetector
from repro.core.params import IPDParams
from repro.netflow.records import FlowRecord
from repro.topology.elements import IngressPoint

R1 = IngressPoint("R1", "et0")
R2 = IngressPoint("R2", "et0")


def ip(text: str) -> int:
    return parse_ip(text)[0]


def pair_flow(src: int, dst: int, ingress: IngressPoint, ts: float = 0.0):
    return FlowRecord(timestamp=ts, src_ip=src, version=IPV4,
                      ingress=ingress, dst_ip=dst)


class TestDetectorCore:
    def test_ignores_unwatched(self):
        detector = LoadBalanceDetector()
        assert not detector.observe(pair_flow(ip("10.0.0.1"), ip("1.1.1.1"), R1))

    def test_ignores_flows_without_destination(self):
        detector = LoadBalanceDetector()
        detector.watch(Prefix.from_string("10.0.0.0/24"))
        flow = FlowRecord(timestamp=0.0, src_ip=ip("10.0.0.1"),
                          version=IPV4, ingress=R1)
        assert not detector.observe(flow)

    def test_needs_minimum_evidence(self):
        detector = LoadBalanceDetector(min_pairs=10)
        prefix = Prefix.from_string("10.0.0.0/24")
        detector.watch(prefix)
        detector.observe(pair_flow(ip("10.0.0.1"), ip("1.1.1.1"), R1))
        assert detector.diagnose(prefix) is None

    def test_per_flow_balancing_detected(self):
        """Same (src, dst) pairs on both routers -> router-balanced."""
        detector = LoadBalanceDetector(min_pairs=10)
        prefix = Prefix.from_string("10.0.0.0/24")
        detector.watch(prefix)
        rng = random.Random(1)
        for __ in range(400):
            src = ip("10.0.0.0") + rng.randrange(2) * 16
            dst = ip("1.1.0.0") + rng.randrange(20) * 256
            detector.observe(pair_flow(src, dst, rng.choice((R1, R2))))
        verdict = detector.diagnose(prefix)
        assert verdict is not None
        assert verdict.is_router_balanced
        assert verdict.pair_overlap > 0.5
        assert {router for router, __ in verdict.router_shares} == {"R1", "R2"}

    def test_per_destination_split_not_flagged(self):
        """Each destination pinned to one router -> resolvable, not LB."""
        detector = LoadBalanceDetector(min_pairs=10)
        prefix = Prefix.from_string("10.0.0.0/24")
        detector.watch(prefix)
        rng = random.Random(2)
        for __ in range(400):
            dst_index = rng.randrange(20)
            dst = ip("1.1.0.0") + dst_index * 256
            src = ip("10.0.0.0") + rng.randrange(2) * 16
            ingress = R1 if dst_index % 2 == 0 else R2
            detector.observe(pair_flow(src, dst, ingress))
        verdict = detector.diagnose(prefix)
        assert verdict is not None
        assert not verdict.is_router_balanced
        assert verdict.pair_overlap < 0.1

    def test_single_router_not_flagged(self):
        detector = LoadBalanceDetector(min_pairs=5)
        prefix = Prefix.from_string("10.0.0.0/24")
        detector.watch(prefix)
        for index in range(100):
            detector.observe(
                pair_flow(ip("10.0.0.1"), ip("1.1.0.0") + index * 256, R1)
            )
        verdict = detector.diagnose(prefix)
        assert verdict is not None
        assert not verdict.is_router_balanced

    def test_router_group_label(self):
        detector = LoadBalanceDetector(min_pairs=5)
        prefix = Prefix.from_string("10.0.0.0/24")
        detector.watch(prefix)
        rng = random.Random(3)
        for __ in range(200):
            detector.observe(pair_flow(
                ip("10.0.0.1"), ip("1.1.0.0") + rng.randrange(10) * 256,
                rng.choice((R1, R2)),
            ))
        verdict = detector.diagnose(prefix)
        assert verdict.router_group() == IngressPoint("R1+R2", "balanced")

    def test_state_is_bounded(self):
        detector = LoadBalanceDetector(max_pairs_per_range=50)
        prefix = Prefix.from_string("10.0.0.0/8")
        detector.watch(prefix)
        for index in range(500):
            detector.observe(pair_flow(
                ip("10.0.0.0") + index * 16, ip("1.1.0.0") + index * 256, R1
            ))
        assert detector.state_size() <= 50

    def test_full_pair_table_still_counts_the_pairs_it_holds(self):
        """A full table refuses new pairs only: a tracked pair seen later
        on a second router still counts toward the overlap."""
        detector = LoadBalanceDetector(max_pairs_per_range=8, min_pairs=8)
        prefix = Prefix.from_string("10.0.0.0/24")
        detector.watch(prefix)
        for router in (R1, R2):
            for index in range(8):
                assert detector.observe(pair_flow(
                    ip("10.0.0.1"), ip("1.1.0.0") + index * 256, router
                ))
        assert detector.observe(pair_flow(ip("10.0.0.1"), ip("2.2.0.0"), R1))
        verdict = detector.diagnose(prefix)
        assert verdict.pair_overlap == 1.0
        assert detector.state_size() == 16  # 8 pairs x 2 routers

    def test_other_family_never_matches(self):
        """``::a00:5`` has the integer value of 10.0.0.5 but is IPv6."""
        detector = LoadBalanceDetector(min_pairs=1)
        prefix = Prefix.from_string("10.0.0.0/24")
        detector.watch(prefix)
        flow = FlowRecord(timestamp=0.0, src_ip=ip("::a00:5"), version=IPV6,
                          ingress=R1, dst_ip=ip("2001:db8::1"))
        assert flow.src_ip == ip("10.0.0.5")
        assert not detector.observe(flow)
        assert detector.diagnose(prefix) is None

    def test_unwatch(self):
        detector = LoadBalanceDetector()
        prefix = Prefix.from_string("10.0.0.0/24")
        detector.watch(prefix)
        detector.unwatch(prefix)
        assert detector.watched() == []


def run(ipd: IPD, detector: LoadBalanceDetector, flows, now: float) -> None:
    """Feed one bucket to the engine and the detector, then sweep."""
    for flow in flows:
        ipd.ingest(flow)
        detector.observe(flow)
    detector.on_sweep(ipd.sweep(now), ipd)


class TestIPDIntegration:
    def test_persistent_failure_triggers_watch_and_diagnosis(self):
        """End to end: a balanced /28 becomes a suspect and is diagnosed."""
        detector = LoadBalanceDetector(min_pairs=8, patience=2)
        ipd = IPD(
            IPDParams(n_cidr_factor_v4=0.005, n_cidr_factor_v6=0.005,
                      cidr_max_v4=28),
        )
        rng = random.Random(4)
        base = ip("10.0.0.0")
        now = 0.0
        # the split cascade advances one level per sweep: /0 -> /28
        # plus the patience window needs ~35 sweeps, use headroom
        for __ in range(48):
            flows = [
                FlowRecord(
                    timestamp=now + index,
                    src_ip=base + (index % 16),  # one /28
                    version=IPV4,
                    ingress=rng.choice((R1, R2)),
                    dst_ip=ip("99.0.0.0") + rng.randrange(30) * 256,
                )
                for index in range(60)
            ]
            now += 60.0
            run(ipd, detector, flows, now)

        assert detector.watched(), "the balanced range must become a suspect"
        verdicts = detector.diagnose_all()
        assert verdicts
        assert any(v.is_router_balanced for v in verdicts)

    def test_pipeline_sweep_hook_watches(self):
        """``on_sweep`` plugs into the pipeline's hook as it is."""
        from repro.runtime.pipeline import Pipeline

        detector = LoadBalanceDetector(patience=2)
        rng = random.Random(4)
        flows = [
            FlowRecord(timestamp=minute * 60.0 + index,
                       src_ip=ip("10.0.0.0") + (index % 16), version=IPV4,
                       ingress=rng.choice((R1, R2)))
            for minute in range(40) for index in range(60)
        ]
        params = IPDParams(n_cidr_factor_v4=0.005, n_cidr_factor_v6=0.005,
                           cidr_max_v4=28)
        with Pipeline(params, on_sweep=detector.on_sweep) as pipeline:
            pipeline.run(flows)
        assert detector.watched() == [Prefix.from_string("10.0.0.0/28")]

    def test_classifiable_traffic_never_watched(self):
        detector = LoadBalanceDetector()
        ipd = IPD(IPDParams(n_cidr_factor_v4=0.005, n_cidr_factor_v6=0.005))
        now = 0.0
        for __ in range(10):
            flows = [
                FlowRecord(
                    timestamp=now + index, src_ip=ip("10.0.0.0") + index * 16,
                    version=IPV4, ingress=R1, dst_ip=ip("99.0.0.1"),
                )
                for index in range(60)
            ]
            now += 60.0
            run(ipd, detector, flows, now)
        assert detector.watched() == []