"""Integration: event-driven behaviours (Figs. 7/8, 13/14 mechanics)."""

import pytest

from repro.analysis.accuracy import evaluate_accuracy
from repro.core.algorithm import IPD
from repro.core.iputil import IPV4, parse_ip
from repro.core.params import IPDParams
from repro.netflow.records import FlowRecord
from repro.runtime import Pipeline
from repro.topology.elements import IngressPoint
from repro.topology.network import MissKind

A = IngressPoint("R1", "et0")
B = IngressPoint("R4", "et0")


def stream_with_switch(switch_at: float, end: float, per_bucket: int = 100):
    """One /24's flows move from ingress A to B at *switch_at*."""
    base = parse_ip("10.0.0.0")[0]
    ts = 0.0
    while ts < end:
        ingress = A if ts < switch_at else B
        for index in range(per_bucket):
            yield FlowRecord(
                timestamp=ts + index * (60.0 / per_bucket),
                src_ip=base + (index % 16) * 16,
                version=IPV4,
                ingress=ingress,
            )
        ts += 60.0


class TestReactionToChange:
    """The Fig. 13/14 mechanism: drop on ingress move, fast reclassify."""

    @pytest.fixture(scope="class")
    def result(self):
        pipeline = Pipeline(
            IPDParams(n_cidr_factor_v4=0.01, n_cidr_factor_v6=0.01),
            snapshot_seconds=300.0,
        )
        return pipeline.run(stream_with_switch(switch_at=3600.0, end=7200.0))

    def test_classified_to_a_before_switch(self, result):
        before = result.snapshots[3600.0 - 600.0]
        assert before
        assert all(record.ingress == A for record in before)

    def test_reclassified_to_b_after_switch(self, result):
        after = result.snapshots[max(result.snapshots)]
        assert after
        assert all(record.ingress == B for record in after)

    def test_drop_event_recorded(self, result):
        assert any(report.drops > 0 for report in result.sweeps)

    def test_reconvergence_within_minutes(self, result):
        """The gap between dropping A and classifying B stays small."""
        switch = 3600.0
        reconverged = [
            ts
            for ts, records in sorted(result.snapshots.items())
            if ts > switch and any(r.ingress == B for r in records)
        ]
        assert reconverged
        assert reconverged[0] - switch <= 900.0


class TestMaintenanceMissSignature:
    """Partial diversion yields interface misses without losing the range.

    Mirrors the paper's AS1 case (§5.1.2): during router maintenance a
    minority of flows arrive on another interface of the same router;
    the accumulated confidence keeps the classification alive, and the
    diverted flows surface as interface misses at exactly those times.
    """

    def test_interface_misses_during_window(self, small_topology):
        fallback = IngressPoint("R1", "et1")
        base = parse_ip("10.0.0.0")[0]
        flows = []
        window = (3000.0, 3120.0)
        for bucket in range(70):
            ts = bucket * 60.0
            in_window = window[0] <= ts < window[1]
            for index in range(100):
                diverted = in_window and index % 3 == 0  # ~33 % diverted
                flows.append(FlowRecord(
                    timestamp=ts + index * 0.6,
                    src_ip=base + (index % 8) * 16,
                    version=IPV4,
                    ingress=fallback if diverted else A,
                ))
        pipeline = Pipeline(
            IPDParams(n_cidr_factor_v4=0.01, n_cidr_factor_v6=0.01)
        )
        result = pipeline.run(flows)
        report = evaluate_accuracy(flows, result.snapshots, small_topology)
        window_misses = [
            m for m in report.misses
            if window[0] <= m.timestamp < window[1]
            and m.kind == MissKind.INTERFACE
        ]
        late_interface_misses = [
            m for m in report.misses
            if m.timestamp >= window[1] + 600.0
            and m.kind == MissKind.INTERFACE
        ]
        assert window_misses
        assert len(late_interface_misses) < len(window_misses)
        # the classification survived the event (robustness to noise)
        final = result.final_snapshot()
        assert final and all(r.ingress == A for r in final)
