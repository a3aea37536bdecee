"""Edge-case tests for the IPD engine beyond the main algorithm suite."""

import io

import numpy as np
import pytest

from repro.core.admission import AdmissionConfig
from repro.core.algorithm import IPD
from repro.core.iputil import IPV4, IPV6, parse_ip
from repro.core.params import IPDParams
from repro.core.state import ClassifiedState, UnclassifiedState
from repro.netflow.records import FlowBatch, FlowRecord, read_flows_csv_batched
from repro.runtime import Pipeline
from repro.topology.elements import IngressPoint
from tests.core.test_rangetree import root_leaf, root_state

A = IngressPoint("R1", "et0")
B = IngressPoint("R2", "et0")


def ip(text: str) -> int:
    return parse_ip(text)[0]


def params(**kwargs) -> IPDParams:
    defaults = dict(n_cidr_factor_v4=0.001, n_cidr_factor_v6=1e-9)
    defaults.update(kwargs)
    return IPDParams(**defaults)


class TestSweepWithoutTraffic:
    def test_sweep_on_empty_engine(self):
        ipd = IPD(params())
        report = ipd.sweep(60.0)
        assert report.leaves == 2
        assert report.classifications == 0
        assert ipd.snapshot(60.0) == []

    def test_many_idle_sweeps_stay_clean(self):
        ipd = IPD(params())
        for index in range(50):
            ipd.sweep(60.0 * (index + 1))
        assert ipd.leaf_count() == 2
        assert ipd.state_size() == 0


class TestRowBounds:
    """A row the engine cannot represent is a ``ValueError`` naming it, and
    nothing moves: no counter, sketch cell, leaf or cell-table row."""

    def engine(self, **kwargs) -> IPD:
        """The root split by ten flows from each of two routers."""
        ipd = IPD(IPDParams(n_cidr_factor_v4=1e-9, **kwargs),
                  admission=AdmissionConfig(mode="lossy", width=1 << 8))
        for index in range(10):
            for base, ingress in ((ip("10.0.0.0"), A), (ip("200.0.0.0"), B)):
                ipd.ingest(FlowRecord(float(index), base + 16 * index, IPV4, ingress))
        ipd.sweep(60.0)
        return ipd

    def test_non_finite_timestamp_is_rejected_before_anything_moves(self):
        """NaN used to land in a leaf's ``oldest_seen`` (or vanish into
        ``min(inf, nan)``) and classify the range for good: its NaN
        ``last_seen`` never ages past ``t``."""
        ipd = self.engine()
        before = ipd.to_bytes()
        with pytest.raises(ValueError, match="row 0: timestamp nan is not finite"):
            ipd.ingest(FlowRecord(float("nan"), 0x7F000001, IPV4, A))
        batch = FlowBatch.from_flows(
            [FlowRecord(70.0, 0x7F000001, IPV4, A), FlowRecord(float("inf"), 1, IPV4, A)]
        )
        with pytest.raises(ValueError, match="row 1: timestamp inf is not finite"):
            ipd.ingest_batch(batch)
        assert ipd.to_bytes() == before

    def test_ipv4_source_past_32_bits_is_rejected(self):
        """``source << 32`` wrapped in uint64: a source at 2^33 | 16 shared
        source 16's cell key, and a restore kept only one of the two."""
        ipd = self.engine()
        before = ipd.to_bytes()
        with pytest.raises(ValueError, match="outside IPv4"):
            ipd.ingest(FlowRecord(1.0, (1 << 33) | 16, IPV4, A))
        wide = FlowBatch.from_flows([FlowRecord(1.0, 16, IPV4, A)] * 2)
        wide.src_ips = np.array([16, (1 << 33) | 16], np.uint64)
        with pytest.raises(ValueError, match="row 1: source 8589934608 is outside IPv4"):
            ipd.ingest_batch(wide)
        assert ipd.to_bytes() == before

    @pytest.mark.parametrize("source", [-1, 1 << 128], ids=["negative", "past-128-bits"])
    def test_ipv6_source_outside_128_bits_is_a_value_error(self, source):
        """It used to fail inside the batch constructor with a bare numpy
        ``OverflowError``."""
        ipd = self.engine()
        with pytest.raises(ValueError, match=f"row 0: source {source} is outside IPv6"):
            ipd.ingest(FlowRecord(1.0, source, IPV6, A))


    def test_negative_count_is_rejected_before_anything_moves(self):
        """``byte_counts=[-5000]`` used to be ingested: with ``count_bytes``
        it put -5000 into count-min cells, whose estimates must only err
        upward.  A negative packet count is refused the same way."""
        ipd = self.engine(count_bytes=True)
        before = ipd.to_bytes()
        negative_bytes = FlowBatch(IPV4, [70.0, 71.0], [16, 32], [A, A], [1, 1],
                                   byte_counts=[1500, -5000], dst_ips=[None, None])
        with pytest.raises(ValueError, match="row 1: byte count -5000 is negative"):
            ipd.ingest_batch(negative_bytes)
        negative_packets = FlowBatch(IPV4, [70.0], [16], [A], [-1], [1500], [None])
        with pytest.raises(ValueError, match="row 0: packet count -1 is negative"):
            ipd.ingest_batch(negative_packets)
        assert ipd.to_bytes() == before

    @pytest.mark.parametrize("columns", [
        dict(version=IPV4, src_ips=[16, 32], ingresses=[-1, 0], ingress_table=(A, B)),
        dict(version=IPV4, src_ips=[16, 32], ingresses=[0, 2], ingress_table=(A, B)),
        dict(version=IPV6, src_ips=np.array([16, 32], np.uint64), ingresses=[A, B]),
        dict(version=IPV6, src_ips=np.array([[-1, 0], [0, 1]]), ingresses=[A, B]),
        dict(version=IPV4, src_ips=[16, 32.5], ingresses=[A, B]),
        dict(version=IPV4, src_ips=[16, 32], ingresses=[0, 1 << 64], ingress_table=(A, B)),
    ], ids=["id-minus-one", "id-past-table", "v6-one-dimensional", "v6-signed", "v4-float",
            "id-past-64-bits"])
    def test_malformed_columns_move_no_counter(self, columns):
        """Each used to reach ``IPD._fold``: ``-1`` ingested as the table's
        last ingress and a signed IPv6 row as a wrapped address, while an id
        past the table or a flat IPv6 column raised ``IndexError`` after
        ``flows_ingested`` and ``bytes_ingested`` had moved, a float source
        was truncated to a whole address, and an id past 64 bits escaped as
        a bare ``OverflowError``.  The batch is refused when built now."""
        ipd = self.engine(count_bytes=True)
        before = ipd.to_bytes(), ipd.flows_ingested, ipd.bytes_ingested
        with pytest.raises(ValueError, match="ingress_ids|src_ips"):
            ipd.ingest_batch(FlowBatch(timestamps=[70.0, 71.0], packet_counts=[1, 1],
                                       byte_counts=[1000, 2000], **columns))
        assert (ipd.to_bytes(), ipd.flows_ingested, ipd.bytes_ingested) == before

    @pytest.mark.parametrize("shards", [1, 2])
    def test_negative_csv_bytes_stop_the_pipeline(self, shards):
        """A CSV row whose bytes field is -500 reached the engine through
        ``Pipeline``, which named it by batch row; the decoder refuses it
        now, naming its file line, before the plain engine or the shard
        coordinator sees a flow."""
        text = (
            "timestamp,src_ip,router,interface,packets,bytes,dst_ip\n"
            "1.0,10.0.0.1,R1,et0,1,1500,\n"
            "2.0,10.0.0.2,R1,et0,1,-500,\n"
        )
        with Pipeline(IPDParams(count_bytes=True), shards=shards,
                      admission=AdmissionConfig(mode="lossy")) as pipeline:
            with pytest.raises(ValueError, match="^flow CSV line 3: byte count -500 is negative"):
                pipeline.run(read_flows_csv_batched(io.StringIO(text)))
            assert pipeline.engine.flows_ingested == 0


class TestSweepTime:
    @pytest.mark.parametrize("now", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_sweep_time_moves_no_state(self, now):
        """``nan`` would be stored as ``last_sweep_at`` and carried by every
        later blob; ``inf`` would expire every source at once."""
        ipd = IPD(params(), admission=AdmissionConfig(mode="lossy", width=1 << 8))
        start = ip("10.0.0.0")
        for index in range(20):
            ipd.ingest(FlowRecord(timestamp=float(index), src_ip=start + 16 * index,
                                  version=IPV4, ingress=A))
        ipd.sweep(60.0)
        before = ipd.to_bytes()
        with pytest.raises(ValueError, match=f"sweep time {now} is not finite"):
            ipd.sweep(now)
        assert ipd.last_sweep_at == 60.0
        assert ipd.to_bytes() == before


class TestExpiryBehaviour:
    def test_unclassified_state_expires_completely(self):
        ipd = IPD(params(n_cidr_factor_v4=100.0))  # never classify
        for index in range(50):
            ipd.ingest(FlowRecord(timestamp=0.0, src_ip=ip("10.0.0.0") + index * 16,
                                  version=IPV4, ingress=A))
        ipd.sweep(60.0)
        assert ipd.state_size() > 0
        ipd.sweep(400.0)  # past e=120
        assert ipd.state_size() == 0

    def test_refreshing_sources_never_expire(self):
        ipd = IPD(params(n_cidr_factor_v4=100.0))
        now = 0.0
        for __ in range(10):
            ipd.ingest(FlowRecord(timestamp=now, src_ip=ip("10.0.0.0"),
                                  version=IPV4, ingress=A))
            now += 60.0
            ipd.sweep(now)
        state = root_state(ipd.trees[IPV4])
        assert isinstance(state, UnclassifiedState)
        assert state.sample_count == 10.0


class TestSnapshotModes:
    def test_unclassified_snapshot_has_candidates(self):
        ipd = IPD(params(n_cidr_factor_v4=100.0))
        ipd.ingest(FlowRecord(timestamp=0.0, src_ip=ip("10.0.0.1"),
                              version=IPV4, ingress=A))
        ipd.ingest(FlowRecord(timestamp=0.0, src_ip=ip("10.0.0.1"),
                              version=IPV4, ingress=B))
        records = ipd.snapshot(60.0, include_unclassified=True)
        assert len(records) == 1
        record = records[0]
        assert not record.classified
        assert record.s_ingress == pytest.approx(0.5)
        assert len(record.candidates) == 2

    def test_snapshot_n_cidr_matches_params(self):
        ipd = IPD(params())
        for index in range(100):
            ipd.ingest(FlowRecord(timestamp=0.0, src_ip=ip("10.0.0.0") + index * 16,
                                  version=IPV4, ingress=A))
        ipd.sweep(60.0)
        record = ipd.snapshot(60.0)[0]
        expected = ipd.params.n_cidr(record.range.masklen, IPV4)
        assert record.n_cidr == pytest.approx(expected)


class TestMixedFamilies:
    def test_independent_family_lifecycles(self):
        ipd = IPD(params())
        now = 0.0
        for __ in range(3):
            for index in range(60):
                ipd.ingest(FlowRecord(timestamp=now + index, version=IPV4,
                                      src_ip=ip("10.0.0.0") + index * 16,
                                      ingress=A))
                ipd.ingest(FlowRecord(timestamp=now + index, version=IPV6,
                                      src_ip=ip("2001:db8::") + index,
                                      ingress=B))
            now += 60.0
            ipd.sweep(now)
        records = ipd.snapshot(now)
        by_version = {r.version: r for r in records}
        assert by_version[IPV4].ingress == A
        assert by_version[IPV6].ingress == B

    def test_v6_only_traffic_leaves_v4_untouched(self):
        ipd = IPD(params())
        for index in range(80):
            ipd.ingest(FlowRecord(timestamp=0.0, version=IPV6,
                                  src_ip=ip("2001:db8::") + index, ingress=A))
        ipd.sweep(60.0)
        assert isinstance(root_state(ipd.trees[IPV4]), UnclassifiedState)
        assert root_state(ipd.trees[IPV4]).is_empty()


class TestReclassificationCycles:
    def test_flapping_ingress_never_wrongly_stable(self):
        """Alternating ingress every bucket: no classification survives
        two consecutive sweeps with >= q confidence for the same point."""
        ipd = IPD(params(q=0.95))
        now = 0.0
        consecutive = 0
        last = None
        for bucket in range(30):
            ingress = A if bucket % 2 == 0 else B
            for index in range(60):
                ipd.ingest(FlowRecord(timestamp=now + index,
                                      src_ip=ip("10.0.0.0") + (index % 8) * 16,
                                      version=IPV4, ingress=ingress))
            now += 60.0
            ipd.sweep(now)
            tree = ipd.trees[IPV4]
            root = root_leaf(tree)  # None once the root splits
            state = tree.state(root) if root is not None else None
            current = (
                state.ingress if isinstance(state, ClassifiedState) else None
            )
            if current is not None and current == last:
                consecutive += 1
            else:
                consecutive = 0
            last = current
            assert consecutive <= 2

    def test_burst_noise_does_not_displace_classification(self):
        """§5.1.2 AS1 story: a bounded burst on another interface only
        dents the confidence while steady traffic keeps flowing."""
        ipd = IPD(params(q=0.95))
        other = IngressPoint("R1", "et9")
        now = 0.0
        for bucket in range(20):
            for index in range(100):
                ipd.ingest(FlowRecord(timestamp=now + index * 0.5,
                                      src_ip=ip("10.0.0.0") + (index % 8) * 16,
                                      version=IPV4, ingress=A))
            if bucket == 10:  # one burst of 30 misrouted flows
                for index in range(30):
                    ipd.ingest(FlowRecord(timestamp=now + index,
                                          src_ip=ip("10.0.0.0"),
                                          version=IPV4, ingress=other))
            now += 60.0
            ipd.sweep(now)
        state = root_state(ipd.trees[IPV4])
        assert isinstance(state, ClassifiedState)
        assert state.ingress == A
