"""Tests for the binary NetFlow v5 codec."""

import struct

import pytest

from repro.core.iputil import IPV4, IPV6, parse_ip
from repro.netflow.codec import (
    MAX_RECORDS_PER_PACKET,
    InterfaceIndexMap,
    NetflowV5Exporter,
    NetflowV5Reader,
)
from repro.netflow.records import FlowRecord
from repro.topology.elements import IngressPoint


@pytest.fixture
def index_map() -> InterfaceIndexMap:
    mapping = InterfaceIndexMap()
    mapping.add("R1", "et0", 1)
    mapping.add("R1", "et1", 2)
    return mapping


def flow(src: str, iface: str = "et0", ts: float = 1000.5, **kwargs) -> FlowRecord:
    return FlowRecord(
        timestamp=ts, src_ip=parse_ip(src)[0], version=IPV4,
        ingress=IngressPoint("R1", iface), **kwargs,
    )


class TestInterfaceIndexMap:
    def test_roundtrip(self, index_map):
        assert index_map.index_of("R1", "et1") == 2
        assert index_map.interface_of("R1", 2) == "et1"

    def test_unknown_lookups(self, index_map):
        with pytest.raises(KeyError):
            index_map.index_of("R1", "nope")
        with pytest.raises(KeyError):
            index_map.interface_of("R9", 1)

    def test_conflicting_index_rejected(self, index_map):
        with pytest.raises(ValueError):
            index_map.add("R1", "et9", 1)

    def test_index_range_validated(self, index_map):
        with pytest.raises(ValueError):
            index_map.add("R1", "big", 0x10000)

    def test_from_topology(self, small_topology):
        mapping = InterfaceIndexMap.from_topology(small_topology)
        assert mapping.index_of("R1", "et0") == 1
        assert mapping.index_of("R1", "et1") == 2
        name = mapping.interface_of("R4", mapping.index_of("R4", "hu1"))
        assert name == "hu1"


class TestRoundTrip:
    def test_encode_decode(self, index_map):
        flows = [
            flow("10.0.0.1", packets=7, bytes=9000),
            flow("10.0.0.2", iface="et1",
                 dst_ip=parse_ip("203.0.113.5")[0]),
        ]
        exporter = NetflowV5Exporter("R1", index_map)
        packets = list(exporter.export(flows))
        assert len(packets) == 1
        reader = NetflowV5Reader("R1", index_map)
        decoded = reader.parse(packets[0])
        assert len(decoded) == 2
        assert decoded[0].src_ip == flows[0].src_ip
        assert decoded[0].packets == 7
        assert decoded[0].bytes == 9000
        assert decoded[0].ingress == flows[0].ingress
        assert decoded[1].ingress.interface == "et1"
        assert decoded[1].dst_ip == flows[1].dst_ip
        assert decoded[0].timestamp == pytest.approx(1000.5, abs=1e-3)

    def test_packetization_at_30(self, index_map):
        flows = [flow(f"10.0.{i // 250}.{i % 250}") for i in range(65)]
        packets = list(NetflowV5Exporter("R1", index_map).export(flows))
        assert len(packets) == 3  # 30 + 30 + 5
        reader = NetflowV5Reader("R1", index_map)
        decoded = list(reader.parse_stream(packets))
        assert len(decoded) == 65
        assert reader.records_read == 65
        assert reader.sequence_gaps == 0

    def test_sequence_gap_detected(self, index_map):
        flows = [flow(f"10.0.0.{i}") for i in range(60)]
        packets = list(NetflowV5Exporter("R1", index_map).export(flows))
        reader = NetflowV5Reader("R1", index_map)
        reader.parse(packets[0])
        # drop packets[1]: nothing to parse, then next arrives
        more = list(NetflowV5Exporter("R1", index_map).export(flows[:5]))
        reader.parse(more[0])  # sequence restarts at 0 -> gap
        assert reader.sequence_gaps == 1

    def test_counter_clipping(self, index_map):
        big = flow("10.0.0.1", packets=2**40, bytes=2**40)
        packet = next(NetflowV5Exporter("R1", index_map).export([big]))
        decoded = NetflowV5Reader("R1", index_map).parse(packet)[0]
        assert decoded.packets == 0xFFFFFFFF
        assert decoded.bytes == 0xFFFFFFFF


class TestValidation:
    def test_ipv6_rejected(self, index_map):
        v6 = FlowRecord(timestamp=0.0, src_ip=parse_ip("2001:db8::1")[0],
                        version=IPV6, ingress=IngressPoint("R1", "et0"))
        with pytest.raises(ValueError):
            list(NetflowV5Exporter("R1", index_map).export([v6]))

    def test_wrong_router_rejected(self, index_map):
        other = FlowRecord(timestamp=0.0, src_ip=1, version=IPV4,
                           ingress=IngressPoint("R9", "et0"))
        with pytest.raises(ValueError):
            list(NetflowV5Exporter("R1", index_map).export([other]))

    def test_short_packet_rejected(self, index_map):
        with pytest.raises(ValueError):
            NetflowV5Reader("R1", index_map).parse(b"\x00\x05")

    def test_wrong_version_rejected(self, index_map):
        packet = next(NetflowV5Exporter("R1", index_map).export(
            [flow("10.0.0.1")]
        ))
        corrupted = struct.pack("!H", 9) + packet[2:]
        with pytest.raises(ValueError):
            NetflowV5Reader("R1", index_map).parse(corrupted)

    def test_truncated_body_rejected(self, index_map):
        packet = next(NetflowV5Exporter("R1", index_map).export(
            [flow("10.0.0.1")]
        ))
        with pytest.raises(ValueError):
            NetflowV5Reader("R1", index_map).parse(packet[:-10])

    def test_unknown_ifindex_is_bad_data_and_leaves_the_reader_untouched(
        self, index_map
    ):
        """``parse`` promises ``ValueError``, and a rejected packet must not
        count: no read counters, no sequence expectation, no phantom gap."""
        exporter = NetflowV5Exporter("R1", index_map)
        good, bad, after = (
            next(exporter.export([flow("10.0.0.1"), flow("10.0.0.2", "et1")]))
            for __ in range(3)
        )
        # input ifIndex of the second record: 24-byte header, 48-byte
        # records, `input` at record offset 12
        offset = 24 + 48 + 12
        bad = bad[:offset] + struct.pack("!H", 99) + bad[offset + 2:]
        reader = NetflowV5Reader("R1", index_map)
        reader.parse(good)
        before = dict(vars(reader))
        with pytest.raises(ValueError, match="unknown ifIndex 99"):
            reader.parse(bad)
        assert vars(reader) == before
        # the rejected packet's records are a genuine gap for the next one
        assert len(reader.parse(after)) == 2
        assert (reader.packets_read, reader.records_read) == (2, 4)
        assert reader.sequence_gaps == 1

    def test_ingress_points_are_shared_per_interface(self, index_map):
        packet = next(NetflowV5Exporter("R1", index_map).export(
            [flow("10.0.0.1"), flow("10.0.0.2"), flow("10.0.0.3", "et1")]
        ))
        first, second, third = NetflowV5Reader("R1", index_map).parse(packet)
        assert first.ingress is second.ingress
        assert third.ingress == IngressPoint("R1", "et1")


class TestPipelineIntegration:
    def test_export_ingest_classify(self, index_map):
        """Bytes on the wire -> reader -> IPD classifies correctly."""
        from repro.core.algorithm import IPD
        from repro.core.params import IPDParams

        flows = []
        for bucket in range(5):
            for index in range(40):
                flows.append(flow(
                    f"10.0.0.{index * 2}", ts=bucket * 60.0 + index
                ))
        packets = list(NetflowV5Exporter("R1", index_map).export(flows))
        reader = NetflowV5Reader("R1", index_map)

        ipd = IPD(IPDParams(n_cidr_factor_v4=0.001, n_cidr_factor_v6=0.001))
        for decoded in reader.parse_stream(packets):
            ipd.ingest(decoded)
        ipd.sweep(300.0)
        records = ipd.snapshot(300.0)
        assert records
        assert records[0].ingress == IngressPoint("R1", "et0")
