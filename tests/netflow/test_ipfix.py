"""Tests for the IPFIX (RFC 7011) codec."""

import struct

import pytest

from repro.core.iputil import IPV4, IPV6, parse_ip
from repro.netflow.codec import InterfaceIndexMap
from repro.netflow.ipfix import (
    IPFIXCollector,
    IPFIXExporter,
    TEMPLATE_V4,
    TEMPLATE_V6,
)
from repro.netflow.records import FlowRecord
from repro.topology.elements import IngressPoint


@pytest.fixture
def index_map() -> InterfaceIndexMap:
    mapping = InterfaceIndexMap()
    mapping.add("R1", "et0", 1)
    mapping.add("R1", "et1", 2)
    return mapping


def v4_flow(src: str, iface: str = "et0", ts: float = 1234.5) -> FlowRecord:
    return FlowRecord(timestamp=ts, src_ip=parse_ip(src)[0], version=IPV4,
                      ingress=IngressPoint("R1", iface), packets=3, bytes=4500)


def v6_flow(src: str, iface: str = "et0", ts: float = 1234.5) -> FlowRecord:
    return FlowRecord(timestamp=ts, src_ip=parse_ip(src)[0], version=IPV6,
                      ingress=IngressPoint("R1", iface), packets=2, bytes=3000,
                      dst_ip=parse_ip("2001:db8::99")[0])


class TestRoundTrip:
    def test_dual_family_roundtrip(self, index_map):
        flows = [v4_flow("198.51.100.1"), v6_flow("2001:db8::1", iface="et1")]
        exporter = IPFIXExporter("R1", index_map)
        messages = list(exporter.export(flows))
        collector = IPFIXCollector("R1", index_map)
        decoded = []
        for message in messages:
            decoded.extend(collector.parse(message))
        assert len(decoded) == 2
        by_version = {flow.version: flow for flow in decoded}
        assert by_version[IPV4].src_ip == flows[0].src_ip
        assert by_version[IPV4].packets == 3
        assert by_version[IPV6].src_ip == flows[1].src_ip
        assert by_version[IPV6].dst_ip == flows[1].dst_ip
        assert by_version[IPV6].ingress.interface == "et1"
        assert by_version[IPV4].timestamp == pytest.approx(1234.5, abs=1e-3)

    def test_large_v6_addresses_roundtrip(self, index_map):
        top_bit = v6_flow("ffff::1")
        message = next(IPFIXExporter("R1", index_map).export([top_bit]))
        decoded = IPFIXCollector("R1", index_map).parse(message)
        assert decoded[0].src_ip == top_bit.src_ip

    def test_message_batching(self, index_map):
        flows = [v4_flow(f"10.0.{i // 200}.{i % 200}") for i in range(60)]
        exporter = IPFIXExporter("R1", index_map, max_records_per_message=24)
        messages = list(exporter.export(flows))
        assert len(messages) == 3
        collector = IPFIXCollector("R1", index_map)
        decoded = list(collector.parse_stream(messages))
        assert len(decoded) == 60
        assert collector.records_read == 60

    def test_sequence_numbers_advance(self, index_map):
        exporter = IPFIXExporter("R1", index_map)
        list(exporter.export([v4_flow("10.0.0.1")] * 5))
        assert exporter.sequence == 5


class TestTemplates:
    def test_templates_learned_from_stream(self, index_map):
        message = next(IPFIXExporter("R1", index_map).export(
            [v4_flow("10.0.0.1")]
        ))
        collector = IPFIXCollector("R1", index_map)
        collector.parse(message)
        assert TEMPLATE_V4 in collector.templates
        assert TEMPLATE_V6 in collector.templates

    def test_data_without_template_dropped(self, index_map):
        exporter = IPFIXExporter("R1", index_map, template_refresh=1000)
        first, second = None, None
        messages = list(exporter.export([v4_flow("10.0.0.1")] * 30))
        # force a second message without templates
        exporter._messages_sent = 1
        second = next(exporter.export([v4_flow("10.0.0.2")]))
        fresh_collector = IPFIXCollector("R1", index_map)
        decoded = fresh_collector.parse(second)
        assert decoded == []
        assert fresh_collector.unknown_template_sets == 1

    def test_template_refresh_period(self, index_map):
        exporter = IPFIXExporter("R1", index_map, template_refresh=2)
        messages = [
            next(exporter.export([v4_flow("10.0.0.1")])) for __ in range(4)
        ]
        # messages 0 and 2 carry templates and are longer
        assert len(messages[0]) > len(messages[1])
        assert len(messages[2]) > len(messages[3])


class TestValidation:
    def test_wrong_router_rejected(self, index_map):
        wrong = FlowRecord(timestamp=0.0, src_ip=1, version=IPV4,
                           ingress=IngressPoint("R9", "et0"))
        with pytest.raises(ValueError):
            list(IPFIXExporter("R1", index_map).export([wrong]))

    def test_short_message_rejected(self, index_map):
        with pytest.raises(ValueError):
            IPFIXCollector("R1", index_map).parse(b"\x00\x0a")

    def test_wrong_version_rejected(self, index_map):
        message = next(IPFIXExporter("R1", index_map).export(
            [v4_flow("10.0.0.1")]
        ))
        corrupted = struct.pack("!H", 9) + message[2:]
        with pytest.raises(ValueError):
            IPFIXCollector("R1", index_map).parse(corrupted)

    def test_length_mismatch_rejected(self, index_map):
        message = next(IPFIXExporter("R1", index_map).export(
            [v4_flow("10.0.0.1")]
        ))
        with pytest.raises(ValueError):
            IPFIXCollector("R1", index_map).parse(message + b"\x00")

    def test_invalid_batch_size(self, index_map):
        with pytest.raises(ValueError):
            IPFIXExporter("R1", index_map, max_records_per_message=0)

    def test_unknown_ifindex_is_bad_data_and_leaves_the_collector_untouched(
        self, index_map
    ):
        """A message whose *second* data set names an unknown ifIndex is
        rejected whole: no counters, and not the templates it carried."""
        message = next(IPFIXExporter("R1", index_map).export(
            [v4_flow("10.0.0.1"), v6_flow("2001:db8::1")]
        ))
        # the v6 data set is last; its record ends ...ifIndex(4) + 3 x 8 bytes
        offset = len(message) - 24 - 4
        bad = message[:offset] + struct.pack("!I", 99) + message[offset + 4:]
        collector = IPFIXCollector("R1", index_map)
        with pytest.raises(ValueError, match="unknown ifIndex 99"):
            collector.parse(bad)
        assert collector.records_read == collector.messages_read == 0
        assert collector.templates == {}
        assert len(collector.parse(message)) == 2
        assert (collector.messages_read, collector.records_read) == (1, 2)

    def test_truncated_template_set_is_a_value_error(self, index_map):
        # a template set announcing six fields but carrying one
        body = struct.pack("!HH", TEMPLATE_V4, 6) + struct.pack("!HH", 8, 4)
        sets = struct.pack("!HH", 2, 4 + len(body)) + body
        message = struct.pack("!HHIII", 10, 16 + len(sets), 0, 0, 1) + sets
        collector = IPFIXCollector("R1", index_map)
        with pytest.raises(ValueError, match="truncated template"):
            collector.parse(message)
        assert collector.templates == {}


class TestPipelineIntegration:
    def test_dualstack_bytes_to_classification(self, index_map):
        """IPFIX wire bytes -> collector -> IPD classifies both families."""
        from repro.core.algorithm import IPD
        from repro.core.params import IPDParams

        flows = []
        for bucket in range(6):
            for index in range(30):
                ts = bucket * 60.0 + index
                flows.append(v4_flow(f"10.0.0.{index * 2}", ts=ts))
                flows.append(v6_flow("2001:db8::%x" % index, ts=ts))
        exporter = IPFIXExporter("R1", index_map)
        collector = IPFIXCollector("R1", index_map)
        ipd = IPD(IPDParams(n_cidr_factor_v4=0.001, n_cidr_factor_v6=1e-9))
        for decoded in collector.parse_stream(exporter.export(flows)):
            ipd.ingest(decoded)
        ipd.sweep(360.0)
        records = ipd.snapshot(360.0)
        versions = {record.version for record in records}
        assert IPV4 in versions
