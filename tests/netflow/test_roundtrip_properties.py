"""Property-based round-trip guarantees for every serialization layer.

Flow CSV, Table-3 record CSV, NetFlow v5 and IPFIX must reproduce what
they were given for arbitrary (valid) inputs — these are the formats
data crosses process/host boundaries in, where silent corruption is
most expensive.
"""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.iputil import IPV4, IPV6, Prefix
from repro.core.output import IPDRecord, read_records_csv, write_records_csv
from repro.netflow.codec import (
    InterfaceIndexMap,
    NetflowV5Exporter,
    NetflowV5Reader,
)
from repro.netflow.ipfix import IPFIXCollector, IPFIXExporter
from repro.netflow.records import (
    FlowRecord,
    read_flows_csv,
    read_flows_csv_batched,
    write_flows_csv,
)
from repro.topology.elements import IngressPoint

INTERFACES = ["et0", "et1", "xe5"]


def make_index_map() -> InterfaceIndexMap:
    mapping = InterfaceIndexMap()
    for index, name in enumerate(INTERFACES, start=1):
        mapping.add("R1", name, index)
    return mapping


v4_flow_strategy = st.builds(
    FlowRecord,
    timestamp=st.floats(min_value=0.0, max_value=4e6, allow_nan=False),
    src_ip=st.integers(min_value=0, max_value=(1 << 32) - 1),
    version=st.just(IPV4),
    ingress=st.sampled_from([IngressPoint("R1", n) for n in INTERFACES]),
    packets=st.integers(min_value=1, max_value=10_000),
    bytes=st.integers(min_value=1, max_value=10_000_000),
    dst_ip=st.one_of(
        st.none(), st.integers(min_value=1, max_value=(1 << 32) - 1)
    ),
)

v6_flow_strategy = st.builds(
    FlowRecord,
    timestamp=st.floats(min_value=0.0, max_value=4e6, allow_nan=False),
    src_ip=st.integers(min_value=0, max_value=(1 << 128) - 1),
    version=st.just(IPV6),
    ingress=st.sampled_from([IngressPoint("R1", n) for n in INTERFACES]),
    packets=st.integers(min_value=1, max_value=10_000),
    bytes=st.integers(min_value=1, max_value=10_000_000),
    dst_ip=st.one_of(
        st.none(), st.integers(min_value=1, max_value=(1 << 128) - 1)
    ),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(v4_flow_strategy, v6_flow_strategy), max_size=40))
def test_flow_csv_roundtrip(flows):
    buffer = io.StringIO()
    write_flows_csv(flows, buffer)
    buffer.seek(0)
    decoded = list(read_flows_csv(buffer))
    assert len(decoded) == len(flows)
    for batch_size in (1, 7, 8192):
        buffer.seek(0)
        batches = list(read_flows_csv_batched(buffer, batch_size))
        assert [flow for batch in batches for flow in batch.iter_flows()] == decoded
    for original, parsed in zip(flows, decoded):
        assert parsed.src_ip == original.src_ip
        assert parsed.version == original.version
        assert parsed.ingress == original.ingress
        assert parsed.packets == original.packets
        assert parsed.bytes == original.bytes
        assert parsed.dst_ip == original.dst_ip
        assert abs(parsed.timestamp - original.timestamp) < 1e-3


@settings(max_examples=40, deadline=None)
@given(st.lists(v4_flow_strategy, min_size=1, max_size=40))
def test_netflow_v5_roundtrip(flows):
    index_map = make_index_map()
    packets = list(NetflowV5Exporter("R1", index_map).export(flows))
    decoded = list(NetflowV5Reader("R1", index_map).parse_stream(packets))
    assert len(decoded) == len(flows)
    for original, parsed in zip(flows, decoded):
        assert parsed.src_ip == original.src_ip
        assert parsed.ingress == original.ingress
        assert parsed.packets == min(original.packets, 0xFFFFFFFF)
        assert parsed.dst_ip == original.dst_ip
        assert abs(parsed.timestamp - original.timestamp) < 2e-3


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(v4_flow_strategy, v6_flow_strategy),
                min_size=1, max_size=40))
def test_ipfix_roundtrip(flows):
    index_map = make_index_map()
    messages = list(IPFIXExporter("R1", index_map).export(flows))
    decoded = list(IPFIXCollector("R1", index_map).parse_stream(messages))
    assert len(decoded) == len(flows)
    by_key_original = sorted(
        (f.version, f.src_ip, f.packets) for f in flows
    )
    by_key_decoded = sorted(
        (f.version, f.src_ip, f.packets) for f in decoded
    )
    assert by_key_decoded == by_key_original


record_strategy = st.builds(
    IPDRecord,
    timestamp=st.floats(min_value=0.0, max_value=4e6, allow_nan=False)
        .map(lambda v: float(int(v))),
    range=st.tuples(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=28),
    ).map(lambda pair: Prefix.from_ip(pair[0], pair[1], IPV4)),
    ingress=st.sampled_from([
        IngressPoint("R1", "et0"), IngressPoint("R2", "et0+et1"),
    ]),
    s_ingress=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    s_ipcount=st.integers(min_value=0, max_value=10**9).map(float),
    n_cidr=st.integers(min_value=1, max_value=10**6).map(float),
    candidates=st.just(((IngressPoint("R1", "et0"), 10.0),)),
    classified=st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(record_strategy, max_size=30))
def test_record_csv_roundtrip(records):
    buffer = io.StringIO()
    write_records_csv(records, buffer)
    buffer.seek(0)
    decoded = list(read_records_csv(buffer))
    assert len(decoded) == len(records)
    for original, parsed in zip(records, decoded):
        assert parsed.range == original.range
        assert parsed.ingress == original.ingress
        assert parsed.classified == original.classified
        assert abs(parsed.s_ipcount - original.s_ipcount) < 1.0
        assert abs(parsed.s_ingress - original.s_ingress) < 1e-3
