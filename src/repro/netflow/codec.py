"""Binary NetFlow v5 encoding/decoding.

The deployment's flow readers parse binary NetFlow/IPFIX from ~3,000
routers (§3.1, §5.7).  This module implements the classic NetFlow v5
wire format — 24-byte header plus 48-byte records — so the pipeline can
be exercised against real export bytes rather than only in-memory
objects:

    exporter (router) --NetFlow v5 packets--> reader --FlowRecord--> IPD

NetFlow v5 identifies interfaces by SNMP ifIndex, not by name; an
:class:`InterfaceIndexMap` provides the per-router name <-> index
mapping (in deployments this comes from SNMP/NetBox inventories).
NetFlow v5 is IPv4-only — also faithful; IPv6 flows must travel via
IPFIX or the CSV format.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from ..core.iputil import IPV4
from ..topology.elements import IngressPoint
from ..topology.network import ISPTopology
from .records import FlowRecord

__all__ = [
    "InterfaceIndexMap",
    "NetflowV5Exporter",
    "NetflowV5Reader",
    "MAX_RECORDS_PER_PACKET",
]

#: NetFlow v5 header: version, count, sys_uptime, unix_secs, unix_nsecs,
#: flow_sequence, engine_type, engine_id, sampling_interval
_HEADER = struct.Struct("!HHIIIIBBH")

#: NetFlow v5 record: srcaddr, dstaddr, nexthop, input, output, dPkts,
#: dOctets, first, last, srcport, dstport, pad1, tcp_flags, prot, tos,
#: src_as, dst_as, src_mask, dst_mask, pad2
_RECORD = struct.Struct("!IIIHHIIIIHHBBBBHHBBH")

VERSION = 5
MAX_RECORDS_PER_PACKET = 30  # per the v5 specification


@dataclass
class InterfaceIndexMap:
    """Per-router SNMP ifIndex assignment for interface names."""

    _by_router: dict[str, dict[str, int]] = field(default_factory=dict)
    _reverse: dict[str, dict[int, str]] = field(default_factory=dict)

    @classmethod
    def from_topology(cls, topology: ISPTopology) -> "InterfaceIndexMap":
        """Assign deterministic indexes (sorted names, starting at 1)."""
        mapping = cls()
        names: dict[str, list[str]] = {}
        for iface in topology.interfaces():
            names.setdefault(iface.router, []).append(iface.name)
        for router, iface_names in names.items():
            for index, name in enumerate(sorted(iface_names), start=1):
                mapping.add(router, name, index)
        return mapping

    def add(self, router: str, interface: str, index: int) -> None:
        if not 0 < index <= 0xFFFF:
            raise ValueError(f"ifIndex out of range: {index}")
        self._by_router.setdefault(router, {})[interface] = index
        reverse = self._reverse.setdefault(router, {})
        if index in reverse and reverse[index] != interface:
            raise ValueError(
                f"ifIndex {index} already bound to {reverse[index]!r} "
                f"on {router!r}"
            )
        reverse[index] = interface

    def index_of(self, router: str, interface: str) -> int:
        try:
            return self._by_router[router][interface]
        except KeyError:
            raise KeyError(
                f"no ifIndex for {interface!r} on {router!r}"
            ) from None

    def interface_of(self, router: str, index: int) -> str:
        try:
            return self._reverse[router][index]
        except KeyError:
            raise KeyError(f"unknown ifIndex {index} on {router!r}") from None


def _ingress_lookup(
    router: str, index_map: InterfaceIndexMap
) -> Callable[[int], IngressPoint]:
    """``ifIndex -> IngressPoint``, one object per interface; unknown is bad data."""

    @functools.lru_cache(maxsize=None)
    def ingress_of(index: int) -> IngressPoint:
        try:
            return IngressPoint(router, index_map.interface_of(router, index))
        except KeyError as error:
            raise ValueError(error.args[0]) from None

    return ingress_of


class NetflowV5Exporter:
    """Serializes one router's flows into NetFlow v5 export packets."""

    def __init__(
        self,
        router: str,
        index_map: InterfaceIndexMap,
        engine_id: int = 0,
        sampling_interval: int = 0,
    ) -> None:
        self.router = router
        self.index_map = index_map
        self.engine_id = engine_id
        self.sampling_interval = sampling_interval
        self.flow_sequence = 0

    def export(self, flows: Iterable[FlowRecord]) -> Iterator[bytes]:
        """Yield export packets of up to 30 records each."""
        batch: list[FlowRecord] = []
        for flow in flows:
            if flow.version != IPV4:
                raise ValueError("NetFlow v5 carries IPv4 flows only")
            if flow.ingress.router != self.router:
                raise ValueError(
                    f"flow ingress {flow.ingress.router!r} does not match "
                    f"exporter {self.router!r}"
                )
            batch.append(flow)
            if len(batch) == MAX_RECORDS_PER_PACKET:
                yield self._packet(batch)
                batch = []
        if batch:
            yield self._packet(batch)

    def _packet(self, flows: list[FlowRecord]) -> bytes:
        newest = max(flow.timestamp for flow in flows)
        header = _HEADER.pack(
            VERSION,
            len(flows),
            int(newest * 1000.0) & 0xFFFFFFFF,  # sys_uptime (ms)
            int(newest),
            int((newest % 1.0) * 1e9),
            self.flow_sequence & 0xFFFFFFFF,
            0,  # engine_type
            self.engine_id,
            self.sampling_interval,
        )
        self.flow_sequence += len(flows)
        body = b"".join(self._record(flow) for flow in flows)
        return header + body

    def _record(self, flow: FlowRecord) -> bytes:
        input_index = self.index_map.index_of(
            self.router, flow.ingress.interface
        )
        first_ms = int(flow.timestamp * 1000.0) & 0xFFFFFFFF
        return _RECORD.pack(
            flow.src_ip,
            flow.dst_ip or 0,
            0,                       # nexthop (unused here)
            input_index,
            0,                       # output ifIndex
            min(flow.packets, 0xFFFFFFFF),
            min(flow.bytes, 0xFFFFFFFF),
            first_ms,
            first_ms,
            0, 0,                    # src/dst ports (stripped, §4)
            0, 0, 0, 0,              # pad1, tcp_flags, prot, tos
            0, 0,                    # src_as, dst_as
            0, 0, 0,                 # src_mask, dst_mask, pad2
        )


class NetflowV5Reader:
    """Parses one router's NetFlow v5 packets back into flow records.

    Timestamps are reconstructed from the header's unix seconds plus the
    per-record offset; a real deployment would instead anchor them with
    the statistical-time stage (§3.1), which this reader feeds.
    """

    def __init__(self, router: str, index_map: InterfaceIndexMap) -> None:
        self.router = router
        self.index_map = index_map
        self.packets_read = 0
        self.records_read = 0
        self.sequence_gaps = 0
        self._expected_sequence: Optional[int] = None
        self._ingress_of = _ingress_lookup(router, index_map)

    def parse(self, packet: bytes) -> list[FlowRecord]:
        """Decode one export packet; raises ``ValueError`` on bad data."""
        if len(packet) < _HEADER.size:
            raise ValueError("short NetFlow packet")
        (version, count, __, unix_secs, unix_nsecs, sequence, __, __, __
         ) = _HEADER.unpack_from(packet)
        if version != VERSION:
            raise ValueError(f"unsupported NetFlow version: {version}")
        expected_len = _HEADER.size + count * _RECORD.size
        if len(packet) < expected_len:
            raise ValueError(
                f"truncated packet: {len(packet)} bytes for {count} records"
            )
        # the exporter stamps `first` with epoch milliseconds; the field
        # wraps every ~49.7 days, as real uptime counters do — the
        # statistical-time stage absorbs that in deployment
        flows = [
            FlowRecord(
                first_ms / 1000.0, srcaddr, IPV4, self._ingress_of(input_index),
                packets, octets, dstaddr or None,
            )
            for srcaddr, dstaddr, __, input_index, __, packets, octets, first_ms, *__
            in _RECORD.iter_unpack(packet[_HEADER.size:expected_len])
        ]
        # counters move only once the whole packet has decoded
        if self._expected_sequence not in (None, sequence):
            self.sequence_gaps += 1
        self._expected_sequence = (sequence + count) & 0xFFFFFFFF
        self.packets_read += 1
        self.records_read += count
        return flows

    def parse_stream(self, packets: Iterable[bytes]) -> Iterator[FlowRecord]:
        for packet in packets:
            yield from self.parse(packet)
