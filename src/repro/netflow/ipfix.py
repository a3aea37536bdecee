"""IPFIX (RFC 7011) encoding/decoding — the IPv6-capable export path.

The paper's input is "flow-level traces (e.g., Netflow or IPFIX) from
all border routers" (§3.1).  NetFlow v5 (:mod:`repro.netflow.codec`)
cannot carry IPv6, so the dual-stack pipeline needs IPFIX.  This module
implements the subset of RFC 7011 the pipeline uses:

* message header (version 10) + sets;
* template sets (set id 2) defining the two record layouts below;
* data sets referencing those templates.

Two fixed templates are exported, mirroring what real exporters send:

* **Template 256 (IPv4):** sourceIPv4Address(8), destinationIPv4Address
  (12), ingressInterface(10), packetDeltaCount(2), octetDeltaCount(1),
  flowStartMilliseconds(152).
* **Template 257 (IPv6):** sourceIPv6Address(27), destinationIPv6Address
  (28), ingressInterface(10), packetDeltaCount(2), octetDeltaCount(1),
  flowStartMilliseconds(152).

The decoder is template-driven: it learns templates from the stream (as
a real collector must) and refuses data sets whose template it has not
seen.  Interfaces are carried as SNMP ifIndex values via the same
:class:`~repro.netflow.codec.InterfaceIndexMap` as NetFlow v5.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator

from ..core.iputil import IPV4, IPV6
from .codec import InterfaceIndexMap, _ingress_lookup
from .records import FlowRecord

__all__ = ["IPFIXExporter", "IPFIXCollector", "TEMPLATE_V4", "TEMPLATE_V6"]

VERSION = 10
TEMPLATE_SET_ID = 2
TEMPLATE_V4 = 256
TEMPLATE_V6 = 257

_MESSAGE_HEADER = struct.Struct("!HHIII")  # version, length, export, seq, odid
_SET_HEADER = struct.Struct("!HH")         # set id, length
_TEMPLATE_HEADER = struct.Struct("!HH")    # template id, field count
_FIELD_SPEC = struct.Struct("!HH")         # element id, length

# (element_id, length) per template, in record order
_V4_FIELDS = ((8, 4), (12, 4), (10, 4), (2, 8), (1, 8), (152, 8))
_V6_FIELDS = ((27, 16), (28, 16), (10, 4), (2, 8), (1, 8), (152, 8))

_V4_RECORD = struct.Struct("!IIIQQQ")
_V6_RECORD = struct.Struct("!16s16sIQQQ")

_Templates = dict[int, tuple[tuple[int, int], ...]]  # id -> (element id, length)s


def _encode_template(template_id: int, fields: "tuple[tuple[int, int], ...]") -> bytes:
    body = _TEMPLATE_HEADER.pack(template_id, len(fields))
    for element_id, length in fields:
        body += _FIELD_SPEC.pack(element_id, length)
    return body


class IPFIXExporter:
    """Serializes one router's flows into IPFIX messages.

    Templates are re-sent every ``template_refresh`` messages (RFC 7011
    requires periodic refresh over unreliable transports); the first
    message always carries them.
    """

    def __init__(
        self,
        router: str,
        index_map: InterfaceIndexMap,
        observation_domain: int = 1,
        max_records_per_message: int = 24,
        template_refresh: int = 16,
    ) -> None:
        if max_records_per_message < 1:
            raise ValueError("max_records_per_message must be >= 1")
        self.router = router
        self.index_map = index_map
        self.observation_domain = observation_domain
        self.max_records_per_message = max_records_per_message
        self.template_refresh = template_refresh
        self.sequence = 0
        self._messages_sent = 0

    def export(self, flows: Iterable[FlowRecord]) -> Iterator[bytes]:
        """Yield IPFIX messages covering *flows* (both families)."""
        batch: list[FlowRecord] = []
        for flow in flows:
            if flow.ingress.router != self.router:
                raise ValueError(
                    f"flow ingress {flow.ingress.router!r} does not match "
                    f"exporter {self.router!r}"
                )
            batch.append(flow)
            if len(batch) == self.max_records_per_message:
                yield self._message(batch)
                batch = []
        if batch:
            yield self._message(batch)

    def _message(self, flows: list[FlowRecord]) -> bytes:
        sets: list[bytes] = []
        if self._messages_sent % self.template_refresh == 0:
            template_body = (
                _encode_template(TEMPLATE_V4, _V4_FIELDS)
                + _encode_template(TEMPLATE_V6, _V6_FIELDS)
            )
            sets.append(
                _SET_HEADER.pack(
                    TEMPLATE_SET_ID, _SET_HEADER.size + len(template_body)
                )
                + template_body
            )

        for version, template_id in ((IPV4, TEMPLATE_V4), (IPV6, TEMPLATE_V6)):
            family = [flow for flow in flows if flow.version == version]
            if not family:
                continue
            body = b"".join(self._record(flow) for flow in family)
            sets.append(
                _SET_HEADER.pack(template_id, _SET_HEADER.size + len(body))
                + body
            )

        newest = max(flow.timestamp for flow in flows)
        payload = b"".join(sets)
        header = _MESSAGE_HEADER.pack(
            VERSION,
            _MESSAGE_HEADER.size + len(payload),
            int(newest),
            self.sequence & 0xFFFFFFFF,
            self.observation_domain,
        )
        self.sequence += len(flows)
        self._messages_sent += 1
        return header + payload

    def _record(self, flow: FlowRecord) -> bytes:
        ifindex = self.index_map.index_of(self.router, flow.ingress.interface)
        start_ms = int(flow.timestamp * 1000.0)
        if flow.version == IPV4:
            return _V4_RECORD.pack(
                flow.src_ip, flow.dst_ip or 0, ifindex,
                flow.packets, flow.bytes, start_ms,
            )
        return _V6_RECORD.pack(
            flow.src_ip.to_bytes(16, "big"),
            (flow.dst_ip or 0).to_bytes(16, "big"),
            ifindex, flow.packets, flow.bytes, start_ms,
        )


class IPFIXCollector:
    """Template-driven IPFIX parser for one router's stream."""

    def __init__(self, router: str, index_map: InterfaceIndexMap) -> None:
        self.router = router
        self.index_map = index_map
        self.templates: _Templates = {}
        self.messages_read = 0
        self.records_read = 0
        self.unknown_template_sets = 0
        self._ingress_of = _ingress_lookup(router, index_map)

    def parse(self, message: bytes) -> list[FlowRecord]:
        """Decode one IPFIX message; raises ``ValueError`` on bad data."""
        if len(message) < _MESSAGE_HEADER.size:
            raise ValueError("short IPFIX message")
        version, length, __, __, __ = _MESSAGE_HEADER.unpack_from(message)
        if version != VERSION:
            raise ValueError(f"unsupported IPFIX version: {version}")
        if length != len(message):
            raise ValueError(
                f"message length {length} != actual {len(message)}"
            )

        # reader state moves only once the whole message has decoded
        flows: list[FlowRecord] = []
        templates = dict(self.templates)
        unknown = 0
        offset = _MESSAGE_HEADER.size
        while offset + _SET_HEADER.size <= len(message):
            set_id, set_length = _SET_HEADER.unpack_from(message, offset)
            if set_length < _SET_HEADER.size:
                raise ValueError(f"invalid set length: {set_length}")
            body = message[offset + _SET_HEADER.size: offset + set_length]
            if set_id == TEMPLATE_SET_ID:
                self._learn_templates(body, templates)
            elif set_id >= 256 and set_id not in templates:
                # RFC 7011: a collector must drop data it has no template for
                unknown += 1
            elif set_id >= 256:
                flows.extend(self._decode_data(set_id, body, templates))
            offset += set_length
        self.templates = templates
        self.unknown_template_sets += unknown
        self.messages_read += 1
        self.records_read += len(flows)
        return flows

    def parse_stream(self, messages: Iterable[bytes]) -> Iterator[FlowRecord]:
        for message in messages:
            yield from self.parse(message)

    @staticmethod
    def _learn_templates(body: bytes, templates: _Templates) -> None:
        offset = 0
        while offset + _TEMPLATE_HEADER.size <= len(body):
            template_id, field_count = _TEMPLATE_HEADER.unpack_from(
                body, offset
            )
            offset += _TEMPLATE_HEADER.size
            end = offset + field_count * _FIELD_SPEC.size
            if end > len(body):
                raise ValueError(f"truncated template {template_id}")
            templates[template_id] = tuple(_FIELD_SPEC.iter_unpack(body[offset:end]))
            offset = end

    def _decode_data(
        self, set_id: int, body: bytes, templates: _Templates
    ) -> list[FlowRecord]:
        if templates[set_id] == _V4_FIELDS:
            record, version = _V4_RECORD, IPV4
        elif templates[set_id] == _V6_FIELDS:
            record, version = _V6_RECORD, IPV6
        else:
            raise ValueError(f"unsupported template layout: {set_id}")
        # whole records only: a set may end in padding (RFC 7011 §3.3.1)
        rows = record.iter_unpack(body[:len(body) - len(body) % record.size])
        if version == IPV6:
            rows = (
                (int.from_bytes(src, "big"), int.from_bytes(dst, "big"), *rest)
                for src, dst, *rest in rows
            )
        return [
            FlowRecord(
                start_ms / 1000.0, src, version, self._ingress_of(ifindex),
                packets, octets, dst or None,
            )
            for src, dst, ifindex, packets, octets, start_ms in rows
        ]
