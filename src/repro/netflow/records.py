"""Flow record model.

IPD consumes sampled flow-level traces (Netflow/IPFIX) exported by the
border routers.  After the ISP's anonymization step (§4) a record retains
only what the algorithm needs: a timestamp, the source address, the
ingress point the exporter observed it on, and size counters.  We keep an
optional destination address because the router-level load-balancing
extension discussed in §5.8 needs (src, dst) pairs.

Records are plain ``NamedTuple`` values: millions of them flow through
the engine per simulated run, so they must be cheap to allocate and hash.
"""

from __future__ import annotations

import csv
import functools
import itertools
import operator
from typing import IO, Any, Iterable, Iterator, NamedTuple, Optional, Sequence

from ..core.iputil import IPV4, format_ip, parse_ip
from ..topology.elements import IngressPoint

__all__ = [
    "FlowRecord",
    "FlowBatch",
    "iter_flow_batches",
    "write_flows_csv",
    "read_flows_csv",
    "read_flows_csv_batched",
]

#: default flows per batch for the batched readers/iterators
DEFAULT_BATCH_SIZE = 8192


class FlowRecord(NamedTuple):
    """One sampled flow observation from a border router."""

    timestamp: float
    src_ip: int
    version: int
    ingress: IngressPoint
    packets: int = 1
    bytes: int = 1500
    dst_ip: Optional[int] = None

    def with_timestamp(self, timestamp: float) -> "FlowRecord":
        return self._replace(timestamp=timestamp)

    def src_text(self) -> str:
        """Source address in textual form (diagnostics, CSV export)."""
        return format_ip(self.src_ip, self.version)


class FlowBatch:
    """A columnar (structure-of-arrays) run of same-family flows.

    Parallel lists instead of a list of :class:`FlowRecord` tuples: the
    engine's batched ingest iterates columns directly, masking and
    grouping the whole run in one pass without touching per-record
    objects.  All rows share one address ``version`` — producers with
    mixed streams emit one batch per maximal same-family run (see
    :func:`iter_flow_batches`), which keeps time order intact across
    batches.

    Sources are stored raw (unmasked): the ``cidr_max`` mask depends on
    the consuming engine's parameters, so masking happens once inside
    ``ingest_batch``.
    """

    __slots__ = (
        "version",
        "timestamps",
        "src_ips",
        "ingresses",
        "packet_counts",
        "byte_counts",
        "dst_ips",
    )

    def __init__(
        self,
        version: int,
        timestamps: Optional[list[float]] = None,
        src_ips: Optional[list[int]] = None,
        ingresses: Optional[list[IngressPoint]] = None,
        packet_counts: Optional[list[int]] = None,
        byte_counts: Optional[list[int]] = None,
        dst_ips: Optional[list[Optional[int]]] = None,
    ) -> None:
        self.version = version
        self.timestamps = timestamps if timestamps is not None else []
        self.src_ips = src_ips if src_ips is not None else []
        self.ingresses = ingresses if ingresses is not None else []
        self.packet_counts = packet_counts if packet_counts is not None else []
        self.byte_counts = byte_counts if byte_counts is not None else []
        self.dst_ips = dst_ips if dst_ips is not None else []
        lengths = {
            len(self.timestamps),
            len(self.src_ips),
            len(self.ingresses),
            len(self.packet_counts),
            len(self.byte_counts),
            len(self.dst_ips),
        }
        if len(lengths) != 1:
            raise ValueError("FlowBatch columns have mismatched lengths")

    @classmethod
    def empty(cls, version: int) -> "FlowBatch":
        return cls(version)

    @classmethod
    def from_flows(cls, flows: Iterable[FlowRecord]) -> "FlowBatch":
        """Build one batch from same-family flows (raises on a mix)."""
        batch: Optional[FlowBatch] = None
        for flow in flows:
            if batch is None:
                batch = cls(flow.version)
            elif flow.version != batch.version:
                raise ValueError(
                    "mixed address families in one FlowBatch; "
                    "use iter_flow_batches to split runs"
                )
            batch.append(flow)
        return batch if batch is not None else cls(IPV4)

    def append(self, flow: FlowRecord) -> None:
        if flow.version != self.version:
            raise ValueError(
                f"flow family {flow.version} != batch family {self.version}"
            )
        self.timestamps.append(flow.timestamp)
        self.src_ips.append(flow.src_ip)
        self.ingresses.append(flow.ingress)
        self.packet_counts.append(flow.packets)
        self.byte_counts.append(flow.bytes)
        self.dst_ips.append(flow.dst_ip)

    def slice(self, start: int, end: int) -> "FlowBatch":
        """A copy of rows ``[start, end)`` (for sweep-boundary cuts)."""
        return FlowBatch(
            self.version,
            self.timestamps[start:end],
            self.src_ips[start:end],
            self.ingresses[start:end],
            self.packet_counts[start:end],
            self.byte_counts[start:end],
            self.dst_ips[start:end],
        )

    def select(self, rows: Sequence[int]) -> "FlowBatch":
        """A batch view of *rows*, in order, without copying row payloads.

        The selected batch re-references the same timestamp/ingress/…
        objects (only fresh column lists are allocated); selecting every
        row returns ``self`` unchanged.  Shard routing and the admission
        gate's row selection are both built on this.
        """
        count = len(rows)
        if count == len(self.timestamps):
            return self
        if count == 0:
            return FlowBatch(self.version)
        if count == 1:
            row = rows[0]
            return FlowBatch(
                self.version,
                [self.timestamps[row]],
                [self.src_ips[row]],
                [self.ingresses[row]],
                [self.packet_counts[row]],
                [self.byte_counts[row]],
                [self.dst_ips[row]],
            )
        get = operator.itemgetter(*rows)
        return FlowBatch(
            self.version,
            list(get(self.timestamps)),
            list(get(self.src_ips)),
            list(get(self.ingresses)),
            list(get(self.packet_counts)),
            list(get(self.byte_counts)),
            list(get(self.dst_ips)),
        )

    def iter_flows(self) -> Iterator[FlowRecord]:
        """Reconstruct the row-wise records (exact round-trip)."""
        version = self.version
        for timestamp, src, ingress, packets, byte_count, dst in zip(
            self.timestamps,
            self.src_ips,
            self.ingresses,
            self.packet_counts,
            self.byte_counts,
            self.dst_ips,
        ):
            yield FlowRecord(
                timestamp=timestamp,
                src_ip=src,
                version=version,
                ingress=ingress,
                packets=packets,
                bytes=byte_count,
                dst_ip=dst,
            )

    def __len__(self) -> int:
        return len(self.timestamps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlowBatch v{self.version} n={len(self.timestamps)}>"


def iter_flow_batches(
    flows: "Iterable[FlowRecord | FlowBatch]", batch_size: int = DEFAULT_BATCH_SIZE
) -> Iterator[FlowBatch]:
    """Chunk a record stream into columnar batches.

    Batches are cut at *batch_size* rows and at address-family changes,
    so each batch is homogeneous and concatenating the batches in order
    reproduces the original stream exactly.  A :class:`FlowBatch` item
    in the stream passes through as is, after the records before it.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    batch: Optional[FlowBatch] = None
    for flow in flows:
        if isinstance(flow, FlowBatch):
            if batch is not None:
                yield batch
                batch = None
            yield flow
            continue
        if batch is not None and (
            flow.version != batch.version or len(batch.timestamps) >= batch_size
        ):
            yield batch
            batch = None
        if batch is None:
            batch = FlowBatch(flow.version)
        batch.append(flow)
    if batch is not None and batch.timestamps:
        yield batch


_CSV_FIELDS = (
    "timestamp",
    "src_ip",
    "router",
    "interface",
    "packets",
    "bytes",
    "dst_ip",
)


def write_flows_csv(flows: Iterable[FlowRecord], stream: IO[str]) -> int:
    """Serialize flows as CSV; returns the number of rows written."""
    writer = csv.writer(stream)
    writer.writerow(_CSV_FIELDS)
    count = 0
    for flow in flows:
        dst_text = (
            format_ip(flow.dst_ip, flow.version) if flow.dst_ip is not None else ""
        )
        writer.writerow(
            (
                f"{flow.timestamp:.3f}",
                flow.src_text(),
                flow.ingress.router,
                flow.ingress.interface,
                flow.packets,
                flow.bytes,
                dst_text,
            )
        )
        count += 1
    return count


#: entries a per-file decode memo (hits stay in C, equal texts share one value)
#: holds before its least recently used goes: a scan re-parses, never grows
_MEMO_LIMIT = 1 << 16
_WIDTH = len(_CSV_FIELDS)


def _row_error(line: int, reason: object, row: Sequence[str]) -> ValueError:
    return ValueError(f"flow CSV line {line}: {reason}: {row!r}")


def _tokenise(
    stream: Iterable[str], batch_size: int
) -> Iterator[tuple[list[str], Sequence[int]]]:
    """Yield ``(fields, numbers)`` per chunk of lines, the header line
    first: the rows' fields in one flat list, and each row's file line.
    A chunk of six-comma lines with no quote or carriage return splits as
    plain text; any other goes through :mod:`csv` (which may pull the rest
    of a quoted field off *stream*), so both accept the same language."""
    rest, line, size = iter(stream), 1, 1
    while lines := list(itertools.islice(rest, size)):
        size, text = batch_size, "".join(lines)
        if '"' not in text and "\r" not in text and set(
            map(str.count, lines, itertools.repeat(","))
        ) == {_WIDTH - 1}:
            flat = (text if text.endswith("\n") else text + "\n").replace("\n", ",")
            yield flat.split(",")[:-1], range(line, line + len(lines))
            line += len(lines)
            continue
        fields: list[str] = []
        numbers: list[int] = []
        reader = csv.reader(itertools.chain(lines, rest))
        for row in filter(None, itertools.islice(reader, len(lines))):
            fields += row
            numbers.append(line + reader.line_num - 1)
            if len(row) != _WIDTH:
                raise _row_error(numbers[-1], f"expected {_WIDTH} fields", row)
        yield fields, numbers
        line += reader.line_num


def _columns(fields: list[str], address: Any, ingress: Any) -> Iterator[FlowBatch]:
    """One chunk's flat field list to batches, a column at a time."""
    value, family = operator.itemgetter(0), operator.itemgetter(1)
    sources = list(map(address, fields[1::_WIDTH]))
    versions = list(map(family, sources))
    dst_texts = fields[6::_WIDTH]
    dst_ips: list[Optional[int]] = [None] * len(dst_texts)
    if any(dst_texts):
        # an absent dst takes its row's family, so one comparison finds a mix
        dsts = [
            address(text) if text else (None, version)
            for text, version in zip(dst_texts, versions)
        ]
        if list(map(family, dsts)) != versions:
            raise ValueError("mixed address families in row")
        dst_ips = list(map(value, dsts))
    columns: list[list[Any]] = [
        list(map(float, fields[0::_WIDTH])),
        list(map(value, sources)),
        list(map(ingress, fields[2::_WIDTH], fields[3::_WIDTH])),
        list(map(int, fields[4::_WIDTH])),
        list(map(int, fields[5::_WIDTH])),
        dst_ips,
    ]
    start = 0
    for version, run in itertools.groupby(versions):
        end = start + len(list(run))
        yield FlowBatch(version, *(column[start:end] for column in columns))
        start = end


def read_flows_csv_batched(
    stream: IO[str], batch_size: int = DEFAULT_BATCH_SIZE
) -> Iterator[FlowBatch]:
    """Parse a flow CSV into columnar batches — the one CSV decoder.

    Text goes to columns *batch_size* lines at a time with no per-row
    object; batches are cut at chunk ends and address-family changes.  A
    bad row of any kind raises ``ValueError`` naming its 1-based line.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    address = functools.lru_cache(_MEMO_LIMIT)(parse_ip)
    ingress = functools.lru_cache(_MEMO_LIMIT)(IngressPoint)
    chunks = _tokenise(stream, batch_size)
    for header, __ in itertools.islice(chunks, 1):
        if tuple(header) != _CSV_FIELDS:
            raise _row_error(1, "unexpected header", header)
    for fields, numbers in chunks:
        try:
            batches = list(_columns(fields, address, ingress))
        except ValueError:
            # redo the chunk a row at a time to name the first bad line
            for index, line in enumerate(numbers):
                row = fields[index * _WIDTH:(index + 1) * _WIDTH]
                try:
                    list(_columns(row, address, ingress))
                except ValueError as error:
                    raise _row_error(line, error, row) from None
            raise
        yield from batches


def read_flows_csv(stream: IO[str]) -> Iterator[FlowRecord]:
    """Row-wise edge of :func:`read_flows_csv_batched`: the same rows as records."""
    for batch in read_flows_csv_batched(stream):
        yield from batch.iter_flows()


def anonymize_flow(flow: FlowRecord, masklen: int = 28) -> FlowRecord:
    """Apply the paper's §4 privacy aggregation: mask the source to /28.

    The ISP's validation traces carry only /28-aggregated sources; masking
    at or below ``cidr_max`` is lossless for the algorithm itself.
    """
    from ..core.iputil import mask_ip

    if flow.version != IPV4:
        # The paper's trace is IPv4 /28; keep IPv6 at /64 equivalently.
        masklen_effective = min(64, masklen + 36)
    else:
        masklen_effective = masklen
    return flow._replace(
        src_ip=mask_ip(flow.src_ip, masklen_effective, flow.version),
        dst_ip=None,
    )
