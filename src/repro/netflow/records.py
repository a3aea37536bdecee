"""Flow record model.

IPD consumes sampled flow-level traces (Netflow/IPFIX) exported by the
border routers.  After the ISP's anonymization step (§4) a record retains
only what the algorithm needs: a timestamp, the source address, the
ingress point the exporter observed it on, and size counters.  We keep an
optional destination address because the router-level load-balancing
extension discussed in §5.8 needs (src, dst) pairs.

The engine sees flows only as :class:`FlowBatch` columns; a :class:`FlowRecord`
is one row at the edges (codecs, the §5.8 detector, ``iter_flows``).
"""

from __future__ import annotations

import array
import csv
import functools
import itertools
import operator
from itertools import repeat
from typing import IO, Any, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

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

    Every column is an ndarray, converted once when the batch is built
    from the lists callers pass: ``timestamps`` float64; ``src_ips``
    uint64 for IPv4, or one (hi, lo) uint64 row per IPv6 flow, raw (the
    engine masks); ``ingress_ids`` int32 indices into ``ingress_table``,
    the interned :class:`IngressPoint` tuple its slices and selections
    share; ``packet_counts`` / ``byte_counts`` int64; ``dst_ips`` ints or
    None in an object array, or ``None`` when no row has one.  Columns of
    unequal length or wrong shape, a negative source, an ingress id
    outside the table and a float that is no whole number in a source, id
    or count column are a ``ValueError``.  :meth:`iter_flows` hands back
    plain Python scalars.  One address ``version`` per batch: mixed streams
    become one batch per same-family run (:func:`iter_flow_batches`).
    """

    __slots__ = ("version", "timestamps", "src_ips", "ingress_ids", "ingress_table",
                 "packet_counts", "byte_counts", "dst_ips")

    def __init__(
        self,
        version: int,
        timestamps: Sequence[float] = (),
        src_ips: Sequence[int] = (),
        ingresses: Sequence[Any] = (),
        packet_counts: Sequence[int] = (),
        byte_counts: Sequence[int] = (),
        dst_ips: Optional[Sequence[Optional[int]]] = None,
        ingress_table: Optional[tuple[IngressPoint, ...]] = None,
    ) -> None:
        """*ingresses* are :class:`IngressPoint` values, interned here, or
        ids into *ingress_table* when one is given."""
        if ingress_table is None:
            index = {point: i for i, point in enumerate(dict.fromkeys(ingresses))}
            ingresses = list(map(index.__getitem__, ingresses))
            ingress_table = tuple(index)
        self.version = version
        self.timestamps = np.asarray(timestamps, dtype=np.float64)
        self.src_ips = _source_column(src_ips, version)
        ids = _integers(ingresses, "ingress_ids", "q")
        if len(ids) and not 0 <= ids.min() <= ids.max() < len(ingress_table):
            # checked before the int32 cast can wrap or overflow
            row = int(np.flatnonzero((ids < 0) | (ids >= len(ingress_table)))[0])
            raise ValueError(
                f"flow batch row {row}: ingress_ids {ids[row]} is outside ingress_table")
        self.ingress_ids = ids.astype(np.int32, copy=False)
        self.ingress_table = ingress_table
        self.packet_counts = _integers(packet_counts, "packet_counts", "q").astype(np.int64, copy=False)
        self.byte_counts = _integers(byte_counts, "byte_counts", "q").astype(np.int64, copy=False)
        if isinstance(dst_ips, np.ndarray):
            dst_ips = dst_ips.tolist()
        absent = dst_ips is None or dst_ips.count(None) == len(dst_ips) == len(ids)
        self.dst_ips = None if absent else np.array(dst_ips, dtype=object)
        if len(set(map(len, self._columns()))) != 1:
            raise ValueError("FlowBatch columns have mismatched lengths")

    def _columns(self) -> tuple[np.ndarray, ...]:
        columns = (self.timestamps, self.src_ips, self.ingress_ids,
                   self.packet_counts, self.byte_counts)
        return columns if self.dst_ips is None else (*columns, self.dst_ips)

    @classmethod
    def from_flows(cls, flows: Iterable[FlowRecord]) -> "FlowBatch":
        """Build one batch from same-family flows (raises on a mix)."""
        rows = list(flows)
        if not rows:
            return cls(IPV4)
        timestamps, sources, versions, *columns = zip(*rows)
        if len(set(versions)) != 1:
            raise ValueError(
                "mixed address families in one FlowBatch; "
                "use iter_flow_batches to split runs"
            )
        return cls(versions[0], timestamps, sources, *columns)

    def _take(self, rows: np.ndarray) -> "FlowBatch":
        taken = (column[rows] for column in self._columns())
        return FlowBatch(self.version, *taken, ingress_table=self.ingress_table)

    def slice(self, start: int, end: int) -> "FlowBatch":
        """A copy of rows ``[start, end)`` (for sweep-boundary cuts)."""
        return self._take(np.arange(len(self))[start:end])

    def select(self, rows: "Sequence[int] | np.ndarray") -> "FlowBatch":
        """The batch of *rows*, in order, by fancy indexing (every row in
        order: ``self``); shard routing and the admission gate select rows."""
        rows = np.asarray(rows, dtype=np.intp)
        if len(rows) == len(self) and (rows == np.arange(len(rows))).all():
            return self
        return self._take(rows)

    @property
    def ingresses(self) -> list[IngressPoint]:
        """The ingress column as the interned :class:`IngressPoint` values."""
        return list(map(self.ingress_table.__getitem__, self.ingress_ids.tolist()))

    def addresses(self) -> list[int]:
        """The source column as Python ints (full 128-bit values for IPv6)."""
        if self.version == IPV4:
            return self.src_ips.tolist()
        high, low = self.src_ips.T.tolist()
        return list(map(operator.or_, map(operator.lshift, high, repeat(64)), low))

    def iter_flows(self) -> Iterator[FlowRecord]:
        """Reconstruct the row-wise records (exact round-trip, Python scalars)."""
        dsts = () if self.dst_ips is None else (self.dst_ips.tolist(),)
        return map(
            FlowRecord,
            self.timestamps.tolist(),
            self.addresses(),
            repeat(self.version),
            self.ingresses,
            self.packet_counts.tolist(),
            self.byte_counts.tolist(),
            *dsts,
        )

    def __len__(self) -> int:
        return len(self.timestamps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlowBatch v{self.version} n={len(self.timestamps)}>"


def _integers(values: Any, column: str, typecode: str) -> np.ndarray:
    """*values* as an integer ndarray, a list converted once by :mod:`array`
    (numpy would truncate a float; a list that fits no *typecode* comes back
    as numpy reads it).  A float that is no whole number below 2**63 is a
    ``ValueError`` naming *column* and its row."""
    if not isinstance(values, np.ndarray):
        try:
            return np.frombuffer(array.array(typecode, values), typecode)
        except (TypeError, OverflowError):
            values = np.asarray(values)
    if values.dtype.kind == "f":
        broken = (values != np.floor(values)) | (np.abs(values) >= 2.0**63)
        if broken.any():
            row = int(broken.reshape(len(values), -1).any(axis=1).argmax())
            raise ValueError(
                f"flow batch row {row}: {column} {values[row].tolist()} is not an integer")
    return values


def _source_column(values: Sequence[int], version: int) -> np.ndarray:
    """Addresses as uint64 (IPv4) or as (hi, lo) uint64 rows (IPv6), a list
    converted once.  An address that fits no such row, a float that is no
    whole number, or an ndarray of another shape, is a ``ValueError`` (an
    IPv4 one past 32 bits is rejected at ingest)."""
    if version != IPV4 and not isinstance(values, np.ndarray):
        words = itertools.chain.from_iterable(
            map(divmod, map(operator.index, values), repeat(1 << 64)))
        try:
            return np.frombuffer(array.array("Q", words), "Q").reshape(-1, 2)
        except TypeError:  # a float or a non-number: whole floats convert
            return _source_column(list(map(_whole, values, itertools.count())), version)
        except OverflowError:
            row = next(row for row, value in enumerate(values) if not 0 <= value < 1 << 128)
            raise ValueError(
                f"flow batch row {row}: source {values[row]} is outside IPv{version}"
            ) from None
    column = _integers(values, "src_ips", "Q")
    shape = (len(column),) if version == IPV4 else (len(column), 2)
    if column.shape != shape:
        raise ValueError(f"flow batch src_ips: shape {column.shape}, not {shape}")
    if column.dtype.kind != "u" and (column < 0).any():
        row = int((column < 0).reshape(len(column), -1).any(axis=1).argmax())
        raise ValueError(
            f"flow batch row {row}: src_ips {column[row:row + 1].tolist()[0]} is negative")
    try:
        return column.astype(np.uint64, copy=False)
    except OverflowError:  # numpy read an int list past 64 bits as objects
        row = next(row for row, value in enumerate(values) if value >> 64)
        raise ValueError(
            f"flow batch row {row}: source {values[row]} is outside IPv{version}"
        ) from None


def _whole(value: Any, row: int) -> int:
    """An IPv6 source as an int; a float only if whole, as in IPv4."""
    if hasattr(value, "__index__"):
        return operator.index(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"flow batch row {row}: src_ips {value!r} is not an integer")


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
    pending: list[FlowRecord] = []
    for flow in flows:
        if isinstance(flow, FlowBatch):
            if pending:
                yield FlowBatch.from_flows(pending)
                pending = []
            yield flow
            continue
        if pending and (
            flow.version != pending[0].version or len(pending) >= batch_size
        ):
            yield FlowBatch.from_flows(pending)
            pending = []
        pending.append(flow)
    if pending:
        yield FlowBatch.from_flows(pending)


_CSV_FIELDS = ("timestamp", "src_ip", "router", "interface", "packets", "bytes", "dst_ip")


def write_flows_csv(flows: Iterable[FlowRecord], stream: IO[str]) -> int:
    """Serialize flows as CSV; returns the number of rows written."""
    writer = csv.writer(stream)
    writer.writerow(_CSV_FIELDS)
    count = 0
    for flow in flows:
        dst_text = "" if flow.dst_ip is None else format_ip(flow.dst_ip, flow.version)
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


def _ipv4_column(texts: list[str]) -> Optional[np.ndarray]:
    """Canonical dotted quads as a uint64 column in one pass over their bytes,
    or ``None`` if any text is not one: every non-digit byte ends an octet,
    the ends run ``...\\n`` per text, an octet is 1-3 digits, no leading
    zero, at most 255."""
    try:
        data = np.frombuffer("\n".join([*texts, ""]).encode("ascii"), np.uint8)
    except UnicodeEncodeError:
        return None
    digits = data - np.uint8(ord("0"))
    ends = np.flatnonzero(digits > 9)
    if data[ends].tobytes() != b"...\n" * len(texts):
        return None
    width = ends.copy()
    width[1:] -= ends[:-1] + 1
    tens, hundreds = width > 1, width > 2
    # the digits before an end, each weighted only if the octet has it
    octets = digits[ends - 1] + digits[ends - 2] * tens * np.uint16(10)
    octets += digits[ends - 3] * hundreds * np.uint16(100)
    if ((width < 1) | (width > 3) | (tens & (digits[ends - width] == 0)) | (octets > 255)).any():
        return None
    return octets.astype(np.uint8).view(">u4").astype(np.uint64)


def _intern(
    routers: list[str], interfaces: list[str], ingress: Any
) -> tuple[np.ndarray, tuple[IngressPoint, ...]]:
    """Ingress ids per row and the table of *ingress* points, first seen first."""
    index: dict[tuple[str, str], int] = {}
    first = np.fromiter(
        map(index.setdefault, zip(routers, interfaces), itertools.count()), np.intp, len(routers))
    # a point's id counts the points first seen before its first row
    rank = np.cumsum(first == np.arange(len(first))) - 1
    return rank[first], tuple(itertools.starmap(ingress, index))


def _columns(fields: list[str], address: Any, ingress: Any) -> Iterator[FlowBatch]:
    """One chunk's flat field list to batches, each column in one bulk pass;
    the *address* memo takes each ``dst_ip`` and the sources the byte pass refuses."""
    value, family = operator.itemgetter(0), operator.itemgetter(1)
    src_texts = fields[1::_WIDTH]
    sources: Any = _ipv4_column(src_texts)
    versions = [IPV4] * len(src_texts)
    if sources is None:
        parsed = list(map(address, src_texts))
        versions = list(map(family, parsed))
        sources = list(map(value, parsed))
    dst_texts = fields[6::_WIDTH]
    dst_ips: Optional[list[Optional[int]]] = None
    if any(dst_texts):
        # an absent dst takes its row's family, so one comparison finds a mix
        dsts = [
            address(text) if text else (None, version)
            for text, version in zip(dst_texts, versions)
        ]
        if list(map(family, dsts)) != versions:
            raise ValueError("mixed address families in row")
        dst_ips = list(map(value, dsts))
    timestamps = np.array(fields[0::_WIDTH], dtype=np.float64)
    packets = np.array(fields[4::_WIDTH], dtype=np.int64)
    byte_counts = np.array(fields[5::_WIDTH], dtype=np.int64)
    for what, counts in (("packet", packets), ("byte", byte_counts)):
        if (counts < 0).any():
            raise ValueError(f"{what} count {counts.min()} is negative")
    routers, interfaces = fields[2::_WIDTH], fields[3::_WIDTH]
    start = 0
    for version, run in itertools.groupby(versions):
        end = start + len(list(run))
        ids, table = _intern(routers[start:end], interfaces[start:end], ingress)
        yield FlowBatch(
            version,
            timestamps[start:end],
            sources[start:end],
            ids,
            packets[start:end],
            byte_counts[start:end],
            None if dst_ips is None else dst_ips[start:end],
            ingress_table=table,
        )
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
        except (ValueError, OverflowError):
            # redo the chunk a row at a time to name the first bad line
            # (a count past int64 overflows its column)
            for index, line in enumerate(numbers):
                row = fields[index * _WIDTH:(index + 1) * _WIDTH]
                try:
                    list(_columns(row, address, ingress))
                except (ValueError, OverflowError) as error:
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
