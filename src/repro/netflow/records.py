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
#: NULs before a plain chunk's text, so a load of up to 24 bytes that ends
#: at a field's end starts inside the buffer
_PAD = "\0" * 32
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_ONES, _ZEROS = ~np.uint64(0), np.uint64(0x3030303030303030)


def _row_error(line: int, reason: object, row: Sequence[str]) -> ValueError:
    return ValueError(f"flow CSV line {line}: {reason}: {row!r}")


class _Chunk(NamedTuple):
    """One chunk's rows: its text, each field's ``[start, end)`` in it
    (int32, rows x 7) and, for a plain chunk (padded ASCII, the fields
    between their delimiters), the text as ``uint8``; a ``csv`` chunk's text
    is its fields end to end, with no ``data``."""

    text: str
    starts: np.ndarray
    ends: np.ndarray
    data: Optional[np.ndarray] = None

    @classmethod
    def of(cls, fields: list[str]) -> "_Chunk":
        """The ``csv`` chunk of *fields*, seven a row."""
        lengths = np.fromiter(map(len, fields), np.int32, len(fields))
        ends = np.cumsum(lengths, dtype=np.int32)
        return cls("".join(fields), (ends - lengths).reshape(-1, _WIDTH), ends.reshape(-1, _WIDTH))

    def texts(self, rows: Any, columns: Any) -> list[str]:
        """The texts of the fields at ``[rows, columns]``, in row order."""
        starts, ends = self.starts[rows, columns].ravel(), self.ends[rows, columns].ravel()
        return list(map(self.text.__getitem__, map(slice, starts.tolist(), ends.tolist())))

    def convert(self, converter: Any, first: int, last: int, rows: slice = slice(None)) -> Any:
        """*converter* over the bytes from field *first* to field *last* of
        each row in *rows*, or ``None`` for a ``csv`` chunk."""
        if self.data is None:
            return None
        return converter(self.data, self.starts[rows, first], self.ends[rows, last])


def _plain(text: str, rows: int) -> Optional[_Chunk]:
    """*text* as a plain chunk of *rows* lines, or ``None`` unless it is
    ASCII with no quote or carriage return and its delimiters run six
    commas and a newline a line: then it is its own ``csv.reader`` output,
    split at the delimiters one ``flatnonzero`` finds."""
    if not text.isascii() or '"' in text or "\r" in text:
        return None
    text = _PAD + text + ("" if text.endswith("\n") else "\n")
    data = np.frombuffer(text.encode("ascii"), np.uint8)
    ends = np.flatnonzero((data == ord(",")) | (data == ord("\n"))).astype(np.int32)
    if len(ends) != rows * _WIDTH or data[ends].tobytes() != b",,,,,,\n" * rows:
        return None
    starts = np.empty_like(ends)
    starts[0], starts[1:] = len(_PAD), ends[:-1] + 1
    return _Chunk(text, starts.reshape(rows, _WIDTH), ends.reshape(rows, _WIDTH), data)


def _tokenise(stream: Iterable[str], batch_size: int) -> Iterator[tuple[_Chunk, Sequence[int]]]:
    """Yield ``(chunk, numbers)`` per chunk of lines, the header line first:
    the chunk's rows and each row's file line.  A plain chunk is read as
    bytes; any other goes through :mod:`csv` (which may pull the rest of a
    quoted field off *stream*), so both accept the same language."""
    rest, line, size = iter(stream), 1, 1
    while lines := list(itertools.islice(rest, size)):
        size, plain = batch_size, _plain("".join(lines), len(lines))
        if plain is not None:
            yield plain, range(line, line + len(lines))
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
        yield _Chunk.of(fields), numbers
        line += reader.line_num


def _digit_words(data: np.ndarray, starts: np.ndarray, ends: np.ndarray, limit: int
                 ) -> Optional[np.ndarray]:
    """Fields of 1 to *limit* bytes right-aligned in as few little-endian
    uint64 words a row as the widest needs (unaligned loads), each byte XOR
    ``"0"`` (a digit reads as its value, any other byte above 9) and 0 left
    of the field; ``None`` for an empty or a longer field."""
    widths = ends - starts
    if widths.min() < 1 or widths.max() > limit:
        return None
    count = (int(widths.max()) + 7) // 8
    loads = np.ndarray((len(data) - 7,), "<u8", data, strides=(1,))
    words = np.empty((len(ends), count), "<u8")  # so its bytes read in text order
    for word in range(count):
        skip = np.maximum(8 * (count - word) - widths, 0).astype(np.uint64)  # bytes before the field
        words[:, word] = (loads[ends - 8 * (count - word)] ^ _ZEROS) & _ONES << 8 * skip
    return words


def _decimal(words: np.ndarray) -> np.ndarray:
    """Rows of words of eight digit values (the first in the low byte) as
    int64, by one multiply-shift pass a word."""
    x = words * np.uint64(10) + (words >> np.uint64(8))
    pairs = np.uint64(0x000000FF000000FF)
    x = ((x & pairs) * np.uint64(100 + (1000000 << 32))
         + ((x >> np.uint64(16)) & pairs) * np.uint64(1 + (10000 << 32))) >> np.uint64(32)
    return x.astype(np.int64) @ _POW10[8 * (words.shape[1] - 1)::-8]


def _count_column(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> Optional[np.ndarray]:
    """Fields of 1-18 plain digits as int64 (``int()``'s values), or ``None``."""
    words = _digit_words(data, starts, ends, 18)
    return None if words is None or (words.view(np.uint8) > 9).any() else _decimal(words)


def _float_column(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> Optional[np.ndarray]:
    """Fields spelt ``digits[.digits]`` as float64, or ``None``.  Clinger's
    fast path: the digits as one integer mantissa below 2**53 divided by
    10**k, k the fraction digits, both exact doubles, is the correctly
    rounded value ``float()`` returns."""
    words = _digit_words(data, starts, ends, 17)  # 16 digits and a dot pass 2**53
    if words is None:
        return None
    digits = words.view(np.uint8)
    dots = np.flatnonzero(digits == ord(".") ^ ord("0"))
    rows, width = dots // digits.shape[1], digits.shape[1]
    scale = np.zeros(len(words), np.intp)  # the digits right of each dot
    scale[rows] = width - 1 - dots % width
    # every byte but one dot a row a digit, and a digit on each side of a dot
    if np.count_nonzero(digits > 9) != len(dots) or (np.diff(rows) < 1).any() or (
            (scale[rows] < 1) | (scale[rows] > (ends - starts)[rows] - 2)).any():
        return None
    digits.reshape(-1)[dots] = 0
    whole = _decimal(words)  # the dot read as a 0 digit, then taken out
    low = whole % _POW10[scale]
    mantissa = np.where(scale > 0, (whole - low) // 10 + low, whole)
    return None if (mantissa >= 1 << 53).any() else mantissa / _POW10[scale]


def _ipv4_column(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> Optional[np.ndarray]:
    """Canonical dotted quads as a uint64 column in one pass over the fields'
    bytes, or ``None`` if any field is not one: each field and the delimiter
    after it as digit words (:func:`_digit_words`), every non-digit ends an
    octet, the ends run ``...,`` a field, an octet is 1-3 digits, no leading
    zero, at most 255."""
    words = _digit_words(data, starts, ends + 1, 16)
    if words is None:
        return None
    digits = words.reshape(-1).view(np.uint8)
    ends, fill = np.flatnonzero(digits > 9), 8 * words.shape[1] - 1 - (ends - starts)
    if (digits[ends] ^ np.uint8(ord("0"))).tobytes() != b"...," * len(starts):
        return None
    width = ends.copy()
    width[1:] -= ends[:-1] + 1
    width[0::4] -= fill  # a first octet starts past its row's fill
    tens, hundreds = width > 1, width > 2
    # the digits before an end, each weighted only if the octet has it
    octets = digits[ends - 1] + digits[ends - 2] * tens * np.uint16(10)
    octets += digits[ends - 3] * hundreds * np.uint16(100)
    if ((width < 1) | (width > 3) | (tens & (digits[ends - width] == 0)) | (octets > 255)).any():
        return None
    return octets.astype(np.uint8).view(">u4").astype(np.uint64)


def _key_hash(words: np.ndarray) -> np.ndarray:
    """One uint64 per row of key words.  Rows that share a hash are then
    compared byte for byte, so any mix will do."""
    return words[:, 0] * np.uint64(0x9E3779B97F4A7C15) ^ words[:, -1]


def _ingress_column(
    data: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Ingress ids per row, first seen first, and each id's first row, from
    the ``router,interface`` spans as 16-byte keys (:func:`_digit_words`);
    ``None`` for a longer span or two distinct spans with one hash."""
    keys = _digit_words(data, starts, ends, 16)
    if keys is None:
        return None
    widths, hashes = ends - starts, _key_hash(keys)
    order = np.argsort(hashes)
    heads = np.empty(len(order), bool)
    heads[0], heads[1:] = True, np.diff(hashes[order]) != 0
    firsts = np.minimum.reduceat(order, np.flatnonzero(heads))  # each hash's first row
    groups = np.empty(len(order), np.intp)
    groups[order] = np.cumsum(heads) - 1
    leaders = firsts[groups]
    # equal bytes and widths: equal spans (a key is zero-filled to the left)
    if (keys != keys[leaders]).any() or (widths != widths[leaders]).any():
        return None
    seen = np.argsort(firsts)
    rank = np.empty(len(seen), np.int32)
    rank[seen] = np.arange(len(seen), dtype=np.int32)
    return rank[groups], firsts[seen]


def _intern(routers: list[str], interfaces: list[str]) -> tuple[np.ndarray, list[int]]:
    """Ingress ids per row, first seen first, and each id's first row."""
    index: dict[tuple[str, str], int] = {}
    first = np.fromiter(
        map(index.setdefault, zip(routers, interfaces), itertools.count()), np.intp, len(routers))
    # a point's id counts the points first seen before its first row
    return np.cumsum(first == np.arange(len(first)))[first] - 1, list(index.values())


def _columns(chunk: _Chunk, address: Any, ingress: Any) -> Iterator[FlowBatch]:
    """One chunk's rows to batches, each column in one bulk pass: by a byte
    converter, which answers exactly or returns ``None``, else from the
    field texts, where the *address* memo takes each ``dst_ip`` and the
    sources the byte pass refuses."""
    value, family = operator.itemgetter(0), operator.itemgetter(1)
    timestamps, packets, byte_counts = (
        np.array(chunk.texts(slice(None), column), dtype) if converted is None else converted
        for column, dtype, converted in (
            (0, np.float64, chunk.convert(_float_column, 0, 0)),
            (4, np.int64, chunk.convert(_count_column, 4, 4)),
            (5, np.int64, chunk.convert(_count_column, 5, 5))))
    sources: Any = chunk.convert(_ipv4_column, 1, 1)
    versions = [IPV4] * len(timestamps)
    if sources is None:
        parsed = list(map(address, chunk.texts(slice(None), 1)))
        versions = list(map(family, parsed))
        sources = list(map(value, parsed))
    dst_ips: Optional[list[Optional[int]]] = None
    if (chunk.ends[:, 6] > chunk.starts[:, 6]).any():
        # an absent dst takes its row's family, so one comparison finds a mix
        dsts = [
            address(text) if text else (None, version)
            for text, version in zip(chunk.texts(slice(None), 6), versions)
        ]
        if list(map(family, dsts)) != versions:
            raise ValueError("mixed address families in row")
        dst_ips = list(map(value, dsts))
    for what, counts in (("packet", packets), ("byte", byte_counts)):
        if (counts < 0).any():
            raise ValueError(f"{what} count {counts.min()} is negative")
    start = 0
    for version, run in itertools.groupby(versions):
        rows = slice(start, start + len(list(run)))
        ids, firsts = chunk.convert(_ingress_column, 2, 3, rows) or _intern(
            chunk.texts(rows, 2), chunk.texts(rows, 3))
        firsts = np.add(firsts, start)
        table = tuple(map(ingress, chunk.texts(firsts, 2), chunk.texts(firsts, 3)))
        yield FlowBatch(version, timestamps[rows], sources[rows], ids, packets[rows], byte_counts[rows],
                        None if dst_ips is None else dst_ips[rows], ingress_table=table)
        start = rows.stop


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
        if tuple(fields := header.texts(slice(1), slice(None))) != _CSV_FIELDS:
            raise _row_error(1, "unexpected header", fields)
    for chunk, numbers in chunks:
        try:
            batches = list(_columns(chunk, address, ingress))
        except (ValueError, OverflowError):
            # redo the chunk a row at a time to name the first bad line
            # (a count past int64 overflows its column)
            for index, line in enumerate(numbers):
                row = chunk.texts(index, slice(None))
                try:
                    list(_columns(_Chunk.of(row), address, ingress))
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
