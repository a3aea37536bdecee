"""The hot-swap ingress lookup service (the serving plane's core).

An :class:`IngressLookupService` answers "which ingress serves this
address?" from an installed :class:`ServingEpoch` — an immutable bundle
of one snapshot's :class:`~repro.core.lpm.CompiledLPM` per address
family plus its epoch/watermark identity.  Epochs are swapped by a
single attribute assignment (atomic under the GIL), so queries never
pause for an install and never observe a torn state: every query reads
the epoch pointer exactly once and answers entirely from that epoch,
old or new.  Point-in-time queries (:meth:`~IngressLookupService.lookup_at`)
answer from a :class:`~repro.archive.SnapshotArchive`'s records.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional

from ..core.iputil import IPV4, Prefix
from ..core.lpm import CompiledLPM
from ..core.snapshot import Snapshot
from ..devtools.markers import hot_path

if TYPE_CHECKING:
    from ..archive import SnapshotArchive
    from ..topology.elements import IngressPoint

__all__ = [
    "IngressLookupService",
    "LookupResult",
    "NoEpochError",
    "ServingEpoch",
    "ServingError",
]


class ServingError(RuntimeError):
    """Base of the serving plane's failure taxonomy."""


class NoEpochError(ServingError):
    """A query arrived before any epoch was installed."""


class LookupResult(NamedTuple):
    """One query answer: the §5.1 prediction plus serving metadata."""

    ingress: "IngressPoint"
    #: the snapshot's dominance share for the answering range
    confidence: float
    #: the classified range covering the queried address
    prefix: Prefix
    #: seconds between the answering epoch's watermark and the snapshot
    #: the row was compiled from (0.0 for a freshly compiled snapshot)
    age: float
    #: the answering epoch's id (-1 for historical answers)
    epoch: int
    #: the answering snapshot's trace time
    watermark: float


def _result(
    table: CompiledLPM, row: int, epoch: int, watermark: float
) -> Optional[LookupResult]:
    """Row *row* of *table* (-1: no match) as an answer of *epoch*."""
    if row < 0:
        return None
    record = table.records[row]
    return LookupResult(
        ingress=record.ingress,
        confidence=record.s_ingress,
        prefix=record.range,
        age=watermark - record.timestamp,
        epoch=epoch,
        watermark=watermark,
    )


def answer_line(result: Optional[LookupResult], epoch: int) -> bytes:
    """The line protocol's answer to one address: ``HIT <router> <if>
    <prefix> <conf> <age> <epoch>`` or, for ``None``, ``MISS <epoch>``."""
    if result is None:
        return f"MISS {epoch}\n".encode()
    ingress = result.ingress
    return (
        f"HIT {ingress.router} {ingress.interface} {result.prefix} "
        f"{result.confidence:.6g} {result.age:.6g} {result.epoch}\n"
    ).encode()


class ServingEpoch:
    """One immutable generation of the lookup service.

    Holds the compiled table per address family plus the identity a
    reader needs to label its answers.  Tables and identity never change
    after construction — that invariant is what makes installing one a
    plain reference assignment.  Only the answer-line memo fills later,
    on a row's first query: a line is a pure function of row, epoch id
    and watermark, so two readers filling one slot write equal bytes.
    """

    __slots__ = ("epoch", "watermark", "source", "_tables", "_lines", "_miss")

    def __init__(
        self,
        epoch: int,
        watermark: float,
        tables: Mapping[int, CompiledLPM],
        source: Optional[str] = None,
    ) -> None:
        self.epoch = epoch
        self.watermark = watermark
        self.source = source
        self._tables: dict[int, CompiledLPM] = dict(tables)
        self._miss = answer_line(None, epoch)
        # a slot per row plus the MISS line last, where lookup_row's -1
        # lands: building the epoch formats nothing else
        self._lines: dict[int, list[Optional[bytes]]] = {
            version: [None] * len(table) + [self._miss]
            for version, table in self._tables.items()
        }

    @classmethod
    def from_snapshot(cls, snapshot: Snapshot) -> "ServingEpoch":
        """Compile every family present in *snapshot* into one epoch.

        Compilation happens here — before the caller swaps the epoch
        in — so an install never publishes a partially built table.
        """
        tables = {
            version: snapshot.compiled(version)
            for version in snapshot.families()
        }
        return cls(snapshot.epoch, snapshot.when, tables, snapshot.source)

    def table(self, version: int = IPV4) -> Optional[CompiledLPM]:
        return self._tables.get(version)

    @hot_path
    def answer(self, ip_value: int, version: int = IPV4) -> bytes:
        """This epoch's :func:`answer_line` for *ip_value*, memoised."""
        table = self._tables.get(version)
        if table is None:
            return self._miss
        lines = self._lines[version]
        row = table.lookup_row(ip_value)
        line = lines[row]
        if line is None:
            result = _result(table, row, self.epoch, self.watermark)
            line = lines[row] = answer_line(result, self.epoch)
        return line

    def families(self) -> tuple[int, ...]:
        return tuple(sorted(self._tables))

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())

    def __repr__(self) -> str:
        return (
            f"ServingEpoch(epoch={self.epoch}, watermark={self.watermark}, "
            f"families={self.families()}, rows={len(self)})"
        )


class IngressLookupService:
    """Epoch-hot-swapping ip → ingress lookups over compiled snapshots.

    Readers and the installer share no lock: :meth:`install` publishes
    a fully built :class:`ServingEpoch` with one attribute assignment,
    and every query method loads ``self._current`` exactly once, then
    answers entirely from that epoch.  A swap therefore never pauses
    queries and a query never mixes two epochs (pinned by
    ``tests/serving/test_service.py``).
    """

    def __init__(self, archive: "Optional[SnapshotArchive]" = None) -> None:
        self.archive = archive
        self.installs = 0
        self.queries = 0
        self._current: Optional[ServingEpoch] = None
        #: point-in-time tables compiled once, shared across queries
        self._history: dict[tuple[float, int], CompiledLPM] = {}

    # ------------------------------------------------------------- install

    @property
    def current(self) -> Optional[ServingEpoch]:
        return self._current

    def install(self, epoch: ServingEpoch) -> ServingEpoch:
        """Publish *epoch* as the serving generation (zero-pause swap)."""
        self._current = epoch  # the swap: one atomic reference store
        self.installs += 1
        return epoch

    def install_snapshot(self, snapshot: Snapshot) -> ServingEpoch:
        """Compile *snapshot* (all families), then swap it in."""
        return self.install(ServingEpoch.from_snapshot(snapshot))

    # ------------------------------------------------------------- queries

    @hot_path
    def lookup(
        self, ip_value: int, version: int = IPV4
    ) -> Optional[LookupResult]:
        """The current epoch's answer for *ip_value*, or ``None``."""
        current = self._current
        if current is None:
            raise NoEpochError("no serving epoch installed yet")
        self.queries += 1
        table = current._tables.get(version)
        if table is None:
            return None
        return _result(
            table, table.lookup_row(ip_value), current.epoch, current.watermark
        )

    @hot_path
    def answer_lines(
        self, addresses: Iterable[tuple[int, int]]
    ) -> tuple[int, list[bytes]]:
        """``(epoch id, wire lines)`` for parsed ``(value, version)``
        *addresses*: counted like :meth:`lookup`, one epoch for all, even
        if an install lands mid-iteration."""
        current = self._current
        if current is None:
            raise NoEpochError("no serving epoch installed yet")
        answer = current.answer
        lines: list[bytes] = []
        append = lines.append
        for value, version in addresses:
            append(answer(value, version))
        self.queries += len(lines)
        return current.epoch, lines

    def lookup_at(
        self, timestamp: float, ip_value: int, version: int = IPV4
    ) -> Optional[LookupResult]:
        """Point-in-time answer from the archive's newest snapshot at or
        before *timestamp*, with epoch -1.

        Each snapshot's records are compiled once per family and cached.
        Returns ``None`` when the archive holds nothing that old; raises
        :class:`ServingError` without an archive and ``ValueError`` for
        a non-finite *timestamp* (``nan`` would pass every bisect).
        """
        if not math.isfinite(timestamp):
            raise ValueError("timestamp must be finite")
        if self.archive is None:
            raise ServingError("historical lookup needs an archive")
        # the cheap bisect first, so a cached table skips the partition
        times = self.archive.snapshot_times()
        position = bisect_right(times, timestamp)
        if position == 0:
            return None
        found = times[position - 1]
        table = self._history.get((found, version))
        if table is None:
            loaded = self.archive.load_at(found)
            assert loaded is not None  # `found` is an archived time
            table = CompiledLPM.from_records(loaded[1], version=version)
            self._history[(found, version)] = table
        return _result(table, table.lookup_row(ip_value), -1, found)

    # ------------------------------------------------------------- stats

    def stats(self) -> dict[str, object]:
        current = self._current
        return {
            "epoch": current.epoch if current is not None else None,
            "watermark": current.watermark if current is not None else None,
            "families": list(current.families()) if current is not None else [],
            "rows": len(current) if current is not None else 0,
            "installs": self.installs,
            "queries": self.queries,
        }
