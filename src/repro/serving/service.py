"""The hot-swap ingress lookup service (the serving plane's core).

An :class:`IngressLookupService` answers "which ingress serves this
address?" from an installed :class:`ServingEpoch` — an immutable bundle
of one snapshot's :class:`~repro.core.lpm.CompiledLPM` per address
family plus its epoch/watermark identity.  Epochs are swapped by a
single attribute assignment (atomic under the GIL), so queries never
pause for an install and never observe a torn state: every query reads
the epoch pointer exactly once and answers entirely from that epoch,
old or new.

The service also carries the deployment's two operational loops:

* **history** — :meth:`lookup_at` answers point-in-time queries from a
  :class:`~repro.archive.SnapshotArchive` partition (stored compiled
  blob when present) or, failing that, from the newest valid
  checkpoint image.
* **load skew** — :class:`ShardLoadCounters` buckets query load by the
  address-space shard that owns each target; when a
  :class:`ReshardPolicy` sees sustained skew it recommends widening the
  shard grid (4 → 16 by default), and :meth:`IngressLookupService.reshard`
  rebuilds an engine from the latest checkpoint at the new width —
  checkpoints are topology-free, so any width is legal.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional

from ..core.iputil import IPV4, Prefix
from ..core.lpm import CompiledLPM
from ..core.snapshot import Snapshot
from ..devtools.markers import hot_path

if TYPE_CHECKING:
    from ..archive import SnapshotArchive
    from ..core.algorithm import IPD
    from ..runtime.checkpoint import CheckpointStore
    from ..runtime.sharding import ShardedIPD
    from ..topology.elements import IngressPoint

__all__ = [
    "IngressLookupService",
    "LookupResult",
    "NoEpochError",
    "ReshardPolicy",
    "ServingEpoch",
    "ServingError",
    "ShardLoadCounters",
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
    #: the most specific classified range covering the queried address
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
    entry = table.entry(row)
    return LookupResult(
        ingress=entry.ingress,
        confidence=entry.confidence,
        prefix=entry.prefix,
        age=watermark - entry.timestamp,
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


class ShardLoadCounters:
    """Per-shard query-load counters over the address-space grid.

    Shard assignment mirrors the runtime's address-space sharding: the
    top ``log2(shards)`` bits of the address select the shard, so the
    counters directly answer "which engine shard would this query's
    traffic have hit?".  Counters are a flat ``array('Q')`` — bumping
    one is an index increment on the query path, nothing more.
    """

    __slots__ = ("counts", "_shift4", "_shift6")

    def __init__(self, shards: int) -> None:
        if shards < 1 or shards & (shards - 1):
            raise ValueError(f"shards must be a power of two, got {shards}")
        bits = shards.bit_length() - 1
        self.counts = array("Q", bytes(8 * shards))
        self._shift4 = 32 - bits
        self._shift6 = 128 - bits

    @property
    def shards(self) -> int:
        return len(self.counts)

    def shard_of(self, ip_value: int, version: int = IPV4) -> int:
        shift = self._shift4 if version == IPV4 else self._shift6
        return ip_value >> shift

    def record(self, ip_value: int, version: int = IPV4) -> None:
        shift = self._shift4 if version == IPV4 else self._shift6
        self.counts[ip_value >> shift] += 1

    def total(self) -> int:
        return sum(self.counts)

    def skew(self) -> float:
        """Peak-to-mean load ratio (1.0 = perfectly balanced)."""
        total = self.total()
        if total == 0:
            return 1.0
        return max(self.counts) * self.shards / total

    def reset(self) -> None:
        for index in range(len(self.counts)):
            self.counts[index] = 0


@dataclass(frozen=True)
class ReshardPolicy:
    """When sustained query skew justifies widening the shard grid.

    ``recommend`` returns the new shard count, or ``None`` while the
    observed load stays acceptable: fewer than ``min_queries`` samples
    (skew over a handful of queries is noise), peak-to-mean skew under
    ``skew_threshold``, or the grid already at ``max_shards``.
    """

    skew_threshold: float = 2.0
    min_queries: int = 1000
    growth_factor: int = 4
    max_shards: int = 16

    def recommend(self, load: ShardLoadCounters) -> Optional[int]:
        if load.shards >= self.max_shards:
            return None
        if load.total() < self.min_queries:
            return None
        if load.skew() < self.skew_threshold:
            return None
        return min(load.shards * self.growth_factor, self.max_shards)


class IngressLookupService:
    """Epoch-hot-swapping ip → ingress lookups over compiled snapshots.

    Readers and the installer share no lock: :meth:`install` publishes
    a fully built :class:`ServingEpoch` with one attribute assignment,
    and every query method loads ``self._current`` exactly once, then
    answers entirely from that epoch.  A swap therefore never pauses
    queries and a query never mixes two epochs (pinned by
    ``tests/serving/test_service.py``).
    """

    def __init__(
        self,
        archive: "Optional[SnapshotArchive]" = None,
        checkpoints: "Optional[CheckpointStore]" = None,
        shards: int = 4,
        policy: Optional[ReshardPolicy] = None,
    ) -> None:
        self.archive = archive
        self.checkpoints = checkpoints
        self.policy = policy if policy is not None else ReshardPolicy()
        self.load = ShardLoadCounters(shards)
        self.installs = 0
        self.queries = 0
        self._current: Optional[ServingEpoch] = None
        #: point-in-time answers resolved once, shared across queries
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
        self.load.record(ip_value, version)
        table = current._tables.get(version)
        if table is None:
            return None
        return _result(
            table, table.lookup_row(ip_value), current.epoch, current.watermark
        )

    def lookup_many(
        self, ip_values: Iterable[int], version: int = IPV4
    ) -> tuple[int, list[Optional[LookupResult]]]:
        """Bulk lookup pinned to one epoch.

        Returns ``(epoch id, results)``; every result comes from the
        same epoch even if an install lands mid-iteration.
        """
        current = self._current
        if current is None:
            raise NoEpochError("no serving epoch installed yet")
        table = current._tables.get(version)
        epoch, watermark = current.epoch, current.watermark
        record = self.load.record
        results: list[Optional[LookupResult]] = []
        for value in ip_values:
            record(value, version)
            results.append(
                _result(table, table.lookup_row(value), epoch, watermark)
                if table is not None
                else None
            )
        self.queries += len(results)
        return epoch, results

    @hot_path
    def answer_lines(
        self, addresses: list[tuple[int, int]]
    ) -> tuple[int, list[bytes]]:
        """``(epoch id, wire lines)`` for parsed ``(value, version)``
        *addresses*: counted like :meth:`lookup`, one epoch for all."""
        current = self._current
        if current is None:
            raise NoEpochError("no serving epoch installed yet")
        record = self.load.record
        answer = current.answer
        lines: list[bytes] = []
        append = lines.append
        for value, version in addresses:
            record(value, version)
            append(answer(value, version))
        self.queries += len(addresses)
        return current.epoch, lines

    def lookup_at(
        self, timestamp: float, ip_value: int, version: int = IPV4
    ) -> Optional[LookupResult]:
        """Point-in-time answer: the table as of *timestamp*.

        Resolution order: the archive's newest snapshot at or before
        *timestamp* (stored compiled blob when one was archived), else
        the newest valid checkpoint image.  Resolved tables are cached,
        so repeated historical queries pay the load once.  Returns
        ``None`` when no history covers *timestamp*; raises
        :class:`ServingError` when no history source is configured.
        """
        resolved = self._historical_table(timestamp, version)
        if resolved is None:
            return None
        found, table = resolved
        return _result(table, table.lookup_row(ip_value), -1, found)

    def _historical_table(
        self, timestamp: float, version: int
    ) -> Optional[tuple[float, CompiledLPM]]:
        if self.archive is None and self.checkpoints is None:
            raise ServingError(
                "historical lookup needs an archive or a checkpoint store"
            )
        if self.archive is not None:
            # resolve the covering snapshot time first (cheap bisect) so
            # cached tables short-circuit the partition/blob load
            times = self.archive.snapshot_times()
            position = bisect_right(times, timestamp)
            if position > 0:
                found = times[position - 1]
                key = (found, version)
                table = self._history.get(key)
                if table is None:
                    hit = self.archive.compiled_at(found, version)
                    assert hit is not None  # `found` is an archived time
                    table = hit[1]
                    self._history[key] = table
                return found, table
        return self._checkpoint_table(timestamp, version)

    def _checkpoint_table(
        self, timestamp: float, version: int
    ) -> Optional[tuple[float, CompiledLPM]]:
        if self.checkpoints is None:
            return None
        checkpoint = self.checkpoints.latest_valid()
        if checkpoint is None or checkpoint.when > timestamp:
            return None
        key = (checkpoint.when, version)
        table = self._history.get(key)
        if table is None:
            engine = self.checkpoints.restore_engine(checkpoint)
            records = engine.snapshot(checkpoint.when)
            table = CompiledLPM.from_records(records, version=version)
            self._history[key] = table
        return checkpoint.when, table

    # ------------------------------------------------------------- reshard

    def maybe_reshard(self) -> "Optional[IPD | ShardedIPD]":
        """Widen the engine shard grid when query skew demands it.

        Consults :attr:`policy` over the live load counters; when a
        wider grid is recommended and a checkpoint store is attached,
        rebuilds an engine from the newest valid checkpoint at the new
        width, resets the counters to the new grid, and returns the
        engine (``None`` when nothing to do).
        """
        recommended = self.policy.recommend(self.load)
        if recommended is None or self.checkpoints is None:
            return None
        return self.reshard(recommended)

    def reshard(self, shards: int) -> "Optional[IPD | ShardedIPD]":
        """Rebuild the engine from the newest checkpoint at *shards*."""
        if self.checkpoints is None:
            raise ServingError("reshard needs a checkpoint store")
        checkpoint = self.checkpoints.latest_valid()
        if checkpoint is None:
            return None
        engine = self.checkpoints.restore_engine(
            checkpoint, shards=shards, executor="serial"
        )
        self.load = ShardLoadCounters(shards)
        return engine

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
            "shards": self.load.shards,
            "shard_loads": list(self.load.counts),
            "skew": self.load.skew(),
        }
