"""The longitudinal IPD output archive (§4's "2.5T compressed" store).

Six years of 5-minute Table-3 snapshots is the paper's primary dataset.
This module is the storage layer such a deployment needs: snapshots are
appended to gzip-compressed, day-partitioned CSV files under a root
directory, with a small JSON index for time-range queries.

Layout::

    <root>/
      index.json                       # day -> {file, snapshots, records}
      2021-03-04.csv.gz                # all snapshots of that (UTC) day
      2021-03-05.csv.gz
      ...

Each partition holds the standard record CSV (one header, records of
many snapshots distinguished by their ``timestamp`` column), so a
partition can also be inspected with ordinary command-line tools.

Partition keys are UTC dates of the snapshot timestamp (treated as
seconds since the Unix epoch), so key order is time order.  The archive
stores and returns records only; an index entry's other keys (older
builds wrote a ``compiled`` map of ``.lpm`` files) are ignored.
"""

from __future__ import annotations

import datetime
import gzip
import io
import json
import pathlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .core.iputil import IPV4, IPV6, Prefix
from .core.lpm import CompiledLPM
from .core.output import IPDRecord, read_records_csv, write_records_csv
from .runtime.checkpoint import write_atomic

__all__ = ["SnapshotArchive", "ArchiveStats"]


def _day_key(timestamp: float) -> str:
    """Partition key: the snapshot's UTC date (``YYYY-MM-DD``)."""
    when = datetime.datetime.fromtimestamp(timestamp, datetime.timezone.utc)
    return when.strftime("%Y-%m-%d")


@dataclass(frozen=True)
class ArchiveStats:
    """Aggregate size information about an archive."""

    days: int
    snapshots: int
    records: int
    compressed_bytes: int


class SnapshotArchive:
    """Append-only, day-partitioned store of IPD output snapshots."""

    def __init__(self, root: str | pathlib.Path) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._index_path = self.root / "index.json"
        self._index: dict[str, dict] = {}
        if self._index_path.exists():
            self._index = json.loads(self._index_path.read_text())

    # ------------------------------------------------------------------ write

    def append(self, timestamp: float, records: Sequence[IPDRecord]) -> None:
        """Append one snapshot; snapshots arrive in time order, ranges disjoint."""
        self.append_run({timestamp: records})

    def append_run(self, snapshots: dict[float, Sequence[IPDRecord]]) -> int:
        """Append a whole run's snapshots (sorted); returns count.  A
        snapshot not newer than the archive's newest, or whose ranges
        overlap (``CompiledLPM``'s ``ValueError``), is refused before any
        byte is written."""
        times = sorted(snapshots)
        newest = self.newest_timestamp()
        if times and newest is not None and times[0] <= newest:
            raise ValueError(f"snapshot {times[0]} not newer than archived {newest}")
        for timestamp in times:
            for version in (IPV4, IPV6):  # compiling refuses an overlap
                CompiledLPM(snapshots[timestamp], version)
        for timestamp in times:
            self._write(timestamp, snapshots[timestamp])
        return len(times)

    def _write(self, timestamp: float, records: Sequence[IPDRecord]) -> None:
        key = _day_key(timestamp)
        stamped = [
            record if record.timestamp == timestamp
            else _restamp(record, timestamp)
            for record in records
        ]
        buffer = io.StringIO()
        write_records_csv(stamped, buffer)
        payload = buffer.getvalue()
        path = self.root / f"{key}.csv.gz"
        entry = self._index.get(key)
        if entry is None:
            # new partition: keep the header
            with gzip.open(path, "wt") as stream:
                stream.write(payload)
            entry = {"file": path.name, "snapshots": [], "records": 0}
            self._index[key] = entry
        else:
            # append without repeating the header
            body = payload.split("\n", 1)[1]
            with gzip.open(path, "at") as stream:
                stream.write(body)
        entry["snapshots"].append(timestamp)
        entry["records"] += len(stamped)
        self._save_index()

    # ------------------------------------------------------------------ read

    def snapshots(
        self,
        start: Optional[float] = None,
        end: Optional[float] = None,
        prefix_filter: Optional[Prefix] = None,
    ) -> Iterator[tuple[float, list[IPDRecord]]]:
        """Yield (timestamp, records) in time order within [start, end).

        *prefix_filter* keeps only records whose range lies inside (or
        covers) the given prefix — prefix-scoped longitudinal queries
        without decompressing irrelevant columns into objects you then
        throw away.
        """
        for key in sorted(self._index):
            entry = self._index[key]
            times = [
                t for t in entry["snapshots"]
                if (start is None or t >= start) and (end is None or t < end)
            ]
            if not times:
                continue
            wanted = set(times)
            by_time: dict[float, list[IPDRecord]] = {t: [] for t in times}
            path = self.root / entry["file"]
            with gzip.open(path, "rt") as stream:
                for record in read_records_csv(stream):
                    if record.timestamp not in wanted:
                        continue
                    if prefix_filter is not None and not (
                        prefix_filter.contains(record.range)
                        or record.range.contains(prefix_filter)
                    ):
                        continue
                    by_time[record.timestamp].append(record)
            for timestamp in sorted(by_time):
                yield timestamp, by_time[timestamp]

    def load(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> dict[float, list[IPDRecord]]:
        """Materialize a time range as the snapshot dict analyses take."""
        return {
            timestamp: records
            for timestamp, records in self.snapshots(start, end)
        }

    def snapshot_times(self) -> list[float]:
        times: list[float] = []
        for entry in self._index.values():
            times.extend(entry["snapshots"])
        return sorted(times)

    def newest_timestamp(self) -> Optional[float]:
        times = self.snapshot_times()
        return times[-1] if times else None

    def load_at(
        self, timestamp: float
    ) -> Optional[tuple[float, list[IPDRecord]]]:
        """The newest snapshot at or before *timestamp* (point-in-time).

        Binary-searches :meth:`snapshot_times` and decompresses only
        the one partition holding the hit.  Returns ``(snapshot time,
        records)``, or ``None`` when the archive holds nothing that old.
        """
        times = self.snapshot_times()
        position = bisect_right(times, timestamp)
        if position == 0:
            return None
        found = times[position - 1]
        return found, self._load_one(found)

    def latest(self) -> Optional[tuple[float, list[IPDRecord]]]:
        """The newest archived snapshot as ``(time, records)``."""
        newest = self.newest_timestamp()
        if newest is None:
            return None
        return newest, self._load_one(newest)

    def _entry_for_time(self, timestamp: float) -> Optional[dict]:
        for entry in self._index.values():
            if timestamp in entry["snapshots"]:
                return entry
        return None

    def _load_one(self, timestamp: float) -> list[IPDRecord]:
        """Records of the snapshot at exactly *timestamp* (one partition
        decompressed, rows of other snapshots skipped)."""
        entry = self._entry_for_time(timestamp)
        if entry is None:
            return []
        records: list[IPDRecord] = []
        with gzip.open(self.root / entry["file"], "rt") as stream:
            for record in read_records_csv(stream):
                if record.timestamp == timestamp:
                    records.append(record)
        return records

    def stats(self) -> ArchiveStats:
        compressed = sum(
            (self.root / entry["file"]).stat().st_size
            for entry in self._index.values()
            if (self.root / entry["file"]).exists()
        )
        return ArchiveStats(
            days=len(self._index),
            snapshots=sum(len(e["snapshots"]) for e in self._index.values()),
            records=sum(e["records"] for e in self._index.values()),
            compressed_bytes=compressed,
        )

    def _save_index(self) -> None:
        # atomic: an append cut off here leaves the previous index whole
        write_atomic(
            self._index_path,
            json.dumps(self._index, sort_keys=True).encode("utf-8"),
        )


def _restamp(record: IPDRecord, timestamp: float) -> IPDRecord:
    from dataclasses import replace

    return replace(record, timestamp=timestamp)
