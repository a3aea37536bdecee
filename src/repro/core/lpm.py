"""Longest-prefix-match tables over IPD output.

The paper's validation pipeline (§5.1) builds an LPM lookup table from
each 5-minute IPD output bin, then replays the raw flow trace against it
to compare predicted with actual ingress points.  The same structure
serves operational queries ("which ingress serves 198.51.100.17 right
now?") and the longitudinal matching/stability analyses of §5.3.

Two structures, two jobs:

* :class:`CompiledLPM` — the only table ever built from IPD output
  (:func:`build_lpm_from_records` is its ``from_records``): one
  snapshot's classified records of one family, in address order, plus
  a segment index over them, so a lookup is one ``bisect``.  IPD output
  is the leaves of a trie, so its ranges are disjoint; a range that
  overlaps or repeats another is refused.  Cheap to share between
  threads and allocation-free to query; it is never persisted, since
  compiling a snapshot's records is all a reader needs.
* :class:`LPMTable` — a mutable pointer trie for values that are not
  ingress points over prefixes that genuinely overlap (BGP routes,
  origin ASNs), and the independent reference the compiled form is
  property-tested against.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Generic, Iterable, Iterator, NamedTuple, Optional, TypeVar, cast

from ..devtools.markers import hot_path
from ..topology.elements import IngressPoint
from .iputil import IPV4, IPV6, Prefix
from .output import IPDRecord

__all__ = [
    "CompiledEntry",
    "CompiledLPM",
    "LPMTable",
    "build_lpm_from_records",
]

V = TypeVar("V")


class _LPMNode(Generic[V]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: list[Optional["_LPMNode[V]"]] = [None, None]
        self.value: Optional[V] = None
        self.has_value = False


class LPMTable(Generic[V]):
    """A longest-prefix-match dictionary keyed by :class:`Prefix`.

    Values are arbitrary (BGP routes, origin ASNs) and prefixes may
    overlap; IPD output itself is looked up through :class:`CompiledLPM`.
    """

    def __init__(self, version: int) -> None:
        if version not in (IPV4, IPV6):
            raise ValueError(f"unknown IP version: {version!r}")
        self.version = version
        self._bits = 32 if version == IPV4 else 128
        self._root: _LPMNode[V] = _LPMNode()
        self._size = 0

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the entry for *prefix*."""
        if prefix.version != self.version:
            raise ValueError(
                f"prefix family v{prefix.version} does not match table v{self.version}"
            )
        node = self._root
        for depth in range(prefix.masklen):
            bit = (prefix.value >> (self._bits - depth - 1)) & 1
            child = node.children[bit]
            if child is None:
                child = _LPMNode()
                node.children[bit] = child
            node = child
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True

    def lookup(self, ip_value: int) -> Optional[V]:
        """Most specific entry covering *ip_value*, or ``None``."""
        found = self.lookup_with_prefix(ip_value)
        return found[1] if found is not None else None

    def lookup_with_prefix(self, ip_value: int) -> Optional[tuple[Prefix, V]]:
        """Like :meth:`lookup` but also returns the matching prefix."""
        node = self._root
        best: Optional[tuple[int, V]] = None
        if node.has_value:
            # has_value guards the slot: `value` holds a real V (which may
            # itself be None for Optional values, so no None-narrowing)
            best = (0, cast(V, node.value))
        for depth in range(self._bits):
            bit = (ip_value >> (self._bits - depth - 1)) & 1
            child = node.children[bit]
            if child is None:
                break
            node = child
            if node.has_value:
                best = (depth + 1, cast(V, node.value))
        if best is None:
            return None
        masklen, value = best
        return Prefix.from_ip(ip_value, masklen, self.version), value

    def lookup_prefix(self, prefix: Prefix) -> Optional[V]:
        """Exact-match lookup of a prefix entry."""
        node = self._root
        for depth in range(prefix.masklen):
            bit = (prefix.value >> (self._bits - depth - 1)) & 1
            child = node.children[bit]
            if child is None:
                return None
            node = child
        return node.value if node.has_value else None

    def items(self) -> Iterator[tuple[Prefix, V]]:
        """Yield all entries in address order."""
        stack: list[tuple[_LPMNode[V], int, int]] = [(self._root, 0, 0)]
        while stack:
            node, value_bits, depth = stack.pop()
            if node.has_value:
                yield (
                    Prefix(value_bits << (self._bits - depth) if depth else 0,
                           depth, self.version),
                    cast(V, node.value),
                )
            right = node.children[1]
            left = node.children[0]
            if right is not None:
                stack.append((right, (value_bits << 1) | 1, depth + 1))
            if left is not None:
                stack.append((left, value_bits << 1, depth + 1))

    def __len__(self) -> int:
        return self._size

    def __contains__(self, prefix: Prefix) -> bool:
        return self.lookup_prefix(prefix) is not None


# ---------------------------------------------------------------------------
# compiled (immutable, one snapshot) LPM
# ---------------------------------------------------------------------------


class CompiledEntry(NamedTuple):
    """One compiled row: the §5.1 answer plus its serving metadata."""

    prefix: Prefix
    ingress: IngressPoint
    #: the snapshot's dominance share for this range (``s_ingress``)
    confidence: float
    #: the snapshot timestamp the row was compiled from; a query at time
    #: ``at`` derives the answer's age as ``at - timestamp``
    timestamp: float


class CompiledLPM:
    """An immutable longest-prefix-match table over one snapshot.

    ``records`` holds the snapshot's classified records of one family in
    address order; row ``i`` is ``records[i]``.  Beside them sits the
    lookup index: ``_starts[i]`` opens a segment answered by row
    ``_seg_rows[i]`` (-1: no range covers it).  The ranges are disjoint,
    so each opens a segment at its first address and a miss one past its
    last, which the next range takes over if it starts there.
    :meth:`lookup_row` is therefore one ``bisect`` and one index for
    either family (Python ints compare natively at 128 bits), with zero
    allocation — the shape the serving hot path needs (rules
    IPD005/IPD008 pin it).

    Instances are deeply read-only by convention (nothing mutates after
    construction), which is what makes epoch hot-swap in
    :mod:`repro.serving` a single reference assignment.
    """

    __slots__ = ("version", "records", "_starts", "_seg_rows")

    def __init__(self, records: Iterable[IPDRecord] = (), version: int = IPV4) -> None:
        """Compile *version*'s classified *records*; an overlap is a ``ValueError``."""
        if version not in (IPV4, IPV6):
            raise ValueError(f"unknown IP version: {version!r}")
        self.version = version
        bits = 32 if version == IPV4 else 128
        # IPD.snapshot emits address order, so the sort is one linear pass
        self.records: tuple[IPDRecord, ...] = tuple(sorted(
            (r for r in records if r.version == version and r.classified),
            key=attrgetter("range.value"),
        ))
        starts, seg_rows = [0], [-1]
        end = 0  # one past the previous range's last address
        for row, record in enumerate(self.records):
            prefix = record.range
            if prefix.value < end:  # sorted, disjoint so far: only the previous one can hold it
                raise ValueError(
                    f"overlapping ranges {self.records[row - 1].range} and {prefix}: "
                    "a compiled table holds one snapshot's disjoint ranges")
            if prefix.value != starts[-1]:  # else take over the miss there
                starts.append(prefix.value)
                seg_rows.append(-1)
            seg_rows[-1] = row
            end = prefix.value + (1 << (bits - prefix.masklen))
            starts.append(end)
            seg_rows.append(-1)
        # the last segment is a miss, so a probe off either end of the space misses
        self._starts: tuple[int, ...] = tuple(starts)
        self._seg_rows: tuple[int, ...] = tuple(seg_rows)

    @classmethod
    def from_records(cls, records: Iterable[IPDRecord], version: int = IPV4) -> "CompiledLPM":
        """The §5.1 validation table of one output snapshot."""
        return cls(records, version)

    # ------------------------------------------------------------------ query

    @hot_path
    def lookup_row(self, ip_value: int) -> int:
        """Row index of the range covering *ip_value*, or -1."""
        return self._seg_rows[bisect_right(self._starts, ip_value) - 1]

    @hot_path
    def lookup(self, ip_value: int) -> Optional[IngressPoint]:
        """The ingress of the range covering *ip_value*, or ``None``.

        Matches :meth:`LPMTable.lookup` on every address (property-pinned
        in ``tests/core/test_compiled_lpm.py``)."""
        row = self.lookup_row(ip_value)
        return self.records[row].ingress if row >= 0 else None

    def lookup_entry(self, ip_value: int) -> Optional[CompiledEntry]:
        """Like :meth:`lookup` but returns the full compiled row."""
        row = self.lookup_row(ip_value)
        return self.entry(row) if row >= 0 else None

    def lookup_many(self, ip_values: Iterable[int]) -> list[Optional[IngressPoint]]:
        """Bulk :meth:`lookup` over *ip_values*, one result per input."""
        records = self.records
        return [
            records[row].ingress if row >= 0 else None
            for row in map(self.lookup_row, ip_values)
        ]

    def entry(self, row: int) -> CompiledEntry:
        """Materialize compiled row *row* (0 ≤ row < ``len(self)``)."""
        if not 0 <= row < len(self.records):
            raise IndexError(f"row {row} out of range")
        record = self.records[row]
        return CompiledEntry(record.range, record.ingress, record.s_ingress, record.timestamp)

    def entries(self) -> Iterator[CompiledEntry]:
        """All rows, in address order."""
        return map(self.entry, range(len(self.records)))

    def __len__(self) -> int:
        return len(self.records)


#: the §5.1 validation table of one output snapshot
build_lpm_from_records = CompiledLPM.from_records
