"""Longest-prefix-match tables over IPD output.

The paper's validation pipeline (§5.1) builds an LPM lookup table from
each 5-minute IPD output bin, then replays the raw flow trace against it
to compare predicted with actual ingress points.  The same structure
serves operational queries ("which ingress serves 198.51.100.17 right
now?") and the longitudinal matching/stability analyses of §5.3.

Two structures, two jobs:

* :class:`CompiledLPM` — the only table ever built from IPD output
  (:func:`build_lpm_from_records` is its ``from_records``): an
  immutable compilation of one snapshot's classified ranges into flat
  row columns (prefix, interned ingress id, confidence, timestamp) plus
  a flattened interval index, so a lookup is one ``bisect`` whatever
  the number of prefix lengths.  Cheap to share between threads and
  allocation-free to query; it is never persisted, since compiling a
  snapshot's records is all a reader needs.
* :class:`LPMTable` — a mutable pointer trie for values that are not
  ingress points over prefixes that genuinely overlap (BGP routes,
  origin ASNs), and the independent reference the compiled form is
  property-tested against.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
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
# compiled (array-packed, immutable) LPM
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

    Rows are stored sorted by ``(masklen, prefix value)`` in flat
    columns: prefix values, masklens, interned ingress ids, confidence
    and the source snapshot timestamp.  Beside them sits the lookup
    index: the prefixes, nested or not, flattened into disjoint address
    segments, where ``_starts[i]`` opens a segment answered by row
    ``_seg_rows[i]`` (-1: no prefix covers it).  :meth:`lookup_row` is
    therefore one ``bisect`` and one index for any prefix set and either
    family (Python ints compare natively at 128 bits), with zero
    allocation — the shape the serving hot path needs (rules
    IPD005/IPD008 pin it).

    Instances are deeply read-only by convention (nothing mutates after
    construction), which is what makes epoch hot-swap in
    :mod:`repro.serving` a single reference assignment.
    """

    __slots__ = (
        "version",
        "_starts",
        "_seg_rows",
        "_values",
        "_masklens",
        "_ingress_ids",
        "_confidence",
        "_timestamps",
        "_ingresses",
    )

    def __init__(
        self,
        version: int,
        rows: "Iterable[tuple[int, int, IngressPoint, float, float]]" = (),
    ) -> None:
        """Build from ``(masklen, value, ingress, confidence, timestamp)``
        rows.  Rows may arrive in any order; a later duplicate prefix
        replaces an earlier one (matching :meth:`LPMTable.insert`)."""
        if version not in (IPV4, IPV6):
            raise ValueError(f"unknown IP version: {version!r}")
        self.version = version
        bits = 32 if version == IPV4 else 128
        dedup: dict[tuple[int, int], tuple[IngressPoint, float, float]] = {}
        for masklen, value, ingress, confidence, timestamp in rows:
            if not 0 <= masklen <= bits:
                raise ValueError(f"masklen {masklen} out of range for v{version}")
            shift = bits - masklen
            canonical = (value >> shift) << shift if shift else value
            if canonical >> bits:
                raise ValueError(f"prefix value {value:#x} out of range")
            dedup[(masklen, canonical)] = (ingress, confidence, timestamp)

        intern: dict[IngressPoint, int] = {}
        ingresses: list[IngressPoint] = []
        masklens = array("B")
        values: list[int] = []
        ingress_ids = array("L")
        confidences = array("d")
        timestamps = array("d")
        for masklen, value in sorted(dedup):
            masklens.append(masklen)
            values.append(value)
            ingress, confidence, timestamp = dedup[(masklen, value)]
            ingress_id = intern.get(ingress)
            if ingress_id is None:
                ingress_id = len(ingresses)
                intern[ingress] = ingress_id
                ingresses.append(ingress)
            ingress_ids.append(ingress_id)
            confidences.append(confidence)
            timestamps.append(timestamp)

        # Flatten into segments: sweep the prefixes in (value, masklen)
        # order — a parent sorts before its children — with the open ones
        # on a stack.  A segment opens where a prefix starts and, answered
        # by whatever encloses it, where one ends; ends come off the stack
        # in ascending order, so the dict fills in address order and a
        # later writer of the same start (a child on its parent's first
        # address, a sibling on its neighbour's end) replaces the earlier.
        limit = 1 << bits
        segments = {0: -1}
        # the bottom entry is the unmatched whole space and never closes
        enclosing: list[tuple[int, int]] = [(limit + 1, -1)]

        def close_until(address: int) -> None:
            while enclosing[-1][0] <= address:
                end = enclosing.pop()[0]
                segments[end] = enclosing[-1][1]

        for value, masklen, row in sorted(
            zip(values, masklens, range(len(values)))
        ):
            close_until(value)
            segments[value] = row
            enclosing.append((value + (1 << (bits - masklen)), row))
        # the last close leaves a final -1 segment (at or past the top of
        # the space), so an out-of-range probe of either sign is a miss
        close_until(limit)
        self._starts: tuple[int, ...] = tuple(segments)
        self._seg_rows: tuple[int, ...] = tuple(segments.values())
        self._values: tuple[int, ...] = tuple(values)
        self._masklens = masklens
        self._ingress_ids = ingress_ids
        self._confidence = confidences
        self._timestamps = timestamps
        self._ingresses: tuple[IngressPoint, ...] = tuple(ingresses)

    @classmethod
    def from_records(
        cls,
        records: Iterable[IPDRecord],
        version: int = IPV4,
    ) -> "CompiledLPM":
        """Compile the §5.1 validation LPM table from one output snapshot:
        the *version* family's classified records."""
        return cls(
            version,
            (
                (
                    record.range.masklen,
                    record.range.value,
                    record.ingress,
                    record.s_ingress,
                    record.timestamp,
                )
                for record in records
                if record.version == version and record.classified
            ),
        )

    # ------------------------------------------------------------------ query

    @hot_path
    def lookup_row(self, ip_value: int) -> int:
        """Row index of the most specific entry covering *ip_value*, or -1."""
        return self._seg_rows[bisect_right(self._starts, ip_value) - 1]

    @hot_path
    def lookup(self, ip_value: int) -> Optional[IngressPoint]:
        """Most specific ingress covering *ip_value*, or ``None``.

        Matches :meth:`LPMTable.lookup` on every address (property-pinned
        in ``tests/core/test_compiled_lpm.py``)."""
        row = self.lookup_row(ip_value)
        if row < 0:
            return None
        return self._ingresses[self._ingress_ids[row]]

    def lookup_entry(self, ip_value: int) -> Optional[CompiledEntry]:
        """Like :meth:`lookup` but returns the full compiled row."""
        row = self.lookup_row(ip_value)
        return self.entry(row) if row >= 0 else None

    def lookup_many(
        self, ip_values: Iterable[int]
    ) -> list[Optional[IngressPoint]]:
        """Bulk :meth:`lookup` over *ip_values*, one result per input."""
        lookup_row = self.lookup_row
        ingress_ids = self._ingress_ids
        ingresses = self._ingresses
        results: list[Optional[IngressPoint]] = []
        append = results.append
        for value in ip_values:
            row = lookup_row(value)
            append(ingresses[ingress_ids[row]] if row >= 0 else None)
        return results

    def entry(self, row: int) -> CompiledEntry:
        """Materialize compiled row *row* (0 ≤ row < ``len(self)``)."""
        if not 0 <= row < len(self._masklens):
            raise IndexError(f"row {row} out of range")
        return CompiledEntry(
            prefix=Prefix(self._values[row], self._masklens[row], self.version),
            ingress=self._ingresses[self._ingress_ids[row]],
            confidence=self._confidence[row],
            timestamp=self._timestamps[row],
        )

    def entries(self) -> Iterator[CompiledEntry]:
        """All rows, most-general first (``(masklen, value)`` order)."""
        for row in range(len(self._masklens)):
            yield self.entry(row)

    def __len__(self) -> int:
        return len(self._masklens)


#: the §5.1 validation table of one output snapshot (``records``,
#: ``version=IPV4``)
build_lpm_from_records = CompiledLPM.from_records
