"""The binary trie of IPD ranges.

"This method treats the Internet's address space as a binary tree, with
each node representing a CIDR range" (§3.1).  The trie starts as a single
/0 leaf and is refined by splits and coarsened by joins as traffic
dictates.

Leaves are pairwise disjoint and tile the root range, so the tree is a
*leaf table*: index-aligned columns over the leaves in address order,
one row per leaf and no object for an unclassified one —

* ``starts`` (first address, the table's address dtype) and ``masklens``;
* ``kinds``: :data:`UNCLASSIFIED`, :data:`CLASSIFIED` or :data:`DELEGATED`;
* ``totals`` / ``oldest``: an unclassified leaf's summed weight and the
  lower bound on its sources' ``last_seen`` (``inf`` exactly when empty);
* ``dirty``: the leaf changed since the last sweep, which visits those
  instead of every leaf;
* ``winners`` / ``last_seen`` / ``classified_at``: a classified leaf's
  logical ingress (an intern code; a bundle is interned whole), newest
  sample and classification time (``-1``, ``0.0``, ``0.0`` on any other).

A lookup is one ``searchsorted``.  Internal ranges are implicit: a split
turns a row into its lower half and the upper halves of a whole sweep
go in with one rebuild of the columns, a join or a prune collapse
deletes the upper row of a sibling pair (neighbouring rows), and a
restore (:meth:`RangeTree.plant`) turns one row into the leaves that
tile it.  Unclassified leaves keep their per-source rows in one
address-ordered :class:`~repro.core.state.CellTable` (``table``), where
a leaf's rows are one span and a split moves none of them; classified
leaves keep their counters in one :class:`~repro.core.state.CounterTable`
(``counters``), a span per leaf, which a join concatenates.

Outside ``core/`` a leaf is named by its :class:`Prefix`
(:meth:`~RangeTree.lookup_leaf`, :meth:`~RangeTree.leaves`,
:meth:`~RangeTree.leaves_under`); inside it, by its row.  Every state
change goes through :meth:`RangeTree.write` (:meth:`~RangeTree.assign`
at the edge), which keeps ``kinds``, the figures and ``dirty`` in step
and drops the counter span of a leaf that stops being classified;
:meth:`RangeTree.classify` writes classified leaves.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Union

import numpy as np

from ..devtools.markers import hot_path
from .iputil import Prefix
from .state import (
    CellTable,
    ClassifiedState,
    CounterTable,
    DelegatedState,
    UnclassifiedState,
    ingress_codes,
    ingress_points,
    reduce_spans,
)

__all__ = ["CLASSIFIED", "DELEGATED", "UNCLASSIFIED", "RangeTree"]

RangeState = Union[UnclassifiedState, ClassifiedState, DelegatedState]
#: rows of the leaf table: an index array, a boolean mask, a slice or a list
Rows = Union[np.ndarray, slice, "list[int]", int]

#: the ``kinds`` codes
UNCLASSIFIED, CLASSIFIED, DELEGATED = 0, 1, 2

_INF = float("inf")

#: every column and what a new row holds before it is written
_COLUMNS = {
    "starts": None,
    "masklens": None,
    "kinds": UNCLASSIFIED,
    "totals": 0.0,
    "oldest": _INF,
    "dirty": False,
    "winners": -1,
    "last_seen": 0.0,
    "classified_at": 0.0,
}
#: the columns a leaf that stops being classified resets
_CLASSIFIED_COLUMNS = ("winners", "last_seen", "classified_at")


def _fields(state: RangeState) -> "tuple[int, float, float]":
    """``(kind, total, oldest)`` of a state value."""
    if isinstance(state, UnclassifiedState):
        return UNCLASSIFIED, state.total, state.oldest_seen
    if isinstance(state, ClassifiedState):
        return CLASSIFIED, 0.0, _INF
    if isinstance(state, DelegatedState):
        return DELEGATED, 0.0, _INF
    raise TypeError(f"not a range state: {type(state).__name__}")


class RangeTree:
    """Binary trie over one address family, rooted at /0.

    The sharded runtime roots shard tries at a depth-``k`` subtree
    instead: pass *root_prefix* to cover only that CIDR range.  All
    operations (lookup, split, join, prune) are relative to the root, so
    a rooted tree behaves exactly like the corresponding subtree of a
    /0 tree.
    """

    def __init__(self, version: int, root_prefix: Optional[Prefix] = None) -> None:
        if root_prefix is not None and root_prefix.version != version:
            raise ValueError(f"root prefix {root_prefix} does not match IPv{version}")
        self.version = version
        self.root_prefix = root_prefix if root_prefix is not None else Prefix.root(version)
        #: every unclassified leaf's sources and cells, in address order
        self.table = CellTable(version)
        dtype = self.table.ips.dtype
        self._bits, self._one = self.root_prefix.bits, dtype.type(1)
        # the leaf table, with the root as its one (dirty) row
        self.starts = np.array([self.root_prefix.value], dtype)
        self.masklens = np.array([self.root_prefix.masklen], np.uint8)
        self.kinds = np.full(1, UNCLASSIFIED, np.int8)
        self.totals = np.zeros(1)
        self.oldest = np.full(1, _INF)
        self.dirty = np.ones(1, bool)
        self.winners = np.full(1, -1, np.int64)
        self.last_seen = np.zeros(1)
        self.classified_at = np.zeros(1)
        #: every classified leaf's counters, a span per leaf
        self.counters = CounterTable(dtype)
        #: number of splits/joins performed (resource-metric bookkeeping)
        self.split_count = 0
        self.join_count = 0

    # -- rows and prefixes ------------------------------------------------------

    def prefixes(self, rows: Rows) -> list[Prefix]:
        """The prefixes of *rows* (an index array or a slice)."""
        version = self.version
        return [
            Prefix(value, masklen, version)
            for value, masklen in zip(self.starts[rows].tolist(), self.masklens[rows].tolist())
        ]

    def _row(self, prefix: Prefix) -> int:
        """The row of the leaf at *prefix*."""
        row = int(np.searchsorted(self.starts, prefix.value))
        if self.prefixes(slice(row, row + 1)) != [prefix]:
            raise ValueError(f"{prefix} is not a leaf")
        return row

    def _sizes(self, masklens: np.ndarray) -> np.ndarray:
        """The number of addresses of ranges of *masklens*, in the address dtype."""
        return self._one << (self._bits - masklens).astype(self.starts.dtype)

    def spans(self, rows: Rows) -> tuple[np.ndarray, ...]:
        """The cell-table spans ``(a, b, c, d)`` of *rows*."""
        return self.table.spans(self.starts[rows], self.masklens[rows])

    # -- lookup -------------------------------------------------------------

    @hot_path
    def lookup_leaf(self, ip_value: int) -> Prefix:
        """Return the leaf whose range contains *ip_value*.

        *ip_value* must lie inside the root prefix.  A rooted (shard)
        tree asked for a foreign address answers with an arbitrary leaf;
        the sharded router guarantees that never happens.
        """
        row = int(np.searchsorted(self.starts, ip_value, side="right")) - 1
        return Prefix(int(self.starts[row]), int(self.masklens[row]), self.version)

    def locate(self, addresses: np.ndarray) -> np.ndarray:
        """The rows of the leaves holding *addresses* (the table's address dtype)."""
        return np.searchsorted(self.starts, addresses, side="right") - 1

    def sources(self, prefix: Prefix) -> list:
        """An unclassified leaf's ``(masked_ip, last_seen, [(ingress,
        weight), ...])`` per source, sources and cells in first-seen order."""
        return self.table.sources(self.table.spans([prefix.value], [prefix.masklen]))[0]

    # -- state --------------------------------------------------------------

    def state(self, prefix: Prefix) -> RangeState:
        """The state of the leaf at *prefix*, as a fresh value (write one
        back with :meth:`assign`)."""
        row = self._row(prefix)
        kind = self.kinds[row]
        if kind == CLASSIFIED:
            at = slice(row, row + 1)
            return ClassifiedState(
                ingress_points(self.winners[at])[0],
                dict(self.counters.items(self.starts[at])[0]),
                float(self.last_seen[row]),
                float(self.classified_at[row]),
            )
        if kind == DELEGATED:
            return DelegatedState()
        return UnclassifiedState(float(self.totals[row]), float(self.oldest[row]))

    def assign(self, prefix: Prefix, state: RangeState) -> None:
        """Replace the state of the leaf at *prefix* (its cell-table rows
        stay: a caller replacing an unclassified leaf that holds some drops
        them first)."""
        self.plant(prefix, [(prefix, state)])

    def write(self, rows: Rows, kind: Any, totals: Any = 0.0, oldest: Any = _INF) -> None:
        """The one state writer: kind and figures of *rows*, each scalar or
        per row; every row but a delegated one turns dirty, and a row that
        stops being classified loses its counter span."""
        leaving = (self.kinds[rows] == CLASSIFIED) & np.not_equal(kind, CLASSIFIED)
        if leaving.any():
            mask = np.zeros(len(self.starts), bool)
            mask[rows] = leaving
            gone = mask.nonzero()[0]
            self.counters.drop(self.starts[gone])
            for name in _CLASSIFIED_COLUMNS:
                getattr(self, name)[gone] = _COLUMNS[name]
        self.kinds[rows] = kind
        self.totals[rows] = totals
        self.oldest[rows] = oldest
        self.dirty[rows] = np.not_equal(kind, DELEGATED)

    def classify(
        self, rows: np.ndarray, winners: Any, last_seen: Any, classified_at: Any,
        counters: "tuple[np.ndarray, np.ndarray, np.ndarray]",
    ) -> None:
        """Write the leaves at *rows* (ascending, holding no counter span)
        classified: their winner codes, ``last_seen`` and ``classified_at``,
        each scalar or per row, and their counters ``(owners, codes,
        weights)``, grouped by owner (an index into *rows*) in span order."""
        self.write(rows, CLASSIFIED)
        self.winners[rows] = winners
        self.last_seen[rows] = last_seen
        self.classified_at[rows] = classified_at
        owners, codes, weights = counters
        self.counters.insert(self.starts[rows][owners], codes, weights)

    def expire(self, cutoff: float) -> tuple[int, np.ndarray]:
        """Drop every source last seen strictly before *cutoff*; returns how
        many, and the rows of the leaves that lost one (ascending).  Only
        the spans of leaves whose ``oldest`` (a lower bound) is before the
        cutoff are read.  A leaf that lost a source subtracts the removed
        weights from its total (exact) and re-tightens ``oldest``; no other
        leaf changes."""
        rows = np.flatnonzero(self.oldest < cutoff)
        if not len(rows):
            return 0, rows
        gone, lost, removed, oldest = self.table.expire(self.spans(rows), cutoff)
        touched = rows[lost]
        self.totals[touched] = np.where(oldest != _INF, self.totals[touched] - removed, 0.0)
        self.oldest[touched] = oldest
        return gone, touched

    # -- structure changes ----------------------------------------------------

    def _insert(self, new: np.ndarray, starts: Any, masklens: Any) -> None:
        """Open rows at the final positions *new* (ascending), not yet
        written: unclassified, empty and clean; the old rows keep their order."""
        old = np.ones(len(self.starts) + len(new), bool)
        old[new] = False
        for name, fill in _COLUMNS.items():
            column = np.empty(len(old), getattr(self, name).dtype)
            column[old] = getattr(self, name)
            column[new] = {"starts": starts, "masklens": masklens}.get(name, fill)
            setattr(self, name, column)

    def _merge(self, lowers: np.ndarray, *fields: Any) -> np.ndarray:
        """Merge each row of *lowers* with the row after it, its sibling, into
        one leaf written with *fields* (:meth:`write`'s); returns its rows.
        An upper row's counter span goes with it (:meth:`join_all` has
        moved the span of each upper row it merges to the lower row)."""
        uppers = lowers + 1
        gone = uppers[self.kinds[uppers] == CLASSIFIED]
        if len(gone):
            self.counters.drop(self.starts[gone])
        keep = np.ones(len(self.starts), bool)
        keep[uppers] = False
        for name in _COLUMNS:
            setattr(self, name, getattr(self, name)[keep])
        rows = lowers - np.arange(len(lowers))
        self.masklens[rows] -= 1
        self.write(rows, *fields)
        return rows

    def split(self, prefix: Prefix) -> tuple[Prefix, Prefix]:
        """Split a leaf into its two halves (:meth:`split_all` of one)."""
        halves = prefix.children()
        self.split_all(np.array([self._row(prefix)]))
        return halves

    def split_all(self, rows: np.ndarray) -> None:
        """Split the unclassified leaves at *rows* (ascending) in halves,
        moving no cell: each half's total and ``oldest`` are read off its
        part of the span.  Each row becomes its lower half and the upper
        halves go in at once."""
        if not len(rows):
            return
        if (self.kinds[rows] != UNCLASSIFIED).any():
            raise ValueError("cannot split a classified or delegated range")
        lengths = self.masklens[rows] + 1
        lows = self.starts[rows]
        highs = lows | self._sizes(lengths)
        halves = np.empty(2 * len(rows), self.starts.dtype)
        halves[::2], halves[1::2] = lows, highs
        a, b, c, d = self.table.spans(halves, np.repeat(lengths, 2))
        self.masklens[rows] = lengths
        uppers = rows + np.arange(1, len(rows) + 1)
        self._insert(uppers, highs, lengths)
        halves = np.repeat(uppers, 2)
        halves[::2] -= 1
        self.write(
            halves,
            UNCLASSIFIED,
            reduce_spans(np.add, self.table.weights, c, d, 0.0),
            reduce_spans(np.minimum, self.table.seen, a, b, _INF),
        )
        self.split_count += len(rows)

    def sibling_pairs(self, rows: np.ndarray) -> np.ndarray:
        """The lower rows of the sibling pairs of leaves that *rows* are in:
        a leaf's sibling, when it is a leaf, is its index neighbour — the one
        after it for a lower half, the one before it for an upper half."""
        masklens = self.masklens[rows]
        inner = masklens > self.root_prefix.masklen
        rows, masklens = rows[inner], masklens[inner]
        sizes = self._sizes(masklens)
        lowers = rows - ((self.starts[rows] & sizes) != 0)
        starts, lengths = self.starts, self.masklens
        paired = (
            (lengths[lowers] == masklens)
            & (lengths[lowers + 1] == masklens)
            & (starts[lowers] ^ starts[lowers + 1] == sizes)
        )
        return np.unique(lowers[paired])

    def join_all(self, lowers: np.ndarray) -> np.ndarray:
        """Merge each pair of classified siblings at *lowers* (same winner)
        into one leaf (the join rule): the counter spans concatenate,
        ``last_seen`` is the newer and ``classified_at`` the earlier — a
        join refines an existing decision rather than making a new one.
        Returns the merged rows."""
        uppers = lowers + 1
        self.counters.join(self.starts[lowers], self.starts[uppers])
        last_seen = np.maximum(self.last_seen[lowers], self.last_seen[uppers])
        classified_at = np.minimum(self.classified_at[lowers], self.classified_at[uppers])
        rows = self._merge(lowers, CLASSIFIED)
        self.last_seen[rows], self.classified_at[rows] = last_seen, classified_at
        self.join_count += len(lowers)
        return rows

    def join(self, prefix: Prefix, state: RangeState) -> None:
        """Merge the two leaves that halve *prefix* into one leaf there, with
        the *state* the caller merged (the classifier decides how)."""
        self._merge(self._halves_at(prefix), UNCLASSIFIED)
        self.assign(prefix, state)
        self.join_count += 1

    def collapse(self, prefix: Prefix) -> None:
        """The prune collapse for cross-engine callers: the two leaves that
        halve *prefix* become one empty unclassified leaf."""
        self._merge(self._halves_at(prefix), UNCLASSIFIED)

    def _halves_at(self, prefix: Prefix) -> np.ndarray:
        """The row of the lower of the two leaves that halve *prefix*."""
        low, high = prefix.children()
        at = int(np.searchsorted(self.starts, low.value))
        if self.prefixes(slice(at, at + 2)) != [low, high]:
            raise ValueError(f"the halves of {prefix} are not both leaves")
        return np.array([at])

    def plant(self, prefix: Prefix, leaves: "list[tuple[Prefix, RangeState]]") -> int:
        """Replace the leaf at *prefix* by *leaves*, ``(prefix, state)`` pairs
        that tile it in address order; returns the row of the first.  For
        state restoration: unlike :meth:`split` it counts no split."""
        at = self._row(prefix)
        self.counters.drop([prefix.value])
        parts = [part for part, __ in leaves]
        # the row turns into the first leaf, the rest open after it
        self.masklens[at] = parts[0].masklen
        self._insert(
            at + np.arange(1, len(parts)),
            np.array([part.value for part in parts[1:]], self.starts.dtype),
            [part.masklen for part in parts[1:]],
        )
        states = [state for __, state in leaves]
        self.write(slice(at, at + len(parts)), *zip(*map(_fields, states)))
        picked = [(row, state) for row, state in enumerate(states, at)
                  if isinstance(state, ClassifiedState)]
        if picked:
            counters = [list(state.counters.items()) for __, state in picked]
            self.classify(
                np.array([row for row, __ in picked]),
                ingress_codes(state.ingress for __, state in picked).astype(np.int64),
                [state.last_seen for __, state in picked],
                [state.classified_at for __, state in picked],
                (
                    np.repeat(np.arange(len(picked)), [len(items) for items in counters]),
                    ingress_codes(point for items in counters for point, __ in items)
                    .astype(np.int64),
                    np.array([weight for items in counters for __, weight in items]),
                ),
            )
        return at

    def delegate(self, prefix: Prefix) -> None:
        """Hand an unclassified leaf (the sharded runtime's range at the shard
        depth, before it can classify) off to another engine: delete its
        cells (the caller images it first) and mark it :data:`DELEGATED`."""
        row = self._row(prefix)
        if self.kinds[row] != UNCLASSIFIED:
            raise ValueError(f"cannot delegate {prefix}: not unclassified")
        self.table.drop(self.spans([row]))
        self.write(row, DELEGATED)

    # -- iteration -------------------------------------------------------------

    def leaves(self) -> list[Prefix]:
        """All leaves in address order (a snapshot: a caller may restructure
        the tree while iterating)."""
        return self.prefixes(slice(None))

    def leaves_under(self, prefix: Prefix) -> list[Prefix]:
        """The leaves inside *prefix*, in address order."""
        return self.prefixes(self.rows_under(prefix))

    def rows_under(self, prefix: Prefix) -> slice:
        """The rows of the leaves inside *prefix*."""
        low = int(np.searchsorted(self.starts, prefix.value))
        return slice(low, int(np.searchsorted(self.starts, prefix.last_value, side="right")))

    def leaf_count(self) -> int:
        """Number of *visible* leaves: the rows less the delegated ones
        (owned by another engine), so a sharded deployment's aggregator
        plus its shard trees sum to exactly the single-engine count."""
        return len(self.starts) - self.delegated_count()

    def delegated_count(self) -> int:
        """Number of leaves currently delegated to another engine."""
        return int(np.count_nonzero(self.kinds == DELEGATED))

    def classified_count(self) -> int:
        """Number of classified leaves."""
        return int(np.count_nonzero(self.kinds == CLASSIFIED))

    # -- maintenance -------------------------------------------------------------

    def prune_upward(self, candidates: Iterable[int]) -> int:
        """Collapse empty unclassified sibling pairs reachable from the leaves
        that start at the addresses *candidates*.

        Instead of walking the whole trie, start from the leaves known to
        have just become empty and cascade upward, one level of pairs at a
        time.  This finds every collapse a full postorder walk would,
        because a pair can only become collapsible when one of its members
        changes — and every change puts that member in the candidate set.
        """
        values = np.asarray(candidates, self.starts.dtype)
        rows = np.minimum(np.searchsorted(self.starts, values), len(self.starts) - 1)
        rows = rows[self.starts[rows] == values]
        collapsed = 0
        while len(rows):
            lowers = self.sibling_pairs(rows[self._empty(rows)])
            lowers = lowers[self._empty(lowers) & self._empty(lowers + 1)]
            if not len(lowers):
                break
            rows = self._merge(lowers, UNCLASSIFIED)
            collapsed += len(rows)
        return collapsed

    def _empty(self, rows: np.ndarray) -> np.ndarray:
        return (self.kinds[rows] == UNCLASSIFIED) & (self.oldest[rows] == _INF)
