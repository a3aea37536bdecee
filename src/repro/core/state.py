"""Per-range state kept by the IPD algorithm.

A range is *unclassified* (still observed: per masked source, which
ingress each sample came on and when, so a split loses nothing and
expiry removes exactly the stale sources) or *classified* (per-ingress
counters and a last-seen time: "all state is removed for efficiency
reasons", §3.2).  Every unclassified range of a trie keeps its sources
in one address-ordered :class:`CellTable`, so a leaf's rows are one span
and a split moves none; its scalars are columns of the trie's leaf table,
and :class:`UnclassifiedState` is the value a caller reads or writes.
Every classified range keeps its counters in the trie's
:class:`CounterTable`, one span per leaf in first-seen order, and its
winner and times in leaf-table columns; :class:`ClassifiedState` is the
value a caller reads or writes.  A classified range re-sums its few
counters, left to right in span order: decay scales them by a
non-integer factor, where a running sum would drift.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Any, Iterable, Optional

import numpy as np

from ..topology.elements import IngressPoint
from .iputil import IPV4

__all__ = [
    "CellTable",
    "CounterTable",
    "UnclassifiedState",
    "ClassifiedState",
    "DelegatedState",
    "ingress_codes",
    "ingress_points",
    "member_ranks",
    "ordered_sum",
    "per_span",
    "reduce_spans",
]

_INF = float("inf")

#: a cell key packs (masked source, ingress) as ``source << CELL_SHIFT |
#: code``, the code from one process-wide intern table (codes never leave
#: the process: the codec writes ingress points)
CELL_SHIFT = 32
_CODE_MASK = (1 << CELL_SHIFT) - 1
_CODES: dict[IngressPoint, int] = {}
_POINTS: list[IngressPoint] = []
#: a number per router, and the router number of each code
_ROUTERS: dict[str, int] = {}
_ROUTER_OF: list[int] = []
#: whether each code is a bundle (several interfaces of one router)
_BUNDLED: list[bool] = []
_INTERN = threading.Lock()


def ingress_codes(points: Iterable[IngressPoint]) -> np.ndarray:
    """The intern codes a cell key packs for *points* (``uint64``)."""
    codes = []
    with _INTERN:
        for point in points:
            code = _CODES.setdefault(point, len(_POINTS))
            if code == len(_POINTS):
                _POINTS.append(point)
                _ROUTER_OF.append(_ROUTERS.setdefault(point.router, len(_ROUTERS)))
                _BUNDLED.append(point.is_bundle)
            codes.append(code)
    return np.array(codes, dtype=np.uint64)


def ingress_points(codes: Any) -> list[IngressPoint]:
    """The ingress points of intern *codes*."""
    return list(map(_POINTS.__getitem__, np.asarray(codes).tolist()))


@lru_cache(maxsize=4096)
def _member_codes(code: int) -> np.ndarray:
    """The codes of a logical ingress's raw interfaces, a bundle's in name order."""
    point = _POINTS[code]
    members = (IngressPoint(point.router, name) for name in point.interfaces())
    return ingress_codes(members).astype(np.int64)


def member_ranks(winners: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Each counter row's place among the raw interfaces of its leaf's
    logical ingress (*winners*, per row): 0 for a plain ingress itself, a
    bundle's members in name order, -1 for a row of no member."""
    ranks = np.where(codes == winners, 0, -1)
    bundled = np.flatnonzero(np.array(_BUNDLED, bool)[winners])
    if not len(bundled):
        return ranks
    # one (bundle, member code) -> rank table for the bundles present
    bundles, which = np.unique(winners[bundled], return_inverse=True)
    members = [_member_codes(code) for code in bundles.tolist()]
    sizes = [len(member) for member in members]
    flat = np.concatenate(members)
    known = np.unique(flat)
    table = np.full((len(bundles), len(known)), -1)
    owner = np.repeat(np.arange(len(bundles)), sizes)
    table[owner, np.searchsorted(known, flat)] = np.arange(len(flat)) - np.repeat(
        np.cumsum(sizes) - sizes, sizes
    )
    at = np.minimum(np.searchsorted(known, codes[bundled]), len(known) - 1)
    ranks[bundled] = np.where(known[at] == codes[bundled], table[which, at], -1)
    return ranks


def ordered_sum(values: Iterable[float]) -> float:
    """*values* added left to right, as ``np.bincount`` adds a span: not
    ``sum()``, which compensates float sums from Python 3.12 on."""
    total: float = reduce(operator.add, values, 0.0)
    return total


class CellTable:
    """The unclassified sources and cells of one trie, in address order.

    Sources (``ips``, ``seen`` = newest timestamp, ``ip_seq``) sorted by
    masked source, cells (``keys`` = ``source << CELL_SHIFT | code``,
    ``weights``, ``key_seq``) by key: ``uint64`` for IPv4, Python ints in
    object columns for IPv6.  A leaf's *span* ``(a, b, c, d)`` is its
    sources ``a:b`` and cells ``c:d``.  A batch's rows wait as a sorted run
    until :meth:`merged` merges the runs: :meth:`spans` calls it first, and
    :meth:`add` once the runs outgrow the table.  Read a column only
    through one of them.
    """

    def __init__(self, version: int) -> None:
        dtype = np.dtype(np.uint64) if version == IPV4 else np.dtype(object)
        self._bits, self._one = (32, np.uint64(1)) if version == IPV4 else (128, 1)
        self.ips = np.empty(0, dtype)
        self.seen = np.empty(0)
        self.ip_seq = np.empty(0, np.int64)
        self.keys = np.empty(0, dtype)
        self.weights = np.empty(0)
        self.key_seq = np.empty(0, np.int64)
        #: a run numbers its rows ``_base + rank``, then advances it by its
        #: rank bound (a batch's length: int64 lasts about 10^15 batches of
        #: 8 192 rows)
        self._base = 0
        #: the runs not merged yet, ``(ips, seen, ip_seq, keys, weights,
        #: key_seq)`` each, and their cell count: :meth:`add` merges once
        #: they outgrow the table, so they never hold more rows than it
        self._runs: list[tuple[np.ndarray, ...]] = []
        self._pending = 0

    def spans(self, starts: Any, masklens: Any) -> tuple[np.ndarray, ...]:
        """The spans of the ranges *starts* / *masklens*: ``(a, b, c, d)``
        arrays of row bounds."""
        self.merged()
        lows = np.asarray(starts, dtype=self.ips.dtype)
        lengths = np.asarray(masklens).astype(self.ips.dtype)
        highs = lows | (self._one << (self._bits - lengths)) - self._one
        return (
            np.searchsorted(self.ips, lows),
            np.searchsorted(self.ips, highs, side="right"),
            np.searchsorted(self.keys, lows << CELL_SHIFT),
            np.searchsorted(self.keys, highs << CELL_SHIFT | _CODE_MASK, side="right"),
        )

    def add(self, ips, newest, ip_rank, owners, codes, weights, key_rank, bound) -> None:
        """Queue sorted distinct sources and cells (source, ingress code) as
        one run, numbered ``base + rank`` with ranks distinct below *bound*.
        A cell's number is only ever compared with those of its own
        source's cells, so both take their own rank."""
        keys = owners << CELL_SHIFT | codes.astype(owners.dtype)
        base = self._base
        self._runs.append((ips, newest, base + ip_rank, keys, weights, base + key_rank))
        self._base += bound
        self._pending += len(keys)
        if self._pending > len(self.keys):
            self.merged()

    def merged(self) -> "CellTable":
        """Merge the pending runs (returns the table): a source keeps its
        newest ``seen`` and its smallest number, a cell adds its weights run
        by run (integer-valued, so exactly), new rows go in by address."""
        if not self._runs:
            return self
        runs, self._runs, self._pending = self._runs, [], 0
        for names, merge, part in (
            (("ips", "seen", "ip_seq"), np.maximum, slice(0, 3)),
            (("keys", "weights", "key_seq"), np.add, slice(3, 6)),
        ):
            values, figures, seq = map(np.concatenate, zip(*[run[part] for run in runs]))
            if len(runs) > 1:  # one row per value: the first run's number
                order = values.argsort(kind="stable")
                values, figures, seq = values[order], figures[order], seq[order]
                firsts = np.flatnonzero(values[1:] != values[:-1]) + 1
                firsts = np.concatenate(([0], firsts))
                values, figures, seq = values[firsts], merge.reduceat(figures, firsts), seq[firsts]
            column, figure = getattr(self, names[0]), getattr(self, names[1])
            at = np.searchsorted(column, values)
            known = np.zeros(len(values), dtype=bool)
            if len(column):
                known = column[np.minimum(at, len(column) - 1)] == values
            figure[at[known]] = merge(figure[at[known]], figures[known])
            fresh = ~known
            if fresh.any():
                _open_rows(self, names, at[fresh], (values[fresh], figures[fresh], seq[fresh]))
        return self

    def plant(self, sources: list) -> None:
        """Add rows in an image's layout, ``[(masked_ip, last_seen,
        [(ingress, weight), ...]), ...]``, numbered in list order."""
        ips = np.array([ip for ip, *__ in sources], dtype=self.ips.dtype)
        owners = np.array([ip for ip, __, cells in sources for __ in cells], self.ips.dtype)
        codes = ingress_codes(point for *__, cells in sources for point, __ in cells)
        seen = np.array([seen for __, seen, __ in sources])
        weights = np.array([weight for *__, cells in sources for __, weight in cells])
        by_ip = ips.argsort(kind="stable")
        by_key = (owners << CELL_SHIFT | codes.astype(owners.dtype)).argsort(kind="stable")
        self.add(ips[by_ip], seen[by_ip], by_ip, owners[by_key], codes[by_key],
                 weights[by_key], by_key, max(len(ips), len(owners)))

    def keep(self, sources: np.ndarray, cells: np.ndarray) -> None:
        """Keep only the rows the two masks select (gathered by index: one
        mask scan, not one per column)."""
        sources, cells = np.flatnonzero(sources), np.flatnonzero(cells)
        self.ips, self.seen, self.ip_seq = (
            self.ips[sources], self.seen[sources], self.ip_seq[sources]
        )
        self.keys, self.weights, self.key_seq = (
            self.keys[cells], self.weights[cells], self.key_seq[cells]
        )

    def drop(self, spans: tuple[np.ndarray, ...]) -> None:
        """Delete the rows of *spans*."""
        a, b, c, d = spans
        keep = np.ones(len(self.ips), bool), np.ones(len(self.keys), bool)
        keep[0][_gather(a, b)[0]] = False
        keep[1][_gather(c, d)[0]] = False
        self.keep(*keep)

    def expire(self, spans: tuple[np.ndarray, ...], cutoff: float) -> tuple[Any, ...]:
        """Delete the sources of *spans* (each holding one at least) last
        seen strictly before *cutoff*, with their cells; returns how many
        went, which spans lost one, and for those the weight that went and
        the oldest ``seen`` left (``inf`` if none)."""
        a, b, c, d = spans
        rows = _gather(a, b)[0]
        seen = self.seen[rows]
        stale = seen < cutoff
        firsts = (b - a).cumsum() - (b - a)
        lost = np.logical_or.reduceat(stale, firsts)
        if not lost.any():
            return 0, lost, self.weights[:0], self.seen[:0]
        oldest = np.minimum.reduceat(np.where(stale, _INF, seen), firsts)[lost]
        # the spans' cells are their sources' runs, in source order: a
        # cell's source (an index into rows) counts the changes before it
        cells, cell_rank = _gather(c, d)
        addresses = self.keys[cells] >> CELL_SHIFT
        source = np.zeros(len(cells), np.intp)
        np.cumsum(addresses[1:] != addresses[:-1], out=source[1:])
        dead = stale[source]
        removed = np.bincount(cell_rank, np.where(dead, self.weights[cells], 0.0), minlength=len(a))
        sources, keep = np.ones(len(self.ips), bool), np.ones(len(self.keys), bool)
        sources[rows], keep[cells] = ~stale, ~dead
        self.keep(sources, keep)
        return int(np.count_nonzero(stale)), lost, removed[lost], oldest

    def totals(
        self, c: np.ndarray, d: np.ndarray, grand: Optional[np.ndarray] = None, q: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-ingress weight of each cell span from one grouped sum over
        (span, code): ``(spans, codes, sums)`` sorted by span, then code;
        exact (integer-valued weights).  Given the spans' *grand* totals,
        only the spans whose largest per-router subtotal
        (:func:`~repro.core.bundles.router_peak`) reaches *q* of it: no
        ingress candidate of the others can."""
        rows, rank = _gather(c, d)
        codes = (self.keys[rows] & _CODE_MASK).astype(np.int64)
        pairs, inverse = np.unique(rank << CELL_SHIFT | codes, return_inverse=True)
        sums = np.bincount(inverse, self.weights[rows])
        spans, codes = pairs >> CELL_SHIFT, pairs & _CODE_MASK
        if grand is not None:
            routers = np.array(_ROUTER_OF, dtype=np.int64)[codes]
            groups, inverse = np.unique(spans << CELL_SHIFT | routers, return_inverse=True)
            peaks = np.zeros(len(c))
            np.maximum.at(peaks, groups >> CELL_SHIFT, np.bincount(inverse, sums))
            keep = (peaks / grand >= q)[spans]
            sums, spans, codes = sums[keep], spans[keep], codes[keep]
        return spans, codes, sums

    def _walk(self, c: np.ndarray, d: np.ndarray) -> tuple:
        """The spans' cell rows in walk order — by span, then by their
        source's first-seen number, then their own — with source row and span."""
        cells, rank = _gather(c, d)
        owners = np.searchsorted(self.ips, self.keys[cells] >> CELL_SHIFT)
        order = np.lexsort((self.key_seq[cells], self.ip_seq[owners], rank))
        return cells[order], owners[order], rank[order]

    def first_seen(self, c: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each cell span's ingress codes in the order its walk meets them
        (the order of the ingresses over :meth:`sources`): ``(spans,
        codes)``, grouped by span."""
        cells, __, rank = self._walk(c, d)
        codes = (self.keys[cells] & _CODE_MASK).astype(np.int64)
        first = np.sort(np.unique(rank << CELL_SHIFT | codes, return_index=True)[1])
        return rank[first], codes[first]

    def sources(self, spans: tuple[np.ndarray, ...]) -> list[list]:
        """``[(masked_ip, last_seen, [(ingress, weight), ...]), ...]`` per
        span, sources and each one's cells in first-seen order: the nested
        layout the ``IPDS`` node stream encodes."""
        a, b, c, d = spans
        rows, rank = _gather(a, b)
        rows = rows[np.lexsort((self.ip_seq[rows], rank))]
        cells, owners, __ = self._walk(c, d)
        # each source's cells are one run, the runs in source order
        cuts = np.flatnonzero(np.diff(owners, prepend=-1)).tolist() + [len(owners)]
        points = ingress_points(self.keys[cells] & _CODE_MASK)
        weights = self.weights[cells].tolist()
        grouped = [list(zip(points[i:j], weights[i:j])) for i, j in zip(cuts, cuts[1:])]
        flat = list(zip(self.ips[rows].tolist(), self.seen[rows].tolist(), grouped))
        ends = np.cumsum(b - a).tolist()
        return [flat[end - count : end] for end, count in zip(ends, (b - a).tolist())]


class CounterTable:
    """The counters of one trie's classified leaves, as a span table: a row
    per (leaf, ingress) — ``starts`` (the leaf's first address), ``codes``
    (intern codes) and ``weights`` — sorted by leaf and, within a leaf, in
    first-seen order, so a leaf's rows are one span and a sum over it adds
    left to right (``np.bincount`` does), as the per-leaf dicts did."""

    _NAMES = ("starts", "codes", "weights")

    def __init__(self, dtype: np.dtype[Any]) -> None:
        self.starts = np.empty(0, dtype)
        self.codes = np.empty(0, np.int64)
        self.weights = np.empty(0)

    def spans(self, starts: Any) -> tuple[np.ndarray, np.ndarray]:
        """The row bounds of the leaves that begin at *starts*."""
        return np.searchsorted(self.starts, starts), np.searchsorted(self.starts, starts, "right")

    def owners(self, starts: np.ndarray) -> np.ndarray:
        """Each row's leaf, as an index into *starts*: every classified
        leaf's first address, ascending."""
        firsts = np.searchsorted(self.starts, starts)
        return np.repeat(np.arange(len(starts)), np.diff(firsts, append=len(self.starts)))

    def sums(self, starts: Any) -> np.ndarray:
        """Each leaf's counters added left to right: ``np.bincount``, never
        ``np.add.reduceat``, which adds in another order."""
        rows, rank = _gather(*self.spans(starts))
        return np.bincount(rank, self.weights[rows], minlength=len(starts))

    def items(self, starts: Any) -> list[list[tuple[IngressPoint, float]]]:
        """Each leaf's ``(ingress, weight)`` counters, in span order."""
        rows, rank = _gather(*self.spans(starts))
        pairs = list(zip(ingress_points(self.codes[rows]), self.weights[rows].tolist()))
        cuts = np.searchsorted(rank, np.arange(len(starts) + 1)).tolist()
        return [pairs[i:j] for i, j in zip(cuts, cuts[1:])]

    def insert(self, starts: np.ndarray, codes: np.ndarray, weights: np.ndarray) -> None:
        """Add the spans of leaves that hold none, grouped by leaf in address order."""
        _open_rows(self, self._NAMES, np.searchsorted(self.starts, starts), (starts, codes, weights))

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the rows the mask selects."""
        self.starts, self.codes, self.weights = (
            self.starts[rows], self.codes[rows], self.weights[rows]
        )

    def drop(self, starts: Any) -> None:
        """Delete the spans of the leaves that begin at *starts*."""
        gone = _gather(*self.spans(starts))[0]
        if len(gone):
            keep = np.ones(len(self.starts), bool)
            keep[gone] = False
            self.keep(keep)

    def add(
        self, leaves: np.ndarray, owners: np.ndarray, codes: np.ndarray, weights: np.ndarray
    ) -> None:
        """Add each cell's weight to its leaf's counter for its code, cell by
        cell in the order given — one ``np.add.at``, never a batch summed
        first, so a counter grows as the per-cell loop did.  *leaves* are the
        first addresses of the leaves folded into (ascending), *owners* each
        cell's index into them; only their spans are searched.  A new (leaf,
        code) opens at the end of its leaf's span, in the order the cells
        first name it."""
        firsts, ends = self.spans(leaves)
        rows, rank = _gather(firsts, ends)
        want = owners << CELL_SHIFT | codes
        known, at = _lookup(rank << CELL_SHIFT | self.codes[rows], want)
        target = np.empty(len(want), np.intp)
        if not known.all():
            fresh, first, pair = np.unique(want[~known], return_index=True, return_inverse=True)
            slots = ends[fresh >> CELL_SHIFT]
            order = np.lexsort((first, slots))
            placed = np.empty(len(fresh), np.intp)
            placed[order] = slots[order] + np.arange(len(fresh))
            fresh = fresh[order]
            old = _open_rows(self, self._NAMES, slots[order], (
                leaves[fresh >> CELL_SHIFT], fresh & _CODE_MASK, np.zeros(len(fresh))
            ))
            rows = old[rows]
            target[~known] = placed[pair]
        target[known] = rows[at[known]]
        np.add.at(self.weights, target, weights)

    def join(self, lowers: np.ndarray, uppers: np.ndarray) -> None:
        """Make each pair of sibling spans (leaves starting at *lowers* /
        *uppers*) one span of the lower leaf: its rows first, an upper code
        it holds adding onto its row (``left + right``), the upper's other
        codes after them in their order."""
        a, b = self.spans(lowers)
        low, low_pair = _gather(a, b)
        up, pair = _gather(b, np.searchsorted(self.starts, uppers, side="right"))
        twin, at = _lookup(low_pair << CELL_SHIFT | self.codes[low],
                           pair << CELL_SHIFT | self.codes[up])
        self.weights[low[at[twin]]] += self.weights[up[twin]]
        self.starts[up] = lowers[pair]
        keep = np.ones(len(self.starts), bool)
        keep[up[twin]] = False
        self.keep(keep)


def _lookup(keys: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether the distinct *keys* (grouped by leaf, so nearly sorted: the
    adaptive stable sort is cheap) hold each of *wanted*, and where (0 if
    not).  Both sides are sorted first: a binary search per unsorted needle
    mispredicts its branches."""
    if not len(keys):
        return np.zeros(len(wanted), bool), np.zeros(len(wanted), np.intp)
    order, by = keys.argsort(kind="stable"), wanted.argsort()
    at = np.empty(len(wanted), np.intp)
    at[by] = order[np.minimum(np.searchsorted(keys[order], wanted[by]), len(keys) - 1)]
    return keys[at] == wanted, at


def _open_rows(table: Any, names: tuple[str, ...], at: np.ndarray, parts: tuple[Any, ...]) -> Any:
    """Insert *parts* into the columns *names* of *table*, each row before
    the old row *at* (ascending) and after the new ones before it; returns
    the old rows' new places (an index scatters faster than a mask)."""
    new = at + np.arange(len(at))
    kept = np.ones(len(getattr(table, names[0])) + len(new), dtype=bool)
    kept[new] = False
    old = np.flatnonzero(kept)
    for name, part in zip(names, parts):
        merged = np.empty(len(old) + len(new), getattr(table, name).dtype)
        merged[new], merged[old] = part, getattr(table, name)
        setattr(table, name, merged)
    return old


def _gather(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row numbers of the spans ``starts[i]:ends[i]``, concatenated, and
    the span number of each."""
    lengths = ends - starts
    rank = np.repeat(np.arange(len(starts)), lengths)
    return np.arange(int(lengths.sum())) + (starts - lengths.cumsum() + lengths)[rank], rank


def per_span(
    spans: np.ndarray, codes: np.ndarray, sums: np.ndarray
) -> dict[int, dict[IngressPoint, float]]:
    """:meth:`CellTable.totals` as one ``{ingress: weight}`` dict per span
    number, keys in code order: what the decision rule reads."""
    cuts = np.flatnonzero(np.diff(spans, prepend=-1)).tolist() + [len(spans)]
    points, weights = ingress_points(codes), sums.tolist()
    return {
        span: dict(zip(points[i:j], weights[i:j]))
        for span, i, j in zip(spans[cuts[:-1]].tolist(), cuts, cuts[1:])
    }


def reduce_spans(
    ufunc: np.ufunc, values: np.ndarray, starts: np.ndarray, ends: np.ndarray, empty: float
) -> np.ndarray:
    """``ufunc.reduce(values[starts[i]:ends[i]])`` per span; *empty* for an empty one."""
    out = np.full(len(starts), empty)
    full = starts < ends
    if full.any():
        bounds = np.empty(2 * int(full.sum()), np.intp)
        bounds[::2], bounds[1::2] = starts[full], ends[full]
        out[full] = ufunc.reduceat(np.concatenate((values, [empty])), bounds)[::2]
    return out


@dataclass
class UnclassifiedState:
    """Observation state for a range without a prevalent ingress yet: its
    scalars only, as a value — the tree holds them as leaf-table columns
    and the per-source rows sit in the trie's :class:`CellTable`."""

    #: the range's summed cell weights, by addition (ingest) and subtraction
    #: (expiry): exact while integer-valued weights sum below 2^53
    total: float = 0.0
    #: lower bound on the range's smallest ``last_seen``, ``inf`` exactly
    #: when it holds no source; re-tightened by an expiry that removes one
    oldest_seen: float = _INF

    @property
    def sample_count(self) -> float:
        """The paper's ``s_ipcount`` for this range."""
        return self.total

    def is_empty(self) -> bool:
        return self.oldest_seen == _INF


@dataclass
class ClassifiedState:
    """Aggregate state for a range with an assigned prevalent ingress, as
    a value: the tree holds it as leaf-table columns and a span of its
    :class:`CounterTable` (``tree.state`` builds one, ``tree.assign``
    writes one)."""

    #: the prevalent logical ingress (may be a bundle)
    ingress: IngressPoint
    #: per raw (single-interface) ingress counters
    counters: dict[IngressPoint, float]
    last_seen: float
    #: timestamp at which the range was first classified
    classified_at: float

    @property
    def total(self) -> float:
        return ordered_sum(self.counters.values())

    def confidence_for(
        self,
        member_ingresses: Iterable[IngressPoint],
        total: float | None = None,
    ) -> float:
        """The paper's ``s_ingress``: the share of samples that entered via
        *member_ingresses* (a bundle's raw interfaces, or the one plain
        ingress).  *total* is :attr:`total`, from a caller that summed it."""
        if total is None:
            total = self.total
        if total <= 0.0:
            return 0.0
        matched = ordered_sum(self.counters.get(member, 0.0) for member in member_ingresses)
        return matched / total


@dataclass
class DelegatedState:
    """Marker for a range whose state lives in *another* engine.

    The sharded runtime (:mod:`repro.runtime`) plants one at each
    depth-``k`` leaf the aggregator has handed to a shard engine, and at
    a shard trie's root while the aggregator still owns the range.  A
    delegated leaf is inert: no samples or rows, never visited by sweeps,
    nothing in snapshots or ``state_size()``, and not counted by
    ``leaf_count()``, so aggregator and shards partition the address
    space exactly like a single engine's trie.
    """

