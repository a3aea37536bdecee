"""Per-range state kept by the IPD algorithm.

A range is *unclassified* (still observed: per masked source, which
ingress each sample came on and when, so a split loses nothing and
expiry removes exactly the stale sources) or *classified* (per-ingress
counters and a last-seen time: "all state is removed for efficiency
reasons", §3.2).  Every unclassified range of a trie keeps its sources
in one address-ordered :class:`CellTable`, so a leaf's rows are one span
and a split moves none; its scalars are columns of the trie's leaf table,
and :class:`UnclassifiedState` is the value a caller reads or writes.
A classified range re-sums its few counters: decay scales them by a
non-integer factor, where a running sum would drift.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable, Optional

import numpy as np

from ..topology.elements import IngressPoint
from .iputil import IPV4

__all__ = [
    "CellTable",
    "UnclassifiedState",
    "ClassifiedState",
    "DelegatedState",
    "ingress_codes",
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
            codes.append(code)
    return np.array(codes, dtype=np.uint64)


class CellTable:
    """The unclassified sources and cells of one trie, in address order.

    Sources (``ips``, ``seen`` = newest timestamp, ``ip_seq``) sorted by
    masked source, cells (``keys`` = ``source << CELL_SHIFT | code``,
    ``weights``, ``key_seq``) by key: ``uint64`` for IPv4, Python ints in
    object columns for IPv6.  A leaf's *span* ``(a, b, c, d)`` is its
    sources ``a:b`` and cells ``c:d``.
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
        self._next_seq = 0

    def spans(self, starts: Any, masklens: Any) -> tuple[np.ndarray, ...]:
        """The spans of the ranges *starts* / *masklens*: ``(a, b, c, d)``
        arrays of row bounds."""
        lows = np.asarray(starts, dtype=self.ips.dtype)
        lengths = np.asarray(masklens).astype(self.ips.dtype)
        highs = lows | (self._one << (self._bits - lengths)) - self._one
        return (
            np.searchsorted(self.ips, lows),
            np.searchsorted(self.ips, highs, side="right"),
            np.searchsorted(self.keys, lows << CELL_SHIFT),
            np.searchsorted(self.keys, highs << CELL_SHIFT | _CODE_MASK, side="right"),
        )

    def add(self, ips, newest, ip_rank, owners, codes, weights, key_rank) -> None:
        """Merge sorted distinct sources and cells (source, ingress code): a
        known source keeps the newer timestamp, a known cell adds its weight;
        new rows are numbered in *rank* order and inserted by address."""
        keys = owners << CELL_SHIFT | codes.astype(owners.dtype)
        for names, values, figures, rank, merge in (
            (("ips", "seen", "ip_seq"), ips, newest, ip_rank, np.maximum),
            (("keys", "weights", "key_seq"), keys, weights, key_rank, np.add),
        ):
            column, figure = getattr(self, names[0]), getattr(self, names[1])
            at = np.searchsorted(column, values)
            known = np.zeros(len(values), dtype=bool)
            if len(column):
                known = column[np.minimum(at, len(column) - 1)] == values
            figure[at[known]] = merge(figure[at[known]], figures[known])
            fresh = ~known
            if not fresh.any():
                continue  # nothing to insert: leave the columns as they are
            seq = np.empty(int(fresh.sum()), np.int64)
            seq[rank[fresh].argsort(kind="stable")] = self._next_seq + np.arange(len(seq))
            self._next_seq += len(seq)
            # each new row lands after the old rows below it and the new ones before it
            new = at[fresh] + np.arange(len(seq))
            old = np.ones(len(column) + len(seq), dtype=bool)
            old[new] = False
            for name, part in zip(names, (values[fresh], figures[fresh], seq)):
                merged = np.empty(len(old), getattr(self, name).dtype)
                merged[new], merged[old] = part, getattr(self, name)
                setattr(self, name, merged)

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
                 weights[by_key], by_key)

    def keep(self, sources: np.ndarray, cells: np.ndarray) -> None:
        """Keep only the rows the two masks select."""
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

    def expire(self, cutoff: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Delete every source last seen strictly before *cutoff*, with its
        cells; returns the gone sources, the gone cells' sources and their
        weights (each in address order)."""
        stale = self.seen < cutoff
        if not stale.any():
            empty = self.ips[:0]
            return empty, empty, self.weights[:0]
        owners = self.keys >> CELL_SHIFT
        gone = stale[np.searchsorted(self.ips, owners)]
        swept = self.ips[stale], owners[gone], self.weights[gone]
        self.keep(~stale, ~gone)
        return swept

    def totals(
        self, c: np.ndarray, d: np.ndarray, grand: Optional[np.ndarray] = None, q: float = 0.0
    ) -> dict[int, dict[IngressPoint, float]]:
        """Per-ingress weight of each cell span, by span number, from one
        grouped sum over (span, code): exact (integer-valued weights), keys
        in code order.  Given the spans' *grand* totals, only the spans whose
        largest per-router subtotal (:func:`~repro.core.bundles.router_peak`)
        reaches *q* of it: no ingress candidate of the others can."""
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
        cuts = np.flatnonzero(np.diff(spans, prepend=-1)).tolist() + [len(spans)]
        points, sums = list(map(_POINTS.__getitem__, codes.tolist())), sums.tolist()
        return {
            span: dict(zip(points[i:j], sums[i:j]))
            for span, i, j in zip(spans[cuts[:-1]].tolist(), cuts, cuts[1:])
        }

    def _walk(self, c: np.ndarray, d: np.ndarray) -> tuple:
        """The spans' cell rows in walk order — by span, then by their
        source's first-seen number, then their own — with source row and span."""
        cells, rank = _gather(c, d)
        owners = np.searchsorted(self.ips, self.keys[cells] >> CELL_SHIFT)
        order = np.lexsort((self.key_seq[cells], self.ip_seq[owners], rank))
        return cells[order], owners[order], rank[order]

    def first_seen(self, c: np.ndarray, d: np.ndarray) -> list[list[IngressPoint]]:
        """Each cell span's ingress points in the order its walk meets them:
        the order of the ingresses over :meth:`sources`."""
        cells, __, rank = self._walk(c, d)
        codes = (self.keys[cells] & _CODE_MASK).astype(np.int64)
        first = np.sort(np.unique(rank << CELL_SHIFT | codes, return_index=True)[1])
        cuts = np.searchsorted(rank[first], np.arange(len(c) + 1)).tolist()
        points = list(map(_POINTS.__getitem__, codes[first].tolist()))
        return [points[i:j] for i, j in zip(cuts, cuts[1:])]

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
        points = list(map(_POINTS.__getitem__, (self.keys[cells] & _CODE_MASK).tolist()))
        weights = self.weights[cells].tolist()
        grouped = [list(zip(points[i:j], weights[i:j])) for i, j in zip(cuts, cuts[1:])]
        flat = list(zip(self.ips[rows].tolist(), self.seen[rows].tolist(), grouped))
        ends = np.cumsum(b - a).tolist()
        return [flat[end - count : end] for end, count in zip(ends, (b - a).tolist())]


def _gather(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row numbers of the spans ``starts[i]:ends[i]``, concatenated, and
    the span number of each."""
    lengths = ends - starts
    rank = np.repeat(np.arange(len(starts)), lengths)
    return np.arange(int(lengths.sum())) + (starts - lengths.cumsum() + lengths)[rank], rank


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
    """Aggregate state for a range with an assigned prevalent ingress."""

    #: the prevalent logical ingress (may be a bundle)
    ingress: IngressPoint
    #: per raw (single-interface) ingress counters
    counters: dict[IngressPoint, float]
    last_seen: float
    #: timestamp at which the range was first classified
    classified_at: float

    def decay(self, factor: float, floor: float = 1e-9) -> None:
        """Scale all counters down; counters below *floor* are removed."""
        if not 0.0 <= factor <= 1.0:
            raise ValueError(f"decay factor out of range: {factor}")
        decayed = {
            ingress: weight * factor
            for ingress, weight in self.counters.items()
            if weight * factor >= floor
        }
        self.counters = decayed

    @property
    def total(self) -> float:
        return sum(self.counters.values())

    def merged_with(self, other: "ClassifiedState") -> "ClassifiedState":
        """Combine two same-ingress classified states (the join rule):
        counters add, ``last_seen`` is the newer, and the range counts as
        classified since the *earlier* classification — a join refines an
        existing decision rather than making a new one."""
        counters = dict(self.counters)
        for ingress, weight in other.counters.items():
            counters[ingress] = counters.get(ingress, 0.0) + weight
        return ClassifiedState(
            ingress=self.ingress,
            counters=counters,
            last_seen=max(self.last_seen, other.last_seen),
            classified_at=min(self.classified_at, other.classified_at),
        )

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
        matched = sum(self.counters.get(member, 0.0) for member in member_ingresses)
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

