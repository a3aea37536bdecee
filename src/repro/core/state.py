"""Per-range state kept by the IPD algorithm.

A range is either *unclassified* — still being observed — or
*classified* — assigned a prevalent ingress point.  The paper (§3.2)
prescribes asymmetric state for the two:

* Unclassified ranges must remember, per masked source IP, which ingress
  each sample arrived on and when: this is what lets a split redistribute
  its samples to the two child ranges without data loss, and what lets
  expiry remove exactly the stale sources.
* Classified ranges keep only aggregate per-ingress counters, the total
  sample count and the last-seen timestamp ("all state is removed for
  efficiency reasons").

Counters are floats because the decay function scales them down
multiplicatively while a classified range is idle.

Bookkeeping for the incremental sweeps: ``entry_count()`` is the length
of a state's cell map; ``oldest_seen`` (unclassified) bounds the oldest
``last_seen`` from below, so a range is visited for expiry only once it
crosses the cutoff; ``total`` (unclassified) is kept by addition and
subtraction, exact for integer-valued weights below 2^53.  A classified
range re-sums its few counters (``total`` is a property): decay scales
them by a non-integer factor, where a running sum would drift.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import repeat
from operator import lshift, or_
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..topology.elements import IngressPoint

__all__ = ["UnclassifiedState", "ClassifiedState", "DelegatedState", "cell_key", "cell_keys"]

_INF = float("inf")

#: a cell key packs (masked source, ingress) as ``source << CELL_SHIFT |
#: code``, the code from one process-wide intern table (codes never leave
#: the process: the codec writes ingress points)
CELL_SHIFT = 32
_CODE_MASK = (1 << CELL_SHIFT) - 1
_CODES: dict[IngressPoint, int] = {}
_POINTS: list[IngressPoint] = []
_INTERN = threading.Lock()


def ingress_code(ingress: IngressPoint) -> int:
    """The intern code a cell key packs for *ingress*."""
    with _INTERN:
        code = _CODES.setdefault(ingress, len(_POINTS))
        if code == len(_POINTS):
            _POINTS.append(ingress)
    return code


def cell_key(masked_ip: int, ingress: IngressPoint) -> int:
    """The :attr:`UnclassifiedState.cells` key of one (source, ingress)."""
    return masked_ip << CELL_SHIFT | ingress_code(ingress)


def cell_keys(
    sources: "np.ndarray | list[int]", table: Sequence[IngressPoint], ids: np.ndarray
) -> list[int]:
    """:func:`cell_key` down parallel columns: each row's source (uint64
    below 2^32 packs in one array op; else Python ints) and ingress id."""
    codes = np.array(list(map(ingress_code, table)), dtype=np.uint64)[ids]
    if isinstance(sources, np.ndarray):
        return (sources << np.uint64(CELL_SHIFT) | codes).tolist()
    return list(map(or_, map(lshift, sources, repeat(CELL_SHIFT)), codes.tolist()))


@dataclass
class UnclassifiedState:
    """Observation state for a range without a prevalent ingress yet:
    one flat map of (source, ingress) cells and one of per-source newest
    timestamps, both in first-seen order — no dict per source."""

    #: :func:`cell_key` (masked source IP, ingress) -> sample weight
    cells: dict[int, float] = field(default_factory=dict)
    #: masked source IP -> timestamp of its newest sample
    last_seen: dict[int, float] = field(default_factory=dict)
    #: running total of all weights in :attr:`cells`, kept by addition
    #: (ingest) and subtraction (:meth:`expire`).  Exact, never drifting:
    #: every weight is an integer-valued float (a flow or byte count), so
    #: while sums stay below 2^53 each step is exact in any order
    total: float = 0.0
    #: lower bound on ``min(last_seen.values())`` (``inf`` when empty);
    #: used by the expiry scheduler, re-tightened exactly by ``expire``
    oldest_seen: float = _INF
    #: bound at which this range was last pushed onto the expiry heap
    #: (scheduler-private; ``inf`` means "not currently scheduled")
    heap_bound: float = field(default=_INF, repr=False, compare=False)

    def add_batch(
        self,
        masked_ip: int,
        by_ingress: Mapping[IngressPoint, float],
        newest: float,
        oldest: float,
    ) -> None:
        """Fold one masked source's samples: the summed weight per ingress
        and the group's newest / oldest timestamps (the one-source form of
        the engine's batch fold; exact for integer-valued weights)."""
        for ingress, weight in by_ingress.items():
            key = cell_key(masked_ip, ingress)
            self.cells[key] = self.cells.get(key, 0.0) + weight
            self.total += weight
        self.last_seen[masked_ip] = max(self.last_seen.get(masked_ip, -_INF), newest)
        self.oldest_seen = min(self.oldest_seen, oldest)

    def expire(self, cutoff: float) -> int:
        """Drop all sources last seen strictly before *cutoff*; returns how
        many.  ``total`` loses exactly the removed cells' weights (integer
        weights subtract exactly) and ``oldest_seen`` is re-tightened."""
        last_seen = self.last_seen
        stale = [ip for ip, seen in last_seen.items() if seen < cutoff]
        if not stale:
            return 0
        if len(stale) == len(last_seen):
            self.cells.clear()
            last_seen.clear()
            self.total, self.oldest_seen = 0.0, _INF
            return len(stale)
        gone = set(stale)
        for key in [key for key in self.cells if key >> CELL_SHIFT in gone]:
            self.total -= self.cells.pop(key)
        for ip in stale:
            del last_seen[ip]
        self.oldest_seen = min(last_seen.values())
        return len(stale)

    def split_at(
        self, boundary: int
    ) -> "tuple[UnclassifiedState, UnclassifiedState]":
        """The states of the sources below and from *boundary* on: one
        pass over each map, order kept, each side summed once."""
        bound = boundary << CELL_SHIFT
        cells: tuple[dict[int, float], dict[int, float]] = ({}, {})
        seen: tuple[dict[int, float], dict[int, float]] = ({}, {})
        for key, weight in self.cells.items():
            cells[key >= bound][key] = weight
        for ip, stamp in self.last_seen.items():
            seen[ip >= boundary][ip] = stamp
        left, right = (
            UnclassifiedState(side, stamps, sum(side.values()), min(stamps.values(), default=_INF))
            for side, stamps in zip(cells, seen)
        )
        return left, right

    def ingress_totals(self) -> dict[IngressPoint, float]:
        """Aggregate weights per ingress across all sources, one flat pass.

        Keys come in cell order: every sum is exact (integer-valued
        weights), and classification keeps :meth:`sources` order instead.
        """
        by_code: dict[int, float] = {}
        get = by_code.get
        for key, weight in self.cells.items():
            code = key & _CODE_MASK
            by_code[code] = get(code, 0.0) + weight
        return {_POINTS[code]: weight for code, weight in by_code.items()}

    def sources(self) -> list[tuple[int, float, list[tuple[IngressPoint, float]]]]:
        """``(masked_ip, last_seen, [(ingress, weight), ...])`` per source,
        sources and each one's cells in first-seen order: the nested layout
        the ``IPDS`` node stream encodes and classification keeps."""
        grouped: dict[int, list[tuple[IngressPoint, float]]] = {
            ip: [] for ip in self.last_seen
        }
        for key, weight in self.cells.items():
            grouped[key >> CELL_SHIFT].append((_POINTS[key & _CODE_MASK], weight))
        return [(ip, self.last_seen[ip], cells) for ip, cells in grouped.items()]

    def entry_count(self) -> int:
        """Number of (source, ingress) counter cells — O(1)."""
        return len(self.cells)

    @property
    def sample_count(self) -> float:
        """The paper's ``s_ipcount`` for this range."""
        return self.total

    @property
    def newest_timestamp(self) -> float:
        return max(self.last_seen.values(), default=float("-inf"))

    def is_empty(self) -> bool:
        return not self.last_seen


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

    def entry_count(self) -> int:
        """Number of per-ingress counter cells — O(1)."""
        return len(self.counters)

    @property
    def total(self) -> float:
        return sum(self.counters.values())

    @property
    def sample_count(self) -> float:
        """The paper's ``s_ipcount`` for this range."""
        return self.total

    def merged_with(self, other: "ClassifiedState") -> "ClassifiedState":
        """Combine two same-ingress classified states (the join rule).

        Counters add, ``last_seen`` is the newer of the two, and the
        merged range counts as classified since the *earlier* of the two
        classifications — joining refines an existing decision rather
        than making a new one.
        """
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
        """Share of samples that entered via the given logical ingress.

        For a bundle, *member_ingresses* enumerates the bundled raw
        interfaces; for a plain ingress it is a single-element iterable.
        This is the paper's ``s_ingress``.  *total* is :attr:`total`,
        passed by a caller that has just summed it.
        """
        if total is None:
            total = self.total
        if total <= 0.0:
            return 0.0
        matched = sum(self.counters.get(member, 0.0) for member in member_ingresses)
        return matched / total


@dataclass
class DelegatedState:
    """Marker for a range whose state lives in *another* engine.

    The sharded runtime (:mod:`repro.runtime`) splits the trie at a
    fixed depth ``k``: the aggregator trie owns every range coarser than
    ``/k`` and plants a ``DelegatedState`` at each depth-``k`` leaf it
    has handed to a shard engine; conversely each shard engine's
    ``/k``-rooted trie carries a ``DelegatedState`` at its root while
    the range is still owned by the aggregator.  A delegated leaf is
    inert: it holds no samples, is never visited by sweeps, contributes
    nothing to snapshots or ``state_size()``, and is excluded from
    ``leaf_count()`` so the visible leaves of aggregator + shards
    partition the address space exactly like a single engine's trie.
    """

    def entry_count(self) -> int:
        return 0

    def is_empty(self) -> bool:
        return True

    @property
    def sample_count(self) -> float:
        return 0.0
