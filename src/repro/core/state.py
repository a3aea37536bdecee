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

Both kinds of state expose constant-time bookkeeping used by the
incremental sweep machinery:

* ``entry_count()`` — the number of (source, ingress) counter cells,
  maintained on every mutation so the engine's ``state_size()`` costs
  O(leaves) instead of O(entries).
* ``oldest_seen`` (unclassified only) — a lower bound on the oldest
  ``last_seen`` timestamp in the range, used to schedule expiry visits:
  a range cannot contain anything expirable before ``oldest_seen``
  crosses the expiry cutoff.  ``expire`` re-tightens the bound exactly.
* ``total`` (unclassified only) — kept by addition on ingest and by
  subtraction on expiry, never re-summed.  Weights are integer-valued
  floats below 2^53, so both are exact.  A classified range re-sums its
  few counters instead (``total`` is a property): decay scales them by a
  non-integer factor, where a running sum would drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..topology.elements import IngressPoint

__all__ = ["UnclassifiedState", "ClassifiedState", "DelegatedState"]

_INF = float("inf")


@dataclass
class UnclassifiedState:
    """Observation state for a range without a prevalent ingress yet."""

    #: masked source IP -> ingress -> sample weight
    per_ip: dict[int, dict[IngressPoint, float]] = field(default_factory=dict)
    #: masked source IP -> timestamp of its newest sample
    last_seen: dict[int, float] = field(default_factory=dict)
    #: running total of all weights in :attr:`per_ip`, kept by addition
    #: (:meth:`add_batch`) and subtraction (:meth:`expire`).  Exact, never
    #: drifting: every weight is an integer-valued float (a flow or byte
    #: count), so while sums stay below 2^53 each step is exact in any order
    total: float = 0.0
    #: number of (source, ingress) counter cells in :attr:`per_ip`
    entries: int = 0
    #: lower bound on ``min(last_seen.values())`` (``inf`` when empty);
    #: used by the expiry scheduler, re-tightened exactly by ``expire``
    oldest_seen: float = _INF
    #: bound at which this range was last pushed onto the expiry heap
    #: (scheduler-private; ``inf`` means "not currently scheduled")
    heap_bound: float = field(default=_INF, repr=False, compare=False)

    def add_batch(
        self,
        masked_ip: int,
        by_ingress: dict[IngressPoint, float],
        newest: float,
        oldest: float,
    ) -> None:
        """Fold a pre-aggregated group of samples for one masked source.

        *by_ingress* carries the summed weight per ingress for the group
        (ownership is taken when the source is new — callers must pass a
        fresh dict); *newest*/*oldest* are the extreme timestamps of the
        group.  Equivalent to recording the samples one by one whenever
        the weights are exactly representable (flow counts and byte
        counts are integers, so in practice always).
        """
        existing = self.per_ip.get(masked_ip)
        if existing is None:
            self.per_ip[masked_ip] = by_ingress
            self.last_seen[masked_ip] = newest
            self.entries += len(by_ingress)
            self.total += sum(by_ingress.values())
        else:
            get = existing.get
            entries = 0
            total = 0.0
            for ingress, weight in by_ingress.items():
                previous_weight = get(ingress)
                if previous_weight is None:
                    existing[ingress] = weight
                    entries += 1
                else:
                    existing[ingress] = previous_weight + weight
                total += weight
            self.entries += entries
            self.total += total
            if newest > self.last_seen[masked_ip]:
                self.last_seen[masked_ip] = newest
        if oldest < self.oldest_seen:
            self.oldest_seen = oldest

    def expire(self, cutoff: float) -> int:
        """Drop all sources last seen strictly before *cutoff*.

        Returns the number of masked IPs removed.  ``total`` and
        ``entries`` lose exactly the removed sources' weights and cells
        (no re-sum of the survivors: integer weights subtract exactly);
        ``oldest_seen`` is re-tightened to the true minimum.
        """
        last_seen = self.last_seen
        stale = [ip for ip, seen in last_seen.items() if seen < cutoff]
        if not stale:
            return 0
        per_ip = self.per_ip
        total = self.total
        entries = self.entries
        for ip in stale:
            removed = per_ip.pop(ip)
            entries -= len(removed)
            total -= sum(removed.values())
            del last_seen[ip]
        if per_ip:
            self.total = total
            self.entries = entries
            self.oldest_seen = min(last_seen.values())
        else:
            self.total = 0.0
            self.entries = 0
            self.oldest_seen = _INF
        return len(stale)

    def ingress_totals(self) -> dict[IngressPoint, float]:
        """Aggregate weights per ingress across all sources."""
        totals: dict[IngressPoint, float] = {}
        for by_ingress in self.per_ip.values():
            for ingress, weight in by_ingress.items():
                totals[ingress] = totals.get(ingress, 0.0) + weight
        return totals

    def entry_count(self) -> int:
        """Number of (source, ingress) counter cells — O(1)."""
        return self.entries

    @property
    def sample_count(self) -> float:
        """The paper's ``s_ipcount`` for this range."""
        return self.total

    @property
    def newest_timestamp(self) -> float:
        return max(self.last_seen.values(), default=float("-inf"))

    def is_empty(self) -> bool:
        return not self.per_ip


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

    def add_batch(
        self, by_ingress: Mapping[IngressPoint, float], newest: float
    ) -> None:
        """Fold pre-aggregated per-ingress weight sums into the counters."""
        counters = self.counters
        get = counters.get
        for ingress, weight in by_ingress.items():
            previous_weight = get(ingress)
            if previous_weight is None:
                counters[ingress] = weight
            else:
                counters[ingress] = previous_weight + weight
        if newest > self.last_seen:
            self.last_seen = newest

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
