"""Router-level load-balancing detection (the §5.8 future-work extension).

The deployed IPD deliberately does not handle traffic that a neighbor
balances across two *routers*: detecting it requires correlating source
and destination addresses, and keeping all (src, dst) pairs globally
would add quadratic state.  The paper sketches the extension — "for
example, by tracking the (source, destination) IP address pairs" — and
leaves it to future work.  This module implements that extension with
the state blow-up contained:

* Only ranges that repeatedly fail classification at ``cidr_max`` are
  *suspects*; everything else never pays for pair tracking.
* For suspects, a bounded per-range table of (masked src, masked dst)
  pairs records which ingress router served each pair.
* A suspect is diagnosed as router-level balanced when (i) its traffic
  splits across exactly a few routers with no dominant one, and (ii)
  the split is *per-flow* rather than *per-destination* — i.e. the same
  (src, dst) pair appears on multiple routers.  A per-destination split
  would instead be resolvable by destination-aware mapping, which the
  diagnosis also reports.

Diagnosed ranges can then be classified to a *router group* — the
multi-router analogue of an interface bundle — so operators at least
see "balanced over R1+R2" instead of a permanently unclassified hole.

The detector sits outside the engine, which stays Algorithm 1: pass
:meth:`LoadBalanceDetector.on_sweep` as a sweep observer (the
``on_sweep`` hook of :class:`~repro.runtime.pipeline.Pipeline`, or call
it after each :meth:`~repro.core.algorithm.IPD.sweep`) and feed it the
flows, destinations included, through :meth:`~LoadBalanceDetector.observe`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..core.iputil import Prefix, mask_ip
from ..netflow.records import FlowRecord
from ..topology.elements import IngressPoint
from .rangetree import UNCLASSIFIED

if TYPE_CHECKING:
    from .algorithm import IPD, SweepReport

__all__ = ["LBVerdict", "LBSuspect", "LoadBalanceDetector"]


@dataclass(frozen=True)
class LBVerdict:
    """Diagnosis of one suspect range."""

    prefix: Prefix
    #: routers involved and their traffic shares
    router_shares: tuple[tuple[str, float], ...]
    #: fraction of (src, dst) pairs observed on more than one router
    pair_overlap: float
    #: True: per-flow balancing over routers (the §5.8 pathology);
    #: False: per-destination split (destination-aware mapping resolves it)
    is_router_balanced: bool

    def router_group(self) -> IngressPoint:
        """A logical multi-router ingress label, e.g. ``R1+R2.balanced``."""
        routers = "+".join(sorted(router for router, __ in self.router_shares))
        return IngressPoint(routers, "balanced")


@dataclass
class LBSuspect:
    """Pair-tracking state for one suspected range."""

    prefix: Prefix
    #: (masked src, masked dst) -> router -> flow count
    pairs: dict[tuple[int, int], Counter] = field(default_factory=dict)
    flows: int = 0

    def add(self, src: int, dst: int, router: str) -> None:
        key = (src, dst)
        by_router = self.pairs.get(key)
        if by_router is None:
            by_router = Counter()
            self.pairs[key] = by_router
        by_router[router] += 1
        self.flows += 1


class LoadBalanceDetector:
    """Sweep observer fed with flows of persistently unclassified ranges.

    After each sweep, :meth:`on_sweep` counts one failure against every
    unclassified leaf sitting at ``cidr_max`` with at least ``n_cidr``
    samples — Algorithm 1 could neither classify nor split it.  A range
    that reaches ``patience`` failures is registered via :meth:`watch`,
    and from then on :meth:`observe` records the (src, dst) pairs of its
    flows.  A count lives as long as its leaf stays an unclassified leaf:
    classification, a prune or a join forgets it.
    """

    def __init__(
        self,
        dst_masklen: int = 24,
        src_masklen: int = 28,
        max_pairs_per_range: int = 4096,
        min_pairs: int = 24,
        min_router_share: float = 0.25,
        overlap_threshold: float = 0.3,
        patience: int = 3,
    ) -> None:
        self.dst_masklen = dst_masklen
        self.src_masklen = src_masklen
        self.max_pairs_per_range = max_pairs_per_range
        self.min_pairs = min_pairs
        self.min_router_share = min_router_share
        self.overlap_threshold = overlap_threshold
        self.patience = patience
        self._suspects: dict[Prefix, LBSuspect] = {}
        #: failures per unclassified cidr_max leaf of the last sweep
        self._failures: dict[Prefix, int] = {}

    # ------------------------------------------------------------------ wiring

    def on_sweep(self, report: "SweepReport", engine: "IPD") -> None:
        """Count this sweep's cidr_max failures; watch the persistent ones.

        Same signature as the pipeline's ``on_sweep`` hook.  A leaf that
        a split created during this sweep has not been through a Stage-2
        decision yet, so it starts at zero and counts from the next sweep.
        """
        params = engine.params
        previous = self._failures
        failures: dict[Prefix, int] = {}
        for version, tree in engine.trees.items():
            cidr_max = params.cidr_max(version)
            n_cidr = params.n_cidr(cidr_max, version)
            rows = ((tree.masklens == cidr_max) & (tree.kinds == UNCLASSIFIED)).nonzero()[0]
            for prefix, total in zip(tree.prefixes(rows), tree.totals[rows].tolist()):
                count = previous.get(prefix)
                if count is None:
                    count = 0
                elif total >= n_cidr:
                    count += 1
                    if count >= self.patience:
                        self.watch(prefix)
                failures[prefix] = count
        self._failures = failures

    def watch(self, prefix: Prefix) -> None:
        """Start tracking pairs for a persistently unclassifiable range."""
        if prefix not in self._suspects:
            self._suspects[prefix] = LBSuspect(prefix)

    def unwatch(self, prefix: Prefix) -> None:
        """Stop tracking a range and forget its pairs."""
        self._suspects.pop(prefix, None)

    def watched(self) -> list[Prefix]:
        """The watched ranges, in the order they were first watched."""
        return list(self._suspects)

    def observe(self, flow: FlowRecord) -> bool:
        """Feed one flow; returns True if it matched a watched range.

        Flows without a destination address are ignored (the §4 privacy
        aggregation strips destinations — running this extension needs
        the richer, pre-anonymization feed, which is why the deployment
        could reasonably choose to live without it).  A range tracks at
        most ``max_pairs_per_range`` pairs; once full it still counts
        the pairs it holds, so its state stays below pairs × routers.
        """
        if flow.dst_ip is None:
            return False
        version = flow.version
        for suspect in self._suspects.values():
            prefix = suspect.prefix
            if prefix.version != version or not prefix.contains_ip(flow.src_ip):
                continue
            src = mask_ip(flow.src_ip, self.src_masklen, version)
            dst = mask_ip(flow.dst_ip, self.dst_masklen, version)
            if (
                len(suspect.pairs) >= self.max_pairs_per_range
                and (src, dst) not in suspect.pairs
            ):
                return True  # bounded state: no new pairs
            suspect.add(src, dst, flow.ingress.router)
            return True
        return False

    # ------------------------------------------------------------------ verdicts

    def diagnose(self, prefix: Prefix) -> Optional[LBVerdict]:
        """Judge one watched range; ``None`` while evidence is thin."""
        suspect = self._suspects.get(prefix)
        if suspect is None or len(suspect.pairs) < self.min_pairs:
            return None

        router_totals: Counter = Counter()
        overlapping = 0
        for by_router in suspect.pairs.values():
            router_totals.update(by_router)
            if len(by_router) > 1:
                overlapping += 1

        total = sum(router_totals.values())
        if total == 0:
            return None
        shares = tuple(
            (router, count / total)
            for router, count in router_totals.most_common()
        )
        major = [share for __, share in shares if share >= self.min_router_share]
        pair_overlap = overlapping / len(suspect.pairs)

        is_balanced = len(major) >= 2 and pair_overlap >= self.overlap_threshold
        return LBVerdict(
            prefix=prefix,
            router_shares=shares,
            pair_overlap=pair_overlap,
            is_router_balanced=is_balanced,
        )

    def diagnose_all(self) -> list[LBVerdict]:
        """Verdicts for every watched range with enough evidence."""
        verdicts = []
        for prefix in self._suspects:
            verdict = self.diagnose(prefix)
            if verdict is not None:
                verdicts.append(verdict)
        return verdicts

    def state_size(self) -> int:
        """Tracked (pair, router) entries — the cost §5.8 worries about.

        At most ``max_pairs_per_range`` × routers per watched range.
        """
        return sum(
            len(by_router)
            for suspect in self._suspects.values()
            for by_router in suspect.pairs.values()
        )
