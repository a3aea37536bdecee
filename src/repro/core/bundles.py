"""Bundling of same-router interfaces into logical ingresses.

The paper (§3.2): "Special handling is needed for evenly distributed
traffic across multiple router interfaces, where they are bundled as a
single logical ingress (called *bundles*)."  LAGs and ECMP across
parallel interfaces of one router would otherwise keep every such range
below the dominance threshold ``q`` forever.

Bundling only ever groups interfaces of the *same* router — balancing
across different routers is deliberately out of scope (§5.8).
"""

from __future__ import annotations

from typing import Mapping

from ..topology.elements import IngressPoint

__all__ = ["bundle_candidates", "make_bundle", "dominant_ingress", "router_peak"]


def make_bundle(router: str, interface_names: list[str]) -> IngressPoint:
    """Build the canonical logical ingress for a set of interfaces."""
    if len(interface_names) == 1:
        return IngressPoint(router, interface_names[0])
    return IngressPoint(router, "+".join(sorted(interface_names)))


def bundle_candidates(
    totals: Mapping[IngressPoint, float],
    min_share: float = 0.20,
) -> dict[IngressPoint, tuple[float, tuple[IngressPoint, ...]]]:
    """Group raw per-interface counters into logical ingress candidates.

    Per router, interfaces that each carry at least *min_share* of the
    router's subtotal are considered an even split and merged into one
    bundle; minor interfaces (below the share) stay separate candidates.

    Returns a mapping from logical ingress to ``(weight, members)`` where
    *members* are the raw single-interface ingresses it aggregates.
    """
    by_router: dict[str, list[tuple[IngressPoint, float]]] = {}
    for ingress, weight in totals.items():
        by_router.setdefault(ingress.router, []).append((ingress, weight))

    candidates: dict[IngressPoint, tuple[float, tuple[IngressPoint, ...]]] = {}
    for router, members in by_router.items():
        subtotal = sum(weight for __, weight in members)
        if subtotal <= 0.0:
            continue
        major = [
            (ingress, weight)
            for ingress, weight in members
            if weight / subtotal >= min_share
        ]
        minor = [
            (ingress, weight)
            for ingress, weight in members
            if weight / subtotal < min_share
        ]
        if len(major) >= 2:
            bundle = make_bundle(router, [ingress.interface for ingress, __ in major])
            weight = sum(weight for __, weight in major)
            candidates[bundle] = (weight, tuple(ingress for ingress, __ in major))
        else:
            minor = members
            major = []
        for ingress, weight in minor:
            candidates[ingress] = (weight, (ingress,))
    return candidates


def router_peak(totals: Mapping[IngressPoint, float]) -> float:
    """The largest per-router subtotal of *totals* (0.0 when empty).

    An upper bound on the weight of any candidate :func:`dominant_ingress`
    can pick, bundles on or off: a candidate is one interface or a bundle
    of one router's interfaces, never more than its router's subtotal.
    With integer-valued weights every sum is exact, so
    ``router_peak(totals) / grand_total < q`` proves that no share
    reaches ``q`` without building a single candidate.
    """
    by_router: dict[str, float] = {}
    for ingress, weight in totals.items():
        router = ingress.router
        by_router[router] = by_router.get(router, 0.0) + weight
    return max(by_router.values(), default=0.0)


def dominant_ingress(
    totals: Mapping[IngressPoint, float],
    enable_bundles: bool = True,
    min_share: float = 0.20,
) -> tuple[IngressPoint, float, tuple[IngressPoint, ...]] | None:
    """Pick the logical ingress with the highest weight.

    Returns ``(logical_ingress, share, members)`` where *share* is the
    paper's ``s_ingress`` (weight of the winner over all samples), or
    ``None`` when there are no samples.
    """
    if not totals:
        return None
    if enable_bundles:
        candidates = bundle_candidates(totals, min_share)
    else:
        candidates = {
            ingress: (weight, (ingress,)) for ingress, weight in totals.items()
        }
    grand_total = sum(totals.values())
    if grand_total <= 0.0:
        return None
    winner, (weight, members) = max(
        candidates.items(), key=lambda item: (item[1][0], item[0])
    )
    return winner, weight / grand_total, members
