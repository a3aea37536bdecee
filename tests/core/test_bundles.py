"""Tests for logical-ingress bundling of same-router interfaces."""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.bundles import (
    bundle_candidates,
    dominant_ingress,
    make_bundle,
    router_peak,
)
from repro.topology.elements import IngressPoint

A0 = IngressPoint("R1", "et0")
A1 = IngressPoint("R1", "et1")
A2 = IngressPoint("R1", "et2")
B0 = IngressPoint("R2", "xe0")


class TestMakeBundle:
    def test_single_interface_stays_plain(self):
        point = make_bundle("R1", ["et0"])
        assert point == A0
        assert not point.is_bundle

    def test_bundle_is_sorted_and_joined(self):
        point = make_bundle("R1", ["et1", "et0"])
        assert point.interface == "et0+et1"
        assert point.is_bundle
        assert point.interfaces() == ("et0", "et1")


class TestBundleCandidates:
    def test_even_split_bundles(self):
        candidates = bundle_candidates({A0: 50.0, A1: 50.0})
        bundle = make_bundle("R1", ["et0", "et1"])
        assert bundle in candidates
        weight, members = candidates[bundle]
        assert weight == 100.0
        assert set(members) == {A0, A1}

    def test_minor_interface_not_bundled(self):
        candidates = bundle_candidates({A0: 95.0, A1: 5.0}, min_share=0.20)
        assert A0 in candidates
        assert A1 in candidates
        assert not any(point.is_bundle for point in candidates)

    def test_three_way_lag(self):
        candidates = bundle_candidates({A0: 34.0, A1: 33.0, A2: 33.0})
        bundle = make_bundle("R1", ["et0", "et1", "et2"])
        assert bundle in candidates

    def test_major_pair_with_minor_tail(self):
        candidates = bundle_candidates({A0: 45.0, A1: 45.0, A2: 10.0})
        bundle = make_bundle("R1", ["et0", "et1"])
        assert bundle in candidates
        assert A2 in candidates
        assert candidates[A2][0] == 10.0

    def test_never_bundles_across_routers(self):
        candidates = bundle_candidates({A0: 50.0, B0: 50.0})
        assert A0 in candidates
        assert B0 in candidates
        assert not any(point.is_bundle for point in candidates)

    def test_zero_weights_ignored(self):
        assert bundle_candidates({}) == {}


class TestDominantIngress:
    def test_empty_returns_none(self):
        assert dominant_ingress({}) is None

    def test_single_ingress_share_one(self):
        found = dominant_ingress({A0: 10.0})
        assert found is not None
        ingress, share, members = found
        assert ingress == A0
        assert share == 1.0
        assert members == (A0,)

    def test_majority_wins(self):
        ingress, share, __ = dominant_ingress({A0: 80.0, B0: 20.0})
        assert ingress == A0
        assert share == pytest.approx(0.8)

    def test_lag_bundle_dominates(self):
        """A 50/50 LAG would never pass q without bundling."""
        found = dominant_ingress({A0: 49.0, A1: 49.0, B0: 2.0})
        ingress, share, members = found
        assert ingress.is_bundle
        assert share == pytest.approx(0.98)
        assert set(members) == {A0, A1}

    def test_bundles_disabled(self):
        ingress, share, __ = dominant_ingress(
            {A0: 49.0, A1: 49.0, B0: 2.0}, enable_bundles=False
        )
        assert not ingress.is_bundle
        assert share == pytest.approx(0.49)

    def test_deterministic_tiebreak(self):
        first = dominant_ingress({A0: 50.0, B0: 50.0})
        second = dominant_ingress({B0: 50.0, A0: 50.0})
        assert first == second


class TestRouterPeak:
    def test_sums_per_router(self):
        assert router_peak({A0: 30.0, A1: 30.0, B0: 50.0}) == 60.0
        assert router_peak({}) == 0.0


@st.composite
def _router_totals(draw):
    """Integer-valued weights over 1-6 routers x 1-4 interfaces."""
    totals = {}
    for router in range(draw(st.integers(1, 6))):
        for interface in range(draw(st.integers(1, 4))):
            weight = draw(st.integers(0, 1 << 40))
            totals[IngressPoint(f"R{router}", f"et{interface}")] = float(weight)
    return totals


@settings(max_examples=300, deadline=None)
@given(
    totals=_router_totals(),
    enable_bundles=st.booleans(),
    q=st.floats(0.5, 1.0, exclude_min=True),
    min_share=st.floats(0.0, 1.0),
)
#: a 50/50 LAG: neither interface reaches q, the bundle (and the router) does
@example(totals={A0: 1.0, A1: 1.0}, enable_bundles=True, q=0.95, min_share=0.2)
def test_property_no_router_reaching_q_means_no_candidate_does(
    totals, enable_bundles, q, min_share
):
    """The engine skips bundling when no router's subtotal reaches ``q``
    of the grand total; that skip must never hide a share >= q."""
    grand_total = sum(totals.values())
    assume(grand_total > 0.0)
    found = dominant_ingress(totals, enable_bundles=enable_bundles, min_share=min_share)
    assert found is not None
    if router_peak(totals) / grand_total < q:
        assert found[1] < q
