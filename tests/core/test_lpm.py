"""Tests for the longest-prefix-match table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.iputil import IPV4, IPV6, Prefix, parse_ip
from repro.core.lpm import LPMTable, build_lpm_from_records
from repro.core.output import IPDRecord
from repro.topology.elements import IngressPoint

A = IngressPoint("R1", "et0")
B = IngressPoint("R2", "xe0")


def ip(text: str) -> int:
    return parse_ip(text)[0]


class TestBasics:
    def test_empty_lookup_none(self):
        table = LPMTable(IPV4)
        assert table.lookup(ip("10.0.0.1")) is None
        assert len(table) == 0

    def test_invalid_version_rejected(self):
        with pytest.raises(ValueError):
            LPMTable(5)

    def test_family_mismatch_rejected(self):
        table = LPMTable(IPV4)
        with pytest.raises(ValueError):
            table.insert(Prefix.from_string("2001:db8::/32"), "x")

    def test_insert_and_exact_lookup(self):
        table = LPMTable(IPV4)
        prefix = Prefix.from_string("10.0.0.0/8")
        table.insert(prefix, "ten")
        assert table.lookup_prefix(prefix) == "ten"
        assert prefix in table
        assert len(table) == 1

    def test_replace_keeps_size(self):
        table = LPMTable(IPV4)
        prefix = Prefix.from_string("10.0.0.0/8")
        table.insert(prefix, "first")
        table.insert(prefix, "second")
        assert len(table) == 1
        assert table.lookup_prefix(prefix) == "second"


class TestLongestMatch:
    def build(self) -> LPMTable:
        table = LPMTable(IPV4)
        table.insert(Prefix.from_string("10.0.0.0/8"), "coarse")
        table.insert(Prefix.from_string("10.1.0.0/16"), "mid")
        table.insert(Prefix.from_string("10.1.2.0/24"), "fine")
        return table

    def test_most_specific_wins(self):
        table = self.build()
        assert table.lookup(ip("10.1.2.3")) == "fine"
        assert table.lookup(ip("10.1.9.9")) == "mid"
        assert table.lookup(ip("10.200.0.1")) == "coarse"

    def test_outside_returns_none(self):
        assert self.build().lookup(ip("11.0.0.1")) is None

    def test_lookup_with_prefix(self):
        table = self.build()
        found = table.lookup_with_prefix(ip("10.1.2.3"))
        assert found == (Prefix.from_string("10.1.2.0/24"), "fine")

    def test_default_route(self):
        table = self.build()
        table.insert(Prefix.root(IPV4), "default")
        assert table.lookup(ip("99.0.0.1")) == "default"
        assert table.lookup(ip("10.1.2.3")) == "fine"

    def test_host_route(self):
        table = LPMTable(IPV4)
        table.insert(Prefix.from_string("10.0.0.5/32"), "host")
        assert table.lookup(ip("10.0.0.5")) == "host"
        assert table.lookup(ip("10.0.0.6")) is None

    def test_items_returns_all_entries(self):
        table = self.build()
        entries = dict(table.items())
        assert len(entries) == 3
        assert entries[Prefix.from_string("10.1.0.0/16")] == "mid"

    def test_ipv6(self):
        table = LPMTable(IPV6)
        table.insert(Prefix.from_string("2001:db8::/32"), "doc")
        assert table.lookup(ip("2001:db8::1")) == "doc"
        assert table.lookup(ip("2001:db9::1")) is None


class TestBuildFromRecords:
    def record(self, range_text: str, ingress: IngressPoint, classified=True):
        prefix = Prefix.from_string(range_text)
        return IPDRecord(
            timestamp=0.0, range=prefix, ingress=ingress, s_ingress=1.0,
            s_ipcount=100.0, n_cidr=10.0, candidates=((ingress, 100.0),),
            classified=classified,
        )

    def test_builds_lookup(self):
        records = [
            self.record("10.0.0.0/16", A),
            self.record("10.1.0.0/16", B),
        ]
        table = build_lpm_from_records(records)
        assert table.lookup(ip("10.0.5.5")) == A
        assert table.lookup(ip("10.1.5.5")) == B

    def test_skips_unclassified_by_default(self):
        records = [self.record("10.0.0.0/16", A, classified=False)]
        assert len(build_lpm_from_records(records)) == 0

    def test_skips_other_family(self):
        record = IPDRecord(
            timestamp=0.0, range=Prefix.from_string("2001:db8::/48"),
            ingress=A, s_ingress=1.0, s_ipcount=10.0, n_cidr=1.0,
            candidates=((A, 10.0),),
        )
        assert len(build_lpm_from_records([record], version=IPV4)) == 0


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            st.integers(min_value=1, max_value=28),
        ),
        st.integers(),
        min_size=1,
        max_size=40,
    ),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
)
def test_property_matches_linear_scan(raw_entries, probe):
    """LPM result always equals the brute-force longest covering entry."""
    table = LPMTable(IPV4)
    entries = {}
    for (value, masklen), payload in raw_entries.items():
        prefix = Prefix.from_ip(value, masklen, IPV4)
        entries[prefix] = payload
        table.insert(prefix, payload)
    covering = [p for p in entries if p.contains_ip(probe)]
    if not covering:
        assert table.lookup(probe) is None
    else:
        best = max(covering, key=lambda p: p.masklen)
        assert table.lookup(probe) == entries[best]
