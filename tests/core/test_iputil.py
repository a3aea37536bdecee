"""Tests for integer IP/prefix arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.iputil import (
    IPV4,
    IPV6,
    Prefix,
    format_ip,
    mask_ip,
    parse_ip,
    parse_prefix,
)


class TestParseIPv4:
    def test_basic(self):
        assert parse_ip("10.0.0.1") == ((10 << 24) | 1, IPV4)

    def test_zero(self):
        assert parse_ip("0.0.0.0") == (0, IPV4)

    def test_max(self):
        assert parse_ip("255.255.255.255") == ((1 << 32) - 1, IPV4)

    @pytest.mark.parametrize(
        "bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "01.2.3.4", "a.b.c.d", ""]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_ip(bad)

    @pytest.mark.parametrize(
        "bad", ["١.٢.٣.٤", "1.2.3.４", "+1.2.3.4", " 1.2.3.4", "1_0.2.3.4", "::ffff:1.2.3.４"]
    )
    def test_rejects_octets_int_would_accept(self, bad):
        """``int()``/``isdigit()`` take any Unicode digit, signs, spaces and
        underscores; an address on the CSV edge or the lookup socket may not."""
        with pytest.raises(ValueError, match="invalid IPv4 address"):
            parse_ip(bad)

    def test_every_canonical_octet_parses_in_every_position(self):
        for octet in range(256):
            for position in range(4):
                parts = ["7"] * 4
                parts[position] = str(octet)
                expected = 0x07070707 & ~(0xFF << (24 - 8 * position))
                expected |= octet << (24 - 8 * position)
                assert parse_ip(".".join(parts)) == (expected, IPV4)


class TestParseIPv6:
    def test_loopback(self):
        assert parse_ip("::1") == (1, IPV6)

    def test_all_zero(self):
        assert parse_ip("::") == (0, IPV6)

    def test_full_form(self):
        value, version = parse_ip("2001:0db8:0000:0000:0000:0000:0000:0001")
        assert version == IPV6
        assert value == (0x20010DB8 << 96) | 1

    def test_compressed_middle(self):
        value, __ = parse_ip("2001:db8::5")
        assert value == (0x20010DB8 << 96) | 5

    def test_embedded_ipv4(self):
        value, version = parse_ip("::ffff:192.0.2.1")
        assert version == IPV6
        assert value == (0xFFFF << 32) | (192 << 24) | (2 << 8) | 1

    @pytest.mark.parametrize(
        "bad", ["1::2::3", ":::", "2001:db8:1:2:3:4:5:6:7", "g::1", "12345::"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_ip(bad)

    @pytest.mark.parametrize("bad", ["::١", "::0x1", "::+1", "::1_0", ":: 1", "::-1"])
    def test_rejects_groups_int_would_accept(self, bad):
        with pytest.raises(ValueError, match="invalid IPv6 address"):
            parse_ip(bad)

    def test_hex_groups_of_either_case(self):
        assert parse_ip("FE80::abCD") == ((0xFE80 << 112) | 0xABCD, IPV6)


class TestFormatIP:
    def test_ipv4(self):
        assert format_ip((192 << 24) | (168 << 16) | 5, IPV4) == "192.168.0.5"

    def test_ipv6_compression(self):
        assert format_ip(1, IPV6) == "::1"

    def test_ipv6_no_compression_needed(self):
        text = format_ip(int("1" * 32, 16), IPV6)
        assert "::" not in text

    def test_ipv6_longest_run_compressed(self):
        # 2001:0:0:1:0:0:0:1 — the second (longer) zero run compresses
        value = (0x2001 << 112) | (1 << 64) | 1
        assert format_ip(value, IPV6) == "2001:0:0:1::1"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            format_ip(1 << 32, IPV4)
        with pytest.raises(ValueError):
            format_ip(-1, IPV4)

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            format_ip(0, 5)

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_roundtrip_v4(self, value):
        assert parse_ip(format_ip(value, IPV4)) == (value, IPV4)

    @given(st.integers(min_value=0, max_value=(1 << 128) - 1))
    def test_roundtrip_v6(self, value):
        assert parse_ip(format_ip(value, IPV6)) == (value, IPV6)


class TestMaskIP:
    def test_masking_clears_host_bits(self):
        value, __ = parse_ip("10.1.2.3")
        assert format_ip(mask_ip(value, 24, IPV4), IPV4) == "10.1.2.0"

    def test_mask_zero_is_zero(self):
        assert mask_ip((1 << 32) - 1, 0, IPV4) == 0

    def test_full_mask_identity(self):
        assert mask_ip(12345, 32, IPV4) == 12345

    def test_invalid_masklen(self):
        with pytest.raises(ValueError):
            mask_ip(0, 33, IPV4)
        with pytest.raises(ValueError):
            mask_ip(0, -1, IPV4)

    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=32),
    )
    def test_masking_is_idempotent(self, value, masklen):
        once = mask_ip(value, masklen, IPV4)
        assert mask_ip(once, masklen, IPV4) == once


class TestPrefix:
    def test_from_string(self):
        prefix = Prefix.from_string("192.0.2.0/24")
        assert prefix.masklen == 24
        assert prefix.version == IPV4
        assert str(prefix) == "192.0.2.0/24"

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            parse_prefix("192.0.2.1/24")

    def test_missing_mask_rejected(self):
        with pytest.raises(ValueError):
            parse_prefix("192.0.2.0")

    def test_bad_mask_rejected(self):
        with pytest.raises(ValueError):
            parse_prefix("192.0.2.0/x")

    def test_from_ip_masks(self):
        value, __ = parse_ip("10.1.2.3")
        assert str(Prefix.from_ip(value, 16, IPV4)) == "10.1.0.0/16"

    def test_root(self):
        root = Prefix.root(IPV4)
        assert root.masklen == 0
        assert root.num_addresses == 1 << 32

    def test_num_addresses(self):
        assert Prefix.from_string("10.0.0.0/24").num_addresses == 256

    def test_contains_ip(self):
        prefix = Prefix.from_string("10.0.0.0/8")
        inside, __ = parse_ip("10.200.1.1")
        outside, __ = parse_ip("11.0.0.0")
        assert prefix.contains_ip(inside)
        assert not prefix.contains_ip(outside)

    def test_contains_prefix(self):
        big = Prefix.from_string("10.0.0.0/8")
        small = Prefix.from_string("10.5.0.0/16")
        assert big.contains(small)
        assert not small.contains(big)

    def test_contains_rejects_other_family(self):
        v4 = Prefix.from_string("10.0.0.0/8")
        v6 = Prefix.from_string("2001:db8::/32")
        assert not v4.contains(v6)

    def test_children_partition_parent(self):
        parent = Prefix.from_string("10.0.0.0/8")
        left, right = parent.children()
        assert str(left) == "10.0.0.0/9"
        assert str(right) == "10.128.0.0/9"
        assert left.num_addresses + right.num_addresses == parent.num_addresses

    def test_child_for(self):
        parent = Prefix.from_string("0.0.0.0/0")
        high, __ = parse_ip("200.0.0.1")
        low, __ = parse_ip("10.0.0.1")
        assert parent.child_for(high).value != parent.child_for(low).value

    def test_parent_of_children(self):
        parent = Prefix.from_string("172.16.0.0/12")
        left, right = parent.children()
        assert left.parent() == parent
        assert right.parent() == parent

    def test_sibling_symmetry(self):
        prefix = Prefix.from_string("10.0.0.0/9")
        assert prefix.sibling().sibling() == prefix
        assert prefix.sibling() == Prefix.from_string("10.128.0.0/9")

    def test_is_left_child(self):
        parent = Prefix.from_string("10.0.0.0/8")
        left, right = parent.children()
        assert left.is_left_child()
        assert not right.is_left_child()

    def test_root_has_no_parent_or_sibling(self):
        root = Prefix.root(IPV4)
        with pytest.raises(ValueError):
            root.parent()
        with pytest.raises(ValueError):
            root.sibling()

    def test_host_route_cannot_split(self):
        host = Prefix.from_string("10.0.0.1/32")
        with pytest.raises(ValueError):
            host.children()

    def test_supernets_chain_to_root(self):
        prefix = Prefix.from_string("10.0.0.0/8")
        chain = list(prefix.supernets())
        assert len(chain) == 8
        assert chain[-1] == Prefix.root(IPV4)

    def test_ipv6_prefix(self):
        prefix = Prefix.from_string("2001:db8::/32")
        assert prefix.version == IPV6
        assert prefix.bits == 128
        left, right = prefix.children()
        assert left.masklen == 33

    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=1, max_value=32),
    )
    def test_child_for_contains(self, value, masklen):
        """The selected child always contains the address (property)."""
        prefix = Prefix.from_ip(value, masklen - 1, IPV4)
        child = prefix.child_for(value)
        assert child.contains_ip(value)
        assert child.parent() == prefix

    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=1, max_value=32),
    )
    def test_sibling_disjoint(self, value, masklen):
        prefix = Prefix.from_ip(value, masklen, IPV4)
        sibling = prefix.sibling()
        assert not prefix.contains(sibling)
        assert prefix.parent() == sibling.parent()
