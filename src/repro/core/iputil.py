"""Integer-based IPv4/IPv6 address and prefix arithmetic.

IPD touches every flow record, so the address math must be cheap.  This
module therefore represents addresses as plain Python ``int`` values and
prefixes as an immutable :class:`Prefix` triple ``(value, masklen, version)``.
Nothing here allocates :mod:`ipaddress` objects on the hot path; the stdlib
module is only a convenience for users who already hold such objects.

The paper treats the address space as a binary tree whose nodes are CIDR
ranges (§3.1); :class:`Prefix` supplies exactly the node-navigation
operations that tree needs (parent, sibling, children, containment).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Union

__all__ = [
    "IPV4",
    "IPV6",
    "IPV4_MAX_MASK",
    "IPV6_MAX_MASK",
    "Prefix",
    "parse_ip",
    "format_ip",
    "mask_ip",
    "parse_prefix",
]

IPV4 = 4
IPV6 = 6

IPV4_MAX_MASK = 32
IPV6_MAX_MASK = 128

_IPV4_MAX = (1 << 32) - 1
_IPV6_MAX = (1 << 128) - 1


def _bits(version: int) -> int:
    """Return the address width in bits for an IP *version* (4 or 6)."""
    if version == IPV4:
        return IPV4_MAX_MASK
    if version == IPV6:
        return IPV6_MAX_MASK
    raise ValueError(f"unknown IP version: {version!r}")


def parse_ip(text: str) -> tuple[int, int]:
    """Parse a textual IP address into ``(value, version)``.

    Supports dotted-quad IPv4 and RFC 4291 IPv6 (including ``::``
    compression and the embedded-IPv4 form used by transition mechanisms).

    >>> parse_ip("10.0.0.1")
    (167772161, 4)
    >>> parse_ip("::1")
    (1, 6)
    """
    if ":" in text:
        return _parse_ipv6(text), IPV6
    return _parse_ipv4(text), IPV4


#: the only octet spellings accepted: canonical ASCII decimals, so no
#: leading zeros, signs, spaces or non-ASCII digits (``int()`` takes all four)
_OCTETS = {str(octet): octet for octet in range(256)}


def _parse_ipv4(text: str) -> int:
    try:
        a, b, c, d = text.split(".")
        return _OCTETS[a] << 24 | _OCTETS[b] << 16 | _OCTETS[c] << 8 | _OCTETS[d]
    except (ValueError, KeyError):
        raise ValueError(f"invalid IPv4 address: {text!r}") from None


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _parse_ipv6(text: str) -> int:
    # Embedded IPv4 tail, e.g. ::ffff:192.0.2.1
    if "." in text:
        head, _, tail = text.rpartition(":")
        v4 = _parse_ipv4(tail)
        text = f"{head}:{(v4 >> 16):x}:{(v4 & 0xFFFF):x}"

    if "::" in text:
        left_text, _, right_text = text.partition("::")
        left = left_text.split(":") if left_text else []
        right = right_text.split(":") if right_text else []
        if len(left) + len(right) > 7 or "::" in right_text:
            raise ValueError(f"invalid IPv6 address: {text!r}")
        groups = left + ["0"] * (8 - len(left) - len(right)) + right
    else:
        groups = text.split(":")
        if len(groups) != 8:
            raise ValueError(f"invalid IPv6 address: {text!r}")

    value = 0
    for group in groups:
        # ASCII hex only: int() would also take "+1", "0x1", "1_0", "١"
        if not 0 < len(group) <= 4 or not _HEX_DIGITS.issuperset(group):
            raise ValueError(f"invalid IPv6 address: {text!r}")
        value = (value << 16) | int(group, 16)
    return value


def format_ip(value: int, version: int) -> str:
    """Render an integer address back to its canonical textual form.

    IPv6 output applies the RFC 5952 longest-run ``::`` compression.

    >>> format_ip(167772161, 4)
    '10.0.0.1'
    >>> format_ip(1, 6)
    '::1'
    """
    if version == IPV4:
        if not 0 <= value <= _IPV4_MAX:
            raise ValueError(f"IPv4 value out of range: {value}")
        return ".".join(
            str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0)
        )
    if version == IPV6:
        if not 0 <= value <= _IPV6_MAX:
            raise ValueError(f"IPv6 value out of range: {value}")
        return _format_ipv6(value)
    raise ValueError(f"unknown IP version: {version!r}")


def _format_ipv6(value: int) -> str:
    groups = [(value >> shift) & 0xFFFF for shift in range(112, -16, -16)]
    # Find the longest run of zero groups (length >= 2) for :: compression.
    best_start, best_len = -1, 1
    run_start, run_len = -1, 0
    for index, group in enumerate(groups):
        if group == 0:
            if run_start < 0:
                run_start, run_len = index, 1
            else:
                run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0
    if best_start < 0:
        return ":".join(f"{group:x}" for group in groups)
    head = ":".join(f"{group:x}" for group in groups[:best_start])
    tail = ":".join(f"{group:x}" for group in groups[best_start + best_len:])
    return f"{head}::{tail}"


def mask_ip(value: int, masklen: int, version: int) -> int:
    """Zero the host bits of *value*, keeping the top *masklen* bits."""
    bits = _bits(version)
    if not 0 <= masklen <= bits:
        raise ValueError(f"mask length {masklen} out of range for IPv{version}")
    shift = bits - masklen
    return (value >> shift) << shift


class Prefix(NamedTuple):
    """An immutable CIDR range: the node identity in the IPD binary tree.

    ``value`` always has its host bits zeroed (enforced by the
    constructors below); two prefixes are equal exactly when they denote
    the same range.
    """

    value: int
    masklen: int
    version: int

    @classmethod
    def from_string(cls, text: str) -> "Prefix":
        """Parse ``"10.0.0.0/8"`` / ``"2001:db8::/32"`` style notation."""
        return parse_prefix(text)

    @classmethod
    def from_ip(cls, value: int, masklen: int, version: int) -> "Prefix":
        """Build a prefix from a (possibly un-masked) address integer."""
        return cls(mask_ip(value, masklen, version), masklen, version)

    @classmethod
    def root(cls, version: int) -> "Prefix":
        """The /0 range covering the whole address space of a family."""
        _bits(version)
        return cls(0, 0, version)

    @property
    def bits(self) -> int:
        """Address width of this prefix's family (32 or 128)."""
        return _bits(self.version)

    @property
    def num_addresses(self) -> int:
        """Number of addresses covered by this range."""
        return 1 << (self.bits - self.masklen)

    @property
    def last_value(self) -> int:
        """The numerically highest address inside this range."""
        return self.value | (self.num_addresses - 1)

    def contains(self, other: Union["Prefix", int]) -> bool:
        """True if *other* (a prefix or a bare address int) lies inside."""
        if isinstance(other, Prefix):
            if other.version != self.version or other.masklen < self.masklen:
                return False
            return mask_ip(other.value, self.masklen, self.version) == self.value
        return self.value <= other <= self.last_value

    def contains_ip(self, value: int) -> bool:
        """Containment test for a bare address integer (fast path)."""
        return self.value <= value <= self.last_value

    def parent(self) -> "Prefix":
        """The enclosing range one bit shorter (undefined for /0)."""
        if self.masklen == 0:
            raise ValueError("/0 has no parent")
        return Prefix.from_ip(self.value, self.masklen - 1, self.version)

    def sibling(self) -> "Prefix":
        """The other half of this range's parent."""
        if self.masklen == 0:
            raise ValueError("/0 has no sibling")
        flip = 1 << (self.bits - self.masklen)
        return Prefix(self.value ^ flip, self.masklen, self.version)

    def children(self) -> tuple["Prefix", "Prefix"]:
        """Split into the two equal halves one bit longer."""
        if self.masklen >= self.bits:
            raise ValueError(f"cannot split a /{self.masklen} host route")
        child_len = self.masklen + 1
        high_bit = 1 << (self.bits - child_len)
        return (
            Prefix(self.value, child_len, self.version),
            Prefix(self.value | high_bit, child_len, self.version),
        )

    def child_for(self, ip_value: int) -> "Prefix":
        """The child half that contains *ip_value*."""
        left, right = self.children()
        if right.value <= ip_value:
            return right
        return left

    def is_left_child(self) -> bool:
        """True if this prefix is the lower half of its parent."""
        if self.masklen == 0:
            raise ValueError("/0 is not a child")
        return not self.value & (1 << (self.bits - self.masklen))

    def supernets(self) -> Iterator["Prefix"]:
        """Yield enclosing prefixes from the parent up to /0."""
        node = self
        while node.masklen > 0:
            node = node.parent()
            yield node

    def __str__(self) -> str:
        return f"{format_ip(self.value, self.version)}/{self.masklen}"


def parse_prefix(text: str) -> Prefix:
    """Parse CIDR notation; host bits are rejected, not silently dropped.

    >>> parse_prefix("192.0.2.0/24")
    Prefix(value=3221225984, masklen=24, version=4)
    """
    address_text, slash, mask_text = text.partition("/")
    if not slash:
        raise ValueError(f"missing /masklen in prefix: {text!r}")
    value, version = parse_ip(address_text)
    if not mask_text.isdigit():
        raise ValueError(f"invalid mask length in prefix: {text!r}")
    masklen = int(mask_text)
    masked = mask_ip(value, masklen, version)
    if masked != value:
        raise ValueError(f"host bits set in prefix: {text!r}")
    return Prefix(masked, masklen, version)
