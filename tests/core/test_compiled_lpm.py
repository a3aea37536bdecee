"""CompiledLPM: parity with LPMTable and a brute-force oracle.

The compiled structure is the serving plane's unit of deployment, so
this suite pins the property it must never lose: ``CompiledLPM.lookup``
agrees with ``LPMTable.lookup`` and with a brute-force scan on every
address, both families, for the leaves of a random binary trie (the
shape of IPD output: disjoint ranges, adjacent siblings, many lengths),
including probes at every range edge.  A compiled table holds one
snapshot's disjoint ranges: an arbitrary prefix set either has no
overlap and answers like the trie, or is refused with a ``ValueError``
naming two prefixes that overlap.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.iputil import IPV4, IPV6, Prefix
from repro.core.lpm import CompiledLPM, LPMTable, build_lpm_from_records
from repro.core.output import IPDRecord
from repro.topology.elements import IngressPoint

INGRESSES = [
    IngressPoint("R1", "et0"),
    IngressPoint("R1", "et1"),
    IngressPoint("R2", "et0"),
    IngressPoint("R3", "hu0"),
]


def _bits(version: int) -> int:
    return 32 if version == IPV4 else 128


def _record(value, masklen, version, ingress, confidence=0.9,
            timestamp=300.0, classified=True):
    return IPDRecord(
        timestamp=timestamp,
        range=Prefix(value, masklen, version),
        ingress=ingress,
        s_ingress=confidence,
        s_ipcount=8,
        n_cidr=4,
        candidates=(),
        classified=classified,
    )


def _prefix_records(version: int):
    """Strategy: lists of records over arbitrary prefixes (overlapping,
    duplicated or disjoint)."""
    bits = _bits(version)

    def make(draw_tuple):
        masklen, seed, ingress_index, confidence, timestamp = draw_tuple
        shift = bits - masklen
        value = (seed % (1 << bits)) >> shift << shift
        return _record(value, masklen, version, INGRESSES[ingress_index],
                       confidence, timestamp)

    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=bits),
            st.integers(min_value=0, max_value=(1 << bits) - 1),
            st.integers(min_value=0, max_value=len(INGRESSES) - 1),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        ).map(make),
        max_size=40,
    )


@st.composite
def _trie_leaf_records(draw, version):
    """Strategy: the leaves of a random binary trie (pairwise disjoint,
    siblings adjacent, many lengths), some of them left unclassified."""
    bits = _bits(version)
    leaves = []
    pending = [(0, 0)]  # (value, masklen)
    while pending:
        value, masklen = pending.pop()
        if masklen < bits and len(leaves) + len(pending) < 48 and draw(
            st.booleans()
        ):
            half = 1 << (bits - masklen - 1)
            pending += [(value, masklen + 1), (value + half, masklen + 1)]
        else:
            leaves.append((value, masklen))
    picks = draw(
        st.lists(
            st.tuples(st.booleans(), st.sampled_from(INGRESSES),
                      st.floats(min_value=0.0, max_value=1.0)),
            min_size=len(leaves),
            max_size=len(leaves),
        )
    )
    return [
        _record(value, masklen, version, ingress, confidence,
                classified=keep)
        for (value, masklen), (keep, ingress, confidence) in zip(leaves, picks)
    ]


def _brute_force(records, version, probe):
    """The oracle: scan every classified record of the family, keep the
    longest prefix containing *probe*."""
    best = None
    for record in records:
        prefix = record.range
        if (record.classified and prefix.version == version
                and prefix.contains_ip(probe)
                and (best is None or prefix.masklen > best[0])):
            best = (prefix.masklen, record.ingress)
    return best[1] if best is not None else None


def _overlap(records, version):
    """True when two classified records of the family share an address."""
    prefixes = [r.range for r in records
                if r.classified and r.version == version]
    return any(
        a.contains(b) or b.contains(a)
        for index, a in enumerate(prefixes) for b in prefixes[index + 1:]
    )


def _assert_parity(records, version, extra=()):
    table = LPMTable(version)
    for record in records:
        if record.classified and record.version == version:
            table.insert(record.range, record.ingress)
    compiled = CompiledLPM.from_records(iter(records), version)
    assert len(compiled) == len(table)
    for probe in _probes(records, version, extra):
        answer = compiled.lookup(probe)
        assert answer == table.lookup(probe), f"divergence at {probe:#x}"
        assert answer == _brute_force(records, version, probe), (
            f"oracle divergence at {probe:#x}"
        )
    return compiled


def _probes(records, version, extra):
    """Addresses worth probing: every range's first and last address,
    one past each end, plus arbitrary values."""
    bits = _bits(version)
    top = (1 << bits) - 1
    values = {0, top, *extra}
    for record in records:
        first, last = record.range.value, record.range.last_value
        values.update((first, last, min(top, last + 1)))
        if first:
            values.add(first - 1)
    return sorted(values)


def _refused_pair(records, version):
    """The prefixes the compiler's ``ValueError`` names for *records*."""
    with pytest.raises(ValueError) as refused:
        CompiledLPM.from_records(records, version)
    named = re.search(r"overlapping ranges (\S+) and (\S+):", str(refused.value))
    assert named is not None, str(refused.value)
    return {Prefix.from_string(text) for text in named.groups()}


class TestParity:
    @pytest.mark.parametrize("version", [IPV4, IPV6])
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_lookup_matches_lpm_table_everywhere(self, version, data):
        """Arbitrary prefix sets: with no overlap the table answers like
        the trie on edges and random addresses; with one it is refused,
        naming two prefixes that overlap."""
        records = data.draw(_prefix_records(version))
        extra = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=(1 << _bits(version)) - 1),
                max_size=20,
            )
        )
        if not _overlap(records, version):
            _assert_parity(records, version, extra)
            return
        first, *rest = named = _refused_pair(records, version)
        assert named <= {r.range for r in records}
        assert all(first.contains(other) or other.contains(first) for other in rest)

    @pytest.mark.parametrize("version", [IPV4, IPV6])
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_lookup_matches_on_trie_leaves(self, version, data):
        records = data.draw(_trie_leaf_records(version))
        compiled = _assert_parity(records, version)
        for probe in _probes(records, version, ()):
            found = compiled.lookup_entry(probe)
            record = next(
                (r for r in records
                 if r.classified and r.range.contains_ip(probe)), None
            )
            if record is None:
                assert found is None
            else:
                assert found == (record.range, record.ingress,
                                 record.s_ingress, record.timestamp)

    @pytest.mark.parametrize("version", [IPV4, IPV6])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_shuffled_input_answers_the_same(self, version, data):
        records = data.draw(_trie_leaf_records(version))
        shuffled = data.draw(st.permutations(records))
        ordered = CompiledLPM.from_records(records, version)
        compiled = CompiledLPM.from_records(shuffled, version)
        assert list(compiled.entries()) == list(ordered.entries())
        for probe in _probes(records, version, ()):
            assert compiled.lookup_entry(probe) == ordered.lookup_entry(probe)

    @pytest.mark.parametrize("version", [IPV4, IPV6])
    def test_edge_shapes(self, version):
        """/0, top of space, host routes, adjacent ranges — the segment
        boundaries a sweep can get wrong."""
        bits = _bits(version)
        top = (1 << bits) - 1
        a, b, c, d = INGRESSES

        def row(value, masklen, ingress):
            return _record(value, masklen, version, ingress)

        # a default route alone — an address outside the family's space
        # is still a miss, not an error
        compiled = _assert_parity([row(0, 0, a)], version)
        assert compiled.lookup(top + 1) is None and compiled.lookup(-1) is None
        assert compiled.lookup(0) == compiled.lookup(top) == a
        # ranges ending at 2^bits - 1: two host routes and a /2 below them
        compiled = _assert_parity(
            [row(top, bits, a), row(top - 1, bits, b),
             row(2 << (bits - 2), 2, c)],
            version,
        )
        assert compiled.lookup(top) == a and compiled.lookup(top - 1) == b
        assert compiled.lookup(top - 2) is None
        assert compiled.lookup((3 << (bits - 2)) - 1) == c
        assert compiled.lookup(top + 1) is None
        # a range starting one past another's last address (not siblings)
        first = 5 << (bits - 4)
        after = first + (1 << (bits - 4))
        compiled = _assert_parity(
            [row(first, 4, a), row(after, bits - 2, b), row(0, bits, d)],
            version,
        )
        assert compiled.lookup(after - 1) == a and compiled.lookup(after) == b
        assert compiled.lookup(after + 4) is None
        assert compiled.lookup(0) == d and compiled.lookup(1) is None
        # adjacent siblings with different rows, nothing around them
        compiled = _assert_parity(
            [row(8 << (bits - 5), 5, c), row(9 << (bits - 5), 5, d)], version
        )
        assert compiled.lookup((9 << (bits - 5)) - 1) == c
        assert compiled.lookup(9 << (bits - 5)) == d
        assert compiled.lookup((8 << (bits - 5)) - 1) is None
        # nothing at all
        assert _assert_parity([], version).lookup(0) is None

    @pytest.mark.parametrize("version", [IPV4, IPV6])
    def test_from_records_matches_build_lpm_from_records(self, version):
        """A random trie's leaves, a fifth unclassified, beside the other
        family's records: both builders ignore all of those."""
        bits = _bits(version)
        other = IPV6 if version == IPV4 else IPV4
        rng = random.Random(20240809)
        leaves = [(0, 0)]
        while len(leaves) < 64:
            value, masklen = leaves.pop(rng.randrange(len(leaves)))
            if masklen == bits:
                leaves.append((value, masklen))
                continue
            half = 1 << (bits - masklen - 1)
            leaves += [(value, masklen + 1), (value + half, masklen + 1)]
        records = [
            _record(value, masklen, version,
                    INGRESSES[index % len(INGRESSES)],
                    classified=index % 5 != 0)
            for index, (value, masklen) in enumerate(leaves)
        ]
        records.append(_record(0, 0, other, INGRESSES[0]))
        reference = LPMTable(version)
        for record in records:
            if record.version == version and record.classified:
                reference.insert(record.range, record.ingress)
        compiled = build_lpm_from_records(records, version=version)
        assert isinstance(compiled, CompiledLPM)
        assert len(compiled) == len(reference)
        assert list(compiled.entries()) == list(
            CompiledLPM.from_records(records, version).entries()
        )
        for _ in range(2000):
            probe = rng.getrandbits(bits)
            assert compiled.lookup(probe) == reference.lookup(probe)


class TestOneSnapshot:
    @pytest.mark.parametrize("version", [IPV4, IPV6])
    def test_unclassified_and_other_family_records_are_ignored(self, version):
        """An unclassified record nested in a classified one, and the
        other family's /0, neither count as rows nor as an overlap."""
        bits = _bits(version)
        other = IPV6 if version == IPV4 else IPV4
        base = 10 << (bits - 8)
        records = [
            _record(base, 8, version, INGRESSES[0]),
            _record(base, 16, version, INGRESSES[1], classified=False),
            _record(0, 0, other, INGRESSES[2]),
        ]
        compiled = CompiledLPM.from_records(records, version)
        assert len(compiled) == 1
        assert compiled.records == (records[0],)
        assert compiled.lookup(base) == INGRESSES[0]
        assert compiled.lookup(0) is None
        assert compiled.lookup_many([base, 0]) == [INGRESSES[0], None]

    @pytest.mark.parametrize("version", [IPV4, IPV6])
    @pytest.mark.parametrize("order", ["given", "reversed"])
    @pytest.mark.parametrize("shape", ["nested", "duplicate", "same-start"])
    def test_overlapping_pair_is_refused(self, version, order, shape):
        """A nested pair, a repeated range and a parent with a child on
        its first address are refused in either input order, naming both
        prefixes, even with disjoint ranges around them."""
        bits = _bits(version)
        base = 10 << (bits - 8)
        inner = {
            "nested": (base + (3 << (bits - 12)), 12),
            "duplicate": (base, 8),
            "same-start": (base, bits),
        }[shape]
        pair = [
            _record(base, 8, version, INGRESSES[0]),
            _record(*inner, version, INGRESSES[1]),
        ]
        if order == "reversed":
            pair.reverse()
        records = [
            _record(0, 8, version, INGRESSES[2]),
            *pair,
            _record(11 << (bits - 8), 8, version, INGRESSES[3]),
        ]
        assert _refused_pair(records, version) == {
            Prefix(base, 8, version), Prefix(*inner, version),
        }

    def test_the_row_columns_are_gone(self):
        """A table is its records plus one segment index: no tuple-row
        constructor, no interned ingresses, no parallel columns."""
        assert CompiledLPM.__slots__ == (
            "version", "records", "_starts", "_seg_rows",
        )
        with pytest.raises((TypeError, ValueError)):
            CompiledLPM(IPV4, [(8, 10 << 24, INGRESSES[0], 0.9, 300.0)])
