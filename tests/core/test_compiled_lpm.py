"""CompiledLPM: parity with LPMTable and a brute-force oracle.

The compiled structure is the serving plane's unit of deployment, so
this suite pins the property it must never lose: ``CompiledLPM.lookup``
agrees with ``LPMTable.lookup`` and with a brute-force scan on every
address, both families, for arbitrary (overlapping, duplicated) prefix
sets and for the leaves of a random binary trie, including probes at
range edges.
"""

import random

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


def _prefix_rows(version: int):
    """Strategy: lists of (masklen, value, ingress, confidence, ts) rows."""
    bits = _bits(version)

    def make_row(draw_tuple):
        masklen, seed, ingress_index, confidence, timestamp = draw_tuple
        shift = bits - masklen
        value = (seed % (1 << bits)) >> shift << shift
        return (
            masklen,
            value,
            INGRESSES[ingress_index],
            confidence,
            timestamp,
        )

    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=bits),
            st.integers(min_value=0, max_value=(1 << bits) - 1),
            st.integers(min_value=0, max_value=len(INGRESSES) - 1),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        ).map(make_row),
        max_size=40,
    )


@st.composite
def _trie_leaf_rows(draw, version):
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
            st.tuples(st.booleans(), st.sampled_from(INGRESSES)),
            min_size=len(leaves),
            max_size=len(leaves),
        )
    )
    return [
        (masklen, value, ingress, 0.9, 300.0)
        for (value, masklen), (keep, ingress) in zip(leaves, picks)
        if keep
    ]


def _brute_force(rows, version, probe):
    """The oracle: scan every row, keep the longest prefix containing
    *probe*; among duplicates of that prefix the last row wins."""
    bits = _bits(version)
    best = None
    for masklen, value, ingress, _, _ in rows:
        shift = bits - masklen
        if probe >> shift == value >> shift and (
            best is None or masklen >= best[0]
        ):
            best = (masklen, ingress)
    return best[1] if best is not None else None


def _assert_parity(rows, version, extra=()):
    table = LPMTable(version)
    for masklen, value, ingress, _, _ in rows:
        table.insert(Prefix(value, masklen, version), ingress)
    compiled = CompiledLPM(version, iter(rows))
    assert len(compiled) == len(table)
    for probe in _probes(rows, version, extra):
        answer = compiled.lookup(probe)
        assert answer == table.lookup(probe), f"divergence at {probe:#x}"
        assert answer == _brute_force(rows, version, probe), (
            f"oracle divergence at {probe:#x}"
        )
    return compiled


def _probes(rows, version, extra):
    """Addresses worth probing: range edges plus arbitrary values."""
    bits = _bits(version)
    top = (1 << bits) - 1
    values = {0, top, *extra}
    for masklen, value, *_ in rows:
        span = (1 << (bits - masklen)) - 1
        values.update((value, value + span, min(top, value + span + 1)))
        if value:
            values.add(value - 1)
    return sorted(values)


class TestParity:
    @pytest.mark.parametrize("version", [IPV4, IPV6])
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_lookup_matches_lpm_table_everywhere(self, version, data):
        rows = data.draw(_prefix_rows(version))
        extra = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=(1 << _bits(version)) - 1),
                max_size=20,
            )
        )
        _assert_parity(rows, version, extra)

    @pytest.mark.parametrize("version", [IPV4, IPV6])
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_lookup_matches_on_trie_leaves(self, version, data):
        _assert_parity(data.draw(_trie_leaf_rows(version)), version)

    @pytest.mark.parametrize("version", [IPV4, IPV6])
    def test_edge_shapes(self, version):
        """/0, top of space, shared last address, adjacent siblings,
        duplicate prefix — the segment boundaries a sweep can get wrong."""
        bits = _bits(version)
        top = (1 << bits) - 1
        a, b, c, d = INGRESSES

        def row(value, masklen, ingress, confidence=0.9):
            return (masklen, value, ingress, confidence, 300.0)

        # a default route alone — an address outside the family's space
        # is still a miss, not an error — and under everything
        compiled = _assert_parity([row(0, 0, a)], version)
        assert compiled.lookup(top + 1) is None and compiled.lookup(-1) is None
        _assert_parity([row(0, 0, a), row(1 << (bits - 1), 1, b)], version)
        # ranges ending at 2^bits - 1: a host route and a /2 on the top
        compiled = _assert_parity(
            [row(top, bits, a), row(3 << (bits - 2), 2, b)], version
        )
        assert compiled.lookup(top) == a and compiled.lookup(top - 1) == b
        # a child sharing its parent's last (and another its first) address
        parent = 5 << (bits - 4)
        span = (1 << (bits - 4)) - 1
        compiled = _assert_parity(
            [
                row(parent, 4, a),
                row(parent + span - 3, bits - 2, b),
                row(parent, bits - 1, c),
            ],
            version,
        )
        assert compiled.lookup(parent + span) == b
        assert compiled.lookup(parent + span + 1) is None
        assert compiled.lookup(parent + 2) == a
        # adjacent siblings with different rows, nothing around them
        compiled = _assert_parity(
            [row(8 << (bits - 5), 5, c), row(9 << (bits - 5), 5, d)], version
        )
        assert compiled.lookup((9 << (bits - 5)) - 1) == c
        assert compiled.lookup(9 << (bits - 5)) == d
        # a duplicate prefix: the last row wins, under a covering parent
        compiled = _assert_parity(
            [
                row(parent, 4, a),
                row(parent, 8, b, 0.5),
                row(parent, 8, c, 0.7),
            ],
            version,
        )
        assert len(compiled) == 2
        assert compiled.lookup_entry(parent).confidence == 0.7

    @pytest.mark.parametrize("version", [IPV4, IPV6])
    def test_from_records_matches_build_lpm_from_records(self, version):
        bits = _bits(version)
        rng = random.Random(20240809)
        records = []
        for index in range(64):
            masklen = rng.randint(0, bits)
            shift = bits - masklen
            value = (rng.getrandbits(bits) >> shift) << shift
            records.append(
                IPDRecord(
                    timestamp=300.0,
                    range=Prefix(value, masklen, version),
                    ingress=INGRESSES[index % len(INGRESSES)],
                    s_ingress=0.9,
                    s_ipcount=8,
                    n_cidr=4,
                    candidates=(),
                    classified=index % 5 != 0,
                )
            )
        reference = LPMTable(version)
        for record in records:
            if record.version == version and record.classified:
                reference.insert(record.range, record.ingress)
        compiled = build_lpm_from_records(records, version=version)
        assert isinstance(compiled, CompiledLPM)
        assert len(compiled) == len(reference)
        for _ in range(2000):
            probe = rng.getrandbits(bits)
            assert compiled.lookup(probe) == reference.lookup(probe)

    def test_duplicate_prefix_last_wins_like_insert(self):
        prefix = Prefix.from_string("10.0.0.0/8")
        table = LPMTable(IPV4)
        table.insert(prefix, INGRESSES[0])
        table.insert(prefix, INGRESSES[1])
        compiled = CompiledLPM(
            IPV4,
            [
                (8, prefix.value, INGRESSES[0], 0.5, 1.0),
                (8, prefix.value, INGRESSES[1], 0.9, 2.0),
            ],
        )
        probe = prefix.value + 7
        assert compiled.lookup(probe) == table.lookup(probe) == INGRESSES[1]
        assert compiled.lookup_entry(probe).confidence == 0.9
