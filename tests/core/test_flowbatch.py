"""Tests for the columnar FlowBatch record and the batched readers."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.iputil import IPV4, IPV6, parse_ip
from repro.netflow.records import (
    FlowBatch,
    FlowRecord,
    iter_flow_batches,
    read_flows_csv,
    read_flows_csv_batched,
    write_flows_csv,
)
from repro.testkit.strategies import flow_batches
from repro.topology.elements import IngressPoint

A = IngressPoint("R1", "et0")
B = IngressPoint("R2", "xe0")


def v4_flow(ts: float, src: str, ingress: IngressPoint = A, **kwargs) -> FlowRecord:
    value, version = parse_ip(src)
    return FlowRecord(timestamp=ts, src_ip=value, version=version,
                      ingress=ingress, **kwargs)


class TestFlowBatch:
    def test_round_trip_via_iter_flows(self):
        flows = [
            v4_flow(1.0, "10.0.0.1", A, packets=3, bytes=4500),
            v4_flow(2.0, "10.0.0.2", B, dst_ip=parse_ip("8.8.8.8")[0]),
        ]
        batch = FlowBatch.from_flows(flows)
        assert len(batch) == 2
        assert list(batch.iter_flows()) == flows

    def test_mixed_families_rejected(self):
        flows = [v4_flow(1.0, "10.0.0.1"), v4_flow(2.0, "2001:db8::1")]
        with pytest.raises(ValueError):
            FlowBatch.from_flows(flows)

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FlowBatch(IPV4, timestamps=[1.0], src_ips=[])
        with pytest.raises(ValueError, match="mismatched lengths"):
            FlowBatch(IPV4, [1.0], [16], [A], [1], [1500], [None, None])

    def test_slice_copies_rows(self):
        flows = [v4_flow(float(i), f"10.0.0.{i}") for i in range(5)]
        batch = FlowBatch.from_flows(flows)
        cut = batch.slice(1, 3)
        assert list(cut.iter_flows()) == flows[1:3]
        cut.timestamps[0] = 99.0
        assert batch.timestamps[1] == 1.0  # copy, not a view

    def test_empty_from_flows(self):
        batch = FlowBatch.from_flows([])
        assert len(batch) == 0

    def test_columns_are_typed_arrays(self):
        batch = FlowBatch.from_flows([
            v4_flow(1.0, "10.0.0.1", A), v4_flow(2.0, "10.0.0.2", B),
            v4_flow(3.0, "10.0.0.3", A),
        ])
        assert batch.timestamps.dtype == np.float64
        assert batch.src_ips.dtype == np.uint64
        assert batch.ingress_ids.dtype == np.int32
        assert batch.packet_counts.dtype == batch.byte_counts.dtype == np.int64
        assert batch.ingress_table == (A, B)
        assert batch.ingress_ids.tolist() == [0, 1, 0]
        v6 = FlowBatch.from_flows([v4_flow(1.0, "2001:db8::1")])
        assert v6.src_ips.shape == (1, 2)
        assert v6.src_ips.tolist() == [[0x2001_0DB8 << 32, 1]]

    def test_round_trip_is_exact_with_v6_and_absent_dst(self):
        flows = [
            v4_flow(0.1, "2001:db8::1", A, packets=7, bytes=(1 << 62) + 3),
            v4_flow(0.2, "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff", B,
                    dst_ip=(1 << 127) + 5),
            v4_flow(0.3, "::1", A, dst_ip=None),
        ]
        assert flows[1].src_ip > 1 << 64
        assert list(FlowBatch.from_flows(flows).iter_flows()) == flows

    @pytest.mark.parametrize("text", ["10.0.0.1", "2001:db8::ff"])
    def test_record_edge_yields_plain_scalars(self, text):
        """``iter_flows`` and ``read_flows_csv`` hand back Python scalars,
        never numpy ones (the oracle replay and the CSV writer read them)."""
        flows = [v4_flow(1.5, text, A, dst_ip=parse_ip(text)[0]),
                 v4_flow(2.5, text, B)]
        buffer = io.StringIO()
        write_flows_csv(flows, buffer)
        buffer.seek(0)
        for records in (FlowBatch.from_flows(flows).iter_flows(),
                        read_flows_csv(buffer)):
            for record in records:
                assert type(record.timestamp) is float
                assert type(record.src_ip) is int
                assert type(record.ingress) is IngressPoint
                assert type(record.packets) is int
                assert type(record.bytes) is int
                assert record.dst_ip is None or type(record.dst_ip) is int

    def test_slice_and_select_keep_the_ingress_table(self):
        flows = [v4_flow(float(i), f"10.0.0.{i}", (A, B)[i % 2]) for i in range(6)]
        batch = FlowBatch.from_flows(flows)
        for part, rows in ((batch.slice(1, 4), [1, 2, 3]),
                           (batch.select([4, 0, 5]), [4, 0, 5])):
            assert part.ingress_table is batch.ingress_table
            assert list(part.iter_flows()) == [flows[row] for row in rows]
        assert batch.select(range(6)) is batch

    @pytest.mark.parametrize("rows", [[1, 0], [0, 0], [1, 1]], ids=["permutation", "repeat-first", "repeat-last"])
    def test_select_of_every_row_count_is_not_self(self, rows):
        """Any two rows of a two-row batch used to come back as the batch
        itself: ``select([1, 0]) is batch`` and ``select([0, 0]) is batch``
        both held.  Only the rows ``0..n-1`` in order are the batch."""
        flows = [v4_flow(1.0, "10.0.0.1", A), v4_flow(2.0, "10.0.0.2", B)]
        batch = FlowBatch.from_flows(flows)
        part = batch.select(rows)
        assert part is not batch
        assert list(part.iter_flows()) == [flows[row] for row in rows]
        assert batch.select([0, 1]) is batch
        assert batch.select(np.arange(2)) is batch


@pytest.mark.parametrize("version", [IPV4, IPV6])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_property_row_round_trip(version, data):
    """``iter_flows`` -> ``from_flows`` gives back the same columns, bit for
    bit; ``dst_ips`` is ``None`` exactly when no row has a destination; and
    ``slice`` / ``select`` are row-wise list slicing, ``select`` for any
    rows: a subset, a permutation or rows repeated."""
    batch = data.draw(flow_batches(version, max_rows=12))
    flows = list(batch.iter_flows())
    assert (batch.dst_ips is None) == all(flow.dst_ip is None for flow in flows)
    rebuilt = FlowBatch.from_flows(flows)
    assert list(rebuilt.iter_flows()) == flows
    if flows:
        assert rebuilt.version == batch.version
        assert rebuilt.ingress_table == batch.ingress_table
        assert rebuilt.timestamps.tobytes() == batch.timestamps.tobytes()
        for mine, theirs in zip(rebuilt._columns(), batch._columns(), strict=True):
            assert mine.dtype == theirs.dtype and mine.tolist() == theirs.tolist()
    start, end = sorted(data.draw(st.lists(st.integers(0, len(flows)), min_size=2,
                                           max_size=2)))
    keep = st.lists(st.booleans(), min_size=len(flows), max_size=len(flows)).map(
        lambda keep: [row for row, kept in enumerate(keep) if kept])
    repeats = st.lists(st.integers(0, max(len(flows) - 1, 0)), max_size=2 * len(flows))
    rows = data.draw(keep | st.permutations(range(len(flows))) | repeats)
    for part, expected in ((batch.slice(start, end), flows[start:end]),
                           (batch.select(rows), [flows[row] for row in rows])):
        assert list(part.iter_flows()) == expected
        assert (part.dst_ips is None) == all(flow.dst_ip is None for flow in expected)


class TestMalformedColumns:
    """A column the engine would misread is a ``ValueError`` naming it when
    the batch is built: each of these used to be ingested, or to fail in
    ``IPD._fold`` after the engine's counters had moved."""

    @pytest.mark.parametrize("ids, row", [
        ([-1, 0], 0), ([0, 2], 1), ([1, 0, 7], 2), (np.array([1, 1 << 32]), 1),
        ([0, 1 << 64], 1), ([-(1 << 64), 0], 0),
    ], ids=["negative", "past-the-table", "last-row", "wraps-in-int32", "past-64-bits",
            "below-64-bits"])
    def test_ingress_id_outside_the_table(self, ids, row):
        """``-1`` used to index the table's last ingress: ``[-1, 0]`` over
        ``(A, B)`` ingested as ``B, A``; an id past it raised ``IndexError``,
        an int64 ``2**32`` wrapped to ``0`` in the int32 column, and a list
        value past 64 bits let a bare ``OverflowError`` out of the cast."""
        with pytest.raises(ValueError, match=f"row {row}: ingress_ids {ids[row]} is outside"):
            FlowBatch(IPV4, [1.0] * len(ids), [16] * len(ids), ids, [1] * len(ids),
                      [1500] * len(ids), ingress_table=(A, B))

    def test_ipv6_source_column_must_be_pairs(self):
        with pytest.raises(ValueError, match=r"src_ips: shape \(2,\), not \(2, 2\)"):
            FlowBatch(IPV6, [1.0, 2.0], np.array([1, 2], np.uint64), [A, A], [1, 1],
                      [1500, 1500])
        with pytest.raises(ValueError, match=r"src_ips: shape \(1, 2\), not \(1,\)"):
            FlowBatch(IPV4, [1.0], np.array([[0, 1]], np.uint64), [A], [1], [1500])

    @pytest.mark.parametrize("version, sources, text", [
        (IPV6, [[-1, 0]], r"row 0: src_ips \[-1, 0\] is negative"),
        (IPV6, [[0, 1], [2, -3]], r"row 1: src_ips \[2, -3\] is negative"),
        (IPV4, [16, -16], r"row 1: src_ips -16 is negative"),
    ], ids=["v6-first-row", "v6-second-row", "v4"])
    def test_signed_source_column_does_not_wrap(self, version, sources, text):
        """IPv6 ``[[-1, 0]]`` as int64 used to be adopted as a valid address."""
        column = np.array(sources, np.int64)
        with pytest.raises(ValueError, match=text):
            FlowBatch(version, [1.0] * len(column), column, [A] * len(column),
                      [1] * len(column), [1500] * len(column))

    @pytest.mark.parametrize("version", [IPV4, IPV6])
    @pytest.mark.parametrize("kind", [np.uint64, np.int64, np.uint32])
    def test_numpy_integer_source_list_builds_the_python_int_batch(self, version, kind):
        """An IPv6 list of numpy integers used to raise ``StopIteration``:
        ``divmod`` overflowed in numpy and no row looked outside IPv6."""
        sources = [5, (1 << 32) - 1]
        batch = FlowBatch(version, [1.0, 2.0], [kind(value) for value in sources], [A, B],
                          [1, 1], [1500, 1500])
        expected = FlowBatch(version, [1.0, 2.0], sources, [A, B], [1, 1], [1500, 1500])
        assert batch.src_ips.dtype == expected.src_ips.dtype == np.uint64
        assert batch.src_ips.tolist() == expected.src_ips.tolist()
        assert batch.addresses() == sources

    def test_signed_source_column_without_negatives_is_adopted(self):
        batch = FlowBatch(IPV6, [1.0], np.array([[1, 2]], np.int64), [A], [1], [1500])
        assert batch.src_ips.dtype == np.uint64
        assert batch.addresses() == [(1 << 64) | 2]


class TestFloatColumns:
    """An integer column given floats used to be truncated silently:
    ``src_ips=np.array([16.7])`` became ``[16]`` and ``packet_counts=[1.9,
    2.0]`` became ``[1, 2]``.  A float that is no whole number is refused,
    naming the column and the row, in a list or an ndarray."""

    @pytest.mark.parametrize("version, column, values, text", [
        (IPV4, "src_ips", np.array([16.0, 16.7]), "row 1: src_ips 16.7"),
        (IPV4, "src_ips", [16, 16.7], "row 1: src_ips 16.7"),
        (IPV6, "src_ips", [16, 16.7], "row 1: src_ips 16.7"),
        (IPV6, "src_ips", np.array([[0.0, 1.0], [0.5, 0.0]]), r"row 1: src_ips \[0.5, 0.0\]"),
        (IPV4, "packet_counts", [1.9, 2.0], "row 0: packet_counts 1.9"),
        (IPV4, "byte_counts", np.array([1500.0, np.nan]), "row 1: byte_counts nan"),
        (IPV4, "byte_counts", [1500, float("inf")], "row 1: byte_counts inf"),
        (IPV4, "ingresses", [0, 0.5], "row 1: ingress_ids 0.5"),
    ], ids=["v4-array", "v4-list", "v6-list", "v6-array", "packets-list", "bytes-nan",
            "bytes-inf", "ingress-ids"])
    def test_non_integral_float_is_refused(self, version, column, values, text):
        columns = dict(timestamps=[1.0, 2.0], src_ips=[16, 32], ingresses=[0, 1],
                       packet_counts=[1, 1], byte_counts=[1500, 1500], ingress_table=(A, B))
        columns[column] = values
        with pytest.raises(ValueError, match=f"{text} is not an integer"):
            FlowBatch(version, **columns)

    def test_whole_floats_and_float_timestamps_are_kept(self):
        batch = FlowBatch(IPV4, [0.25, 0.5], np.array([16.0, 32.0]), [A, B],
                          np.array([1.0, 2.0]), [1500.0, 3000.0])
        assert batch.timestamps.tolist() == [0.25, 0.5]
        assert batch.src_ips.tolist() == [16, 32] and batch.src_ips.dtype == np.uint64
        assert batch.packet_counts.tolist() == [1, 2]
        assert batch.byte_counts.tolist() == [1500, 3000]


    @pytest.mark.parametrize("version", [IPV4, IPV6])
    def test_whole_float_sources_build_the_integer_batch(self, version):
        """IPv6 source lists used to refuse ``3.0`` ("is not an integer")
        while IPv4 built address 3: both families now take a whole float."""
        floats = FlowBatch(version, [1.0, 2.0], [3.0, 7], [A, B], [1, 1], [1500, 1500])
        ints = FlowBatch(version, [1.0, 2.0], [3, 7], [A, B], [1, 1], [1500, 1500])
        assert floats.src_ips.dtype == ints.src_ips.dtype == np.uint64
        assert floats.src_ips.tolist() == ints.src_ips.tolist()
        assert floats.addresses() == [3, 7]

    @pytest.mark.parametrize("version", [IPV4, IPV6])
    @pytest.mark.parametrize("value, text", [
        (3.5, "3.5"), (float("nan"), "nan"), (float("inf"), "inf"),
    ], ids=["fraction", "nan", "inf"])
    def test_non_whole_float_source_is_refused_in_both_families(self, version, value, text):
        with pytest.raises(ValueError, match=f"flow batch row 1: src_ips {text} is not an integer"):
            FlowBatch(version, [1.0, 2.0], [3.0, value], [A, B], [1, 1], [1500, 1500])


class TestAbsentDestinations:
    def test_rows_without_destinations_build_no_column(self):
        """The ledger passes ``[None] * rows``; ``from_flows``, ``select`` and
        the CSV decoder meet all-``None`` runs: none keeps a column."""
        flows = [v4_flow(float(i), f"10.0.0.{i}") for i in range(4)]
        flows[3] = flows[3]._replace(dst_ip=parse_ip("8.8.8.8")[0])
        assert FlowBatch(IPV4, [1.0], [16], [A], [1], [1500], [None]).dst_ips is None
        assert FlowBatch.from_flows(flows[:3]).dst_ips is None
        batch = FlowBatch.from_flows(flows)
        assert batch.dst_ips.tolist() == [None, None, None, flows[3].dst_ip]
        assert batch.select([0, 2]).dst_ips is None
        assert batch.slice(1, 3).dst_ips is None
        assert batch.select([0, 3]).dst_ips.tolist() == [None, flows[3].dst_ip]
        buffer = io.StringIO()
        write_flows_csv(flows, buffer)
        buffer.seek(0)
        batches = list(read_flows_csv_batched(buffer, batch_size=2))
        assert [b.dst_ips is None for b in batches] == [True, False]
        assert [f for b in batches for f in b.iter_flows()] == flows


class TestIterFlowBatches:
    def test_cuts_at_size(self):
        flows = [v4_flow(float(i), f"10.0.0.{i}") for i in range(10)]
        batches = list(iter_flow_batches(flows, batch_size=4))
        assert [len(b) for b in batches] == [4, 4, 2]
        rebuilt = [flow for b in batches for flow in b.iter_flows()]
        assert rebuilt == flows

    def test_cuts_at_family_change(self):
        flows = [
            v4_flow(0.0, "10.0.0.1"),
            v4_flow(1.0, "2001:db8::1"),
            v4_flow(2.0, "10.0.0.2"),
        ]
        batches = list(iter_flow_batches(flows, batch_size=100))
        assert [b.version for b in batches] == [IPV4, IPV6, IPV4]
        rebuilt = [flow for b in batches for flow in b.iter_flows()]
        assert rebuilt == flows

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(iter_flow_batches([], batch_size=0))


class TestCSVBatched:
    def test_csv_round_trip_batched(self):
        flows = [v4_flow(float(i), f"10.0.{i}.1", A if i % 2 else B,
                         packets=i + 1, bytes=100 * (i + 1))
                 for i in range(7)]
        buffer = io.StringIO()
        write_flows_csv(flows, buffer)
        buffer.seek(0)
        batches = list(read_flows_csv_batched(buffer, batch_size=3))
        rebuilt = [flow for b in batches for flow in b.iter_flows()]
        assert rebuilt == flows
        assert [len(b) for b in batches] == [3, 3, 1]
