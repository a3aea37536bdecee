"""Tests for the versioned engine-state codec (repro.core.statecodec).

The contract under test is *behavioral equivalence*, not just field
equality: an engine restored from its blob must produce byte-identical
sweeps, snapshots and re-encoded blobs when the run continues — which
means exact floats, preserved dict insertion order and preserved dirty
membership: no sweep input lives outside the blob.
"""

import struct

import pytest

from repro.core.algorithm import IPD
from repro.core.iputil import IPV4, Prefix, parse_ip
from repro.core.params import IPDParams
from repro.core.statecodec import (
    CODEC_VERSION,
    EngineImage,
    IncompatibleStateError,
    NodeImage,
    StateCodecError,
    TreeImage,
    decode_engine,
    decode_subtree,
    encode_engine,
    encode_subtree,
)
from repro.netflow.records import FlowRecord
from repro.runtime.checkpoint import Checkpoint, CheckpointCorruptError, CheckpointStore
from repro.topology.elements import IngressPoint
from tests.core.test_rangetree import root_leaf

from repro.testkit.traces import (
    DUALSTACK_PARAMS,
    FIG05_PARAMS,
    STAGE2_PARAMS,
    dualstack_trace,
    fig05_trace,
    stage2_trace,
)

A = IngressPoint("R1", "et0")
B = IngressPoint("R1", "et1")
INF = float("inf")
NAN = float("nan")


def drive(engine, flows, next_sweep=None):
    """Ingest *flows*, sweeping at every t-second boundary crossed.

    Returns (sweep_reports, next_sweep) so a run can be split at an
    arbitrary cut and continued on a restored engine.
    """
    t = engine.params.t
    reports = []
    for flow in flows:
        if next_sweep is None:
            next_sweep = (int(flow.timestamp // t) + 1) * t
        while flow.timestamp >= next_sweep:
            reports.append(engine.sweep(next_sweep))
            next_sweep += t
        engine.ingest(flow)
    return reports, next_sweep


def split_at(flows, cut):
    return ([f for f in flows if f.timestamp < cut],
            [f for f in flows if f.timestamp >= cut])


def report_fields(report):
    return (
        report.timestamp, report.visited, report.leaves,
        dict(report.leaves_by_version), report.classified,
        report.classifications, report.splits, report.joins, report.drops,
        report.prunes, report.expired_sources, report.decayed_ranges,
    )


ROUND_TRIP_TRACES = pytest.mark.parametrize(
    "trace,params",
    [
        (fig05_trace, FIG05_PARAMS),
        (dualstack_trace, DUALSTACK_PARAMS),
        (stage2_trace, STAGE2_PARAMS),
    ],
    ids=["fig05", "dualstack", "stage2"],
)


class TestEngineRoundTrip:
    @ROUND_TRIP_TRACES
    def test_blob_is_byte_stable(self, trace, params):
        engine = IPD(params)
        drive(engine, trace())
        blob = engine.to_bytes()
        assert IPD.from_bytes(blob).to_bytes() == blob

    @ROUND_TRIP_TRACES
    def test_continued_run_is_equivalent(self, trace, params):
        """Cut mid-trace; the restored engine must replay the remainder
        exactly — sweep counters, snapshots and final blob all match."""
        flows = trace()
        cut = 360.0
        early, late = split_at(flows, cut)

        original = IPD(params)
        __, next_sweep = drive(original, early)
        blob = original.to_bytes()
        restored = IPD.from_bytes(blob)

        ref_reports, ref_next = drive(original, late, next_sweep)
        res_reports, res_next = drive(restored, late, next_sweep)
        ref_reports.append(original.sweep(ref_next))
        res_reports.append(restored.sweep(res_next))

        assert [report_fields(r) for r in res_reports] == [
            report_fields(r) for r in ref_reports
        ]
        assert restored.snapshot(
            ref_next, include_unclassified=True
        ) == original.snapshot(ref_next, include_unclassified=True)
        assert restored.to_bytes() == original.to_bytes()

    def test_restore_at_every_cut_continues_exactly(self):
        """stage2 has partial expiry and a source that expires and comes
        back.  Cut after every round's ingest and after every sweep: the
        restored engine's later sweeps (``visited`` included) and blobs
        equal the uninterrupted engine's."""
        t = STAGE2_PARAMS.t
        rounds: list[list] = [[] for __ in range(16)]  # the trace's 12 + 4 idle
        for flow in stage2_trace():
            rounds[int(flow.timestamp // t)].append(flow)

        def play(engine, first, swept_first=False):
            """Blobs after each ingest, (report, blob) after each sweep."""
            out = []
            for index in range(first, len(rounds)):
                if not (swept_first and index == first):
                    engine.ingest_many(rounds[index])
                    out.append(engine.to_bytes())
                report = engine.sweep((index + 1) * t)
                out.append((report_fields(report), engine.to_bytes()))
            return out

        whole = play(IPD(STAGE2_PARAMS), 0)
        for index in range(len(rounds)):
            ingested, (__, swept) = whole[2 * index : 2 * index + 2]
            assert play(IPD.from_bytes(ingested), index, swept_first=True) == (
                whole[2 * index + 1 :]
            )
            assert play(IPD.from_bytes(swept), index + 1) == whole[2 * index + 2 :]

    def test_counters_and_structure_restored(self):
        engine = IPD(FIG05_PARAMS)
        drive(engine, fig05_trace())
        restored = IPD.from_bytes(engine.to_bytes())
        assert restored.flows_ingested == engine.flows_ingested
        assert restored.bytes_ingested == engine.bytes_ingested
        for version, tree in engine.trees.items():
            other = restored.trees[version]
            assert other.split_count == tree.split_count
            assert other.join_count == tree.join_count
            assert other.leaf_count() == tree.leaf_count()
            assert other.leaves() == tree.leaves()
            assert other.dirty.tolist() == tree.dirty.tolist()

    def test_params_round_trip(self):
        params = IPDParams(
            q=0.9, cidr_max_v4=24, cidr_max_v6=40,
            n_cidr_factor_v4=0.25, n_cidr_factor_v6=0.125,
            t=30.0, e=90.0, drop_threshold=0.125,
            count_bytes=True, enable_bundles=True, bundle_min_share=0.2,
        )
        engine = IPD(params)
        restored = IPD.from_bytes(engine.to_bytes())
        for name in ("q", "cidr_max_v4", "cidr_max_v6", "n_cidr_factor_v4",
                     "n_cidr_factor_v6", "t", "e", "drop_threshold",
                     "count_bytes", "enable_bundles", "bundle_min_share"):
            assert getattr(restored.params, name) == getattr(params, name)

    def test_custom_decay_requires_params_override(self):
        params = IPDParams(
            n_cidr_factor_v4=0.005, n_cidr_factor_v6=0.005,
            decay=lambda count, age, p: count * 0.5,
        )
        engine = IPD(params)
        drive(engine, fig05_trace()[:100])
        blob = engine.to_bytes()
        with pytest.raises(StateCodecError, match="decay"):
            IPD.from_bytes(blob)
        restored = IPD.from_bytes(blob, params=params)
        assert restored.params.decay is params.decay

    def test_empty_engine_round_trips(self):
        engine = IPD(FIG05_PARAMS)
        restored = IPD.from_bytes(engine.to_bytes())
        assert restored.flows_ingested == 0
        assert restored.to_bytes() == engine.to_bytes()


class TestExactPreservation:
    def test_float_payloads_are_bit_exact(self):
        """Counts that are sums of decayed floats must survive verbatim
        (recomputing them in a different order would drift)."""
        engine = IPD(DUALSTACK_PARAMS)
        drive(engine, dualstack_trace())
        image = decode_engine(engine.to_bytes())

        def walk(node, ref):
            if node.kind == "internal":
                walk(node.left, ref.left)
                walk(node.right, ref.right)
                return
            assert node.total == ref.total
            assert node.oldest_seen == ref.oldest_seen
            if node.sources is not None:
                assert node.sources == ref.sources

        ref_image = decode_engine(engine.to_bytes())
        for version, tree in image.trees.items():
            walk(tree.root, ref_image.trees[version].root)

    def test_source_order_preserved(self):
        """Per-IP map insertion order is behavior (float-sum order)."""
        engine = IPD(FIG05_PARAMS)
        base = parse_ip("10.0.0.0")[0]
        for index in (5, 1, 9, 2):  # deliberately non-sorted arrival order
            engine.ingest(FlowRecord(
                timestamp=float(index), src_ip=base + index * 16,
                version=IPV4, ingress=A,
            ))
        arrival = [base + index * 16 for index in (5, 1, 9, 2)]
        image = decode_engine(engine.to_bytes())
        assert [ip for ip, __, __ in image.trees[IPV4].root.sources] == arrival
        restored = IPD.from_bytes(engine.to_bytes()).trees[IPV4]
        assert [ip for ip, *__ in restored.sources(root_leaf(restored))] == arrival

    def test_next_sweep_visits_same_leaves(self):
        """Dirty membership must round-trip so the first post-restore sweep
        touches exactly the same work set."""
        engine = IPD(FIG05_PARAMS)
        __, next_sweep = drive(engine, fig05_trace())
        restored = IPD.from_bytes(engine.to_bytes())
        ref = engine.sweep(next_sweep)
        got = restored.sweep(next_sweep)
        assert report_fields(got) == report_fields(ref)
        assert got.visited == ref.visited


class TestSubtreeBlobs:
    def test_subtree_round_trip(self):
        prefix = Prefix.from_string("10.0.0.0/8")
        root = NodeImage(
            kind="internal",
            left=NodeImage(
                kind="unclassified", dirty=True,
                sources=[(167772160, 42.0, [(A, 3.0)])],
                total=3.0, oldest_seen=42.0,
            ),
            right=NodeImage(
                kind="classified", ingress=A, counters=[(A, 7.5)],
                last_seen=100.0, classified_at=60.0,
            ),
        )
        blob = encode_subtree(prefix, IPV4, root, split_count=2, join_count=1)
        image = decode_subtree(blob)
        assert image.prefix == prefix
        assert image.version == IPV4
        assert image.split_count == 2
        assert image.join_count == 1
        assert image.root == root

    def test_kind_mismatch_rejected(self):
        """An engine blob is not a subtree blob and vice versa."""
        engine_blob = IPD(FIG05_PARAMS).to_bytes()
        with pytest.raises(StateCodecError, match="kind"):
            decode_subtree(engine_blob)
        subtree_blob = encode_subtree(
            Prefix.from_string("0.0.0.0/0"), IPV4,
            NodeImage(kind="unclassified", sources=[]),
        )
        with pytest.raises(StateCodecError, match="kind"):
            decode_engine(subtree_blob)


class TestWireFormatErrors:
    def blob(self):
        engine = IPD(FIG05_PARAMS)
        drive(engine, fig05_trace()[:200])
        return engine.to_bytes()

    def test_bad_magic(self):
        blob = self.blob()
        with pytest.raises(StateCodecError, match="magic"):
            decode_engine(b"XXXX" + blob[4:])

    def test_truncation(self):
        blob = self.blob()
        for cut in (0, 3, 6, len(blob) // 2, len(blob) - 1):
            with pytest.raises(StateCodecError):
                decode_engine(blob[:cut])

    def test_newer_codec_version_refused(self):
        blob = bytearray(self.blob())
        # header layout: magic[4] | kind[1] | version u16 BE
        blob[5:7] = struct.pack(">H", CODEC_VERSION + 1)
        with pytest.raises(IncompatibleStateError):
            decode_engine(bytes(blob))

    def test_garbage_rejected(self):
        with pytest.raises(StateCodecError):
            decode_engine(b"")
        with pytest.raises(StateCodecError):
            decode_subtree(b"IP")


# -- malformed trees at the blob boundary ------------------------------------------

ROOT = Prefix.root(IPV4)
EMPTY = NodeImage("unclassified", sources=[])
ADDRESS = parse_ip("192.0.0.0")[0]


def _stream(node: NodeImage) -> bytes:
    """The node-stream bytes of *node* (preorder, as the codec writes them)."""
    head = encode_subtree(ROOT, IPV4, NodeImage("delegated"))[:-1]
    return encode_subtree(ROOT, IPV4, node)[len(head):]


def _chain(depth: int) -> NodeImage:
    """*depth* internal nodes down the lowest addresses, empty leaves aside."""
    node = EMPTY
    for __ in range(depth):
        node = NodeImage("internal", left=node, right=EMPTY)
    return node


def _unclassified(sources, total) -> NodeImage:
    return NodeImage("unclassified", sources=sources, total=total, oldest_seen=1.0)


def _classified(counters=((A, 3.0),), last_seen=1.0, classified_at=0.0) -> NodeImage:
    return NodeImage("classified", ingress=A, counters=list(counters), last_seen=last_seen,
                     classified_at=classified_at)


#: node streams under an IPv4 /0, each a tree no engine could have written
MALFORMED = {
    "internal-below-one-address": lambda: _stream(_chain(33)),
    "5000-nested-internals": lambda: b"\x00" * 5000 + _stream(EMPTY) * 5001,
    "source-outside-its-leaf": lambda: _stream(NodeImage(
        "internal", left=_unclassified([(ADDRESS, 1.0, [(A, 5.0)])], 5.0), right=EMPTY,
    )),
    "source-repeated-in-a-leaf": lambda: _stream(_unclassified(
        [(ADDRESS, 1.0, [(A, 1.0)]), (ADDRESS, 2.0, [(A, 1.0)])], 2.0
    )),
    "ingress-repeated-among-cells": lambda: _stream(_unclassified(
        [(ADDRESS, 1.0, [(A, 1.0), (A, 2.0)])], 3.0
    )),
    "ingress-repeated-in-counters": lambda: _stream(NodeImage(
        "classified", ingress=A, counters=[(A, 3.0), (A, 4.0)],
        last_seen=1.0, classified_at=0.0,
    )),
    # figures no engine writes: a NaN or infinite time never expires or
    # decays, and a non-finite or negative weight poisons every sum
    "nan-counter": lambda: _stream(_classified(counters=[(A, NAN)])),
    "infinite-counter": lambda: _stream(_classified(counters=[(B, 1.0), (A, INF)])),
    "minus-infinite-cell-weight": lambda: _stream(_unclassified(
        [(ADDRESS, 1.0, [(A, -INF)])], 1.0
    )),
    "negative-cell-weight": lambda: _stream(_unclassified(
        [(ADDRESS, 1.0, [(A, 2.0), (B, -1.0)])], 1.0
    )),
    "nan-last-seen": lambda: _stream(_classified(last_seen=NAN)),
    "infinite-classified-at": lambda: _stream(_classified(classified_at=INF)),
    "infinite-source-seen": lambda: _stream(_unclassified([(ADDRESS, -INF, [(A, 1.0)])], 1.0)),
    "infinite-total": lambda: _stream(_unclassified([(ADDRESS, 1.0, [(A, 1.0)])], INF)),
    "negative-total": lambda: _stream(_unclassified([(ADDRESS, 1.0, [(A, 1.0)])], -1.0)),
    "nan-oldest-seen": lambda: _stream(NodeImage("unclassified", sources=[], oldest_seen=NAN)),
    "minus-infinite-oldest-seen": lambda: _stream(
        NodeImage("unclassified", sources=[], oldest_seen=-INF)
    ),
    # expiry reads only the leaves whose oldest_seen is before its cutoff:
    # one above a source's seen would keep that source past its time
    "oldest-seen-above-a-source": lambda: _stream(NodeImage(
        "unclassified", sources=[(ADDRESS, 1.0, [(A, 1.0)])], total=1.0, oldest_seen=2.0
    )),
    "infinite-oldest-seen-with-a-source": lambda: _stream(NodeImage(
        "unclassified", sources=[(ADDRESS, 1.0, [(A, 1.0)])], total=1.0, oldest_seen=INF
    )),
    "finite-oldest-seen-on-an-empty-leaf": lambda: _stream(
        NodeImage("unclassified", sources=[], oldest_seen=1.0)
    ),
}


@pytest.mark.parametrize("case", MALFORMED, ids=list(MALFORMED))
def test_malformed_tree_is_a_typed_error(case, tmp_path):
    """Each tree decodes to a :class:`StateCodecError` with its offset, in an
    engine blob and a subtree blob alike, and a checkpoint holding it (whose
    CRC the writer computed, so it checks out) is a
    :class:`CheckpointCorruptError`."""
    stream = MALFORMED[case]()
    tree = TreeImage(IPV4, ROOT, 0, 0, NodeImage("delegated"))
    engine_blob = encode_engine(EngineImage(IPDParams(), 0, 0, None, {IPV4: tree}))
    subtree_blob = encode_subtree(ROOT, IPV4, NodeImage("delegated"))
    for decode, blob in ((IPD.from_bytes, engine_blob), (decode_subtree, subtree_blob)):
        with pytest.raises(StateCodecError) as caught:
            decode(blob[:-1] + stream)
        assert caught.value.offset is not None
    store = CheckpointStore(tmp_path)
    path = store.save(Checkpoint(60.0, 0, 120.0, None, 1, engine_blob[:-1] + stream))
    with pytest.raises(CheckpointCorruptError) as caught:
        store.restore_engine(store.load(path))
    assert caught.value.path == path
    assert caught.value.offset is not None



def test_malformed_engine_blob_with_a_delegated_node(tmp_path):
    """A delegated leaf is a range another engine owns, so only a subtree
    blob carries one (a shard's inactive root).  An engine blob whose left
    /1 was delegated used to restore into a plain engine with
    ``delegated_count() == 1``: a flow into that half moved
    ``flows_ingested`` and showed in no snapshot.  It is a
    :class:`StateCodecError` with its offset now, and a checkpoint holding
    it a :class:`CheckpointCorruptError`."""
    root = NodeImage("internal", left=NodeImage("delegated"), right=EMPTY)
    tree = TreeImage(IPV4, ROOT, 0, 0, root)
    blob = encode_engine(EngineImage(IPDParams(), 0, 0, None, {IPV4: tree}))
    for decode in (decode_engine, IPD.from_bytes):
        with pytest.raises(StateCodecError, match="delegated node at 0.0.0.0/1") as caught:
            decode(blob)
        assert caught.value.offset is not None
    store = CheckpointStore(tmp_path)
    path = store.save(Checkpoint(60.0, 0, 120.0, None, 1, blob))
    with pytest.raises(CheckpointCorruptError) as caught:
        store.restore_engine(store.load(path))
    assert caught.value.path == path
    # the subtree blob keeps the tag
    assert decode_subtree(encode_subtree(ROOT, IPV4, root)).root.left.kind == "delegated"
