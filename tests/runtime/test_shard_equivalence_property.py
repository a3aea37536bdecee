"""Property-based shard equivalence: any trace, any split depth.

Hypothesis drives random flow streams through a single :class:`IPD` and
through :class:`ShardedIPD` at split depths 1, 2, 4 and 8, sweeping both
in lockstep.  After *every* sweep the merged sharded view must equal the
single engine's — snapshots (classified and unclassified), state size,
leaf count, classified counts and the merged engine blob, split/join
counters included — so transient divergence (a handoff or boundary join
happening a sweep late) cannot hide, not even when the final snapshots
agree.
"""

import pytest
from hypothesis import given, settings

from repro.core.algorithm import IPD
from repro.core.iputil import IPV4
from repro.core.params import IPDParams
from repro.netflow.records import FlowRecord
from repro.runtime import ShardedIPD
from repro.topology.elements import IngressPoint
from repro.testkit.strategies import (
    DEFAULT_INGRESSES as INGRESSES,
    SMALL_SPACE_PARAMS as PARAMS,
    flow_events_list,
)


def merged_state(engine, now):
    return (
        engine.snapshot(now, include_unclassified=True),
        engine.state_size(),
        engine.leaf_count(),
        engine.flows_ingested,
        engine.bytes_ingested,
        engine.to_bytes(),
    )


def test_boundary_prune_keeps_the_shard_split_counts():
    """A boundary join or prune deactivates a shard tree, and the splits
    it made while active must still reach the merged blob.

    One source, 0.0.0.0, seen 24 : 17 on two interfaces of R1 (neither
    reaches q = 0.6): the aggregator splits /0, shard 0 splits
    0.0.0.0/1, and once the source expires both splits prune back across
    the /1 cut, deactivating shard 0.  The single engine counts 2
    splits, and so must the sharded blob.
    """
    params = IPDParams(
        cidr_max_v4=4, q=0.6, n_cidr_factor_v4=0.0005, enable_bundles=False
    )
    et0, et1 = IngressPoint("R1", "et0"), IngressPoint("R1", "et1")
    flows = (
        [FlowRecord(0.0, 0, IPV4, et0)] * 24
        + [FlowRecord(0.0, 0, IPV4, et1)] * 17
        + [FlowRecord(180.0, 0, IPV4, et0)]
    )
    reference = IPD(params)
    sharded = ShardedIPD(params, shards=2)
    try:
        for engine in (reference, sharded):
            now = 60.0
            for flow in flows:
                while flow.timestamp >= now:
                    engine.sweep(now)
                    now += 60.0
                engine.ingest(flow)
            engine.sweep(now)
        assert sharded.to_image().trees == reference.to_image().trees
        assert sharded.to_bytes() == reference.to_bytes()
    finally:
        sharded.close()


@pytest.mark.parametrize("shards", [2, 4, 16, 256])
@settings(max_examples=15, deadline=None)
@given(raw_flows=flow_events_list(max_size=250))
def test_sharded_equals_single_engine(shards, raw_flows):
    reference = IPD(PARAMS)
    sharded = ShardedIPD(PARAMS, shards=shards, executor="serial")
    now = 0.0
    try:
        for chunk_start in range(0, max(len(raw_flows), 1), 25):
            chunk = raw_flows[chunk_start:chunk_start + 25]
            for src, ingress_index, offset in chunk:
                flow = FlowRecord(
                    timestamp=now + offset * 10.0,
                    src_ip=src,
                    version=IPV4,
                    ingress=INGRESSES[ingress_index],
                )
                reference.ingest(flow)
                sharded.ingest(flow)
            now += 60.0
            reference.sweep(now)
            sharded.sweep(now)
            assert merged_state(sharded, now) == merged_state(reference, now)
        # trailing idle sweeps: expiry, decay, drops, boundary prunes
        for __ in range(4):
            now += 60.0
            reference.sweep(now)
            sharded.sweep(now)
            assert merged_state(sharded, now) == merged_state(reference, now)
    finally:
        sharded.close()
