"""Sharded pipelines must be byte-identical to the single engine.

The acceptance bar for the sharded runtime: for every shard count and
executor, the merged snapshots — down to their serialized CSV bytes —
equal what one engine produces, on the fig05-style algorithm example and
on a dual-stack scenario, including ranges that classify *coarser* than
the split depth (the aggregator + boundary-reconciliation path).
"""

import io

import pytest

from repro.core.iputil import IPV4, Prefix
from repro.core.output import write_records_csv
from repro.core.params import IPDParams
from repro.core.statecodec import NodeImage, encode_subtree
from repro.netflow.records import FlowBatch, FlowRecord, iter_flow_batches
from repro.runtime import Pipeline, ShardedIPD
from repro.runtime.executors import make_executor
from repro.runtime.shards import ShardEngine

from repro.testkit.traces import (
    CORNERS,
    DUALSTACK_PARAMS,
    FIG05_PARAMS,
    dualstack_trace,
    fig05_trace,
)


def run_csv(result) -> bytes:
    """Serialize every snapshot of a run to its canonical CSV bytes."""
    buffer = io.StringIO()
    for when in result.snapshot_times():
        write_records_csv(result.snapshots[when], buffer)
    return buffer.getvalue().encode()


def reference_run(flows, params):
    return Pipeline(
        params, snapshot_seconds=120.0, include_unclassified=True
    ).run(flows)


def sharded_run(flows, params, shards, executor="serial", workers=None):
    with Pipeline(
        params,
        shards=shards,
        executor=executor,
        workers=workers,
        snapshot_seconds=120.0,
        include_unclassified=True,
    ) as pipeline:
        return pipeline.run(flows)


def assert_equivalent(reference, sharded):
    assert run_csv(sharded) == run_csv(reference)
    assert sharded.flows_processed == reference.flows_processed
    assert len(sharded.sweeps) == len(reference.sweeps)
    for ours, theirs in zip(sharded.sweeps, reference.sweeps):
        assert ours.timestamp == theirs.timestamp
        assert ours.leaves == theirs.leaves
        assert ours.leaves_by_version == theirs.leaves_by_version
        assert ours.classified == theirs.classified
        assert ours.classifications == theirs.classifications
        assert ours.splits == theirs.splits
        assert ours.joins == theirs.joins
        assert ours.drops == theirs.drops
        assert ours.prunes == theirs.prunes
        assert ours.expired_sources == theirs.expired_sources
        assert ours.decayed_ranges == theirs.decayed_ranges


@pytest.mark.parametrize("shards", [2, 4, 16])
def test_router_never_feeds_a_shard_a_foreign_source(shards, monkeypatch):
    """``RangeTree.lookup_leaf`` has no contract outside its root prefix
    (a shard tree would answer with an arbitrary leaf), so the router
    must only ever hand a shard sources from the shard's own range."""
    fed = {4: 0, 6: 0}
    real = ShardEngine.ingest_batch

    def checked(engine, batch):
        root = engine.ipd.trees[batch.version].root_prefix
        assert all(root.contains_ip(source) for source in batch.addresses())
        fed[batch.version] += len(batch)
        return real(engine, batch)

    monkeypatch.setattr(ShardEngine, "ingest_batch", checked)
    # the stock v6 threshold never splits /0 on this volume; lower it so
    # the v6 cascade reaches the shard depth too
    params = DUALSTACK_PARAMS.with_overrides(n_cidr_factor_v6=1e-9)
    sharded_run(dualstack_trace(), params, shards)
    assert fed[4] and fed[6]  # both families did reach shard engines


class TestSerialShardEquivalence:
    """Pipeline(shards=N, executor=serial) vs the single engine, N in {2,4,16}.

    N=2 splits at /1, so every boundary join and prune lands on the root.
    """

    @pytest.mark.parametrize("shards", [2, 4, 16])
    def test_fig05_trace(self, shards):
        flows = fig05_trace()
        assert_equivalent(
            reference_run(flows, FIG05_PARAMS),
            sharded_run(flows, FIG05_PARAMS, shards),
        )

    @pytest.mark.parametrize("shards", [2, 4, 16])
    def test_dualstack_trace(self, shards):
        flows = dualstack_trace()
        assert_equivalent(
            reference_run(flows, DUALSTACK_PARAMS),
            sharded_run(flows, DUALSTACK_PARAMS, shards),
        )

    @pytest.mark.parametrize("shards", [4, 16])
    def test_batched_stream(self, shards):
        """Columnar ingest through the router, cut at sweep boundaries."""
        flows = fig05_trace()
        reference = reference_run(flows, FIG05_PARAMS)
        batched = sharded_run(
            iter_flow_batches(flows, batch_size=97), FIG05_PARAMS, shards
        )
        assert_equivalent(reference, batched)

    def test_coarser_than_split_depth(self):
        """fig05 corners classify at /2 — coarser than the /4 split depth.

        That only happens through boundary reconciliation: shard roots
        join across the /4 cut and cascade up inside the aggregator.
        The final mapping must contain those coarse ranges verbatim.
        """
        flows = fig05_trace()
        reference = reference_run(flows, FIG05_PARAMS)
        coarse = [
            record
            for record in reference.final_snapshot()
            if record.classified and record.range.masklen < 4
        ]
        assert coarse, "trace no longer classifies coarser than /4"
        sharded = sharded_run(flows, FIG05_PARAMS, 16)
        assert run_csv(sharded) == run_csv(reference)


class TestMpEquivalence:
    """Acceptance pin: mp snapshots are byte-identical to the single
    engine for N in {2, 4, 16}."""

    @pytest.mark.parametrize("shards", [2, 4, 16])
    def test_fig05_trace(self, shards):
        flows = fig05_trace()
        assert_equivalent(
            reference_run(flows, FIG05_PARAMS),
            sharded_run(flows, FIG05_PARAMS, shards, executor="mp", workers=2),
        )

    @pytest.mark.parametrize("shards", [2, 4, 16])
    def test_dualstack_trace(self, shards):
        flows = dualstack_trace()
        assert_equivalent(
            reference_run(flows, DUALSTACK_PARAMS),
            sharded_run(
                flows, DUALSTACK_PARAMS, shards, executor="mp", workers=2
            ),
        )


def test_serial_and_mp_executors_answer_the_protocol_identically():
    """The worker boundary, pinned where it can be observed: everything
    a coordinator may ask, asked of both executors in the same order,
    with shards brought up out of index order — so nothing in the serial
    executor may reply in engine-creation order, or in any other way a
    worker process behind a pipe would not."""
    empty = NodeImage(kind="unclassified", sources=[])
    seeds = [
        ("seed", index, IPV4,
         encode_subtree(Prefix(index << 30, 2, IPV4), IPV4, empty))
        for index in (3, 2, 0)
    ]

    def ask(executor, *cmd):
        executor.broadcast(cmd)
        (reply,) = executor.gather()  # workers=1: one reply
        return reply

    replies = {}
    for kind in ("serial", "mp"):
        executor = make_executor(kind, FIG05_PARAMS, depth=2, workers=1)
        try:
            for seed in seeds:
                executor.send(seed[1], seed)
            for index in (2, 3, 0):
                executor.send(index, ("feed", index, FlowBatch.from_flows(
                    FlowRecord(timestamp=1.0 + n, src_ip=(index << 30) + 16 * n,
                               version=IPV4, ingress=CORNERS[index])
                    for n in range(8)
                )))
            replies[kind] = (
                [(index, tick.report.visited, tick.roots[IPV4].kind)
                 for index, tick in ask(executor, "tick", 60.0).items()],
                ask(executor, "snapshot", 60.0, True),
                ask(executor, "export"),
                ask(executor, "metrics"),
            )
        finally:
            executor.close()
    assert len(replies["serial"][1]) == 3
    assert replies["serial"] == replies["mp"]


class TestShardedValidation:
    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            ShardedIPD(FIG05_PARAMS, shards=3)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardedIPD(FIG05_PARAMS, shards=0)

    def test_depth_beyond_cidr_max_rejected(self):
        tiny = IPDParams(cidr_max_v4=4, n_cidr_factor_v4=0.005)
        with pytest.raises(ValueError):
            ShardedIPD(tiny, shards=32)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            ShardedIPD(FIG05_PARAMS, shards=4, executor="gpu")

    @pytest.mark.parametrize("now", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_sweep_time_rejected_before_the_broadcast(self, now):
        with ShardedIPD(FIG05_PARAMS, shards=4) as engine:
            engine.ingest_many(fig05_trace()[:400])
            engine.sweep(60.0)
            before = engine.to_bytes()
            sent = []
            engine._executor.broadcast = sent.append
            with pytest.raises(ValueError, match=f"sweep time {now} is not finite"):
                engine.sweep(now)
            assert sent == []
            del engine._executor.broadcast
            assert engine.last_sweep_at == 60.0
            assert engine.to_bytes() == before

    @pytest.mark.parametrize("executor", ["serial", "mp"])
    def test_bad_row_rejected_before_any_state_moves(self, executor):
        """A batch whose bad row routes to another shard than its good
        one is refused whole, naming the caller's row, before the
        counters, the aggregator or any shard moves."""
        t = FIG05_PARAMS.t
        flows = fig05_trace()
        with ShardedIPD(FIG05_PARAMS, shards=4, executor=executor, workers=2) as engine:
            now = t
            while engine._delegated[IPV4] != {0, 1, 2, 3}:  # the trie is at /2
                engine.ingest_many([f for f in flows if now - t <= f.timestamp < now])
                engine.sweep(now)
                now += t
            before = (engine.flows_ingested, engine.to_bytes())
            batch = FlowBatch.from_flows([
                FlowRecord(timestamp=now, src_ip=5, version=IPV4, ingress=CORNERS[0]),
                FlowRecord(timestamp=float("nan"), src_ip=(3 << 30) + 5,
                           version=IPV4, ingress=CORNERS[3]),
            ])
            with pytest.raises(ValueError, match="flow batch row 1: timestamp nan"):
                engine.ingest_batch(batch)
            assert (engine.flows_ingested, engine.to_bytes()) == before
            engine.sweep(now)  # every worker is alive

    def test_close_is_idempotent(self):
        engine = ShardedIPD(FIG05_PARAMS, shards=4, executor="mp", workers=2)
        engine.close()
        engine.close()
