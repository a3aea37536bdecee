"""Exact-mode admission must be invisible in the output, and the
topology must be invisible under either mode.

The acceptance bar for the sketch-gated admission front-end: with
``mode="exact"`` the gate observes (sketch, herd and counters move) but
keeps every row, so snapshots are *byte-identical* (serialized CSV)
to running with no admission at all, at every shard count, on every
executor, at every sweep tick and between them, and across
checkpoint/resume, where a sharded run's checkpoint continues on one
engine.
A deployment has one gate — a sharded coordinator gates each batch
before routing it — so a sharded lossy run equals one lossy engine in
records, sweep reports and engine blobs.  Lossy mode's bounded-loss
accuracy contract lives in the Fig. 6 experiment (EXPERIMENTS.md).
"""

import pytest
from hypothesis import given, settings

from repro.core.admission import AdmissionConfig
from repro.core.algorithm import IPD
from repro.core.iputil import IPV4
from repro.netflow.records import FlowRecord, iter_flow_batches
from repro.runtime import CheckpointStore, Pipeline, ShardedIPD
from repro.testkit.strategies import (
    DEFAULT_INGRESSES as INGRESSES,
    SMALL_SPACE_PARAMS as PARAMS,
    flow_events_list,
)
from repro.testkit.oracle import ORACLE_REPORT_FIELDS
from repro.testkit.traces import (
    DUALSTACK_PARAMS,
    FIG05_PARAMS,
    STAGE2_PARAMS,
    dualstack_trace,
    fig05_trace,
    stage2_trace,
)
from tests.runtime.test_shard_equivalence import (
    assert_equivalent,
    reference_run,
    run_csv,
)

EXACT = AdmissionConfig(mode="exact")
LOSSY = AdmissionConfig(mode="lossy")

RETAIN = 100


def admission_run(
    flows,
    params,
    admission,
    shards=1,
    executor="serial",
    workers=None,
    **kwargs,
):
    with Pipeline(
        params,
        shards=shards,
        executor=executor,
        workers=workers,
        snapshot_seconds=120.0,
        include_unclassified=True,
        admission=admission,
        **kwargs,
    ) as pipeline:
        return pipeline.run(flows)


class TestExactEqualsOff:
    """Exact admission vs the plain reference, every topology."""

    @pytest.mark.parametrize("shards", [1, 4, 16])
    def test_fig05_serial(self, shards):
        flows = fig05_trace()
        assert_equivalent(
            reference_run(flows, FIG05_PARAMS),
            admission_run(flows, FIG05_PARAMS, EXACT, shards=shards),
        )

    @pytest.mark.parametrize("shards", [1, 4, 16])
    def test_dualstack_serial(self, shards):
        flows = dualstack_trace()
        assert_equivalent(
            reference_run(flows, DUALSTACK_PARAMS),
            admission_run(flows, DUALSTACK_PARAMS, EXACT, shards=shards),
        )

    def test_fig05_mp(self):
        flows = fig05_trace()
        assert_equivalent(
            reference_run(flows, FIG05_PARAMS),
            admission_run(
                flows, FIG05_PARAMS, EXACT, shards=4, executor="mp", workers=2
            ),
        )

    def test_batched_stream(self):
        """Columnar ingest (the prefilter seam) through the router."""
        flows = fig05_trace()
        reference = reference_run(flows, FIG05_PARAMS)
        batched = admission_run(
            iter_flow_batches(flows, batch_size=97),
            FIG05_PARAMS, EXACT, shards=4,
        )
        assert_equivalent(reference, batched)

    def test_admission_counters_surface_in_reports(self):
        flows = fig05_trace()
        result = admission_run(flows, FIG05_PARAMS, EXACT, shards=4)
        single = admission_run(flows, FIG05_PARAMS, EXACT)
        assert report_rows(result) == report_rows(single)
        assert sum(s.admission_admitted for s in result.sweeps) > 0
        assert sum(s.admission_dropped for s in result.sweeps) == 0
        assert not any(s.admission_saturated for s in result.sweeps)

    def test_lossy_runs_and_drops(self):
        """Liveness only: lossy output quality is gated in EXPERIMENTS.md."""
        flows = fig05_trace()
        result = admission_run(flows, FIG05_PARAMS, LOSSY)
        assert result.flows_processed == len(flows)
        assert sum(s.admission_held for s in result.sweeps) == 0


#: the SweepReport fields a topology must not change: the oracle's, plus
#: the admission counters of the deployment's one gate
REPORT_FIELDS = ORACLE_REPORT_FIELDS + (
    "admission_admitted", "admission_held", "admission_dropped",
    "admission_promoted", "admission_saturated",
)

LOSSY_TRACES = {
    "fig05": (fig05_trace, FIG05_PARAMS),
    "stage2": (stage2_trace, STAGE2_PARAMS),
    "dualstack": (dualstack_trace, DUALSTACK_PARAMS),
}


def report_rows(result):
    return [
        tuple(getattr(report, name) for name in REPORT_FIELDS)
        for report in result.sweeps
    ]


def blob_run(flows, params, admission, **kwargs):
    """A run and the engine blob after each of its sweeps."""
    blobs = []
    result = admission_run(
        flows, params, admission,
        on_sweep=lambda report, engine: blobs.append(engine.to_bytes()),
        **kwargs,
    )
    return result, blobs


class TestShardedLossyEqualsSingle:
    """One gate per deployment: the coordinator gates each batch once and
    routes the kept rows, so a sharded lossy run is one lossy engine in
    records, every sweep report and the engine blob after every sweep."""

    @pytest.mark.parametrize(
        "shards, executor", [(4, "serial"), (16, "serial"), (4, "mp")]
    )
    @pytest.mark.parametrize("trace", sorted(LOSSY_TRACES))
    def test_matches_one_engine(self, trace, shards, executor):
        make_flows, params = LOSSY_TRACES[trace]
        flows = make_flows()
        single, single_blobs = blob_run(flows, params, LOSSY)
        sharded, sharded_blobs = blob_run(
            flows, params, LOSSY, shards=shards, executor=executor, workers=2
        )
        # byte-weighted flows (dualstack) all clear the threshold at once
        dropped = sum(report.admission_dropped for report in single.sweeps)
        assert (dropped > 0) != params.count_bytes
        assert sharded.final_snapshot() == single.final_snapshot()
        assert run_csv(sharded) == run_csv(single)
        assert report_rows(sharded) == report_rows(single)
        assert len(sharded_blobs) == len(single_blobs)
        for index, (ours, theirs) in enumerate(zip(sharded_blobs, single_blobs)):
            assert ours == theirs, f"engine blob after sweep {index}"

    @pytest.mark.parametrize("shards", [1, 16])
    def test_resume_and_reshard(self, tmp_path, shards):
        """The gate rides the checkpoint of a run on *shards* engines into
        one lossy engine, which continues as the single lossy engine's
        blobs (16 shards resume resharded to one)."""
        flows = fig05_trace()
        single, single_blobs = blob_run(flows, FIG05_PARAMS, LOSSY)
        store = CheckpointStore(tmp_path / "ckpt", retain=RETAIN)
        admission_run(
            flows, FIG05_PARAMS, LOSSY, shards=shards,
            checkpoint_store=store, checkpoint_every=FIG05_PARAMS.t,
        )
        checkpoints = [store.load(path) for path in store.list()]
        checkpoint = checkpoints[len(checkpoints) // 2]
        done = checkpoint.sweep_count
        assert checkpoint.engine_blob == single_blobs[done - 1]

        blobs = []
        with Pipeline.resume(
            store,
            checkpoint=checkpoint,
            snapshot_seconds=120.0,
            include_unclassified=True,
            on_sweep=lambda report, engine: blobs.append(engine.to_bytes()),
        ) as pipeline:
            resumed = pipeline.run(flows)
        assert isinstance(pipeline.engine, IPD)
        assert pipeline.engine.admission.config == LOSSY
        assert blobs == single_blobs[done:]
        assert report_rows(resumed)[-len(blobs):] == report_rows(single)[done:]
        for when, records in resumed.snapshots.items():
            assert records == single.snapshots[when], f"snapshot @ {when}"
        assert resumed.final_snapshot() == single.final_snapshot()


class TestOneGate:
    """Exact observes with the function lossy decides with."""

    @pytest.mark.parametrize("shards", [1, 4])
    def test_exact_equals_off_between_sweeps(self, shards):
        """Not only at sweep ticks: after every ``ingest_batch`` the trie
        behind the exact gate is the trie admission-off built."""

        def engine(admission):
            if shards == 1:
                return IPD(FIG05_PARAMS, admission=admission)
            return ShardedIPD(FIG05_PARAMS, shards=shards, admission=admission)

        plain, gated = engine(None), engine(EXACT)
        next_sweep = FIG05_PARAMS.t
        try:
            for batch in iter_flow_batches(fig05_trace(), batch_size=211):
                while batch.timestamps[0] >= next_sweep:
                    plain.sweep(next_sweep)
                    gated.sweep(next_sweep)
                    next_sweep += FIG05_PARAMS.t
                plain.ingest_batch(batch)
                gated.ingest_batch(batch)
                assert gated.state_size() == plain.state_size()
                assert gated.leaf_count() == plain.leaf_count()
                assert gated.to_image().trees == plain.to_image().trees
            assert next_sweep > 3 * FIG05_PARAMS.t  # the trie was swept and split
        finally:
            if shards > 1:
                plain.close()
                gated.close()

    @pytest.mark.parametrize(
        "trace, params",
        [(fig05_trace, FIG05_PARAMS), (dualstack_trace, DUALSTACK_PARAMS)],
    )
    def test_counters_share_one_unit(self, trace, params):
        """admitted / held / dropped count flows, promoted counts sources:
        what exact reports held is what lossy drops on the same stream."""
        flows = trace()
        exact = admission_run(flows, params, EXACT).sweeps
        lossy = admission_run(flows, params, LOSSY).sweeps

        def total(sweeps, name):
            return sum(getattr(report, name) for report in sweeps)

        assert total(exact, "admission_held") == total(lossy, "admission_dropped")
        # byte-weighted flows (dualstack) all clear the threshold at once
        assert (total(lossy, "admission_dropped") > 0) != params.count_bytes
        assert total(exact, "admission_promoted") == total(lossy, "admission_promoted") > 0
        assert total(exact, "admission_admitted") == total(lossy, "admission_admitted")
        for sweeps in (exact, lossy):
            assert len(flows) == sum(
                total(sweeps, "admission_" + name)
                for name in ("admitted", "held", "dropped")
            )


class TestExactEqualsOffProperty:
    """Hypothesis: exact ≡ off at *every* sweep tick, any trace."""

    @pytest.mark.parametrize("shards", [0, 4])
    @settings(max_examples=15, deadline=None)
    @given(raw_flows=flow_events_list(max_size=250))
    def test_lockstep_equivalence(self, shards, raw_flows):
        reference = IPD(PARAMS)
        if shards:
            gated = ShardedIPD(PARAMS, shards=shards, admission=EXACT)
        else:
            gated = IPD(PARAMS, admission=EXACT)
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
                    gated.ingest(flow)
                now += 60.0
                reference.sweep(now)
                gated.sweep(now)
                assert (
                    gated.snapshot(now, include_unclassified=True)
                    == reference.snapshot(now, include_unclassified=True)
                )
                assert gated.state_size() == reference.state_size()
                assert gated.leaf_count() == reference.leaf_count()
            for __ in range(4):
                now += 60.0
                reference.sweep(now)
                gated.sweep(now)
                assert (
                    gated.snapshot(now, include_unclassified=True)
                    == reference.snapshot(now, include_unclassified=True)
                )
        finally:
            if shards:
                gated.close()


class TestCheckpointResumeWithAdmission:
    """The admission section rides the engine blob through resume."""

    def checkpointing_run(self, flows, params, store, shards):
        with Pipeline(
            params,
            shards=shards,
            snapshot_seconds=120.0,
            include_unclassified=True,
            checkpoint_store=store,
            checkpoint_every=params.t,
            admission=EXACT,
        ) as pipeline:
            return pipeline.run(flows)

    @pytest.mark.parametrize("shards", [1, 4, 16])
    def test_resume_and_reshard_stays_identical(self, tmp_path, shards):
        """A checkpoint a run on *shards* engines wrote resumes on one
        engine, and the output stays byte-identical to admission off."""
        flows = fig05_trace()
        reference = reference_run(flows, FIG05_PARAMS)
        store = CheckpointStore(tmp_path / "ckpt", retain=RETAIN)
        gated = self.checkpointing_run(flows, FIG05_PARAMS, store, shards=shards)
        assert run_csv(gated) == run_csv(reference)

        checkpoints = [store.load(path) for path in store.list()]
        checkpoint = checkpoints[len(checkpoints) // 2]
        with Pipeline.resume(
            store,
            checkpoint=checkpoint,
            snapshot_seconds=120.0,
            include_unclassified=True,
        ) as pipeline:
            resumed = pipeline.run(flows)

        assert isinstance(pipeline.engine, IPD)
        # admission config survives through the blob's trailing section
        assert pipeline.engine.admission.config.mode == "exact"

        for when, records in resumed.snapshots.items():
            assert records == reference.snapshots[when], f"snapshot @ {when}"
        final = reference.snapshot_times()[-1]
        assert final in resumed.snapshots

    def test_admission_off_blob_unchanged(self, tmp_path):
        """No admission → no trailing section: blobs stay byte-identical
        to what the pre-admission substrate wrote."""
        flows = fig05_trace()
        engine = IPD(FIG05_PARAMS)
        gated = IPD(FIG05_PARAMS, admission=EXACT)
        for flow in flows:
            engine.ingest(flow)
            gated.ingest(flow)
        engine.sweep(FIG05_PARAMS.t)
        gated.sweep(FIG05_PARAMS.t)
        plain_blob = engine.to_bytes()
        gated_blob = gated.to_bytes()
        assert gated_blob != plain_blob  # section present
        assert gated_blob.startswith(plain_blob)  # strictly trailing
        restored = IPD.from_bytes(plain_blob)
        assert restored.admission is None
