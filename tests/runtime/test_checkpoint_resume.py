"""Checkpoint/resume must be invisible in the output.

The acceptance bar for state externalization: interrupting a replay at
any sweep tick and resuming from the checkpoint yields a final merged
snapshot and SweepReport counter stream identical to the uninterrupted
run.  Every resume is one plain engine: a sharded run's checkpoint holds
the merged single-engine image, so it continues on one engine with the
same output (a checkpoint a 4-shard run wrote is committed under
``data/``).  A crashed mp shard worker is recovered from the last
checkpoint inside ``Pipeline.run`` without failing the pipeline, and the
run continues on one engine.
"""

from itertools import count
from pathlib import Path

import pytest

from repro.core.algorithm import IPD
from repro.runtime import (
    Checkpoint,
    CheckpointStore,
    LivePipeline,
    Pipeline,
    ShardedIPD,
    WorkerCrashError,
)
from repro.testkit.faults import Fault, FaultPlan
from repro.testkit.traces import dualstack_trace, fig05_trace
from tests.runtime.test_shard_equivalence import (
    DUALSTACK_PARAMS,
    FIG05_PARAMS,
    assert_equivalent,
    reference_run,
    run_csv,
)

RETAIN = 100  # keep every tick's checkpoint so any of them can seed a resume

COUNTERS = (
    "timestamp", "leaves", "leaves_by_version", "classified",
    "classifications", "splits", "joins", "drops", "prunes",
    "expired_sources", "decayed_ranges",
)


def counter_rows(sweeps):
    return [tuple(getattr(s, name) for name in COUNTERS) for s in sweeps]


def checkpointing_run(flows, params, store, shards=1, **kwargs):
    with Pipeline(
        params,
        shards=shards,
        snapshot_seconds=120.0,
        include_unclassified=True,
        checkpoint_store=store,
        checkpoint_every=params.t,  # a checkpoint at every sweep tick
        **kwargs,
    ) as pipeline:
        return pipeline.run(flows)


def resume_run(flows, checkpoint, resume_dir, params=None, **kwargs):
    with Pipeline.resume(
        CheckpointStore(resume_dir, retain=RETAIN),
        checkpoint=checkpoint,
        params=params,
        snapshot_seconds=120.0,
        include_unclassified=True,
        **kwargs,
    ) as pipeline:
        assert isinstance(pipeline.engine, IPD)
        return pipeline.run(flows)


def assert_resumed_equivalent(reference, checkpoint, resumed):
    """The stitched run (prefix up to the checkpoint + resumed remainder)
    must reproduce the uninterrupted reference exactly."""
    stitched = reference.sweeps[:checkpoint.sweep_count] + resumed.sweeps
    assert counter_rows(stitched) == counter_rows(reference.sweeps)
    assert resumed.flows_processed == reference.flows_processed
    for when, records in resumed.snapshots.items():
        assert records == reference.snapshots[when], f"snapshot @ {when}"
    # the resumed run always reproduces the closing snapshot
    final = reference.snapshot_times()[-1]
    assert final in resumed.snapshots


def all_checkpoints(store):
    checkpoints = [store.load(path) for path in store.list()]
    assert checkpoints, "run saved no checkpoints"
    return checkpoints


class TestSingleEngineResume:
    def test_fig05_resume_at_every_tick(self, tmp_path):
        flows = fig05_trace()
        store = CheckpointStore(tmp_path / "ckpt", retain=RETAIN)
        reference = checkpointing_run(flows, FIG05_PARAMS, store)
        assert_equivalent(reference_run(flows, FIG05_PARAMS), reference)
        checkpoints = all_checkpoints(store)
        # every sweep tick left a checkpoint (incl. the closing tick)
        assert len(checkpoints) == len(reference.sweeps)
        for index, checkpoint in enumerate(checkpoints):
            resumed = resume_run(
                flows, checkpoint, tmp_path / f"resume-{index}"
            )
            assert_resumed_equivalent(reference, checkpoint, resumed)

    def test_dualstack_resume_at_every_tick(self, tmp_path):
        flows = dualstack_trace()
        store = CheckpointStore(tmp_path / "ckpt", retain=RETAIN)
        reference = checkpointing_run(flows, DUALSTACK_PARAMS, store)
        for index, checkpoint in enumerate(all_checkpoints(store)):
            resumed = resume_run(
                flows, checkpoint, tmp_path / f"resume-{index}"
            )
            assert_resumed_equivalent(reference, checkpoint, resumed)

    def test_checkpointing_does_not_change_the_run(self, tmp_path):
        """Attaching a store is observation only."""
        flows = fig05_trace()
        store = CheckpointStore(tmp_path / "ckpt", retain=RETAIN)
        assert_equivalent(
            reference_run(flows, FIG05_PARAMS),
            checkpointing_run(flows, FIG05_PARAMS, store),
        )


DATA = Path(__file__).parent / "data"

#: checkpoints a 4-shard ``Pipeline`` wrote mid-run, at a tick with shards
#: active (fig05 four, dual-stack two): trace -> (file, trace, params)
SHARDED_CHECKPOINTS = {
    "fig05": ("fig05-shards4-420.ckpt", fig05_trace, FIG05_PARAMS),
    "dualstack": ("dualstack-shards4-360.ckpt", dualstack_trace, DUALSTACK_PARAMS),
}


class TestShardedResume:
    @pytest.mark.parametrize("trace", sorted(SHARDED_CHECKPOINTS))
    def test_sharded_run_resumes_on_one_engine(self, tmp_path, trace):
        __, build, params = SHARDED_CHECKPOINTS[trace]
        flows = build()
        store = CheckpointStore(tmp_path / "ckpt", retain=RETAIN)
        reference = checkpointing_run(flows, params, store, shards=4)
        assert_equivalent(reference_run(flows, params), reference)
        checkpoints = all_checkpoints(store)
        for index, checkpoint in enumerate(checkpoints[::2]):
            resumed = resume_run(flows, checkpoint, tmp_path / f"resume-{index}")
            assert_resumed_equivalent(reference, checkpoint, resumed)

    @pytest.mark.parametrize("shards", [1, 16])
    def test_reshard_on_resume(self, tmp_path, shards):
        """A checkpoint a run on 1 or 16 shards wrote holds the single
        engine's image of that tick and resumes on one engine; the output
        stays byte-identical."""
        flows = fig05_trace()
        store = CheckpointStore(tmp_path / "ckpt", retain=RETAIN)
        reference = checkpointing_run(flows, FIG05_PARAMS, store, shards=shards)
        assert_equivalent(reference_run(flows, FIG05_PARAMS), reference)
        checkpoints = all_checkpoints(store)
        middle = checkpoints[len(checkpoints) // 2]
        single_store = CheckpointStore(tmp_path / "single", retain=RETAIN)
        checkpointing_run(flows, FIG05_PARAMS, single_store)
        single = {ck.when: ck for ck in all_checkpoints(single_store)}
        assert middle == single[middle.when]
        resumed = resume_run(flows, middle, tmp_path / "resume")
        assert_resumed_equivalent(reference, middle, resumed)

    def test_reshard_dualstack(self, tmp_path):
        """A dual-stack 16-shard checkpoint resumes on one engine."""
        flows = dualstack_trace()
        store = CheckpointStore(tmp_path / "ckpt", retain=RETAIN)
        reference = checkpointing_run(flows, DUALSTACK_PARAMS, store, shards=16)
        checkpoints = all_checkpoints(store)
        middle = checkpoints[len(checkpoints) // 2]
        resumed = resume_run(flows, middle, tmp_path / "resume")
        assert_resumed_equivalent(reference, middle, resumed)

    @pytest.mark.parametrize("trace", sorted(SHARDED_CHECKPOINTS))
    def test_committed_sharded_checkpoint_resumes_on_one_engine(self, tmp_path, trace):
        """A checkpoint file a 4-shard run wrote holds the single-engine
        run's checkpoint of that tick, and continues on one engine byte
        for byte like the uninterrupted single-engine run: the same
        snapshots and sweep counters, and at every later tick the same
        engine blob and replay cursor."""
        name, build, params = SHARDED_CHECKPOINTS[trace]
        flows = build()
        single_store = CheckpointStore(tmp_path / "single", retain=RETAIN)
        reference = checkpointing_run(flows, params, single_store)
        single = {ck.when: ck for ck in all_checkpoints(single_store)}
        checkpoint = single_store.load(DATA / name)
        assert checkpoint == single[checkpoint.when]
        resumed = resume_run(flows, checkpoint, tmp_path / "resume", checkpoint_every=params.t)
        assert_resumed_equivalent(reference, checkpoint, resumed)
        later = all_checkpoints(CheckpointStore(tmp_path / "resume"))
        assert [ck.when for ck in later] == [when for when in single if when > checkpoint.when]
        for saved in later:
            theirs = single[saved.when]
            assert saved.engine_blob == theirs.engine_blob, saved.when
            assert (saved.flows_processed, saved.next_sweep, saved.next_snapshot) == (
                theirs.flows_processed, theirs.next_sweep, theirs.next_snapshot)


class TestCrashRecovery:
    def test_mp_worker_kill_recovers_from_checkpoint(self, tmp_path):
        """Killing a shard worker mid-run must not fail the pipeline:
        run() restores one plain engine from the last checkpoint, replays
        forward, and the output matches the undisturbed reference."""
        flows = fig05_trace()
        reference = reference_run(flows, FIG05_PARAMS)

        killed = []

        def sabotage(report, engine):
            if not killed and report.timestamp >= 300.0:
                process = engine._executor._processes[0]
                process.kill()
                process.join()
                killed.append(report.timestamp)

        engines = []

        def flow_source():
            return iter(list(flows))

        with Pipeline(
            FIG05_PARAMS,
            shards=4,
            executor="mp",
            workers=2,
            snapshot_seconds=120.0,
            include_unclassified=True,
            checkpoint_store=CheckpointStore(tmp_path / "ckpt", retain=RETAIN),
            checkpoint_every=FIG05_PARAMS.t,
            on_sweep=lambda report, engine: (
                engines.append(engine), sabotage(report, engine)
            ),
        ) as pipeline:
            result = pipeline.run(flow_source)

        assert killed, "sabotage never fired"
        # the sharded engine gave way to one plain engine
        assert isinstance(engines[0], ShardedIPD)
        assert isinstance(engines[-1], IPD) and isinstance(pipeline.engine, IPD)
        assert_equivalent(reference, result)

    def test_crash_without_checkpoint_restarts_fresh(self, tmp_path):
        """A crash before the first checkpoint replays from scratch."""
        flows = fig05_trace()
        reference = reference_run(flows, FIG05_PARAMS)
        killed = []

        def sabotage(report, engine):
            if not killed:
                process = engine._executor._processes[0]
                process.kill()
                process.join()
                killed.append(report.timestamp)

        with Pipeline(
            FIG05_PARAMS,
            shards=4,
            executor="mp",
            workers=2,
            snapshot_seconds=120.0,
            include_unclassified=True,
            checkpoint_store=CheckpointStore(tmp_path / "ckpt", retain=RETAIN),
            checkpoint_every=10_000.0,  # grid never fires mid-run
            on_sweep=sabotage,
        ) as pipeline:
            result = pipeline.run(lambda: iter(list(flows)))

        assert killed
        assert isinstance(pipeline.engine, IPD)
        assert_equivalent(reference, result)

    def test_exhausted_recoveries_reraise(self, tmp_path):
        flows = fig05_trace()

        def sabotage(report, engine):
            if not isinstance(engine, ShardedIPD):
                # recovery continues on one plain engine: crash it the
                # way the fault harness crashes an in-process engine
                raise WorkerCrashError(f"crash after the sweep at {report.timestamp}")
            process = engine._executor._processes[0]
            process.kill()
            process.join()

        with Pipeline(
            FIG05_PARAMS,
            shards=4,
            executor="mp",
            workers=2,
            snapshot_seconds=120.0,
            checkpoint_store=CheckpointStore(tmp_path / "ckpt", retain=RETAIN),
            checkpoint_every=FIG05_PARAMS.t,
            on_sweep=sabotage,  # kills a worker on *every* sweep
        ) as pipeline:
            with pytest.raises(WorkerCrashError):
                pipeline.run(lambda: iter(list(flows)))


TRACES = {
    "fig05": (fig05_trace, FIG05_PARAMS),
    "dualstack": (dualstack_trace, DUALSTACK_PARAMS),
}


def keep_until(store, when):
    """Delete the store's checkpoints after *when*: the newest left is the
    one a restarted run finds."""
    for path in store.list():
        if store.load(path).when > when:
            path.unlink()


class TestSweepCountAcrossResumes:
    """A checkpoint's ``sweep_count`` counts the sweeps since the run began,
    across resumes, so a resumed run's checkpoints are the uninterrupted
    run's and a recovery inside a resumed run rolls back to the right
    sweep."""

    @pytest.mark.parametrize("trace", sorted(TRACES))
    def test_resumed_checkpoints_are_the_uninterrupted_files(self, tmp_path, trace):
        build, params = TRACES[trace]
        flows = build()
        store = CheckpointStore(tmp_path / "ckpt", retain=RETAIN)
        checkpointing_run(flows, params, store)
        for index, checkpoint in enumerate(all_checkpoints(store)):
            resume_dir = tmp_path / f"resume-{index}"
            resume_run(flows, checkpoint, resume_dir, checkpoint_every=params.t)
            later = CheckpointStore(resume_dir).list()
            assert len(later) == len(store.list()) - index - 1
            for path in later:
                assert path.read_bytes() == (store.directory / path.name).read_bytes(), path.name

    def test_crash_before_the_first_resumed_save_repeats_no_sweep(self, tmp_path):
        """fig05 resumed at 360 s crashes after its second sweep, with no
        checkpoint saved since: the recovery restores the 360 s checkpoint
        and the run reports each sweep once (it used to report the sweeps
        at 420 and 480 s twice)."""
        flows = fig05_trace()
        store = CheckpointStore(tmp_path / "ckpt", retain=RETAIN)
        reference = checkpointing_run(flows, FIG05_PARAMS, store)
        keep_until(store, 360.0)
        assert store.latest().sweep_count == 6
        plan = FaultPlan([Fault("worker_crash", at=1)])
        with Pipeline.resume(
            store, snapshot_seconds=120.0, include_unclassified=True,
            checkpoint_every=10_000.0, on_sweep=plan.on_sweep,
        ) as pipeline:
            result = pipeline.run(lambda: iter(flows))
        assert plan.fired == [("worker_crash", 1)]
        assert counter_rows(result.sweeps) == counter_rows(reference.sweeps[6:])
        assert result.flows_processed == reference.flows_processed
        for when, records in result.snapshots.items():
            assert when > 360.0 and records == reference.snapshots[when]
        assert store.latest().sweep_count == len(reference.sweeps)

    def test_recovery_behind_the_resumed_checkpoint(self, tmp_path):
        """The checkpoint a run resumed from is gone when it crashes: the
        recovery falls back to an older one, the result restarts there and
        the closing checkpoint still counts from the run's start."""
        flows = fig05_trace()
        store = CheckpointStore(tmp_path / "ckpt", retain=RETAIN)
        reference = checkpointing_run(flows, FIG05_PARAMS, store)
        keep_until(store, 360.0)
        resumed_from = store.latest()
        resumed_from.path.unlink()  # newest left: the 300 s checkpoint
        plan = FaultPlan([Fault("worker_crash", at=1)])
        with Pipeline.resume(
            store, checkpoint=resumed_from, snapshot_seconds=120.0,
            include_unclassified=True, checkpoint_every=10_000.0,
            on_sweep=plan.on_sweep,
        ) as pipeline:
            result = pipeline.run(lambda: iter(flows))
        assert plan.fired == [("worker_crash", 1)]
        assert counter_rows(result.sweeps) == counter_rows(reference.sweeps[5:])
        assert store.latest().sweep_count == len(reference.sweeps)

    def test_live_resume_continues_the_count(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", retain=RETAIN)
        checkpointing_run(fig05_trace(), FIG05_PARAMS, store)
        keep_until(store, 360.0)
        base = store.latest().sweep_count
        clock = count(1000.0, 60.0)
        live = LivePipeline.resume(
            store, sweep_interval=60.0, clock=lambda: next(clock)
        )
        for sweeps in (1, 2, 3):
            live.stop()  # one closing sweep and its checkpoint
            assert len(live.sweep_reports) == sweeps
            assert store.latest().sweep_count == base + sweeps


class TestStoreBehavior:
    def test_retention_prunes_oldest(self, tmp_path):
        flows = fig05_trace()
        store = CheckpointStore(tmp_path / "ckpt", retain=3)
        checkpointing_run(flows, FIG05_PARAMS, store)
        assert len(store.list()) == 3
        # the survivors are the newest ticks
        whens = [store.load(path).when for path in store.list()]
        assert whens == sorted(whens)

    def test_latest_returns_newest(self, tmp_path):
        flows = fig05_trace()
        store = CheckpointStore(tmp_path / "ckpt", retain=RETAIN)
        checkpointing_run(flows, FIG05_PARAMS, store)
        newest = store.latest()
        assert newest.when == max(store.load(p).when for p in store.list())

    def test_resume_without_checkpoint_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Pipeline.resume(CheckpointStore(tmp_path / "empty"))

    def test_checkpoint_container_round_trip(self):
        checkpoint = Checkpoint(
            when=360.0, flows_processed=1234, next_sweep=420.0,
            next_snapshot=480.0, sweep_count=6, engine_blob=b"\x00\x01binary",
        )
        assert Checkpoint.from_bytes(checkpoint.to_bytes()) == checkpoint

    def test_checkpoint_version_gate(self):
        import struct

        from repro.core.statecodec import IncompatibleStateError
        from repro.runtime.checkpoint import CHECKPOINT_VERSION

        checkpoint = Checkpoint(
            when=60.0, flows_processed=1, next_sweep=120.0,
            next_snapshot=None, sweep_count=1, engine_blob=b"x",
        )
        blob = bytearray(checkpoint.to_bytes())
        blob[4:6] = struct.pack(">H", CHECKPOINT_VERSION + 1)
        with pytest.raises(IncompatibleStateError):
            Checkpoint.from_bytes(bytes(blob))


class TestCorruptCheckpoints:
    """Damaged files raise the typed error; recovery routes around them."""

    def populated_store(self, tmp_path) -> CheckpointStore:
        store = CheckpointStore(tmp_path / "ckpt", retain=RETAIN)
        checkpointing_run(fig05_trace(), FIG05_PARAMS, store)
        return store

    def test_truncated_file_raises_typed_error(self, tmp_path):
        from repro.runtime.checkpoint import CheckpointCorruptError

        store = self.populated_store(tmp_path)
        victim = store.list()[-1]
        victim.write_bytes(victim.read_bytes()[: 40])
        with pytest.raises(CheckpointCorruptError) as excinfo:
            store.load(victim)
        assert excinfo.value.path == victim
        assert "file=" in str(excinfo.value)

    def test_bitflip_fails_crc_not_codec(self, tmp_path):
        """Any single flipped bit is caught by the container CRC — the
        error cannot depend on the damage breaking codec structure."""
        from repro.runtime.checkpoint import CheckpointCorruptError

        store = self.populated_store(tmp_path)
        victim = store.list()[-1]
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x10
        victim.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptError, match="CRC mismatch"):
            store.load(victim)

    def test_truncated_engine_blob_carries_offset(self, tmp_path):
        """A valid container around a torn engine blob: restore_engine
        reports the blob offset the decoder reached, not a struct error."""
        from repro.runtime.checkpoint import CheckpointCorruptError

        store = self.populated_store(tmp_path)
        intact = store.latest()
        torn = Checkpoint(
            when=intact.when,
            flows_processed=intact.flows_processed,
            next_sweep=intact.next_sweep,
            next_snapshot=intact.next_snapshot,
            sweep_count=intact.sweep_count,
            engine_blob=intact.engine_blob[: len(intact.engine_blob) // 3],
        )
        path = store.save(torn)
        loaded = store.load(path)  # container itself is healthy
        with pytest.raises(CheckpointCorruptError) as excinfo:
            store.restore_engine(loaded)
        assert excinfo.value.offset is not None
        assert excinfo.value.offset <= len(torn.engine_blob)
        assert excinfo.value.path == path

    def test_latest_raises_latest_valid_skips(self, tmp_path):
        from repro.runtime.checkpoint import CheckpointCorruptError

        store = self.populated_store(tmp_path)
        newest = store.list()[-1]
        second_newest = store.list()[-2]
        newest.write_bytes(newest.read_bytes()[:40])
        with pytest.raises(CheckpointCorruptError):
            store.latest()
        fallback = store.latest_valid()
        assert fallback is not None
        assert fallback.path == second_newest

    def test_latest_valid_empty_when_all_corrupt(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        checkpoint = Checkpoint(
            when=60.0, flows_processed=1, next_sweep=120.0,
            next_snapshot=None, sweep_count=1, engine_blob=b"x",
        )
        path = store.save(checkpoint)
        path.write_bytes(b"not a checkpoint at all")
        assert store.latest_valid() is None

    def test_version1_container_is_refused(self):
        """No writer of the CRC-less v1 layout exists: it is another
        build's format, refused by the one version rule — and a header
        damaged 2 -> 1 can no longer skip the CRC check."""
        import json
        import struct

        from repro.core.statecodec import IncompatibleStateError

        checkpoint = Checkpoint(
            when=360.0, flows_processed=1234, next_sweep=420.0,
            next_snapshot=480.0, sweep_count=6, engine_blob=b"\x00\x01binary",
        )
        meta = json.dumps(
            {
                "when": checkpoint.when,
                "flows_processed": checkpoint.flows_processed,
                "next_sweep": checkpoint.next_sweep,
                "next_snapshot": checkpoint.next_snapshot,
                "sweep_count": checkpoint.sweep_count,
            },
            sort_keys=True,
        ).encode()
        v1 = b"IPDC" + struct.pack(">HI", 1, len(meta)) + meta + checkpoint.engine_blob
        with pytest.raises(IncompatibleStateError, match="version 1.*version 2"):
            Checkpoint.from_bytes(v1)
        damaged = bytearray(checkpoint.to_bytes())
        damaged[4:6] = struct.pack(">H", 1)
        with pytest.raises(IncompatibleStateError, match="version 1.*version 2"):
            Checkpoint.from_bytes(bytes(damaged))
