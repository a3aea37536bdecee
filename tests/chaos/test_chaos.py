"""Chaos testing: the runtime under randomized, seeded fault injection.

Every test here replays a fixture trace through a :class:`Pipeline`
whose ``on_sweep`` observer, sinks and checkpoint store carry a
:class:`~repro.testkit.faults.FaultPlan`, then demands one of exactly
two outcomes:

* the run **completes** — in which case its snapshots, sweep decisions,
  flow counts and final engine state must equal the undisturbed
  reference run (and, for fig05, the paper-literal oracle), i.e. the
  recovery machinery healed every injected failure without a trace; or
* the run **fails loudly** with the documented typed exception for the
  fault that fired (:class:`InjectedSinkError`,
  :class:`WorkerCrashError`, :class:`CheckpointCorruptError`).

What is never acceptable is the third outcome: a run that completes
with *different* output — silent divergence.  The fault plans are fully
seed-determined, so any failure reproduces from the seed in the test id.
"""

from __future__ import annotations

import pytest

from repro.core.algorithm import IPD
from repro.runtime import (
    CheckpointStore,
    CSVSink,
    CallbackSink,
    Pipeline,
    WorkerCrashError,
)
from repro.runtime.checkpoint import CheckpointCorruptError
from repro.testkit.faults import (
    Fault,
    FaultPlan,
    FaultyCheckpointStore,
    FaultySink,
    InjectedSinkError,
)
from repro.testkit.oracle import ORACLE_REPORT_FIELDS, replay_reference
from repro.testkit.traces import (
    DUALSTACK_PARAMS,
    FIG05_PARAMS,
    dualstack_trace,
    fig05_trace,
)

SNAPSHOT_SECONDS = 120.0

#: ticks in each fixture trace (12 resp. 10 rounds + closing tick)
FIG05_TICKS = 13
DUALSTACK_TICKS = 11


def sweep_decisions(result):
    """Sweep reports reduced to their decision fields.

    A recovery replay re-executes sweeps on a restored engine whose
    *instrumentation* counters (visited leaves, cache hits, durations)
    legitimately differ from the undisturbed run; the algorithmic
    decisions may not.
    """
    return [
        tuple(getattr(report, name) for name in ORACLE_REPORT_FIELDS)
        for report in result.sweeps
    ]


def run_disturbed(trace_fn, params, shards, executor, plan, tmp_path,
                  workers=None):
    """One chaos run: checkpointing pipeline + plan over a callable source.

    The plan enters through the pipeline's own doors: its sweep sites
    as the ``on_sweep`` observer, its sink site as the first sink, its
    checkpoint sites as the store.
    """
    pipeline = Pipeline(
        params,
        shards=shards,
        executor=executor,
        workers=workers,
        snapshot_seconds=SNAPSHOT_SECONDS,
        include_unclassified=True,
        checkpoint_store=FaultyCheckpointStore(plan, tmp_path / "ckpt"),
        on_sweep=plan.on_sweep,
        sinks=[FaultySink(plan)],
    )
    try:
        result = pipeline.run(trace_fn)  # callable source: recovery enabled
        final = pipeline.engine.snapshot(
            max(result.snapshots), include_unclassified=True
        )
        return result, final
    finally:
        pipeline.close()


_reference_cache: dict = {}


def reference_run(trace_fn, params):
    """The undisturbed single-engine run (cached per fixture)."""
    key = (trace_fn.__name__, id(params))
    if key not in _reference_cache:
        pipeline = Pipeline(
            params,
            snapshot_seconds=SNAPSHOT_SECONDS,
            include_unclassified=True,
        )
        result = pipeline.run(trace_fn())
        final = pipeline.engine.snapshot(
            max(result.snapshots), include_unclassified=True
        )
        _reference_cache[key] = (result, final)
    return _reference_cache[key]


def assert_oracle_equivalent(result, final, trace_fn, params):
    """The two-outcome contract's good half, anchored to the reference."""
    reference, reference_final = reference_run(trace_fn, params)
    assert result.flows_processed == reference.flows_processed
    assert result.snapshots == reference.snapshots
    assert sweep_decisions(result) == sweep_decisions(reference)
    assert final == reference_final


class TestOracleAnchor:
    """The undisturbed pipeline itself matches the paper-literal oracle.

    This grounds every ``assert_oracle_equivalent`` below: recovered
    runs are compared to the reference run, and the reference run is
    pinned here against :func:`replay_reference`.
    """

    @pytest.mark.parametrize(
        "trace_fn,params",
        [(fig05_trace, FIG05_PARAMS), (dualstack_trace, DUALSTACK_PARAMS)],
        ids=["fig05", "dualstack"],
    )
    def test_reference_equals_oracle(self, trace_fn, params):
        reference, __ = reference_run(trace_fn, params)
        oracle = replay_reference(
            trace_fn(), params, snapshot_seconds=SNAPSHOT_SECONDS
        )
        assert reference.flows_processed == oracle.flows_processed
        assert reference.snapshots == oracle.snapshots
        assert sweep_decisions(reference) == sweep_decisions(oracle)


class TestRandomizedPlans:
    """The matrix: seeded random plans x topologies x fixture traces."""

    @pytest.mark.parametrize("shards,executor", [(1, "serial"), (4, "serial")])
    @pytest.mark.parametrize("seed", range(20))
    def test_fig05_under_random_faults(self, seed, shards, executor, tmp_path):
        plan = FaultPlan.generate(seed, ticks=FIG05_TICKS)
        try:
            result, final = run_disturbed(
                fig05_trace, FIG05_PARAMS, shards, executor, plan, tmp_path
            )
        except InjectedSinkError:
            assert any(site == "sink_error" for site, __ in plan.fired)
            return
        assert_oracle_equivalent(result, final, fig05_trace, FIG05_PARAMS)

    @pytest.mark.parametrize("shards,executor", [(1, "serial"), (4, "serial")])
    @pytest.mark.parametrize("seed", range(20, 28))
    def test_dualstack_under_random_faults(
        self, seed, shards, executor, tmp_path
    ):
        plan = FaultPlan.generate(seed, ticks=DUALSTACK_TICKS)
        try:
            result, final = run_disturbed(
                dualstack_trace, DUALSTACK_PARAMS, shards, executor, plan,
                tmp_path,
            )
        except InjectedSinkError:
            assert any(site == "sink_error" for site, __ in plan.fired)
            return
        assert_oracle_equivalent(
            result, final, dualstack_trace, DUALSTACK_PARAMS
        )


class TestTargetedFaults:
    """Each injection site exercised deterministically, one at a time.

    Sweep N runs at ``60 (N + 1)`` s and a checkpoint is saved after the
    sweeps at 120, 240, 360 ... s.  A crash fires after its sweep, so
    the checkpoint of that same tick is never written.
    """

    @pytest.fixture
    def restored(self, monkeypatch):
        """The checkpoint time each recovery restored (``None``: none)."""
        times = []
        latest_valid = CheckpointStore.latest_valid

        def spy(store):
            checkpoint = latest_valid(store)
            times.append(None if checkpoint is None else checkpoint.when)
            return checkpoint

        monkeypatch.setattr(CheckpointStore, "latest_valid", spy)
        return times

    def test_worker_crash_recovers_from_checkpoint(self, tmp_path, restored):
        # after the sweep at 300 s: the newest checkpoint is 240 s
        plan = FaultPlan([Fault("worker_crash", at=4)])
        result, final = run_disturbed(
            fig05_trace, FIG05_PARAMS, 1, "serial", plan, tmp_path
        )
        assert plan.fired == [("worker_crash", 4)]
        assert restored == [240.0]
        assert_oracle_equivalent(result, final, fig05_trace, FIG05_PARAMS)

    def test_worker_crash_before_first_checkpoint_restarts(
        self, tmp_path, restored
    ):
        # after the sweep at 60 s: no checkpoint yet, replay from scratch
        plan = FaultPlan([Fault("worker_crash", at=0)])
        result, final = run_disturbed(
            fig05_trace, FIG05_PARAMS, 1, "serial", plan, tmp_path
        )
        assert plan.fired == [("worker_crash", 0)]
        assert restored == [None]
        assert_oracle_equivalent(result, final, fig05_trace, FIG05_PARAMS)

    def test_repeated_crashes_exhaust_recovery_budget(self, tmp_path, restored):
        """More crashes than MAX_RECOVERIES: the typed error escapes."""
        plan = FaultPlan([
            Fault("worker_crash", at=at) for at in (1, 3, 5, 7, 9)
        ])
        with pytest.raises(WorkerCrashError):
            run_disturbed(
                fig05_trace, FIG05_PARAMS, 1, "serial", plan, tmp_path
            )
        # three recoveries, then the fourth crash is the run's end
        assert len(restored) == 3
        assert [at for __, at in plan.fired] == [1, 3, 5, 7]

    def test_truncated_checkpoint_skipped_by_recovery(self, tmp_path, restored):
        """Corrupt newest checkpoint: recovery rewinds to an older one."""
        # save 2 is the 360 s checkpoint; the crash after the sweep at
        # 420 s finds it newest and damaged
        plan = FaultPlan([
            Fault("checkpoint_truncate", at=2),
            Fault("worker_crash", at=6),
        ])
        result, final = run_disturbed(
            fig05_trace, FIG05_PARAMS, 1, "serial", plan, tmp_path
        )
        assert ("checkpoint_truncate", 2) in plan.fired
        assert ("worker_crash", 6) in plan.fired
        assert restored == [240.0]
        assert_oracle_equivalent(result, final, fig05_trace, FIG05_PARAMS)

    def test_bitflipped_checkpoint_skipped_by_recovery(
        self, tmp_path, restored
    ):
        plan = FaultPlan([
            Fault("checkpoint_bitflip", at=2, arg=5000),
            Fault("worker_crash", at=6),
        ])
        result, final = run_disturbed(
            fig05_trace, FIG05_PARAMS, 1, "serial", plan, tmp_path
        )
        assert ("checkpoint_bitflip", 2) in plan.fired
        assert restored == [240.0]
        assert_oracle_equivalent(result, final, fig05_trace, FIG05_PARAMS)

    def test_corrupt_checkpoint_fails_explicit_resume_loudly(self, tmp_path):
        """latest() (the explicit-resume path) raises the typed error."""
        # occurrence 5 is the closing tick's save: the newest file on
        # disk (earlier ones would be pruned away by retention anyway)
        plan = FaultPlan([Fault("checkpoint_bitflip", at=5, arg=12345)])
        run_disturbed(
            fig05_trace, FIG05_PARAMS, 1, "serial", plan, tmp_path
        )
        assert ("checkpoint_bitflip", 5) in plan.fired
        store = CheckpointStore(tmp_path / "ckpt")
        with pytest.raises(CheckpointCorruptError) as excinfo:
            store.latest()
        assert excinfo.value.path is not None
        # ...while crash recovery's view quietly falls back
        valid = store.latest_valid()
        assert valid is not None and valid.path != excinfo.value.path

    def test_sink_error_propagates(self, tmp_path):
        plan = FaultPlan([Fault("sink_error", at=1)])
        with pytest.raises(InjectedSinkError):
            run_disturbed(
                fig05_trace, FIG05_PARAMS, 1, "serial", plan, tmp_path
            )
        assert plan.fired == [("sink_error", 1)]

    def test_mp_worker_really_killed_and_recovered(self, tmp_path, restored):
        """The mp site kills an actual worker process; the crash surfaces
        as the executor's own WorkerCrashError and recovery heals it."""
        # killed after the sweep at 240 s, before that tick's snapshot
        # and checkpoint reach the dead worker
        plan = FaultPlan([Fault("worker_crash", at=3, arg=1)])
        result, final = run_disturbed(
            fig05_trace, FIG05_PARAMS, 4, "mp", plan, tmp_path, workers=2
        )
        assert ("worker_crash", 3) in plan.fired
        assert restored == [120.0]
        assert_oracle_equivalent(result, final, fig05_trace, FIG05_PARAMS)


class TestRecoveryDelivery:
    """A crash recovery replays snapshots the sinks already hold: each
    snapshot time still reaches every sink once, under one epoch."""

    def delivered(self, tmp_path, plan, shards=1, executor="serial"):
        path = tmp_path / "records.csv"
        epochs = []
        with Pipeline(
            FIG05_PARAMS,
            shards=shards,
            executor=executor,
            workers=2 if executor == "mp" else None,
            snapshot_seconds=SNAPSHOT_SECONDS,
            include_unclassified=True,
            checkpoint_store=CheckpointStore(tmp_path / "ckpt"),
            checkpoint_every=360.0,
            on_sweep=plan.on_sweep,
            sinks=[
                CSVSink(str(path), final_only=False),
                CallbackSink(
                    lambda snapshot: epochs.append(
                        (snapshot.when, snapshot.epoch)
                    ),
                    with_snapshot=True,
                ),
            ],
        ) as pipeline:
            pipeline.run(fig05_trace)
        return path.read_bytes(), epochs

    # crashes after the sweeps at 180 s and 300 s (before the first
    # checkpoint at 360 s: replay from scratch) and at 540 s (restored
    # from 360 s, the 480 s snapshot replayed)
    @pytest.mark.parametrize(
        "at,shards,executor",
        [(2, 1, "serial"), (4, 1, "serial"), (8, 1, "serial"), (4, 4, "mp")],
    )
    def test_replayed_snapshots_reach_the_sinks_once(
        self, tmp_path, at, shards, executor
    ):
        reference, reference_epochs = self.delivered(
            tmp_path / "reference", FaultPlan()
        )
        plan = FaultPlan([Fault("worker_crash", at=at)])
        csv_bytes, epochs = self.delivered(
            tmp_path / "crashed", plan, shards, executor
        )
        assert plan.fired == [("worker_crash", at)]
        assert csv_bytes == reference
        assert epochs == reference_epochs
        assert [epoch for __, epoch in epochs] == list(
            range(1, len(epochs) + 1)
        )


class TestNoOpHooks:
    """An attached-but-empty plan and no plan at all behave identically."""

    def test_empty_plan_changes_nothing(self, tmp_path):
        result, final = run_disturbed(
            fig05_trace, FIG05_PARAMS, 1, "serial", FaultPlan(), tmp_path
        )
        assert_oracle_equivalent(result, final, fig05_trace, FIG05_PARAMS)

    def test_unfired_faults_change_nothing(self, tmp_path):
        """Faults scheduled past the end of the run never fire."""
        plan = FaultPlan([
            Fault("worker_crash", at=500),
            Fault("checkpoint_truncate", at=23),
            Fault("sink_error", at=400),
        ])
        result, final = run_disturbed(
            fig05_trace, FIG05_PARAMS, 1, "serial", plan, tmp_path
        )
        assert plan.fired == []
        assert_oracle_equivalent(result, final, fig05_trace, FIG05_PARAMS)


class TestSketchSaturate:
    """The ``sketch_saturate`` site: forced admission-sketch saturation.

    The degradation contract: a saturated controller admits everything
    from that point on — it may never *drop* (or hold) another group,
    elephant or mouse.  In exact mode saturation is therefore invisible
    in the output; in lossy mode flows dropped *before* the saturation
    point are legitimately gone, but every sweep after it must report
    zero drops and zero holdback.
    """

    def gated_run(self, admission, plan, shards=1, presaturate=False):
        pipeline = Pipeline(
            FIG05_PARAMS,
            shards=shards,
            snapshot_seconds=SNAPSHOT_SECONDS,
            include_unclassified=True,
            on_sweep=plan.on_sweep,
            admission=admission,
        )
        try:
            if presaturate:
                pipeline.engine.admission.saturate()
            result = pipeline.run(fig05_trace())
            final = pipeline.engine.snapshot(
                max(result.snapshots), include_unclassified=True
            )
            return result, final
        finally:
            pipeline.close()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_exact_saturation_is_invisible(self, shards):
        from repro.core.admission import AdmissionConfig

        plan = FaultPlan([Fault("sketch_saturate", at=4)])
        result, final = self.gated_run(
            AdmissionConfig(mode="exact"), plan, shards=shards
        )
        assert ("sketch_saturate", 4) in plan.fired
        assert any(s.admission_saturated for s in result.sweeps)
        assert_oracle_equivalent(result, final, fig05_trace, FIG05_PARAMS)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_lossy_presaturated_equals_off(self, shards):
        """Saturated before any flow: lossy degrades to admit-everything
        and the whole run is byte-identical to admission off."""
        from repro.core.admission import AdmissionConfig

        result, final = self.gated_run(
            AdmissionConfig(mode="lossy"), FaultPlan(),
            shards=shards, presaturate=True,
        )
        assert all(s.admission_dropped == 0 for s in result.sweeps)
        assert_oracle_equivalent(result, final, fig05_trace, FIG05_PARAMS)

    def test_lossy_midrun_saturation_stops_all_drops(self):
        """After the fault fires, no sweep may drop or hold anything —
        the gate degrades to admit-everything, never drop-an-elephant."""
        from repro.core.admission import AdmissionConfig

        fire_at = 3  # after this sweep
        plan = FaultPlan([Fault("sketch_saturate", at=fire_at)])
        result, __ = self.gated_run(AdmissionConfig(mode="lossy"), plan)
        assert ("sketch_saturate", fire_at) in plan.fired
        saturated = [s.admission_saturated for s in result.sweeps]
        assert not saturated[fire_at] and all(saturated[fire_at + 1:])
        for report in result.sweeps[fire_at + 1:]:
            assert report.admission_dropped == 0
            assert report.admission_held == 0

    def test_site_is_noop_without_admission(self, tmp_path):
        plan = FaultPlan([Fault("sketch_saturate", at=3)])
        result, final = run_disturbed(
            fig05_trace, FIG05_PARAMS, 1, "serial", plan, tmp_path
        )
        assert ("sketch_saturate", 3) in plan.fired
        assert_oracle_equivalent(result, final, fig05_trace, FIG05_PARAMS)


class TestFloodSaturation:
    """``sketch_saturate`` during a live spoofed flood (DESIGN.md §14).

    The nastiest timing for the fault: the gate is mid-flood, holding
    back a six-figure spoofed herd, when the sketch saturates.  The
    degradation contract must hold under real attack volume — after the
    fault no sweep drops or holds anything, every spoofed flow floods
    into the trie, and the run still completes with the flood state
    expiring on schedule.
    """

    def test_saturation_mid_flood_degrades_to_admit_everything(self):
        from repro.core.admission import AdmissionConfig
        from repro.core.params import IPDParams
        from repro.workloads import adversarial_scenario

        params = IPDParams(
            n_cidr_factor_v4=0.01, n_cidr_factor_v6=0.01, drop_threshold=0.25
        )
        scenario = adversarial_scenario(
            "flood-uniform", duration_hours=0.5,
            flows_per_bucket_peak=400, params=params,
        )
        truth = scenario.ground_truth
        # fire inside the attack window: sweeps run every params.t from
        # the trace start, the flood occupies the middle half of the run;
        # the fault fires after sweep fire_at
        start = scenario.traffic_config.start_time
        fire_at = int((truth.attack_window[0] - start) // params.t) + 1
        plan = FaultPlan([Fault("sketch_saturate", at=fire_at)])
        admission = AdmissionConfig.for_cardinality(
            truth.expected_sources, mode="lossy"
        )
        with Pipeline(
            params,
            snapshot_seconds=300.0,
            on_sweep=plan.on_sweep,
            admission=admission,
        ) as pipeline:
            result = pipeline.run(scenario.generator().flows())
        assert ("sketch_saturate", fire_at) in plan.fired
        saturated = [s.admission_saturated for s in result.sweeps]
        assert not saturated[fire_at] and all(saturated[fire_at + 1:])
        # before the fault the gate was really fighting the flood...
        assert any(
            s.admission_dropped > 0 for s in result.sweeps[: fire_at + 1]
        )
        # ...after it, admit-everything: no drop, no holdback, ever
        for report in result.sweeps[fire_at + 1:]:
            assert report.admission_dropped == 0
            assert report.admission_held == 0
        assert result.flows_processed > 0
