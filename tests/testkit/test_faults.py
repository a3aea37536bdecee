"""Unit tests for the FaultPlan mechanics the chaos suite relies on."""

from __future__ import annotations

import pytest

from repro.core.admission import AdmissionConfig
from repro.core.algorithm import IPD, SweepReport
from repro.core.snapshot import Snapshot
from repro.runtime.checkpoint import Checkpoint
from repro.runtime.executors import WorkerCrashError
from repro.testkit.faults import (
    FAULT_SITES,
    Fault,
    FaultPlan,
    FaultyCheckpointStore,
    FaultySink,
    InjectedSinkError,
)
from repro.testkit.traces import FIG05_PARAMS


class TestFaultValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            Fault("disk_on_fire", at=0)

    def test_negative_occurrence_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Fault("worker_crash", at=-1)

    def test_duplicate_site_occurrence_rejected(self):
        with pytest.raises(ValueError, match="duplicate fault"):
            FaultPlan([
                Fault("sink_error", at=2),
                Fault("sink_error", at=2),
            ])


class TestGenerate:
    def test_same_seed_same_plan(self):
        first = FaultPlan.generate(seed=42, ticks=12)
        second = FaultPlan.generate(seed=42, ticks=12)
        assert first.faults == second.faults

    def test_different_seeds_differ_somewhere(self):
        plans = {FaultPlan.generate(seed, ticks=12).faults for seed in range(50)}
        assert len(plans) > 25  # not literally all, but clearly seeded

    def test_only_known_sites_and_bounded_occurrences(self):
        for seed in range(100):
            plan = FaultPlan.generate(seed, ticks=10)
            assert 1 <= len(plan.faults) <= 3
            for fault in plan.faults:
                assert fault.site in FAULT_SITES
                if fault.site == "worker_crash":
                    # never at tick 0: there is nothing to recover *to*
                    assert 1 <= fault.at <= 9
                else:
                    assert 0 <= fault.at < 10


class TestOneShot:
    def test_fault_fires_exactly_once(self):
        plan = FaultPlan([Fault("sink_error", at=1)])
        sink = FaultySink(plan)
        sink.emit(Snapshot(100.0, []))  # occurrence 0: nothing
        with pytest.raises(InjectedSinkError):
            sink.emit(Snapshot(200.0, []))  # occurrence 1: fires
        for when in (300.0, 400.0, 500.0):
            sink.emit(Snapshot(when, []))  # spent: never again
        assert plan.fired == [("sink_error", 1)]

    def test_worker_crash_raises_without_processes(self):
        plan = FaultPlan([Fault("worker_crash", at=0)])
        engine = IPD(FIG05_PARAMS)
        with pytest.raises(WorkerCrashError, match="injected worker crash"):
            plan.on_sweep(SweepReport(timestamp=60.0), engine)
        plan.on_sweep(SweepReport(timestamp=120.0), engine)  # spent

    def test_sketch_saturate_forces_the_gate(self):
        plan = FaultPlan([Fault("sketch_saturate", at=1)])
        engine = IPD(FIG05_PARAMS, admission=AdmissionConfig(mode="lossy"))
        plan.on_sweep(SweepReport(timestamp=60.0), engine)
        assert not engine.admission.saturated
        plan.on_sweep(SweepReport(timestamp=120.0), engine)
        assert engine.admission.saturated
        # without a gate the site fires and changes nothing
        plan = FaultPlan([Fault("sketch_saturate", at=0)])
        plan.on_sweep(SweepReport(timestamp=60.0), IPD(FIG05_PARAMS))
        assert plan.fired == [("sketch_saturate", 0)]


def saved(plan, tmp_path):
    """Save two checkpoints through the plan's store; return each one's
    file bytes with its undamaged image."""
    store = FaultyCheckpointStore(plan, tmp_path)
    files = []
    for when in (60.0, 120.0):
        checkpoint = Checkpoint(
            when=when, flows_processed=0, next_sweep=when + 60.0,
            next_snapshot=None, sweep_count=0, engine_blob=bytes(range(100)),
        )
        path = store.save(checkpoint)
        files.append((path.read_bytes(), checkpoint.to_bytes()))
    return files


class TestCheckpointSiteTransforms:
    def test_truncate_halves_the_bytes(self, tmp_path):
        plan = FaultPlan([Fault("checkpoint_truncate", at=0)])
        (first, image), (second, second_image) = saved(plan, tmp_path)
        assert first == image[: len(image) // 2]
        # spent: the next save is untouched
        assert second == second_image

    def test_bitflip_flips_exactly_one_bit(self, tmp_path):
        plan = FaultPlan([Fault("checkpoint_bitflip", at=0, arg=13)])
        (corrupted, data), __ = saved(plan, tmp_path)
        assert len(corrupted) == len(data)
        diff = [i for i in range(len(data)) if corrupted[i] != data[i]]
        assert diff == [1]  # bit 13 lives in byte 1
        assert bin(corrupted[diff[0]] ^ data[diff[0]]).count("1") == 1

    def test_describe_lists_schedule(self):
        plan = FaultPlan([
            Fault("worker_crash", at=3),
            Fault("sink_error", at=1),
        ])
        assert plan.describe() == "worker_crash@3 sink_error@1"
        assert FaultPlan().describe() == "(no faults)"
