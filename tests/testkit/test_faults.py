"""Unit tests for the FaultPlan mechanics the chaos suite relies on."""

from __future__ import annotations

import pytest

from repro.runtime.executors import WorkerCrashError
from repro.testkit.faults import FAULT_SITES, Fault, FaultPlan, InjectedSinkError


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
                    # and nothing lost either — a vacuous plan
                    assert 1 <= fault.at <= 9
                elif not fault.site.startswith("feed_"):
                    # feed sites schedule on the per-feed occurrence
                    # scale, which outruns the tick count
                    assert 0 <= fault.at < 10


class TestOneShot:
    def test_fault_fires_exactly_once(self):
        plan = FaultPlan([Fault("sink_error", at=1)])
        plan.on_sink_emit(100.0)  # occurrence 0: nothing
        with pytest.raises(InjectedSinkError):
            plan.on_sink_emit(200.0)  # occurrence 1: fires
        for when in (300.0, 400.0, 500.0):
            plan.on_sink_emit(when)  # spent: never again
        assert plan.fired == [("sink_error", 1)]

    def test_worker_crash_raises_without_processes(self):
        plan = FaultPlan([Fault("worker_crash", at=0)])
        with pytest.raises(WorkerCrashError, match="injected worker crash"):
            plan.before_tick(None, 60.0)
        plan.before_tick(None, 120.0)  # spent

    def test_feed_fault_arms_crash_at_next_tick(self):
        plan = FaultPlan([Fault("feed_drop", at=0)])
        assert plan.on_feed(0, None) == "drop"
        with pytest.raises(WorkerCrashError):
            plan.before_tick(None, 60.0)
        # the armed crash is itself one-shot
        plan.before_tick(None, 120.0)
        assert plan.fired == [("feed_drop", 0)]

    def test_feed_without_fault_is_none(self):
        plan = FaultPlan([Fault("feed_duplicate", at=2)])
        assert plan.on_feed(0, None) is None
        assert plan.on_feed(1, None) is None
        assert plan.on_feed(2, None) == "duplicate"


class TestCheckpointSiteTransforms:
    def test_truncate_halves_the_bytes(self):
        plan = FaultPlan([Fault("checkpoint_truncate", at=0)])
        data = bytes(range(100))
        assert plan.on_checkpoint_save(60.0, data) == data[:50]
        # spent: subsequent saves untouched
        assert plan.on_checkpoint_save(120.0, data) == data

    def test_bitflip_flips_exactly_one_bit(self):
        plan = FaultPlan([Fault("checkpoint_bitflip", at=0, arg=13)])
        data = bytes(100)
        corrupted = plan.on_checkpoint_save(60.0, data)
        assert len(corrupted) == len(data)
        diff = [i for i in range(len(data)) if corrupted[i] != data[i]]
        assert len(diff) == 1
        assert bin(corrupted[diff[0]] ^ data[diff[0]]).count("1") == 1

    def test_describe_lists_schedule(self):
        plan = FaultPlan([
            Fault("worker_crash", at=3),
            Fault("sink_error", at=1),
        ])
        assert plan.describe() == "worker_crash@3 sink_error@1"
        assert FaultPlan().describe() == "(no faults)"
