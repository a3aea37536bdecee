"""IngressLookupService: hot swap, epoch pinning, history, resharding.

The load-bearing pin here is **no torn results**: a query that runs
concurrently with an epoch install answers entirely from the old epoch
or entirely from the new one.  The service guarantees it by reading the
epoch pointer exactly once per query (a plain attribute load, atomic
under the GIL), and these tests hammer that from real threads.
"""

import sys
import threading

import pytest

from repro.archive import SnapshotArchive
from repro.core.iputil import IPV4, IPV6, Prefix, parse_ip
from repro.core.output import IPDRecord
from repro.core.snapshot import Snapshot
from repro.runtime import CheckpointStore, Pipeline
from repro.serving import (
    IngressLookupService,
    NoEpochError,
    ReshardPolicy,
    ServingEpoch,
    ServingError,
    ShardLoadCounters,
)
from repro.topology.elements import IngressPoint

R1 = IngressPoint("R1", "et0")
R2 = IngressPoint("R2", "et0")


def record(cidr, ingress, timestamp=100.0, confidence=0.95):
    return IPDRecord(
        timestamp=timestamp,
        range=Prefix.from_string(cidr),
        ingress=ingress,
        s_ingress=confidence,
        s_ipcount=32,
        n_cidr=4,
        candidates=(),
        classified=True,
    )


def snapshot_for(ingress, when, epoch):
    return Snapshot(
        when,
        [record("10.0.0.0/8", ingress, timestamp=when)],
        epoch=epoch,
        source="test",
    )


PROBE = parse_ip("10.1.2.3")[0]


class TestInstallAndLookup:
    def test_lookup_before_install_raises(self):
        service = IngressLookupService()
        with pytest.raises(NoEpochError):
            service.lookup(PROBE)
        with pytest.raises(NoEpochError):
            service.lookup_many([PROBE])

    def test_basic_hit_and_miss(self):
        service = IngressLookupService()
        service.install_snapshot(snapshot_for(R1, 200.0, 1))
        result = service.lookup(PROBE)
        assert result.ingress == R1
        assert result.prefix == Prefix.from_string("10.0.0.0/8")
        assert result.confidence == 0.95
        assert result.epoch == 1
        assert result.watermark == 200.0
        assert result.age == 0.0
        assert service.lookup(parse_ip("99.0.0.1")[0]) is None

    def test_age_measures_row_staleness(self):
        service = IngressLookupService()
        snapshot = Snapshot(
            500.0, [record("10.0.0.0/8", R1, timestamp=200.0)], epoch=3
        )
        service.install_snapshot(snapshot)
        assert service.lookup(PROBE).age == 300.0

    def test_missing_family_returns_none(self):
        service = IngressLookupService()
        service.install_snapshot(snapshot_for(R1, 200.0, 1))
        assert service.lookup(parse_ip("2001:db8::1")[0], IPV6) is None

    def test_install_swaps_epoch(self):
        service = IngressLookupService()
        service.install_snapshot(snapshot_for(R1, 200.0, 1))
        assert service.lookup(PROBE).ingress == R1
        service.install_snapshot(snapshot_for(R2, 300.0, 2))
        result = service.lookup(PROBE)
        assert result.ingress == R2
        assert result.epoch == 2
        assert service.installs == 2

    def test_epoch_compiles_before_swap(self):
        snapshot = snapshot_for(R1, 200.0, 1)
        epoch = ServingEpoch.from_snapshot(snapshot)
        # compilation happened inside from_snapshot, for every family
        assert epoch.families() == (IPV4,)
        assert len(epoch) == 1
        assert epoch.table(IPV4) is snapshot.compiled(IPV4)

    def test_stats_surface(self):
        service = IngressLookupService()
        service.install_snapshot(snapshot_for(R1, 200.0, 1))
        service.lookup(PROBE)
        stats = service.stats()
        assert stats["epoch"] == 1
        assert stats["watermark"] == 200.0
        assert stats["queries"] == 1
        assert stats["installs"] == 1
        assert stats["shards"] == 4
        assert sum(stats["shard_loads"]) == 1


class TestEpochPinning:
    def test_lookup_many_pins_one_epoch_across_mid_swap(self):
        """An install landing mid-bulk-query must not leak into it."""
        service = IngressLookupService()
        service.install_snapshot(snapshot_for(R1, 200.0, 1))

        def values():
            yield PROBE
            # swap epochs while the bulk lookup is mid-iteration
            service.install_snapshot(snapshot_for(R2, 300.0, 2))
            yield PROBE

        epoch, results = service.lookup_many(values())
        assert epoch == 1
        assert [r.ingress for r in results] == [R1, R1]
        assert {r.epoch for r in results} == {1}
        # the swap is visible to the *next* query
        assert service.lookup(PROBE).ingress == R2

    def test_no_torn_results_under_live_swap_load(self):
        """Reader threads never observe a mix of two epochs.

        Epoch 1 serves R1@200, epoch 2 serves R2@300; any (ingress,
        epoch, watermark) combination outside those two triples is a
        torn read, and so is a wire line other than the one its epoch
        renders (the answer-line memo is filled by whichever reader gets
        there first).  An installer thread flips epochs thousands of
        times while reader threads query continuously.
        """
        service = IngressLookupService(shards=1)
        snapshots = [snapshot_for(R1, 200.0, 1), snapshot_for(R2, 300.0, 2)]
        epochs = [ServingEpoch.from_snapshot(s) for s in snapshots]
        service.install(epochs[0])
        expected = {
            1: (R1, 200.0),
            2: (R2, 300.0),
        }
        lines = {
            1: [b"HIT R1 et0 10.0.0.0/8 0.95 0 1\n"],
            2: [b"HIT R2 et0 10.0.0.0/8 0.95 0 2\n"],
        }
        violations = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                result = service.lookup(PROBE)
                want = expected.get(result.epoch)
                if want is None or (result.ingress, result.watermark) != want:
                    violations.append(result)
                    return
                epoch, answered = service.answer_lines([(PROBE, IPV4)])
                if answered != lines[epoch]:
                    violations.append((epoch, answered))
                    return

        def installer():
            for index in range(4000):
                service.install(epochs[index & 1])
            stop.set()

        readers = [threading.Thread(target=reader) for _ in range(4)]
        swapper = threading.Thread(target=installer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-answer often
        try:
            for thread in readers:
                thread.start()
            swapper.start()
            swapper.join(timeout=30)
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [swapper, *readers])
        assert not violations, violations[:3]
        assert service.installs >= 4000


class TestShardLoad:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            ShardLoadCounters(3)
        with pytest.raises(ValueError):
            ShardLoadCounters(0)

    def test_top_bits_select_the_shard(self):
        load = ShardLoadCounters(4)
        assert load.shard_of(parse_ip("10.0.0.1")[0]) == 0
        assert load.shard_of(parse_ip("80.0.0.1")[0]) == 1
        assert load.shard_of(parse_ip("150.0.0.1")[0]) == 2
        assert load.shard_of(parse_ip("225.0.0.1")[0]) == 3
        assert load.shard_of(parse_ip("8000::1")[0], IPV6) == 2

    def test_record_and_skew(self):
        load = ShardLoadCounters(4)
        assert load.skew() == 1.0  # empty grid reads as balanced
        for _ in range(30):
            load.record(parse_ip("10.0.0.1")[0])
        for _ in range(10):
            load.record(parse_ip("150.0.0.1")[0])
        assert load.total() == 40
        assert load.skew() == pytest.approx(3.0)
        load.reset()
        assert load.total() == 0

    def test_single_shard_grid(self):
        load = ShardLoadCounters(1)
        load.record(parse_ip("255.255.255.255")[0])
        assert load.counts[0] == 1
        assert load.skew() == 1.0


class TestReshardPolicy:
    def test_quiet_grid_recommends_nothing(self):
        policy = ReshardPolicy(min_queries=100)
        load = ShardLoadCounters(4)
        for _ in range(50):
            load.record(parse_ip("10.0.0.1")[0])
        assert policy.recommend(load) is None  # below min_queries

    def test_balanced_grid_recommends_nothing(self):
        policy = ReshardPolicy(min_queries=4)
        load = ShardLoadCounters(4)
        for text in ("10.0.0.1", "80.0.0.1", "150.0.0.1", "225.0.0.1"):
            load.record(parse_ip(text)[0])
        assert policy.recommend(load) is None

    def test_skew_recommends_growth_to_cap(self):
        policy = ReshardPolicy(min_queries=10, max_shards=16)
        load = ShardLoadCounters(4)
        for _ in range(1000):
            load.record(parse_ip("10.0.0.1")[0])
        assert policy.recommend(load) == 16

    def test_at_cap_recommends_nothing(self):
        policy = ReshardPolicy(min_queries=1, max_shards=16)
        load = ShardLoadCounters(16)
        for _ in range(1000):
            load.record(parse_ip("10.0.0.1")[0])
        assert policy.recommend(load) is None


class TestHistory:
    def test_lookup_at_needs_a_source(self):
        service = IngressLookupService()
        with pytest.raises(ServingError):
            service.lookup_at(100.0, PROBE)

    def test_archive_point_in_time(self, tmp_path):
        archive = SnapshotArchive(tmp_path / "arch")
        archive.append_snapshot(
            Snapshot(100.0, [record("10.0.0.0/8", R1, timestamp=100.0)])
        )
        archive.append_snapshot(
            Snapshot(200.0, [record("10.0.0.0/8", R2, timestamp=200.0)])
        )
        service = IngressLookupService(archive=archive)
        # between the snapshots: the older one answers
        result = service.lookup_at(150.0, PROBE)
        assert result.ingress == R1
        assert result.watermark == 100.0
        assert result.epoch == -1
        # at/after the newer snapshot
        assert service.lookup_at(200.0, PROBE).ingress == R2
        assert service.lookup_at(9999.0, PROBE).ingress == R2
        # before history began
        assert service.lookup_at(50.0, PROBE) is None

    def test_archive_history_is_cached(self, tmp_path):
        archive = SnapshotArchive(tmp_path / "arch")
        archive.append_snapshot(
            Snapshot(100.0, [record("10.0.0.0/8", R1, timestamp=100.0)])
        )
        service = IngressLookupService(archive=archive)
        first = service.lookup_at(150.0, PROBE)
        table = service._history[(100.0, IPV4)]
        second = service.lookup_at(175.0, PROBE)
        assert service._history[(100.0, IPV4)] is table
        assert first.ingress == second.ingress == R1

    def test_checkpoint_fallback(self, tmp_path):
        from repro.testkit.traces import fig05_trace

        store = CheckpointStore(tmp_path / "ckpt", retain=100)
        from tests.runtime.test_shard_equivalence import FIG05_PARAMS

        with Pipeline(
            FIG05_PARAMS,
            snapshot_seconds=120.0,
            checkpoint_store=store,
            checkpoint_every=FIG05_PARAMS.t,
        ) as pipeline:
            pipeline.run(fig05_trace())
        checkpoint = store.latest_valid()
        assert checkpoint is not None

        service = IngressLookupService(checkpoints=store)
        result = service.lookup_at(checkpoint.when + 1.0, parse_ip("10.0.0.7")[0])
        assert result is not None
        assert result.watermark == checkpoint.when
        assert result.epoch == -1
        # too early for the newest checkpoint: no history
        assert service.lookup_at(0.0, PROBE) is None


class TestReshard:
    def _populated_store(self, tmp_path):
        from repro.testkit.traces import fig05_trace
        from tests.runtime.test_shard_equivalence import FIG05_PARAMS

        store = CheckpointStore(tmp_path / "ckpt", retain=100)
        with Pipeline(
            FIG05_PARAMS,
            snapshot_seconds=120.0,
            checkpoint_store=store,
            checkpoint_every=FIG05_PARAMS.t,
        ) as pipeline:
            reference = pipeline.run(fig05_trace())
        return store, reference

    def test_skew_triggers_4_to_16_reshard(self, tmp_path):
        store, reference = self._populated_store(tmp_path)
        service = IngressLookupService(
            checkpoints=store,
            shards=4,
            policy=ReshardPolicy(min_queries=100, max_shards=16),
        )
        service.install_snapshot(
            Snapshot(1000.0, reference.final_snapshot(), epoch=1)
        )
        # hammer one corner of the address space: all load on shard 0
        for _ in range(500):
            service.lookup(PROBE)
        assert service.load.skew() == pytest.approx(4.0)
        engine = service.maybe_reshard()
        assert engine is not None
        assert engine.shards == 16
        # counters restart on the new grid
        assert service.load.shards == 16
        assert service.load.total() == 0
        # the resharded engine carries the checkpointed state: its
        # snapshot classifies the same ranges the reference run did
        records = engine.snapshot(store.latest_valid().when)
        assert {r.range for r in records if r.classified} == {
            r.range for r in reference.final_snapshot() if r.classified
        }
        engine.close()

    def test_balanced_load_does_not_reshard(self, tmp_path):
        store, reference = self._populated_store(tmp_path)
        service = IngressLookupService(
            checkpoints=store,
            shards=4,
            policy=ReshardPolicy(min_queries=100, max_shards=16),
        )
        service.install_snapshot(
            Snapshot(1000.0, reference.final_snapshot(), epoch=1)
        )
        for text in ("10.0.0.1", "80.0.0.1", "150.0.0.1", "225.0.0.1"):
            value = parse_ip(text)[0]
            for _ in range(200):
                service.lookup(value)
        assert service.maybe_reshard() is None
        assert service.load.shards == 4

    def test_reshard_without_store_raises(self):
        service = IngressLookupService()
        with pytest.raises(ServingError):
            service.reshard(16)
