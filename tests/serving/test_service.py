"""IngressLookupService: hot swap, epoch pinning, archive history.

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
from repro.serving import (
    IngressLookupService,
    NoEpochError,
    ServingEpoch,
    ServingError,
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
            service.answer_lines([(PROBE, IPV4)])

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
        assert set(stats) == {
            "epoch", "watermark", "families", "rows", "installs", "queries",
        }


class TestEpochPinning:
    def test_answer_lines_pins_one_epoch_across_mid_swap(self):
        """An install landing mid-bulk-query must not leak into it."""
        service = IngressLookupService()
        service.install_snapshot(snapshot_for(R1, 200.0, 1))

        def addresses():
            yield PROBE, IPV4
            # swap epochs while the bulk answer is mid-iteration
            service.install_snapshot(snapshot_for(R2, 300.0, 2))
            yield PROBE, IPV4

        epoch, lines = service.answer_lines(addresses())
        assert epoch == 1
        assert lines == [b"HIT R1 et0 10.0.0.0/8 0.95 0 1\n"] * 2
        assert service.queries == 2
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
        service = IngressLookupService()
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


class TestHistory:
    def test_lookup_at_needs_a_source(self):
        service = IngressLookupService()
        with pytest.raises(ServingError):
            service.lookup_at(100.0, PROBE)

    def test_archive_point_in_time(self, tmp_path):
        archive = SnapshotArchive(tmp_path / "arch")
        archive.append(100.0, [record("10.0.0.0/8", R1, timestamp=100.0)])
        archive.append(200.0, [record("10.0.0.0/8", R2, timestamp=200.0)])
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
        archive.append(100.0, [record("10.0.0.0/8", R1, timestamp=100.0)])
        service = IngressLookupService(archive=archive)
        first = service.lookup_at(150.0, PROBE)
        table = service._history[(100.0, IPV4)]
        second = service.lookup_at(175.0, PROBE)
        assert service._history[(100.0, IPV4)] is table
        assert first.ingress == second.ingress == R1
