"""Tests for the longitudinal snapshot archive."""

import builtins
import errno
import gzip
import io

import pytest

from repro.archive import SnapshotArchive
from repro.core.iputil import Prefix
from repro.core.output import IPDRecord
from repro.topology.elements import IngressPoint

A = IngressPoint("R1", "et0")
B = IngressPoint("R2", "xe0")


def record(range_text: str, ingress: IngressPoint = A,
           ts: float = 0.0) -> IPDRecord:
    return IPDRecord(
        timestamp=ts, range=Prefix.from_string(range_text), ingress=ingress,
        s_ingress=1.0, s_ipcount=10.0, n_cidr=2.0,
        candidates=((ingress, 10.0),),
    )


class TestAppendAndLoad:
    def test_roundtrip_single_snapshot(self, tmp_path):
        archive = SnapshotArchive(tmp_path / "arch")
        archive.append(300.0, [record("10.0.0.0/24")])
        loaded = archive.load()
        assert list(loaded) == [300.0]
        assert str(loaded[300.0][0].range) == "10.0.0.0/24"
        assert loaded[300.0][0].timestamp == 300.0

    def test_restamps_records(self, tmp_path):
        archive = SnapshotArchive(tmp_path / "arch")
        archive.append(600.0, [record("10.0.0.0/24", ts=0.0)])
        loaded = archive.load()
        assert loaded[600.0][0].timestamp == 600.0

    def test_multiple_snapshots_same_day(self, tmp_path):
        archive = SnapshotArchive(tmp_path / "arch")
        archive.append(300.0, [record("10.0.0.0/24")])
        archive.append(600.0, [record("10.0.0.0/24", B),
                               record("10.0.1.0/24")])
        loaded = archive.load()
        assert sorted(loaded) == [300.0, 600.0]
        assert len(loaded[600.0]) == 2
        assert loaded[600.0][0].ingress in (A, B)

    def test_partitions_by_day(self, tmp_path):
        archive = SnapshotArchive(tmp_path / "arch")
        archive.append(300.0, [record("10.0.0.0/24")])
        archive.append(90_000.0, [record("10.0.0.0/24")])  # next day
        partitions = sorted(
            p.name for p in (tmp_path / "arch").glob("*.csv.gz")
        )
        assert partitions == ["1970-01-01.csv.gz", "1970-01-02.csv.gz"]
        # iteration is time-ordered across day partitions
        assert [t for t, __ in archive.snapshots()] == [300.0, 90_000.0]

    def test_out_of_order_append_rejected(self, tmp_path):
        archive = SnapshotArchive(tmp_path / "arch")
        archive.append(600.0, [record("10.0.0.0/24")])
        with pytest.raises(ValueError):
            archive.append(300.0, [record("10.0.0.0/24")])

    def test_overlapping_snapshot_is_refused_before_any_write(self, tmp_path):
        root = tmp_path / "arch"
        archive = SnapshotArchive(root)
        archive.append(300.0, [record("10.0.0.0/24")])
        before = {path.name: path.read_bytes() for path in root.iterdir()}
        nested = [record("10.1.0.0/16"), record("10.1.2.0/24", B)]
        message = r"^overlapping ranges 10\.1\.0\.0/16 and 10\.1\.2\.0/24: "
        with pytest.raises(ValueError, match=message):
            archive.append(600.0, nested)
        # a run is checked whole: its clean first snapshot is not written either
        with pytest.raises(ValueError, match=message):
            archive.append_run({600.0: [record("10.2.0.0/24")], 900.0: nested})
        assert {path.name: path.read_bytes() for path in root.iterdir()} == before
        assert archive.snapshot_times() == SnapshotArchive(root).snapshot_times() == [300.0]

    def test_append_run(self, tmp_path):
        archive = SnapshotArchive(tmp_path / "arch")
        run = {
            300.0: [record("10.0.0.0/24")],
            600.0: [record("10.0.1.0/24")],
        }
        assert archive.append_run(run) == 2
        assert archive.snapshot_times() == [300.0, 600.0]


class TestQueries:
    @pytest.fixture
    def archive(self, tmp_path):
        archive = SnapshotArchive(tmp_path / "arch")
        for index in range(6):
            archive.append(
                index * 43_200.0 + 300.0,  # two snapshots per day
                [record("10.0.0.0/24"), record("20.0.0.0/16", B)],
            )
        return archive

    def test_time_range_query(self, archive):
        loaded = archive.load(start=43_200.0, end=130_000.0)
        assert sorted(loaded) == [43_500.0, 86_700.0, 129_900.0]

    def test_prefix_filter(self, archive):
        results = list(archive.snapshots(
            prefix_filter=Prefix.from_string("20.0.0.0/8")
        ))
        assert results
        for __, records in results:
            assert all(str(r.range) == "20.0.0.0/16" for r in records)

    def test_prefix_filter_matches_finer_query(self, archive):
        results = list(archive.snapshots(
            prefix_filter=Prefix.from_string("20.0.5.0/24")
        ))
        assert all(
            str(r.range) == "20.0.0.0/16" for __, records in results
            for r in records
        )

    def test_stats(self, archive):
        stats = archive.stats()
        assert stats.snapshots == 6
        assert stats.records == 12
        assert stats.days == 3
        assert stats.compressed_bytes > 0


class TestPersistence:
    def test_reopen_preserves_index(self, tmp_path):
        root = tmp_path / "arch"
        first = SnapshotArchive(root)
        first.append(300.0, [record("10.0.0.0/24")])
        second = SnapshotArchive(root)
        assert second.snapshot_times() == [300.0]
        second.append(600.0, [record("10.0.1.0/24")])
        assert len(second.load()) == 2

    def test_interrupted_index_write_keeps_the_previous_index(
        self, tmp_path, monkeypatch
    ):
        """An append cut off while it writes ``index.json`` (disk full,
        process killed) leaves the index of the appends before it."""
        root = tmp_path / "arch"
        archive = SnapshotArchive(root)
        archive.append(300.0, [record("10.0.0.0/24")])
        real_open = io.open

        class CutOff:
            """A file that takes half of its first write, then fails."""

            def __init__(self, stream):
                self.stream = stream

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.stream.close()

            def write(self, data):
                self.stream.write(data[: len(data) // 2])
                self.stream.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        def open_cutting_index_writes(file, mode="r", *args, **kwargs):
            stream = real_open(file, mode, *args, **kwargs)
            if "index.json" in str(file) and "w" in mode:
                return CutOff(stream)
            return stream

        # both doors: builtins.open and io.open (what pathlib calls)
        monkeypatch.setattr(builtins, "open", open_cutting_index_writes)
        monkeypatch.setattr(io, "open", open_cutting_index_writes)
        with pytest.raises(OSError):
            archive.append(600.0, [record("10.0.1.0/24")])
        monkeypatch.undo()
        reopened = SnapshotArchive(root)
        assert reopened.snapshot_times() == [300.0]
        assert [str(r.range) for r in reopened.load()[300.0]] == [
            "10.0.0.0/24"
        ]

    def test_partition_is_valid_gzip_csv(self, tmp_path):
        root = tmp_path / "arch"
        archive = SnapshotArchive(root)
        archive.append(300.0, [record("10.0.0.0/24")])
        archive.append(600.0, [record("10.0.1.0/24")])
        partition = next(root.glob("*.csv.gz"))
        with gzip.open(partition, "rt") as stream:
            lines = stream.read().strip().splitlines()
        assert lines[0].startswith("timestamp,")
        assert len(lines) == 3  # header + 2 records


class TestPointInTime:
    """``load_at`` / ``latest``: the serving plane's history reads."""

    @pytest.fixture
    def three_day_root(self, tmp_path):
        """Two snapshots on day 0, one each on days 1 and 2."""
        root = tmp_path / "arch"
        archive = SnapshotArchive(root)
        archive.append(300.0, [record("10.0.0.0/24")])
        archive.append(600.0, [record("10.0.1.0/24", B)])
        archive.append(90_000.0, [record("10.1.0.0/24")])
        archive.append(180_000.0, [record("10.2.0.0/24", B)])
        return root

    def test_empty_archive(self, tmp_path):
        archive = SnapshotArchive(tmp_path / "arch")
        assert archive.load_at(1e9) is None
        assert archive.latest() is None

    def test_before_first_snapshot(self, three_day_root):
        assert SnapshotArchive(three_day_root).load_at(299.9) is None

    def test_exact_hit(self, three_day_root):
        found, records = SnapshotArchive(three_day_root).load_at(600.0)
        assert found == 600.0
        assert [str(r.range) for r in records] == ["10.0.1.0/24"]

    def test_between_snapshots_rounds_down(self, three_day_root):
        archive = SnapshotArchive(three_day_root)
        # inside one day partition
        found, records = archive.load_at(599.0)
        assert found == 300.0
        assert [str(r.range) for r in records] == ["10.0.0.0/24"]
        # straddling a day boundary
        found, records = archive.load_at(89_999.0)
        assert found == 600.0
        assert records[0].ingress == B

    def test_after_newest_clamps_to_latest(self, three_day_root):
        archive = SnapshotArchive(three_day_root)
        found, records = archive.load_at(1e12)
        assert found == 180_000.0
        assert (found, [str(r.range) for r in records]) == (
            archive.latest()[0],
            [str(r.range) for r in archive.latest()[1]],
        )

    def test_latest_reads_only_the_newest(self, three_day_root):
        found, records = SnapshotArchive(three_day_root).latest()
        assert found == 180_000.0
        assert [str(r.range) for r in records] == ["10.2.0.0/24"]
        assert records[0].timestamp == 180_000.0

    def test_load_at_reopened_archive(self, three_day_root):
        """The bisect path works from a cold index (no appends made)."""
        archive = SnapshotArchive(three_day_root)
        times = archive.snapshot_times()
        assert times == [300.0, 600.0, 90_000.0, 180_000.0]
        for probe, want in [(300.0, 300.0), (100_000.0, 90_000.0)]:
            found, __ = archive.load_at(probe)
            assert found == want


class TestEndToEnd:
    def test_run_archive_analyze(self, tmp_path):
        """IPD run -> archive -> reload -> stability analysis."""
        from repro.analysis.stability import stability_durations
        from repro import Pipeline
        from repro.core.iputil import parse_ip
        from repro.core.params import IPDParams
        from repro.netflow.records import FlowRecord

        base = parse_ip("10.0.0.0")[0]
        flows = [
            FlowRecord(timestamp=bucket * 60.0 + i, src_ip=base + i * 16,
                       version=4, ingress=A)
            for bucket in range(20) for i in range(40)
        ]
        result = Pipeline(
            IPDParams(n_cidr_factor_v4=0.001, n_cidr_factor_v6=0.001)
        ).run(flows)
        archive = SnapshotArchive(tmp_path / "arch")
        archive.append_run(result.snapshots)
        reloaded = archive.load()
        durations = stability_durations(reloaded)
        assert durations
        assert max(durations) > 0
