"""Tests for the command-line interface."""

import contextlib
import gzip
import io
import json

import pytest

from repro.cli import _params_from, build_parser, main
from repro.core.iputil import IPV4, Prefix, parse_ip
from repro.core.output import IPDRecord, write_records_csv
from repro.netflow.records import FlowRecord, read_flows_csv, write_flows_csv
from repro.runtime import CheckpointStore, Pipeline
from repro.topology.elements import IngressPoint

A = IngressPoint("R1", "et0")
B = IngressPoint("R2", "et0")


@pytest.fixture
def flow_csv(tmp_path):
    """A small two-ingress trace: 20 minutes, two regions.

    Two distinct ingresses force the trie to split, so address space
    without traffic (e.g. 203.0.113.0/24) stays unmapped.
    """
    flows = []
    for bucket in range(20):
        for index in range(50):
            ts = bucket * 60.0 + index
            flows.append(FlowRecord(
                timestamp=ts,
                src_ip=parse_ip("10.0.0.0")[0] + (index % 32) * 16,
                version=IPV4,
                ingress=A,
            ))
            flows.append(FlowRecord(
                timestamp=ts,
                src_ip=parse_ip("100.0.0.0")[0] + (index % 32) * 16,
                version=IPV4,
                ingress=B,
            ))
    path = tmp_path / "flows.csv"
    with open(path, "w") as stream:
        write_flows_csv(flows, stream)
    return path


def run_cli(*argv) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main([str(arg) for arg in argv])
    return status, buffer.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("run", "lookup", "simulate", "evaluate"):
            assert command in parser.format_help()


class TestRunCommand:
    def test_run_produces_records(self, flow_csv, tmp_path):
        output = tmp_path / "records.csv"
        status, text = run_cli(
            "run", flow_csv, output, "--n-cidr-factor", "0.01"
        )
        assert status == 0
        assert "processed 2,000 flows" in text
        content = output.read_text()
        assert "R1.et0" in content

    def test_run_requires_positionals_without_scenario(self, capsys):
        assert main(["run"]) == 2
        assert "--scenario" in capsys.readouterr().err

    def test_scenario_rejects_unknown_name(self, capsys):
        assert main(["run", "--scenario", "ddos"]) == 2
        assert "flood-uniform" in capsys.readouterr().err

    def test_scenario_rejects_two_positionals(self, capsys):
        assert main(["run", "a.csv", "b.csv", "--scenario", "flap-storm"]) == 2
        assert "generates its own flows" in capsys.readouterr().err

    def test_scenario_run_prints_evaluation(self, tmp_path):
        output = tmp_path / "records.csv"
        status, text = run_cli(
            "run", "--scenario", "policing-clip",
            "--scenario-hours", "0.5", "--scenario-peak", "200",
            output,
        )
        assert status == 0
        assert "scenario policing-clip (policing)" in text
        assert "clip " in text
        assert output.exists()

    def test_lookup_after_run(self, flow_csv, tmp_path):
        output = tmp_path / "records.csv"
        run_cli("run", flow_csv, output, "--n-cidr-factor", "0.01")
        status, text = run_cli("lookup", output, "10.0.0.5")
        assert status == 0
        assert "R1.et0" in text

    def test_lookup_unmapped_sets_status(self, flow_csv, tmp_path):
        output = tmp_path / "records.csv"
        run_cli("run", flow_csv, output, "--n-cidr-factor", "0.01")
        status, text = run_cli("lookup", output, "203.0.113.9")
        assert status == 1
        assert "not mapped" in text

    def test_evaluate_roundtrip(self, flow_csv, tmp_path):
        output = tmp_path / "records.csv"
        run_cli("run", flow_csv, output, "--n-cidr-factor", "0.01")
        status, text = run_cli("evaluate", output, flow_csv)
        assert status == 0
        assert "correct:" in text

    def test_evaluate_empty_flows(self, tmp_path, flow_csv):
        records = tmp_path / "records.csv"
        run_cli("run", flow_csv, records, "--n-cidr-factor", "0.01")
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        status, __ = run_cli("evaluate", records, empty)
        assert status == 1


def _records_file(path, rows):
    """Write ``(timestamp, cidr, ingress)`` rows as an IPD record CSV."""
    records = [
        IPDRecord(timestamp=timestamp, range=Prefix.from_string(cidr),
                  ingress=ingress, s_ingress=1.0, s_ipcount=64, n_cidr=8,
                  candidates=((ingress, 64.0),))
        for timestamp, cidr, ingress in rows
    ]
    with open(path, "w") as stream:
        write_records_csv(records, stream)
    return path


class TestRecordsFileIsOneSnapshot:
    """``lookup``, ``evaluate`` and ``serve --records`` read a records
    file as one snapshot.  A file of two snapshots (the /8 at t=300, the
    /9 at t=600) used to be compiled as one table and answered 10.1.2.3
    from the stale /8; now it exits 2, as does an overlap inside one
    snapshot, here or in an archive's latest snapshot."""

    def commands(self, records, flow_csv):
        return {
            "lookup": ["lookup", records, "10.1.2.3"],
            "evaluate": ["evaluate", records, flow_csv],
            "serve": ["serve", "--records", records, "--port", "0"],
        }

    @pytest.mark.parametrize("command", ["lookup", "evaluate", "serve"])
    def test_two_snapshots_exit_two(self, command, flow_csv, tmp_path):
        records = _records_file(tmp_path / "two.csv", [
            (300.0, "10.0.0.0/8", A), (600.0, "10.128.0.0/9", B),
        ])
        status, out, err = run_cli_with_stderr(
            *self.commands(records, flow_csv)[command]
        )
        assert status == 2 and out == ""
        assert f"{records} holds 2 snapshots" in err
        assert "archive ingest" in err and "serve --archive" in err

    @pytest.mark.parametrize("command", ["lookup", "evaluate", "serve"])
    def test_overlap_in_one_snapshot_exits_two(self, command, flow_csv, tmp_path):
        records = _records_file(tmp_path / "nested.csv", [
            (300.0, "10.0.0.0/8", A), (300.0, "10.128.0.0/9", B),
        ])
        status, out, err = run_cli_with_stderr(
            *self.commands(records, flow_csv)[command]
        )
        assert status == 2 and out == ""
        assert "overlapping ranges 10.0.0.0/8 and 10.128.0.0/9" in err
        assert str(records) in err

    def test_overlap_in_the_archives_latest_snapshot_exits_two(self, tmp_path):
        records = _records_file(tmp_path / "nested.csv", [
            (300.0, "10.0.0.0/8", A), (300.0, "10.128.0.0/9", B),
        ])
        # 'archive ingest' refuses the overlap, so store it as an older build did
        root = tmp_path / "arch"
        root.mkdir()
        with open(records, "rb") as source, gzip.open(root / "1970-01-01.csv.gz", "wb") as target:
            target.write(source.read())
        (root / "index.json").write_text(json.dumps({"1970-01-01": {
            "file": "1970-01-01.csv.gz", "snapshots": [300.0], "records": 2}}))
        status, out, err = run_cli_with_stderr("serve", "--archive", root)
        assert status == 2 and out == ""
        assert "overlapping ranges 10.0.0.0/8 and 10.128.0.0/9" in err

    def test_one_snapshot_still_answers(self, tmp_path):
        records = _records_file(tmp_path / "one.csv", [
            (600.0, "10.0.0.0/9", A), (600.0, "10.128.0.0/9", B),
        ])
        status, text = run_cli("lookup", records, "10.1.2.3", "10.200.0.1")
        assert status == 0
        assert text == ("10.1.2.3: R1.et0 (via 10.0.0.0/9)\n"
                        "10.200.0.1: R2.et0 (via 10.128.0.0/9)\n")


class TestSimulateCommand:
    def test_simulate_writes_flows(self, tmp_path):
        output = tmp_path / "sim.csv"
        status, text = run_cli(
            "simulate", output, "--hours", "0.05", "--flows-per-minute", "300"
        )
        assert status == 0
        assert output.exists()
        assert "suggested IPD scaling" in text


class TestArchiveCommand:
    def test_ingest_and_stats(self, flow_csv, tmp_path):
        records = tmp_path / "records.csv"
        run_cli("run", flow_csv, records, "--n-cidr-factor", "0.01")
        root = tmp_path / "arch"
        status, text = run_cli("archive", root, "ingest", "--records", records)
        assert status == 0
        assert "archived" in text
        status, text = run_cli("archive", root, "stats")
        assert status == 0
        assert "snapshots: 1" in text

    def test_ingest_of_overlapping_records_exits_two_and_writes_nothing(self, tmp_path):
        records = _records_file(tmp_path / "nested.csv", [
            (300.0, "10.0.0.0/8", A), (300.0, "10.128.0.0/9", B),
        ])
        root = tmp_path / "arch"
        status, out, err = run_cli_with_stderr("archive", root, "ingest", "--records", records)
        assert status == 2 and out == ""
        assert f"{records}: overlapping ranges 10.0.0.0/8 and 10.128.0.0/9: " in err
        assert list(root.iterdir()) == []

    def test_ingest_requires_records(self, tmp_path):
        status, __ = run_cli("archive", tmp_path / "arch", "ingest")
        assert status == 2


class TestWatchCommand:
    def test_watch_prints_trajectory(self, flow_csv, tmp_path):
        records = tmp_path / "records.csv"
        run_cli("run", flow_csv, records, "--n-cidr-factor", "0.01")
        root = tmp_path / "arch"
        run_cli("archive", root, "ingest", "--records", records)
        status, text = run_cli("watch", root, "10.0.0.0/24")
        assert status == 0
        assert "classified" in text
        assert "confidence:" in text

    def test_watch_empty_archive(self, tmp_path):
        status, __ = run_cli("watch", tmp_path / "empty", "10.0.0.0/24")
        assert status == 1


def run_cli_with_stderr(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main([str(arg) for arg in argv])
    return status, out.getvalue(), err.getvalue()


class TestResumeErrorPaths:
    """``--resume`` must fail loudly and typed, never silently recompute."""

    def checkpointed_run(self, flow_csv, tmp_path, *extra):
        ckpt = tmp_path / "ckpt"
        output = tmp_path / "records.csv"
        status, __ = run_cli(
            "run", flow_csv, output, "--n-cidr-factor", "0.01",
            "--checkpoint-dir", ckpt, "--checkpoint-every", "300", *extra,
        )
        assert status == 0
        return ckpt, output

    def test_resume_requires_checkpoint_dir(self, flow_csv, tmp_path):
        status, __, err = run_cli_with_stderr(
            "run", flow_csv, tmp_path / "out.csv", "--resume"
        )
        assert status == 2
        assert "--checkpoint-dir" in err

    def test_resume_missing_directory_fails(self, flow_csv, tmp_path):
        status, __, err = run_cli_with_stderr(
            "run", flow_csv, tmp_path / "out.csv",
            "--resume", "--checkpoint-dir", tmp_path / "never-created",
        )
        assert status == 2
        assert "does not exist" in err
        # and the CLI did not silently create it
        assert not (tmp_path / "never-created").exists()

    def test_resume_corrupt_checkpoint_fails(self, flow_csv, tmp_path):
        ckpt, output = self.checkpointed_run(flow_csv, tmp_path)
        newest = sorted(ckpt.glob("checkpoint-*.ckpt"))[-1]
        newest.write_bytes(newest.read_bytes()[:60])
        status, __, err = run_cli_with_stderr(
            "run", flow_csv, output, "--n-cidr-factor", "0.01",
            "--resume", "--checkpoint-dir", ckpt,
        )
        assert status == 2
        assert "cannot resume" in err
        assert str(newest) in err  # the typed error carries the path

    def test_resume_incompatible_container_version_fails(
        self, flow_csv, tmp_path
    ):
        import struct

        from repro.runtime.checkpoint import CHECKPOINT_VERSION

        ckpt, output = self.checkpointed_run(flow_csv, tmp_path)
        newest = sorted(ckpt.glob("checkpoint-*.ckpt"))[-1]
        data = bytearray(newest.read_bytes())
        data[4:6] = struct.pack(">H", CHECKPOINT_VERSION + 7)
        newest.write_bytes(bytes(data))
        status, __, err = run_cli_with_stderr(
            "run", flow_csv, output, "--n-cidr-factor", "0.01",
            "--resume", "--checkpoint-dir", ckpt,
        )
        assert status == 2
        assert "newer build" in err

    def test_resume_illegal_shard_count_fails(self, flow_csv, tmp_path):
        """A resume takes no topology: every shard count is refused."""
        ckpt, output = self.checkpointed_run(flow_csv, tmp_path)
        for shards in ("3", "4"):
            with pytest.raises(SystemExit) as exit_info:
                run_cli_with_stderr(
                    "run", flow_csv, output, "--n-cidr-factor", "0.01",
                    "--resume", "--checkpoint-dir", ckpt, "--shards", shards,
                )
            assert exit_info.value.code == 2

    def test_resume_happy_path_and_reshard(self, flow_csv, tmp_path):
        """Control: a healthy resume works, including one from a
        checkpoint a 4-shard run wrote mid-trace (legal: the checkpoint is
        the merged single-engine image, and it continues on one engine)."""
        ckpt, output = self.checkpointed_run(flow_csv, tmp_path)
        reference = output.read_text()
        status, text = run_cli(
            "run", flow_csv, output, "--n-cidr-factor", "0.01",
            "--resume", "--checkpoint-dir", ckpt,
        )
        assert status == 0
        assert "resumed from checkpoint" in text
        assert output.read_text() == reference

        args = build_parser().parse_args(
            ["run", str(flow_csv), str(output), "--n-cidr-factor", "0.01"]
        )
        sharded = CheckpointStore(tmp_path / "sharded", retain=100)
        with open(flow_csv) as stream:
            flows = list(read_flows_csv(stream))
        with Pipeline(
            _params_from(args), shards=4,
            snapshot_seconds=args.snapshot_seconds,
            checkpoint_store=sharded, checkpoint_every=300.0,
        ) as pipeline:
            pipeline.run(flows)
        saved = sharded.list()
        assert len(saved) > 2
        for path in saved[len(saved) // 2:]:
            path.unlink()  # the newest left is a mid-trace checkpoint
        status, text = run_cli(
            "run", flow_csv, output, "--n-cidr-factor", "0.01",
            "--resume", "--checkpoint-dir", sharded.directory,
        )
        assert status == 0
        assert "resumed from checkpoint" in text
        assert output.read_text() == reference
