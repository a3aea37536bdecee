"""Deleted variants are gone, not hidden: executors, transport, per-flow
forks, the one-shard coordinator, restores into a coordinator and the
topology options of every path but a fresh ``Pipeline``, per-verb
executor methods, the fault hook seam, the serving shard grid, the
compiled-LPM blob, the stream handler of the lookup socket and the
engine's §5.8 load-balance plumbing."""

import pytest

from repro.cli import main
from repro.runtime import EXECUTOR_KINDS, Pipeline


def test_removed_executor_and_transport_are_rejected(capsys):
    assert EXECUTOR_KINDS == ("serial", "mp")
    with pytest.raises(ValueError, match=r"'serial', 'mp'"):
        Pipeline(executor="threaded")
    with pytest.raises(TypeError, match="transport"):
        Pipeline(shards=4, executor="mp", transport="shm")
    for flag in (["--executor", "threaded"], ["--transport", "shm"]):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "flows.csv", "records.csv", *flag])
        assert exit_info.value.code == 2
    capsys.readouterr()  # argparse's usage text


def test_one_shard_is_a_plain_engine():
    """No one-shard coordinator: shards=1 is a plain IPD, and a sharded
    engine or the mp executor at one shard is refused by its rule."""
    from repro.runtime import ShardedIPD

    with pytest.raises(ValueError, match=r"shards >= 2.*shards=1 is one plain IPD"):
        ShardedIPD(shards=1)
    with pytest.raises(ValueError, match=r"shards=1 is one plain IPD.*'mp' needs shards >= 2"):
        Pipeline(shards=1, executor="mp")


@pytest.mark.parametrize("flag", [["--shards", "4"], ["--executor", "mp"], ["--workers", "2"]],
                         ids=["shards", "executor", "workers"])
def test_cli_run_takes_no_topology_flags(capsys, flag):
    """``cli run`` is one engine: a sharded replay is ``Pipeline(shards=...)``."""
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "flows.csv", "records.csv", *flag])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_executors_are_pipes():
    """Executors speak send / broadcast / gather / close only: no
    per-verb methods, no fault hook, no second dispatch on the engine."""
    from repro.runtime import ShardedIPD
    from repro.runtime.executors import MultiprocessExecutor, SerialExecutor
    from repro.runtime.shards import ShardEngine
    from repro.testkit.traces import FIG05_PARAMS

    for cls in (SerialExecutor, MultiprocessExecutor):
        for verb in ("send", "broadcast", "gather", "close"):
            assert callable(getattr(cls, verb))
        for name in ("feed", "apply", "tick_begin", "tick_collect", "snapshot",
                     "metrics", "export", "admission_export"):
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    assert not hasattr(ShardEngine, "apply_op")
    assert not hasattr(SerialExecutor(FIG05_PARAMS, depth=1), "fault_hook")
    with ShardedIPD(FIG05_PARAMS, shards=2, executor="mp", workers=1) as engine:
        assert not hasattr(engine._executor, "fault_hook")


def test_one_engine_factory(monkeypatch, tmp_path):
    """A coordinator is only ever built empty, by build_engine for a fresh
    Pipeline: both crash-recovery branches of a 4-shard run, resumes, the
    live runtime and every restore are one plain IPD, and no restore path
    takes a topology."""
    import inspect

    import repro.runtime.pipeline as pipeline
    from repro.core.algorithm import IPD
    from repro.runtime import (
        CheckpointStore, LivePipeline, ShardedIPD, build_engine, restore_engine, sharding,
    )
    from repro.testkit.faults import Fault, FaultPlan
    from repro.testkit.traces import FIG05_PARAMS, fig05_trace
    from repro.workloads.scenarios import Scenario

    built = []

    def spy(*args, **kwargs):
        built.append(build_engine(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(pipeline, "build_engine", spy)
    store = CheckpointStore(tmp_path / "ckpt")
    # crash 1 (after the 60 s sweep) precedes the first checkpoint (a
    # fresh restart), crash 2 (after the 240 s sweep of the replay)
    # follows one (a restore)
    plan = FaultPlan([Fault("worker_crash", at=0), Fault("worker_crash", at=4)])
    engines = []

    def observe(report, engine):
        engines.append(type(engine))
        plan.on_sweep(report, engine)

    with Pipeline(FIG05_PARAMS, shards=4, snapshot_seconds=120.0,
                  checkpoint_store=store, on_sweep=observe) as replay:
        replay.run(fig05_trace)
    assert plan.fired == [("worker_crash", 0), ("worker_crash", 4)]
    assert [type(engine) for engine in built] == [ShardedIPD]
    assert engines[0] is ShardedIPD and set(engines[1:]) == {IPD}
    with ShardedIPD(FIG05_PARAMS, shards=4) as fresh:
        fresh.ingest_many(fig05_trace())
        fresh.sweep(600.0)
        sharded_blob = fresh.to_bytes()
    for engine in (Pipeline.resume(store).engine, LivePipeline(FIG05_PARAMS).engine,
                   LivePipeline.resume(store).engine, restore_engine(sharded_blob)):
        assert type(engine) is IPD

    for function in (Pipeline.resume, LivePipeline.__init__, LivePipeline.resume,
                     Scenario.run, CheckpointStore.restore_engine, restore_engine):
        assert not {"shards", "executor", "workers"} & set(inspect.signature(function).parameters)
    assert "blob" not in inspect.signature(build_engine).parameters
    assert not hasattr(ShardedIPD, "from_image") and not hasattr(ShardedIPD, "from_bytes")
    assert not hasattr(sharding, "_carve")
    assert not hasattr(LivePipeline, "close")


def test_fault_hook_seam_is_gone(tmp_path):
    """Faults enter through on_sweep, sinks and the checkpoint store: no
    component takes a fault hook, and the seam's protocol is gone."""
    import repro.runtime
    from repro.core.algorithm import IPD
    from repro.devtools import build_rules
    from repro.runtime import CheckpointStore, ShardedIPD

    with pytest.raises(TypeError, match="fault_hook"):
        Pipeline(fault_hook=object())
    with pytest.raises(TypeError, match="fault_hook"):
        CheckpointStore(tmp_path, fault_hook=object())
    assert "FaultHookLike" not in repro.runtime.__all__
    assert not hasattr(repro.runtime, "FaultHookLike")
    with ShardedIPD(shards=2) as engine:
        assert not hasattr(engine, "fault_hook")
    for cls in (IPD, ShardedIPD):
        assert not hasattr(cls, "saturate_admission")
    # the lint rule that policed the seam went with it
    with pytest.raises(ValueError, match="unknown rule code"):
        build_rules(["IPD006"])


def test_per_flow_forks_are_gone(capsys):
    """One Stage-1 path: no per-flow CLI mode, shard buffer or third gate."""
    from repro.core.admission import AdmissionController
    from repro.runtime import ShardedIPD

    with pytest.raises(SystemExit) as exit_info:
        main(["run", "flows.csv", "records.csv", "--batch-size", "0"])
    assert exit_info.value.code == 2
    assert "--batch-size" in capsys.readouterr().err
    with ShardedIPD(shards=4) as sharded:
        assert not hasattr(sharded, "_pending")
    assert not hasattr(AdmissionController, "partition_batch")


def test_admission_forks_are_gone():
    """One admission gate: no per-group gate, held buffer or v1 wire read."""
    import dataclasses

    from repro.core.admission import (
        AdmissionConfig,
        AdmissionController,
        AdmissionImage,
        decode_admission,
        encode_admission,
    )
    from repro.core.algorithm import IPD
    from repro.core.statecodec import IncompatibleStateError

    for name in ("filter_groups", "drain_held", "has_held", "held"):
        assert not hasattr(AdmissionController, name)
    assert not hasattr(IPD, "flush_held")
    fields = {field.name for field in dataclasses.fields(AdmissionImage)}
    assert "held" not in fields and len(fields) < 12
    section = bytearray(encode_admission(AdmissionImage(AdmissionConfig())))
    section[5] = 1  # the version byte
    with pytest.raises(IncompatibleStateError, match="version 1.*version 2"):
        decode_admission(bytes(section) + b"\x00")  # v1's empty held block


def test_lpm_forks_are_gone():
    """One LPM for IPD output: no per-masklen buckets, hi/lo key columns
    or second ``build_*`` path; the public builder compiles."""
    import repro
    import repro.core
    from repro.core.lpm import CompiledLPM, build_lpm_from_records

    table = build_lpm_from_records([])
    assert isinstance(table, CompiledLPM)
    for name in ("_buckets", "_keys_hi", "_keys_lo", "from_table", "nbytes"):
        assert not hasattr(table, name)
    for module in (repro, repro.core, repro.core.lpm):
        assert not hasattr(module, "compile_lpm_from_records")
        assert "compile_lpm_from_records" not in module.__all__


def test_leaf_cache_is_gone():
    """One bisect on the write path: no LRU in front of the leaf index,
    no knob for it, no counters about it."""
    import dataclasses

    import repro.core.rangetree as rangetree
    from repro.core.algorithm import SweepReport
    from repro.core.iputil import IPV4
    from repro.core.rangetree import RangeTree

    tree = RangeTree(IPV4)
    for name in ("_cache", "cache_capacity", "clear_cache", "cache_size",
                 "cache_hits", "cache_misses", "cache_evictions"):
        assert not hasattr(tree, name)
    fields = {field.name for field in dataclasses.fields(SweepReport)}
    assert not fields & {"cache_hits", "cache_misses", "cache_size",
                         "cache_evictions"}
    assert not hasattr(rangetree, "DEFAULT_CACHE_CAPACITY")
    assert "DEFAULT_CACHE_CAPACITY" not in rangetree.__all__
    with pytest.raises(TypeError, match="cache_capacity"):
        RangeTree(IPV4, cache_capacity=4)


def _one_range_service():
    from repro.core.iputil import Prefix
    from repro.core.output import IPDRecord
    from repro.core.snapshot import Snapshot
    from repro.serving import IngressLookupService
    from repro.topology.elements import IngressPoint

    service = IngressLookupService()
    service.install_snapshot(Snapshot(1.0, [IPDRecord(
        timestamp=1.0, range=Prefix.from_string("10.0.0.0/8"),
        ingress=IngressPoint("R1", "et0"), s_ingress=0.9, s_ipcount=32,
        n_cidr=4, candidates=(), classified=True,
    )], epoch=1))
    return service


def test_per_verb_reply_paths_are_gone():
    """One reply path: no per-verb helpers or second line renderer, and a
    64-address MGET reaches the transport in one write."""
    import repro.serving.server as server
    from repro.serving import LookupServer

    assert not hasattr(server, "_format_hit")
    for name in ("_get", "_mget", "_at"):
        assert not hasattr(LookupServer, name)

    class StubTransport:
        def __init__(self):
            self.writes = []
            self.closed = False

        def write(self, data):
            self.writes.append(bytes(data))

        def close(self):
            self.closed = True

    transport = StubTransport()
    connection = server._Connection(LookupServer(_one_range_service()))
    connection.connection_made(transport)
    connection.data_received(b"MGET" + b" 10.1.2.3 99.0.0.1" * 32 + b"\n")
    assert len(transport.writes) == 1
    assert transport.writes[0].count(b"\n") == 65
    assert transport.writes[0].endswith(b"MISS 1\nEND 1\n")
    assert not transport.closed


def test_stream_handler_is_gone():
    """Connections are protocol objects: no stream handler, and serving
    one creates no task."""
    import asyncio

    from repro.serving import LookupServer

    assert not hasattr(LookupServer, "_handle_connection")

    async def serve():
        server = LookupServer(_one_range_service())
        host, port = await server.start()
        before = len(asyncio.all_tasks())
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(b"GET 10.1.2.3\nMGET 99.0.0.1\n")
            replies = [await reader.readline() for _ in range(3)]
            return replies, len(asyncio.all_tasks()) - before
        finally:
            writer.close()
            await server.stop()

    replies, new_tasks = asyncio.run(serve())
    assert replies == [b"HIT R1 et0 10.0.0.0/8 0.9 0 1\n", b"MISS 1\n", b"END 1\n"]
    assert new_tasks == 0


def test_cross_module_lint_and_private_framing_are_gone(capsys):
    """Seven per-file rules, no symbol-graph engine, no findings cache;
    one public framing, no private copy of it in statecodec."""
    import importlib

    import repro.core.statecodec as statecodec
    from repro.devtools.framework import LintReport
    from repro.devtools.lint import main as lint_main
    from repro.devtools.lint import run_lint

    for module in ("crossrules", "dataflow", "project"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.devtools.{module}")
    assert lint_main(["--list-rules"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("IPD")]
    assert listed == [f"IPD00{n}" for n in (1, 2, 3, 4, 5, 7, 8)]
    assert not hasattr(LintReport(), "cache_hit")
    with pytest.raises(TypeError, match="cache_dir"):
        run_lint([], cache_dir="d")
    for flag in (["--cache-dir", "d"], ["--changed-only"], ["--output", "f"]):
        with pytest.raises(SystemExit) as exit_info:
            lint_main(["src/repro", *flag])
        assert exit_info.value.code == 2
    capsys.readouterr()  # argparse's usage text
    for name in ("_Reader", "_Writer", "_damage_reported", "_read_header",
                 "_write_header"):
        assert not hasattr(statecodec, name)
    from repro.core import framing

    assert statecodec.StateCodecError is framing.StateCodecError
    assert statecodec.IncompatibleStateError is framing.IncompatibleStateError


def test_serving_shard_grid_and_lpm_blob_are_gone(tmp_path, capsys):
    """The serving plane serves snapshots: no query-load shard grid or
    reshard loop, no checkpoint history source, no second bulk lookup,
    and no compiled-LPM blob for the archive to store."""
    import inspect
    import json

    import repro.core.lpm as lpm
    import repro.serving as serving
    import repro.serving.service as service
    from repro.archive import SnapshotArchive
    from repro.core.snapshot import Snapshot
    from repro.devtools.codecguard import DEFAULT_PIN_PATH
    from repro.devtools.lint import run_lint

    for module in (serving, service):
        for name in ("ShardLoadCounters", "ReshardPolicy"):
            assert not hasattr(module, name)
            assert name not in module.__all__
    for name in ("maybe_reshard", "reshard", "lookup_many", "_checkpoint_table"):
        assert not hasattr(service.IngressLookupService, name)
    assert list(
        inspect.signature(service.IngressLookupService).parameters
    ) == ["archive"]
    stats = service.IngressLookupService().stats()
    assert not {"shards", "shard_loads", "skew"} & set(stats)

    for name in ("CODEC_VERSION", "_MAGIC", "_KIND_COMPILED"):
        assert not hasattr(lpm, name)
    for name in ("to_bytes", "from_bytes"):
        assert not hasattr(lpm.CompiledLPM, name)
    assert hasattr(lpm.CompiledLPM, "lookup_many")
    assert not hasattr(Snapshot, "compiled_blobs")
    for name in ("append_snapshot", "compiled_at", "_compiled_blob_name"):
        assert not hasattr(SnapshotArchive, name)
    with pytest.raises(TypeError, match="compiled"):
        SnapshotArchive(tmp_path / "arch").append(1.0, [], compiled={})
    assert sorted(json.loads(DEFAULT_PIN_PATH.read_text())) == [
        "admission:2", "statecodec:2",
    ]
    # IPD004 would report the missing pin file if lpm.py were in scope
    assert run_lint(
        [lpm.__file__], select=["IPD004"], codec_pins=tmp_path / "absent.json"
    ).clean

    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--records", "records.csv", "--shards", "4"])
    assert exit_info.value.code == 2
    assert "--shards" in capsys.readouterr().err


def test_load_balance_plumbing_is_gone():
    """The engine is Algorithm 1: no detector parameters on the engine or
    the oracle, no failure ledger, no prune callbacks, no v1 IPDS read."""
    import inspect

    import repro.core
    from repro.core.algorithm import IPD
    from repro.core.lbdetect import LoadBalanceDetector
    from repro.core.rangetree import RangeTree
    from repro.core.statecodec import (
        IncompatibleStateError,
        decode_engine,
        encode_engine,
    )
    from repro.testkit.oracle import ReferenceIPD

    for cls in (IPD, ReferenceIPD):
        with pytest.raises(TypeError, match="lb_detector"):
            cls(lb_detector=LoadBalanceDetector())
    for factory in (IPD.__init__, IPD.from_image, IPD.from_bytes):
        assert not {"lb_detector", "lb_patience"} & set(
            inspect.signature(factory).parameters
        )
    assert not hasattr(IPD(), "_cidrmax_failures")
    assert not hasattr(ReferenceIPD(), "_cidrmax_failures")
    assert not hasattr(IPD, "_forget_prefix")
    assert "LBDetectorLike" not in repro.core.__all__
    assert list(inspect.signature(RangeTree.prune_upward).parameters) == [
        "self", "candidates",
    ]
    assert "on_remove" not in inspect.signature(RangeTree.collapse).parameters
    for name in ("prune", "internal_nodes_postorder"):
        assert not hasattr(RangeTree, name)
    blob = bytearray(IPD().to_bytes())
    blob[5:7] = (1).to_bytes(2, "big")  # the version field
    with pytest.raises(IncompatibleStateError, match="version 1.*version 2"):
        decode_engine(bytes(blob))
    with pytest.raises(IncompatibleStateError):
        IPD.from_bytes(bytes(blob))
    assert encode_engine(decode_engine(IPD().to_bytes())) == IPD().to_bytes()
