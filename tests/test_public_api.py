"""The public API surface: everything advertised must import and work.

Downstream users program against ``repro``'s top-level exports and the
documented subpackage entry points; this suite pins that surface so
refactors cannot silently break it.
"""

import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export: {name}"

    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize("name", [
        "IPD", "IPDParams", "IPDRecord", "RunResult",
        "LPMTable", "Prefix", "FlowRecord", "IngressPoint", "ISPTopology",
        "SnapshotArchive", "SteeringPolicy",
        "Pipeline", "LivePipeline", "ShardedIPD",
        "Checkpoint", "CheckpointStore", "WorkerCrashError", "restore_engine",
    ])
    def test_core_types_exported(self, name):
        assert hasattr(repro, name)


class TestSubpackageSurfaces:
    @pytest.mark.parametrize("module", [
        "repro.core", "repro.netflow", "repro.topology", "repro.bgp",
        "repro.workloads", "repro.analysis", "repro.baselines",
        "repro.paramstudy", "repro.reporting", "repro.cli",
        "repro.archive", "repro.steering", "repro.runtime",
        "repro.testkit", "repro.devtools", "repro.serving",
    ])
    def test_imports_cleanly(self, module):
        imported = importlib.import_module(module)
        assert imported is not None

    @pytest.mark.parametrize("module", [
        "repro.core", "repro.netflow", "repro.topology", "repro.bgp",
        "repro.workloads", "repro.analysis", "repro.baselines",
        "repro.paramstudy", "repro.reporting", "repro.runtime",
        "repro.testkit", "repro.devtools", "repro.serving",
    ])
    def test_all_lists_resolve(self, module):
        imported = importlib.import_module(module)
        for name in imported.__all__:
            assert hasattr(imported, name), f"{module}.{name} missing"


class TestStateExternalizationSurface:
    """The checkpoint/codec symbols added with state externalization."""

    @pytest.mark.parametrize("name", [
        "Checkpoint", "CheckpointStore", "CheckpointCorruptError",
        "CHECKPOINT_VERSION", "restore_engine", "WorkerCrashError",
    ])
    def test_runtime_exports(self, name):
        import repro.runtime

        assert name in repro.runtime.__all__
        assert hasattr(repro.runtime, name)

    @pytest.mark.parametrize("name", [
        "CODEC_VERSION", "EngineImage", "StateCodecError",
        "IncompatibleStateError",
        "encode_engine", "decode_engine", "encode_subtree", "decode_subtree",
    ])
    def test_core_codec_exports(self, name):
        import repro.core

        assert name in repro.core.__all__
        assert hasattr(repro.core, name)

    def test_engine_state_io_methods(self):
        """Every engine writes the merged image; only a plain one restores."""
        from repro import IPD, ShardedIPD

        for method in ("to_bytes", "from_bytes", "to_image", "from_image"):
            assert hasattr(IPD, method), f"IPD.{method}"
        for method in ("to_bytes", "to_image"):
            assert hasattr(ShardedIPD, method), f"ShardedIPD.{method}"

    def test_resume_classmethods(self):
        from repro import LivePipeline, Pipeline

        assert callable(Pipeline.resume)
        assert callable(LivePipeline.resume)


class TestTestkitSurface:
    """The correctness-testkit symbols shipped for downstream reuse."""

    @pytest.mark.parametrize("name", [
        "ReferenceIPD", "assert_engines_equivalent", "compare_reports",
        "Fault", "FaultPlan", "InjectedSinkError",
        "fig05_trace", "dualstack_trace", "FIG05_PARAMS", "DUALSTACK_PARAMS",
    ])
    def test_testkit_exports(self, name):
        import repro.testkit

        assert name in repro.testkit.__all__
        assert hasattr(repro.testkit, name)

    def test_strategy_functions(self):
        from repro.testkit import strategies

        for name in strategies.__all__:
            assert hasattr(strategies, name)


class TestDevtoolsSurface:
    """The static-analysis package shipped with the repo."""

    @pytest.mark.parametrize("name", [
        "Finding", "LintReport", "Rule", "ContextVisitor", "SourceFile",
        "build_rules", "lint_paths", "register", "registered_rules",
        "hot_path",
    ])
    def test_devtools_exports(self, name):
        import repro.devtools

        assert name in repro.devtools.__all__
        assert hasattr(repro.devtools, name)

    @pytest.mark.parametrize("name", [
        "PipelineStateError",
    ])
    def test_runtime_taxonomy_exports(self, name):
        import repro.runtime

        assert name in repro.runtime.__all__
        assert hasattr(repro.runtime, name)


class TestServingSurface:
    """The serving-plane symbols added with the lookup service."""

    @pytest.mark.parametrize("name", [
        "IngressLookupService", "LookupResult", "LookupServer",
        "NoEpochError", "ServingEpoch", "ServingError",
    ])
    def test_serving_exports(self, name):
        import repro.serving

        assert name in repro.serving.__all__
        assert hasattr(repro.serving, name)

    @pytest.mark.parametrize("name", [
        "CompiledLPM", "build_lpm_from_records",
    ])
    def test_compiled_lpm_exported_from_core_and_top_level(self, name):
        import repro.core

        for module in (repro, repro.core):
            assert name in module.__all__
            assert hasattr(module, name)

    def test_compiled_lpm_codec_surface(self):
        """Compiled from records, queried, never serialized."""
        from repro import CompiledLPM

        for method in ("from_records", "lookup", "lookup_entry", "entries"):
            assert hasattr(CompiledLPM, method), f"CompiledLPM.{method}"
        for method in ("to_bytes", "from_bytes"):
            assert not hasattr(CompiledLPM, method), f"CompiledLPM.{method}"

    def test_snapshot_carries_compiled_tables(self):
        from repro.core.snapshot import Snapshot

        for method in ("compiled", "watermark", "epoch"):
            assert hasattr(Snapshot, method), f"Snapshot.{method}"


class TestMinimalUserJourney:
    def test_readme_quickstart_shape(self):
        """The exact shape the README advertises must run."""
        from repro import IPDParams, Pipeline, build_lpm_from_records
        from repro.netflow.records import FlowRecord
        from repro.topology.elements import IngressPoint

        params = IPDParams(n_cidr_factor_v4=0.001, n_cidr_factor_v6=0.001)
        flows = [
            FlowRecord(timestamp=float(t), src_ip=0x0A000000 + (t % 32) * 16,
                       version=4, ingress=IngressPoint("fra-r1", "et0"))
            for t in range(400)
        ]
        result = Pipeline(params, snapshot_seconds=300.0).run(flows)
        final = result.final_snapshot()
        assert final
        lpm = build_lpm_from_records(final)
        assert lpm.lookup(0x0A000001) == IngressPoint("fra-r1", "et0")

    def test_docstrings_everywhere(self):
        """Every public module, class and function carries a docstring."""
        import inspect

        modules = [
            "repro.core.algorithm", "repro.core.rangetree",
            "repro.core.params", "repro.core.lpm", "repro.core.output",
            "repro.core.lbdetect", "repro.netflow.records",
            "repro.netflow.codec", "repro.netflow.ipfix",
            "repro.topology.network", "repro.bgp.rib",
            "repro.workloads.traffic", "repro.workloads.mapping",
            "repro.analysis.accuracy", "repro.analysis.stability",
            "repro.steering", "repro.archive",
        ]
        for module_name in modules:
            module = importlib.import_module(module_name)
            assert module.__doc__, f"{module_name} lacks a module docstring"
            for name in getattr(module, "__all__", []):
                item = getattr(module, name)
                if inspect.isclass(item) or inspect.isfunction(item):
                    assert item.__doc__, f"{module_name}.{name} undocumented"
