"""repro — reproduction of "IPD: Detecting Traffic Ingress Points at ISPs".

Public API re-exports the pieces a downstream user needs most: the IPD
engine and its parameters, the pipeline runtime (offline replay, live
wall-clock, address-space sharding), the flow/topology models and the
workload generator.  Analyses, baselines and the parameter study live in
their subpackages.
"""

from .archive import SnapshotArchive
from .steering import SteeringPlan, SteeringPolicy, apply_plan, link_loads
from .core import (
    DEFAULT_PARAMS,
    IPD,
    AdmissionConfig,
    CompiledLPM,
    IPDParams,
    IPDRecord,
    LPMTable,
    Prefix,
    Snapshot,
    build_lpm_from_records,
)
from .netflow import FlowRecord, PacketSampler, StatisticalTime
from .runtime import (
    Checkpoint,
    CheckpointStore,
    LivePipeline,
    Pipeline,
    RunResult,
    ShardedIPD,
    WorkerCrashError,
    restore_engine,
)
from .topology import IngressPoint, ISPTopology, LinkType, TopologySpec, generate_topology

__version__ = "1.0.0"

__all__ = [
    "AdmissionConfig",
    "Checkpoint",
    "CheckpointStore",
    "CompiledLPM",
    "DEFAULT_PARAMS",
    "IPD",
    "IPDParams",
    "IPDRecord",
    "IngressPoint",
    "ISPTopology",
    "LPMTable",
    "LinkType",
    "LivePipeline",
    "PacketSampler",
    "Pipeline",
    "Prefix",
    "RunResult",
    "ShardedIPD",
    "Snapshot",
    "SnapshotArchive",
    "SteeringPlan",
    "SteeringPolicy",
    "StatisticalTime",
    "TopologySpec",
    "FlowRecord",
    "WorkerCrashError",
    "apply_plan",
    "build_lpm_from_records",
    "generate_topology",
    "link_loads",
    "restore_engine",
    "__version__",
]
