"""Correctness testkit: an executable specification of the system.

Three independent pieces, all deliberately *outside* the production
code paths they check:

* :mod:`repro.testkit.oracle` — :class:`ReferenceIPD`, a naive,
  dict-based, paper-literal implementation of IPD Stage 1/2 used as a
  differential oracle against the optimized
  :class:`~repro.core.algorithm.IPD`.
* :mod:`repro.testkit.strategies` — shared hypothesis strategies for
  flows, traces, parameters and shard counts, so every property suite
  draws from the same distributions.
* :mod:`repro.testkit.faults` — :class:`FaultPlan`, a deterministic
  seeded schedule of fault injections that enter a pipeline through its
  own doors: its ``on_sweep`` observer, a sink and a checkpoint store.
* :mod:`repro.testkit.traces` — the canonical deterministic fixture
  workloads (fig05, dualstack, stage2) with their test-scale parameters.

The package ships inside ``repro`` (not under ``tests/``) so downstream
users extending the engine can reuse the oracle and the fault harness
against their own changes.
"""

from .faults import (
    Fault,
    FaultPlan,
    FaultyCheckpointStore,
    FaultySink,
    InjectedSinkError,
)
from .oracle import ReferenceIPD, assert_engines_equivalent, compare_reports
from .traces import (
    DUALSTACK_PARAMS,
    FIG05_PARAMS,
    STAGE2_PARAMS,
    dualstack_trace,
    fig05_trace,
    stage2_trace,
)

__all__ = [
    "DUALSTACK_PARAMS",
    "FIG05_PARAMS",
    "Fault",
    "FaultPlan",
    "FaultyCheckpointStore",
    "FaultySink",
    "InjectedSinkError",
    "ReferenceIPD",
    "STAGE2_PARAMS",
    "assert_engines_equivalent",
    "compare_reports",
    "dualstack_trace",
    "fig05_trace",
    "stage2_trace",
]
