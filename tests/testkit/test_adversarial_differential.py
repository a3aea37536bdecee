"""Differential testing on adversarial traces: hostile shapes, same math.

The adversarial scenario pack (DESIGN.md §14) stresses the engine with
spoofed floods, policing clips and route-flap storms.  None of those
shapes is allowed to change a single decision relative to the
paper-literal :class:`~repro.testkit.oracle.ReferenceIPD`: this suite
drives the runtime's engine for N ∈ {1, 4} shards (a plain
:class:`~repro.core.algorithm.IPD`, then a
:class:`~repro.runtime.ShardedIPD`) and the oracle in lockstep over
hypothesis-generated adversarial traces, comparing full observable state
after every sweep.  The scenario-level behaviours
(pollution, blow-up, survival) are measured in
``tests/workloads/test_adversarial.py``; this file pins that the
*mechanism* stays reference-equivalent under attack.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.runtime import build_engine
from repro.testkit import strategies as ipd_st
from repro.testkit.oracle import ReferenceIPD, assert_engines_equivalent

PARAMS = ipd_st.SMALL_SPACE_PARAMS
T = PARAMS.t


def run_lockstep(flows, shards):
    oracle = ReferenceIPD(PARAMS)
    engine = build_engine(PARAMS, shards=shards)
    next_sweep = None
    try:
        for flow in flows:
            if next_sweep is None:
                next_sweep = (int(flow.timestamp // T) + 1) * T
            while flow.timestamp >= next_sweep:
                oracle.sweep(next_sweep)
                engine.sweep(next_sweep)
                assert_engines_equivalent(engine, oracle, next_sweep)
                next_sweep += T
            oracle.ingest(flow)
            engine.ingest(flow)
        if next_sweep is None:
            next_sweep = T
        # trailing idle sweeps: flood state must expire identically too
        for __ in range(4):
            oracle.sweep(next_sweep)
            engine.sweep(next_sweep)
            assert_engines_equivalent(engine, oracle, next_sweep)
            next_sweep += T
    finally:
        if shards > 1:
            engine.close()


@pytest.mark.parametrize("shards", [1, 4])
@settings(max_examples=10, deadline=None)
@given(flows=ipd_st.flood_bursts())
def test_flood_bursts_reference_equivalent(shards, flows):
    run_lockstep(flows, shards)


@pytest.mark.parametrize("shards", [1, 4])
@settings(max_examples=10, deadline=None)
@given(flows=ipd_st.clipped_elephants())
def test_clipped_elephants_reference_equivalent(shards, flows):
    run_lockstep(flows, shards)


@pytest.mark.parametrize("shards", [1, 4])
@settings(max_examples=10, deadline=None)
@given(flows=ipd_st.flap_schedules())
def test_flap_schedules_reference_equivalent(shards, flows):
    run_lockstep(flows, shards)


@pytest.mark.parametrize("shards", [1, 4])
@settings(max_examples=12, deadline=None)
@given(flows=ipd_st.adversarial_traces())
def test_mixed_adversarial_reference_equivalent(shards, flows):
    run_lockstep(flows, shards)
