"""Differential testing: the optimized engine vs the paper-literal oracle.

:class:`~repro.testkit.oracle.ReferenceIPD` recomputes every sweep from
scratch with plain dicts — no dirty sets, no incremental counters, no
cell table.  These tests drive the real :class:`~repro.core.algorithm
.IPD` and the oracle in lockstep over the canonical fixture traces and
hundreds of hypothesis-generated ones, comparing the *full* observable
state after every sweep tick: sweep-report counters, snapshots
(classified and unclassified), state size, leaf count and ingest
totals.  Any optimization in the engine that
changes a decision — not just a final answer — fails here.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.algorithm import IPD
from repro.core.iputil import IPV6, parse_ip
from repro.core.params import IPDParams
from repro.testkit import strategies as ipd_st
from repro.testkit.oracle import (
    ReferenceIPD,
    assert_engines_equivalent,
    compare_reports,
    replay_reference,
)
from repro.testkit.traces import (
    DUALSTACK_PARAMS,
    FIG05_PARAMS,
    dualstack_trace,
    fig05_trace,
)
from repro.topology.elements import IngressPoint


def tick(engine: IPD, oracle: ReferenceIPD, now: float) -> None:
    """One lockstep sweep: report fields and full state must agree."""
    engine_report = engine.sweep(now)
    oracle_report = oracle.sweep(now)
    mismatches = compare_reports(engine_report, oracle_report)
    assert not mismatches, f"sweep report diverges at t={now}: {mismatches}"
    assert_engines_equivalent(engine, oracle, now)


def run_lockstep(flows, params, engine=None, oracle=None, trailing=6,
                 entry="ingest"):
    """Ingest with a sweep + full compare at every t boundary.

    The oracle always takes flows one by one (the paper's Stage 1).  The
    engine takes them through *entry*: ``"ingest"``, flow by flow through
    the per-flow API edge (a one-row ``ingest_batch``, the default), or
    each sweep bucket at once through ``"ingest_many"``.
    """
    engine = IPD(params) if engine is None else engine
    oracle = ReferenceIPD(params) if oracle is None else oracle
    t = params.t
    next_sweep = None
    bucket = []
    for flow in flows:
        if next_sweep is None:
            next_sweep = (int(flow.timestamp // t) + 1) * t
        while flow.timestamp >= next_sweep:
            engine.ingest_many(bucket)
            bucket = []
            tick(engine, oracle, next_sweep)
            next_sweep += t
        if entry == "ingest":
            engine.ingest(flow)
        else:
            bucket.append(flow)
        oracle.ingest(flow)
    engine.ingest_many(bucket)
    if next_sweep is None:
        next_sweep = t
    # trailing idle sweeps: expiry, decay, drops, prunes on both sides
    for __ in range(trailing):
        tick(engine, oracle, next_sweep)
        next_sweep += t
    return engine, oracle


class TestFixtureTraces:
    def test_fig05_lockstep(self):
        run_lockstep(fig05_trace(), FIG05_PARAMS)

    def test_dualstack_lockstep(self):
        run_lockstep(dualstack_trace(), DUALSTACK_PARAMS)

    def test_dualstack_flow_weighted_lockstep(self):
        params = IPDParams(n_cidr_factor_v4=0.002, n_cidr_factor_v6=0.002)
        run_lockstep(dualstack_trace(seed=29), params)

    def test_bucket_at_once_entry_matches_the_oracle_too(self):
        run_lockstep(dualstack_trace(), DUALSTACK_PARAMS, entry="ingest_many")

    def test_replay_reference_matches_lockstep_oracle(self):
        """The pipeline-shaped replay helper agrees with manual driving."""
        flows = fig05_trace()
        result = replay_reference(flows, FIG05_PARAMS, snapshot_seconds=120.0)
        __, oracle = run_lockstep(flows, FIG05_PARAMS, trailing=1)
        assert result.flows_processed == len(flows)
        last_snapshot_at = max(result.snapshots)
        assert result.snapshots[last_snapshot_at] == oracle.snapshot(
            last_snapshot_at, include_unclassified=True
        )


class TestHypothesisTraces:
    """≥200 generated traces through the full lockstep differential."""

    @settings(max_examples=120, deadline=None)
    @given(flows=ipd_st.traces())
    def test_generated_traces_default_params(self, flows):
        run_lockstep(flows, ipd_st.SMALL_SPACE_PARAMS)

    @settings(max_examples=80, deadline=None)
    @given(flows=ipd_st.traces(max_bytes=1500), params=ipd_st.engine_params())
    def test_generated_traces_generated_params(self, flows, params):
        run_lockstep(flows, params)

    @settings(max_examples=30, deadline=None)
    @given(flows=ipd_st.traces(versions=(IPV6,), max_flows_per_bucket=30))
    def test_generated_ipv6_traces(self, flows):
        # near-zero v6 factor: the /64-anchored n_cidr formula otherwise
        # demands millions of samples at shallow masks and nothing splits
        params = IPDParams(n_cidr_factor_v4=0.0005, n_cidr_factor_v6=1e-9)
        run_lockstep(flows, params)


class TestCidrMaxEdges:
    """IPv6 /48 ceiling: split refusal, then the contest resolving."""

    A = IngressPoint("R1", "et0")
    B = IngressPoint("R2", "et0")

    def contested_v6_flows(self, rounds: int = 58, first_round: int = 0):
        """Two ingresses contest single /48s — unsplittable at cidr_max.

        Hosts differ only below /48, so ingest masks every block to one
        source address carrying a 50/50 ingress mix: the share check
        fails, the split cascade walks one level per sweep from /0, and
        at /48 the engine must refuse to split.  ``rounds`` must exceed
        the cascade depth for the refusal to actually happen.
        """
        from repro.netflow.records import FlowRecord

        base = parse_ip("2001:db8::")[0]
        flows = []
        for round_index in range(first_round, first_round + rounds):
            start = round_index * 60.0
            for block in range(3):  # three distinct /48s
                prefix_base = base + block * (1 << 80)
                for host in range(8):
                    src = prefix_base + host * (1 << 16)
                    ingress = self.A if host % 2 == 0 else self.B
                    flows.append(FlowRecord(
                        timestamp=start + host * 0.5,
                        src_ip=src,
                        version=IPV6,
                        ingress=ingress,
                    ))
        flows.sort(key=lambda flow: flow.timestamp)
        return flows

    def params(self) -> IPDParams:
        # near-zero v6 factor so the n_cidr gate passes at every depth
        # and the q check alone drives the cascade (see above)
        return IPDParams(
            n_cidr_factor_v4=0.0005, n_cidr_factor_v6=1e-9, q=0.95
        )

    def test_split_refusal_parity_without_detector(self):
        """cidr_max leaves that cannot classify stay put on both sides."""
        flows = self.contested_v6_flows()
        # trailing=0: idle sweeps would expire + prune the contested
        # leaves back to the root before we can look at them
        engine, oracle = run_lockstep(flows, self.params(), trailing=0)
        depths = [
            leaf.masklen
            for leaf in engine.trees[IPV6].leaves()
            if leaf.masklen > 0
        ]
        assert depths and max(depths) == 48  # cascade hit the ceiling
        # drain: expiry/prune back to the root must also stay in lockstep
        end = (int(flows[-1].timestamp // 60.0) + 1) * 60.0
        for step in range(8):
            tick(engine, oracle, end + step * 60.0)

    def test_one_sided_tail_and_drain_lockstep(self):
        """After the stall, a tail from one ingress (which still falls
        short of q: the /48 source never expires) and the idle drain that
        prunes the /48s away stay in lockstep."""
        from repro.netflow.records import FlowRecord

        contested = self.contested_v6_flows(rounds=58)
        base = parse_ip("2001:db8::")[0]
        resolution = []
        for round_index in range(58, 62):
            start = round_index * 60.0
            for block in range(3):
                prefix_base = base + block * (1 << 80)
                for host in range(40):
                    resolution.append(FlowRecord(
                        timestamp=start + host * 0.5,
                        src_ip=prefix_base + host * (1 << 16),
                        version=IPV6,
                        ingress=self.A,
                    ))
        engine, __ = run_lockstep(contested + resolution, self.params())
        assert engine.leaf_count() == 2  # both families back to one root


class TestMutationSensitivity:
    """The oracle must *fail* when the engine's logic is perturbed.

    A differential suite that cannot catch a seeded off-by-one is
    vacuous; this pins the harness's teeth.  The mutation lives in a
    params subclass handed only to the engine, so the oracle keeps
    computing the paper's thresholds.
    """

    def test_off_by_one_n_cidr_is_caught(self):
        class MutatedParams(IPDParams):
            def n_cidr(self, masklen: int, version: int) -> float:
                return super().n_cidr(masklen, version) + 1.0

        mutated = MutatedParams(
            n_cidr_factor_v4=FIG05_PARAMS.n_cidr_factor_v4,
            n_cidr_factor_v6=FIG05_PARAMS.n_cidr_factor_v6,
        )
        engine = IPD(mutated)
        oracle = ReferenceIPD(FIG05_PARAMS)
        with pytest.raises(AssertionError):
            run_lockstep(fig05_trace(), FIG05_PARAMS,
                         engine=engine, oracle=oracle)

    def test_skewed_q_is_caught(self):
        class MutatedParams(IPDParams):
            def __getattribute__(self, name):
                if name == "q":
                    return min(1.0, super().__getattribute__("q") + 0.04)
                return super().__getattribute__(name)

        mutated = MutatedParams(
            n_cidr_factor_v4=DUALSTACK_PARAMS.n_cidr_factor_v4,
            n_cidr_factor_v6=DUALSTACK_PARAMS.n_cidr_factor_v6,
            count_bytes=True,
        )
        engine = IPD(mutated)
        oracle = ReferenceIPD(DUALSTACK_PARAMS)
        with pytest.raises(AssertionError):
            run_lockstep(dualstack_trace(), DUALSTACK_PARAMS,
                         engine=engine, oracle=oracle)
