"""How a stream is cut into batches must not show in the result.

Every flow reaches the trie through `ingest_batch()`, which regroups
flows by masked source before touching the trie, so these tests pin
the core guarantee: for integer-valued weights, a stream chopped into
arbitrary batches produces *byte-identical* snapshots, state sizes and
trie shapes to the same stream fed as one-row groups — `ingest()` one
flow at a time, the per-flow API edge — on the fig05-style algorithm
example and on a dual-stack synthetic scenario, through splits,
classifications, joins, expiry and drops.  (That one-row groups equal
the paper's literal per-flow Stage 1 is the oracle suite's job,
`tests/testkit/test_oracle_differential.py`.)
"""

import random

from repro.core.algorithm import IPD
from repro.core.params import IPDParams
from repro.netflow.records import FlowRecord, iter_flow_batches
from repro.runtime import Pipeline
from repro.testkit.traces import dualstack_trace, fig05_trace


def random_batches(flows, rng):
    """Chop the stream into randomly sized runs (family cuts automatic)."""
    index = 0
    while index < len(flows):
        size = rng.randrange(1, 97)
        chunk = flows[index:index + size]
        yield from iter_flow_batches(chunk, batch_size=len(chunk))
        index += size


def engine_states(ipd: IPD, now: float):
    return (
        ipd.snapshot(now, include_unclassified=True),
        ipd.state_size(),
        ipd.leaf_count(),
        ipd.flows_ingested,
        ipd.bytes_ingested,
        {version: tree.classified_count() for version, tree in ipd.trees.items()},
    )


def run_equivalence(flows, params, seed):
    """Drive one-row vs randomly grouped engines sweep-by-sweep, comparing state."""
    rng = random.Random(seed)
    reference = IPD(params)
    batched = IPD(params)
    sweep_at = 60.0
    pending: list[FlowRecord] = []

    def flush_and_sweep(now):
        nonlocal pending
        for flow in pending:
            reference.ingest(flow)
        for batch in random_batches(pending, rng):
            batched.ingest_batch(batch)
        pending = []
        reference.sweep(now)
        batched.sweep(now)
        assert engine_states(reference, now) == engine_states(batched, now)

    for flow in flows:
        while flow.timestamp >= sweep_at:
            flush_and_sweep(sweep_at)
            sweep_at += 60.0
        pending.append(flow)
    # a few trailing idle sweeps exercise expiry/decay/drop on both paths
    for __ in range(6):
        flush_and_sweep(sweep_at)
        sweep_at += 60.0


class TestBatchEquivalence:
    def test_fig05_algorithm_example(self):
        params = IPDParams(n_cidr_factor_v4=0.005, n_cidr_factor_v6=0.005)
        run_equivalence(fig05_trace(), params, seed=3)

    def test_dualstack_synthetic(self):
        params = IPDParams(
            n_cidr_factor_v4=0.002, n_cidr_factor_v6=0.002, count_bytes=True
        )
        run_equivalence(dualstack_trace(), params, seed=5)

    def test_pipeline_batch_stream_matches_per_flow(self):
        """The pipeline cuts batches at sweep boundaries exactly."""
        flows = fig05_trace()
        params = IPDParams(n_cidr_factor_v4=0.005, n_cidr_factor_v6=0.005)
        per_flow = Pipeline(params, snapshot_seconds=120.0).run(flows)
        batched = Pipeline(params, snapshot_seconds=120.0).run(
            iter_flow_batches(flows, batch_size=97)
        )
        assert per_flow.flows_processed == batched.flows_processed
        assert per_flow.snapshots == batched.snapshots

    def test_ingest_many_matches_per_flow(self):
        flows = dualstack_trace(seed=29)
        params = IPDParams(n_cidr_factor_v4=0.002, n_cidr_factor_v6=0.002)
        reference = IPD(params)
        for flow in flows:
            reference.ingest(flow)
        bulk = IPD(params)
        bulk.ingest_many(flows)
        reference.sweep(600.0)
        bulk.sweep(600.0)
        assert engine_states(reference, 600.0) == engine_states(bulk, 600.0)
