"""The engine blob after every sweep, pinned by SHA-256.

``data/sweep_digests.json`` holds one digest of ``IPD.to_bytes()`` per
sweep for the fig05, dual-stack and stage2 traces, each replayed in default
(8 192-row) batches and in one-row batches, plus trailing idle sweeps
for expiry, decay and drop.  The digests were written by the engine
before Stage 2 learned to skip work it can prove useless (the router
bound, one total per classified visit, expiry by subtraction, the
one-loop split), so any change to a decision, a counter value or the
order a dict is written in shows up here at the sweep that made it.
They were re-written once since, at the ``IPDS`` v2 bump, after every
blob was checked to equal its predecessor but for the version field and
the dropped one-byte failure count.  The stage2 digests were written by
the engine that kept unclassified cells in per-leaf dicts, before the
cells moved into one address-ordered table per trie; the stage2 trace
holds what the other two lack (see :func:`test_stage2_trace_reaches_every_corner`).

The ``flood`` cases put the lossy admission gate in front of the engine
on a downsized ``flood-uniform`` scenario, so their blobs carry the
admission section: sketch cells, herd and aging cursor after every sweep.
``flood`` runs an unsaturated sketch in default and one-row batches;
``flood-narrow`` runs a sketch narrow enough to saturate (and recover
through aging) mid-trace.  Gated bytes depend on where batches end (a
batch's estimates are read once all of it is in), so these cases are
not held to the batch-size agreement.  Their digests were written by the
engine whose gate still added dense rows to the whole sketch per batch.

Regenerate (only when a change to the bytes is intended)::

    PYTHONPATH=src python tests/core/test_sweep_bytes.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.admission import AdmissionConfig
from repro.core.algorithm import IPD
from repro.core.params import IPDParams
from repro.netflow.records import DEFAULT_BATCH_SIZE, FlowRecord, iter_flow_batches
from repro.testkit.traces import (
    DUALSTACK_PARAMS,
    FIG05_PARAMS,
    STAGE2_PARAMS,
    dualstack_trace,
    fig05_trace,
    stage2_trace,
)
from repro.workloads import adversarial_scenario

DATA = Path(__file__).parent / "data" / "sweep_digests.json"

#: factor-0.01 pairing for downsized flow volumes (DESIGN.md §5)
FLOOD_PARAMS = IPDParams(
    n_cidr_factor_v4=0.01, n_cidr_factor_v6=0.01, drop_threshold=0.25
)


def flood_trace() -> list[FlowRecord]:
    """A downsized ``flood-uniform`` scenario, shifted to start at time 0."""
    scenario = adversarial_scenario(
        "flood-uniform", duration_hours=0.5, flows_per_bucket_peak=200,
        params=FLOOD_PARAMS,
    )
    start = scenario.traffic_config.start_time
    return [
        flow.with_timestamp(flow.timestamp - start)
        for flow in scenario.generator().flows()
    ]


#: trace -> (flows, params, admission gate or None)
TRACES = {
    "fig05": (fig05_trace, FIG05_PARAMS, None),
    "dualstack": (dualstack_trace, DUALSTACK_PARAMS, None),
    "stage2": (stage2_trace, STAGE2_PARAMS, None),
    # 2^15 is what AdmissionConfig.for_cardinality sizes this flood to
    "flood": (
        flood_trace, FLOOD_PARAMS, AdmissionConfig(mode="lossy", width=1 << 15)
    ),
    "flood-narrow": (
        flood_trace, FLOOD_PARAMS, AdmissionConfig(mode="lossy", width=1 << 9)
    ),
}
UNGATED = ("fig05", "dualstack", "stage2")
BATCH_SIZES = {"default": DEFAULT_BATCH_SIZE, "one_row": 1}
TRAILING_SWEEPS = 6


def replay(trace: str, batches: str, observe) -> None:
    """Replay one trace, calling ``observe(engine, report)`` after each sweep."""
    make_flows, params, admission = TRACES[trace]
    batch_size = BATCH_SIZES[batches]
    engine = IPD(params, admission=admission)
    t = params.t
    next_sweep = t
    bucket: list = []

    def sweep() -> None:
        engine.ingest_many(iter_flow_batches(bucket, batch_size))
        bucket.clear()
        observe(engine, engine.sweep(next_sweep))

    for flow in make_flows():
        while flow.timestamp >= next_sweep:
            sweep()
            next_sweep += t
        bucket.append(flow)
    for __ in range(TRAILING_SWEEPS + 1):
        sweep()
        next_sweep += t


def sweep_digests(trace: str, batches: str) -> list[str]:
    """Replay one trace and return the engine digest after each sweep."""
    digests: list[str] = []
    replay(
        trace,
        batches,
        lambda engine, __: digests.append(
            hashlib.sha256(engine.to_bytes()).hexdigest()
        ),
    )
    return digests


def _cases() -> list[str]:
    return [
        f"{trace}/{batches}"
        for trace in UNGATED + ("flood",)
        for batches in BATCH_SIZES
    ] + ["flood-narrow/default"]


@pytest.mark.parametrize("case", _cases())
def test_every_sweep_writes_the_pinned_bytes(case):
    pinned = json.loads(DATA.read_text())[case]
    got = sweep_digests(*case.split("/"))
    assert len(got) == len(pinned)
    for index, (digest, expected) in enumerate(zip(got, pinned)):
        assert digest == expected, f"{case}: engine bytes differ after sweep {index}"


def test_batch_sizes_agree_at_every_sweep():
    pinned = json.loads(DATA.read_text())
    for trace in UNGATED:
        assert pinned[f"{trace}/default"] == pinned[f"{trace}/one_row"]


def _leaves(node, prefix, out: dict) -> None:
    if node.kind == "internal":
        left, right = prefix.children()
        _leaves(node.left, left, out)
        _leaves(node.right, right, out)
    else:
        out[prefix] = node


def test_stage2_trace_reaches_every_corner():
    """The stage2 trace shows each case its digests are there to pin,
    read from the engine image after every sweep."""
    sweeps: list = []

    def observe(engine, report) -> None:
        leaves: dict = {}
        for tree in engine.to_image().trees.values():
            _leaves(tree.root, tree.root_prefix, leaves)
        sources = {
            prefix: [ip for ip, *__ in node.sources]
            for prefix, node in leaves.items()
            if node.kind == "unclassified" and node.sources
        }
        sweeps.append((report, leaves, sources))

    replay("stage2", "default", observe)
    pairs = list(zip(sweeps, sweeps[1:]))
    # a leaf keeps some of its sources through a sweep that expires others
    assert any(
        report.expired_sources
        and prefix in before
        and 0 < len(set(after[prefix]) & set(before[prefix])) < len(before[prefix])
        for (__, __, before), (report, __, after) in pairs
        for prefix in after
    )
    # a source expires and later comes back, as a newly first-seen one
    present = [
        {ip for ips in sources.values() for ip in ips} for __, __, sources in sweeps
    ]
    assert any(
        ip not in present[gone] and ip in present[back]
        for gone in range(1, len(sweeps))
        if sweeps[gone][0].expired_sources
        for ip in present[gone - 1]
        for back in range(gone + 1, len(sweeps))
    )
    # a router with two interfaces classifies as their bundle
    assert any(
        node.kind == "classified" and "+" in node.ingress.interface
        for __, leaves, __ in sweeps
        for node in leaves.values()
    )
    # a split leaves sources on both sides
    assert any(
        prefix in before
        and all(child in after for child in prefix.children())
        for (__, __, before), (__, __, after) in pairs
        for prefix in before
        if prefix.masklen < prefix.bits
    )
    # IPv6 sources are kept at /72: they differ below /64
    assert STAGE2_PARAMS.cidr_max_v6 == 72
    assert any(
        prefix.version == 6 and len({ip & (1 << 64) - 1 for ip in ips}) > 1
        for __, __, sources in sweeps
        for prefix, ips in sources.items()
    )


def test_flood_traces_reach_every_corner():
    """The gate drops and promotes on the flood trace, and the narrow
    sketch saturates after sweeps that ran unsaturated."""
    for trace in ("flood", "flood-narrow"):
        reports: list = []
        replay(trace, "default", lambda __, report: reports.append(report))
        assert sum(report.admission_dropped for report in reports) > 0
        assert sum(report.admission_promoted for report in reports) > 0
        saturated = [report.admission_saturated for report in reports]
        assert not saturated[0]
        assert any(saturated) == (trace == "flood-narrow")


if __name__ == "__main__":
    DATA.write_text(
        json.dumps(
            {case: sweep_digests(*case.split("/")) for case in _cases()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
