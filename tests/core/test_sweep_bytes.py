"""The engine blob after every sweep, pinned by SHA-256.

``data/sweep_digests.json`` holds one digest of ``IPD.to_bytes()`` per
sweep for the fig05 and dual-stack traces, each replayed in default
(8 192-row) batches and in one-row batches, plus trailing idle sweeps
for expiry, decay and drop.  The digests were written by the engine
before Stage 2 learned to skip work it can prove useless (the router
bound, one total per classified visit, expiry by subtraction, the
one-loop split), so any change to a decision, a counter value or the
order a dict is written in shows up here at the sweep that made it.
They were re-written once since, at the ``IPDS`` v2 bump, after every
blob was checked to equal its predecessor but for the version field and
the dropped one-byte failure count.

Regenerate (only when a change to the bytes is intended)::

    PYTHONPATH=src python tests/core/test_sweep_bytes.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.algorithm import IPD
from repro.netflow.records import DEFAULT_BATCH_SIZE, iter_flow_batches
from repro.testkit.traces import (
    DUALSTACK_PARAMS,
    FIG05_PARAMS,
    dualstack_trace,
    fig05_trace,
)

DATA = Path(__file__).parent / "data" / "sweep_digests.json"

TRACES = {
    "fig05": (fig05_trace, FIG05_PARAMS),
    "dualstack": (dualstack_trace, DUALSTACK_PARAMS),
}
BATCH_SIZES = {"default": DEFAULT_BATCH_SIZE, "one_row": 1}
TRAILING_SWEEPS = 6


def sweep_digests(trace: str, batches: str) -> list[str]:
    """Replay one trace and return the engine digest after each sweep."""
    make_flows, params = TRACES[trace]
    batch_size = BATCH_SIZES[batches]
    engine = IPD(params)
    t = params.t
    digests: list[str] = []
    next_sweep = t
    bucket: list = []

    def sweep() -> None:
        engine.ingest_many(iter_flow_batches(bucket, batch_size))
        bucket.clear()
        engine.sweep(next_sweep)
        digests.append(hashlib.sha256(engine.to_bytes()).hexdigest())

    for flow in make_flows():
        while flow.timestamp >= next_sweep:
            sweep()
            next_sweep += t
        bucket.append(flow)
    for __ in range(TRAILING_SWEEPS + 1):
        sweep()
        next_sweep += t
    return digests


def _cases() -> list[str]:
    return [f"{trace}/{batches}" for trace in TRACES for batches in BATCH_SIZES]


@pytest.mark.parametrize("case", _cases())
def test_every_sweep_writes_the_pinned_bytes(case):
    pinned = json.loads(DATA.read_text())[case]
    got = sweep_digests(*case.split("/"))
    assert len(got) == len(pinned)
    for index, (digest, expected) in enumerate(zip(got, pinned)):
        assert digest == expected, f"{case}: engine bytes differ after sweep {index}"


def test_batch_sizes_agree_at_every_sweep():
    pinned = json.loads(DATA.read_text())
    for trace in TRACES:
        assert pinned[f"{trace}/default"] == pinned[f"{trace}/one_row"]


if __name__ == "__main__":
    DATA.write_text(
        json.dumps(
            {case: sweep_digests(*case.split("/")) for case in _cases()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
