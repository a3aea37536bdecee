"""The §5.8 load-balance detector's decisions, pinned sweep by sweep.

``data/lb_watch.json`` holds, for each trace below, every prefix the
detector passed to ``watch`` during each sweep (in call order) and, at
the end of the trace, ``diagnose_all()`` as (prefix, router shares, pair
overlap, verdict).  The pin was written while the detector's failure
counting still lived inside the engine (a full-walk sweep and a
per-prefix ledger popped at seven sites), so it says that the sweep
observer counts the same failures at the same sweeps.

Regenerate (only when a change to the detector's decisions is intended)::

    PYTHONPATH=src python tests/core/test_lb_watch.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.core.algorithm import IPD
from repro.core.iputil import IPV4, IPV6, parse_ip
from repro.core.lbdetect import LoadBalanceDetector
from repro.core.params import IPDParams
from repro.netflow.records import FlowRecord
from repro.topology.elements import IngressPoint

DATA = Path(__file__).parent / "data" / "lb_watch.json"

R1 = IngressPoint("R1", "et0")
R2 = IngressPoint("R2", "et0")


def ip(text: str) -> int:
    return parse_ip(text)[0]


# -- the traces: (params, patience, detector kwargs, [(flows, sweep time)]) --------


def balanced_v4():
    """A /28 balanced per flow over two routers (cidr_max /28)."""
    params = IPDParams(n_cidr_factor_v4=0.005, n_cidr_factor_v6=0.005,
                       cidr_max_v4=28)
    rng = random.Random(4)
    base = ip("10.0.0.0")
    steps, now = [], 0.0
    for __ in range(48):
        flows = [
            FlowRecord(
                timestamp=now + index, src_ip=base + (index % 16),
                version=IPV4, ingress=rng.choice((R1, R2)),
                dst_ip=ip("99.0.0.0") + rng.randrange(30) * 256,
            )
            for index in range(60)
        ]
        now += 60.0
        steps.append((flows, now))
    return params, 2, {"min_pairs": 8}, steps


def contested_v6():
    """Three IPv6 /48s contested 50/50 until the cascade stalls at /48,
    then won outright by one ingress, then idle."""
    params = IPDParams(n_cidr_factor_v4=0.0005, n_cidr_factor_v6=1e-9, q=0.95)
    base = ip("2001:db8::")
    dst_base = ip("2001:db8:ffff::")
    flows = []
    for round_index in range(62):
        hosts = 8 if round_index < 58 else 40
        for block in range(3):
            for host in range(hosts):
                ingress = R1 if round_index >= 58 or host % 2 == 0 else R2
                flows.append(FlowRecord(
                    timestamp=round_index * 60.0 + host * 0.5,
                    src_ip=base + block * (1 << 80) + host * (1 << 16),
                    version=IPV6, ingress=ingress,
                    dst_ip=dst_base + ((host + round_index) % 8) * (1 << 104),
                ))
    flows.sort(key=lambda flow: flow.timestamp)
    return params, 3, {"min_pairs": 4}, bucketed(flows, params.t, trailing=6)


def stuck_v4(ending: str):
    """Two ingresses fighting inside one /1 (cidr_max /1), then either
    idle until the leaves are pruned and contested again, or won by R2."""
    params = IPDParams(n_cidr_factor_v4=0.001, n_cidr_factor_v6=0.001,
                       cidr_max_v4=1)
    steps, now = [], 0.0

    def feed(owners, count):
        flows = []
        for base, ingress in zip(("10.0.0.0", "10.0.4.0"), owners):
            start = ip(base)
            flows.extend(
                FlowRecord(timestamp=now, src_ip=start + index * 16,
                           version=IPV4, ingress=ingress,
                           dst_ip=ip("99.0.0.0") + (index % 10) * 256)
                for index in range(count)
            )
        return flows

    def rounds(owners, count, times):
        nonlocal now
        for __ in range(times):
            flows = feed(owners, count) if owners else []
            now += 60.0
            steps.append((flows, now))

    rounds((R1, R2), 50, 3)
    if ending == "pruned":
        rounds(None, 0, 5)
        rounds((R1, R2), 50, 4)
    else:
        rounds((R2, R2), 1000, 3)
    return params, 2, {"min_pairs": 4}, steps


def bucketed(flows, t, trailing):
    """Sweep at every ``t`` boundary of the trace clock, then idle."""
    steps, bucket = [], []
    next_sweep = (int(flows[0].timestamp // t) + 1) * t
    for flow in flows:
        while flow.timestamp >= next_sweep:
            steps.append((bucket, next_sweep))
            bucket = []
            next_sweep += t
        bucket.append(flow)
    steps.append((bucket, next_sweep))
    for __ in range(trailing):
        next_sweep += t
        steps.append(([], next_sweep))
    return steps


TRACES = {
    "balanced_v4": balanced_v4,
    "contested_v6": contested_v6,
    "stuck_v4_pruned": lambda: stuck_v4("pruned"),
    "stuck_v4_classified": lambda: stuck_v4("classified"),
}


# -- the replay --------------------------------------------------------------------


class RecordingDetector(LoadBalanceDetector):
    """Remembers every prefix handed to :meth:`watch`."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.calls: list[str] = []

    def watch(self, prefix) -> None:
        self.calls.append(str(prefix))
        super().watch(prefix)


def verdict_rows(detector: LoadBalanceDetector) -> list:
    return [
        [str(v.prefix), [list(share) for share in v.router_shares],
         v.pair_overlap, v.is_router_balanced]
        for v in detector.diagnose_all()
    ]


def replay(name: str) -> dict:
    """Drive the engine with the detector watching its sweeps."""
    params, patience, kwargs, steps = TRACES[name]()
    detector = RecordingDetector(patience=patience, **kwargs)
    engine = IPD(params)
    watches = []
    for flows, now in steps:
        engine.ingest_many(flows)
        for flow in flows:
            detector.observe(flow)
        detector.on_sweep(engine.sweep(now), engine)
        watches.append(detector.calls)
        detector.calls = []
    return {"watch": watches, "verdicts": verdict_rows(detector)}


@pytest.mark.parametrize("name", sorted(TRACES))
def test_watches_and_verdicts_match_the_pin(name):
    pinned = json.loads(DATA.read_text())[name]
    got = replay(name)
    assert len(got["watch"]) == len(pinned["watch"])
    for index, (calls, expected) in enumerate(zip(got["watch"], pinned["watch"])):
        assert calls == expected, f"{name}: watch calls differ at sweep {index}"
    assert got["verdicts"] == pinned["verdicts"]


def test_the_pin_is_not_vacuous():
    pinned = json.loads(DATA.read_text())
    for name, entry in pinned.items():
        assert any(entry["watch"]), f"{name}: nothing was ever watched"
    assert any(row[3] for row in pinned["balanced_v4"]["verdicts"])
    # the prune and the classification both reset the count: after the
    # first watch there is a sweep with no call
    for name in ("stuck_v4_pruned", "stuck_v4_classified"):
        calls = [bool(c) for c in pinned[name]["watch"]]
        first = calls.index(True)
        assert not all(calls[first:]), name


if __name__ == "__main__":
    DATA.write_text(
        json.dumps({name: replay(name) for name in sorted(TRACES)}, indent=1)
        + "\n"
    )
