"""Deterministic fixture traces shared by the correctness suites.

Two canonical workloads, each paired with the parameters that make it
interesting at test scale:

* :func:`fig05_trace` — the paper's algorithm example (§3.1/Fig. 5
  shape): four ingresses own four corners of IPv4 space, driving the
  split cascade from /0 and classifying each quarter; one corner goes
  dark halfway through to exercise expiry, decay and drop.
* :func:`dualstack_trace` — seeded pseudo-random interleaved IPv4+IPv6
  churn: ownership remaps mid-run, 5% ingress noise, byte-weighted
  flows.  Exercises joins, re-splits and the byte-counting mode.
* :func:`stage2_trace` — the Stage-2 corners the other two miss: a leaf
  that expires only in part, a source that comes back after expiring, a
  router with two interfaces, splits with sources on both sides, and
  IPv6 sources that differ below /64 (``cidr_max_v6`` 72).

These were historically private helpers of the batch-equivalence suite;
they live here so the differential-oracle and chaos suites (and any
downstream user of :mod:`repro.testkit`) replay the exact same streams.
"""

from __future__ import annotations

import random

from ..core.iputil import IPV4, IPV6, parse_ip
from ..core.params import IPDParams
from ..netflow.records import FlowRecord
from ..topology.elements import IngressPoint

__all__ = [
    "CORNERS",
    "DUALSTACK_PARAMS",
    "FIG05_PARAMS",
    "STAGE2_PARAMS",
    "dualstack_trace",
    "fig05_trace",
    "stage2_trace",
]

NORTH = IngressPoint("R1", "et0")
EAST = IngressPoint("R2", "et0")
SOUTH = IngressPoint("R3", "et0")
WEST = IngressPoint("R4", "et0")
CORNERS = (NORTH, EAST, SOUTH, WEST)

#: thresholds that let the fig05 corners classify within twelve rounds
FIG05_PARAMS = IPDParams(n_cidr_factor_v4=0.005, n_cidr_factor_v6=0.005)

#: dual-stack run counts bytes, with factors sized for its flow volume
DUALSTACK_PARAMS = IPDParams(
    n_cidr_factor_v4=0.002, n_cidr_factor_v6=0.002, count_bytes=True
)


#: stage2 run: IPv6 masked at /72, v6 thresholds sized for a few dozen flows
STAGE2_PARAMS = IPDParams(
    n_cidr_factor_v4=0.005, n_cidr_factor_v6=2e-8, cidr_max_v6=72
)


def fig05_trace() -> list[FlowRecord]:
    """The algorithm example: four ingresses own four corners of v4 space.

    Twelve 60 s rounds of 40 flows per corner — enough to drive the
    split cascade from /0 down and classify each quarter, with one
    corner going quiet halfway (expiry + decay + drop coverage).
    """
    flows: list[FlowRecord] = []
    corner_bases = [
        parse_ip("10.0.0.0")[0],
        parse_ip("80.0.0.0")[0],
        parse_ip("140.0.0.0")[0],
        parse_ip("200.0.0.0")[0],
    ]
    for round_index in range(12):
        round_start = round_index * 60.0
        for corner, base in zip(CORNERS, corner_bases):
            if corner is WEST and round_index >= 6:
                continue  # west goes dark: expiry/decay/drop path
            for flow_index in range(40):
                flows.append(
                    FlowRecord(
                        timestamp=round_start + flow_index * 1.4,
                        src_ip=base + (flow_index % 16) * 16,
                        version=IPV4,
                        ingress=corner,
                    )
                )
    flows.sort(key=lambda flow: flow.timestamp)
    return flows


def dualstack_trace(seed: int = 11) -> list[FlowRecord]:
    """Interleaved v4+v6 flows with churn: remaps, noise, idle gaps."""
    rng = random.Random(seed)
    v4_bases = [parse_ip(f"{10 + 40 * i}.0.0.0")[0] for i in range(4)]
    v6_bases = [parse_ip(f"2001:db8:{i:x}::")[0] for i in range(4)]
    flows: list[FlowRecord] = []
    for round_index in range(10):
        round_start = round_index * 60.0
        for slot in range(120):
            ts = round_start + slot * 0.5
            zone = rng.randrange(4)
            # owner remaps halfway through; 5% noise from a random ingress
            owner = CORNERS[zone] if round_index < 5 else CORNERS[(zone + 1) % 4]
            ingress = rng.choice(CORNERS) if rng.random() < 0.05 else owner
            if rng.random() < 0.3:
                base = v6_bases[zone]
                version = IPV6
                src = base + rng.randrange(64) * (1 << 64)
            else:
                base = v4_bases[zone]
                version = IPV4
                src = base + rng.randrange(64) * 16
            flows.append(
                FlowRecord(timestamp=ts, src_ip=src, version=version,
                           ingress=ingress, bytes=rng.choice((64, 576, 1500)))
            )
    flows.sort(key=lambda flow: flow.timestamp)
    return flows


def stage2_trace() -> list[FlowRecord]:
    """Twelve 60 s rounds over four regions (replay with STAGE2_PARAMS).

    * 10/8 — router R5 splits every source evenly over et0 and et1: the
      range classifies as the two-interface bundle.
    * 100/8 — R1 owns 100.0/9 and R2 100.128/9: the split cascade runs
      down to /9 with sources on both sides of the last split.
    * 160/8 — too few samples to ever classify: three steady sources
      (one on two ingresses, the second appearing later), three that
      stop after round 1 and expire while the steady ones stay, and one
      of those coming back in round 7 as a newly first-seen source.
      Sources appear in descending address order.
    * IPv6 — 2001:db8:1::/48 takes sources that differ only in bits
      64-71 (kept at /72) alternating between R1 and R3, so the range
      keeps splitting; a001:db8::/32 is R3's alone.
    """
    flows: list[FlowRecord] = []

    def add(ts: float, text: str, ingress: IngressPoint) -> None:
        value, version = parse_ip(text)
        flows.append(
            FlowRecord(timestamp=ts, src_ip=value, version=version, ingress=ingress)
        )

    for round_index in range(12):
        start = round_index * 60.0
        for slot in range(40):
            ts = start + slot * 1.4
            add(ts, f"10.0.{slot % 8}.{slot}", IngressPoint("R5", f"et{slot % 2}"))
            side = slot % 2
            add(ts + 0.1, f"100.{128 * side}.{slot % 4}.0", CORNERS[side])
            if slot % 4 == 0:
                lo = (slot // 4) % 5
                add(ts + 0.2, f"2001:db8:1:0:{lo:x}{lo:x}00::",
                    CORNERS[2 * (slot // 4 % 2)])
            if slot % 8 == 4:
                add(ts + 0.3, f"a001:db8:{slot // 8:x}::1", CORNERS[2])
        steady = ["160.0.9.0", "160.0.5.0", "160.0.1.0"]
        for index, text in enumerate(steady):
            add(start + 10.0 + index, text, NORTH)
        if round_index >= 3:
            add(start + 20.0, steady[1], EAST)  # a second cell, later
        transient = ["160.0.8.0", "160.0.6.0", "160.0.2.0"]
        if round_index < 2 or round_index == 7:
            for index, text in enumerate(transient):
                if round_index < 2 or index == 1:
                    add(start + 30.0 + index, text, SOUTH)
    flows.sort(key=lambda flow: flow.timestamp)
    return flows
