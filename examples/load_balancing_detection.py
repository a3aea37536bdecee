#!/usr/bin/env python3
"""Detecting router-level load balancing — the §5.8 extension.

The deployed IPD cannot classify a prefix whose neighbor balances it
across two *routers* (the one operational incident in six years), and
the paper sketches (src, dst) pair tracking as future work.  This
example runs that implemented extension end to end:

1. a hypergiant balances one prefix 50/50 over two routers while normal
   traffic flows elsewhere,
2. plain IPD leaves the balanced prefix unclassified (by design),
3. a LoadBalanceDetector watching each sweep flags it — and
   distinguishes true per-flow balancing from a per-destination split
   that a destination-aware mapping could resolve.

Run:  python examples/load_balancing_detection.py
"""

import random

from repro.core.algorithm import IPD
from repro.core.iputil import parse_ip, parse_prefix
from repro.core.lbdetect import LoadBalanceDetector
from repro.core.params import IPDParams
from repro.netflow.records import FlowRecord
from repro.topology.elements import IngressPoint

BALANCED = parse_prefix("198.51.0.0/24")
NORMAL = parse_prefix("203.0.0.0/24")
ROUTERS = (IngressPoint("fra-r1", "et0"), IngressPoint("fra-r2", "et0"))
NORMAL_INGRESS = IngressPoint("nyc-r1", "et0")


def main() -> None:
    detector = LoadBalanceDetector(min_pairs=16, patience=3)
    ipd = IPD(IPDParams(n_cidr_factor_v4=0.01, n_cidr_factor_v6=0.01))

    def ingest(flow: FlowRecord) -> None:
        ipd.ingest(flow)
        detector.observe(flow)  # reads the destination IPD ignores

    rng = random.Random(7)

    print("Feeding 60 minutes of traffic:")
    print(f"  {BALANCED}: balanced 50/50 over "
          f"{ROUTERS[0].router} and {ROUTERS[1].router}")
    print(f"  {NORMAL}: single ingress {NORMAL_INGRESS}\n")

    now = 0.0
    for minute in range(60):
        for index in range(80):
            ts = now + index * 0.75
            ingest(FlowRecord(
                timestamp=ts,
                src_ip=BALANCED.value + (index % 12) * 16,
                version=4,
                ingress=rng.choice(ROUTERS),
                dst_ip=parse_ip("100.64.0.0")[0] + rng.randrange(40) * 256,
            ))
            ingest(FlowRecord(
                timestamp=ts,
                src_ip=NORMAL.value + (index % 12) * 16,
                version=4,
                ingress=NORMAL_INGRESS,
                dst_ip=parse_ip("100.64.0.0")[0] + rng.randrange(40) * 256,
            ))
        now += 60.0
        detector.on_sweep(ipd.sweep(now), ipd)

    print("Plain IPD view (classified ranges):")
    for record in ipd.snapshot(now):
        print(f"  {str(record.range):18s} -> {record.ingress} "
              f"(confidence {record.s_ingress:.2f})")
    covered = any(
        record.range.contains(BALANCED.value) for record in ipd.snapshot(now)
    )
    print(f"  balanced prefix classified: {covered} "
          "(stays unclassified — the documented §5.8 limitation)\n")

    print(f"Detector suspects: {[str(p) for p in detector.watched()]}")
    for verdict in detector.diagnose_all():
        shares = ", ".join(
            f"{router}={share:.2f}" for router, share in verdict.router_shares
        )
        print(f"  {verdict.prefix}: router shares [{shares}], "
              f"pair overlap {verdict.pair_overlap:.2f}")
        if verdict.is_router_balanced:
            print(f"    -> ROUTER-LEVEL LOAD BALANCING; logical ingress "
                  f"{verdict.router_group()}")
        else:
            print("    -> per-destination split (destination-aware "
                  "mapping would resolve it)")
    print(f"\ndetector state: {detector.state_size()} (pair, router) "
          "entries — bounded, unlike naive global (src, dst) tracking")


if __name__ == "__main__":
    main()
