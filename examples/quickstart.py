#!/usr/bin/env python3
"""Quickstart: detect ingress points on a small synthetic ISP.

Builds a four-router ISP, generates one hour of flow traffic with known
ingress assignments, replays it through IPD, and prints the resulting
(range -> ingress) mapping plus a few live LPM lookups — the minimal
end-to-end loop a new user should see first.

Run:  python examples/quickstart.py
"""

from repro import IPDParams, Pipeline, build_lpm_from_records
from repro.core.iputil import format_ip, parse_ip
from repro.netflow.records import FlowRecord
from repro.topology.elements import IngressPoint, LinkType
from repro.topology.network import ISPTopology


def build_topology() -> ISPTopology:
    """A toy ISP: two countries, four border routers, four links."""
    topo = ISPTopology(asn=64512)
    topo.add_country("DE")
    topo.add_country("US")
    topo.add_pop("FRA", "DE")
    topo.add_pop("NYC", "US")
    topo.add_router("fra-r1", "FRA")
    topo.add_router("fra-r2", "FRA")
    topo.add_router("nyc-r1", "NYC")
    topo.add_router("nyc-r2", "NYC")
    topo.add_link("cdn-fra", 15169, LinkType.PNI, "fra-r1", ["et0", "et1"])
    topo.add_link("cdn-nyc", 15169, LinkType.PNI, "nyc-r1", ["et0"])
    topo.add_link("peer-fra", 64600, LinkType.PUBLIC_PEERING, "fra-r2", ["xe0"])
    topo.add_link("transit-nyc", 3356, LinkType.TRANSIT, "nyc-r2", ["hu0"])
    topo.validate()
    return topo


def synthesize_flows(topo: ISPTopology):
    """One hour of traffic: three source regions, three ingress points."""
    regions = [
        # (base source address, ingress point, flows per minute)
        ("203.0.0.0", topo.interface("fra-r1", "et0").ingress_point(), 60),
        ("203.0.0.0", topo.interface("fra-r1", "et1").ingress_point(), 60),
        ("198.51.0.0", topo.interface("nyc-r1", "et0").ingress_point(), 90),
        ("192.0.2.0", topo.interface("fra-r2", "xe0").ingress_point(), 40),
    ]
    for minute in range(60):
        bucket = []
        for base_text, ingress, rate in regions:
            base = parse_ip(base_text)[0]
            for index in range(rate):
                bucket.append(FlowRecord(
                    timestamp=minute * 60.0 + index * (60.0 / rate),
                    src_ip=base + (index % 64) * 16,
                    version=4,
                    ingress=ingress,
                ))
        bucket.sort(key=lambda flow: flow.timestamp)
        yield from bucket


def main() -> None:
    topo = build_topology()

    # n_cidr_factor is scaled to this toy volume (see DESIGN.md §5);
    # everything else is the paper's Table-1 default.
    params = IPDParams(n_cidr_factor_v4=0.02, n_cidr_factor_v6=0.02)
    pipeline = Pipeline(params, snapshot_seconds=300.0)

    print("Replaying one hour of flows through IPD ...")
    result = pipeline.run(synthesize_flows(topo))
    print(f"  processed {result.flows_processed:,} flows, "
          f"{len(result.sweeps)} sweeps, {len(result.snapshots)} snapshots\n")

    final = result.final_snapshot()
    print("Detected ingress mapping (Table-3 style):")
    for record in final:
        print(f"  {str(record.range):20s} -> {str(record.ingress):16s} "
              f"confidence={record.s_ingress:.3f} samples={record.s_ipcount:.0f}")

    lpm = build_lpm_from_records(final)
    print("\nOperational lookups:")
    for probe in ("203.0.0.77", "198.51.0.5", "192.0.2.200", "8.8.8.8"):
        value, __ = parse_ip(probe)
        found = lpm.lookup_entry(value)
        if found is None:
            print(f"  {probe:14s} -> (not mapped: too little traffic)")
        else:
            print(f"  {probe:14s} -> {found.ingress}  (via {found.prefix})")

    # the FRA LAG is detected as one logical bundle
    bundles = [r for r in final if r.ingress.is_bundle]
    if bundles:
        print("\nBundles (LAG members classified as one logical ingress):")
        for record in bundles:
            print(f"  {record.range} -> {record.ingress}")


if __name__ == "__main__":
    main()
