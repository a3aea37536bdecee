#!/usr/bin/env python3
"""A teaching walkthrough of the IPD algorithm (Fig. 5, step by step).

The paper ships a "Mini IPD" environment for research and teaching; this
script is its library analogue: a tiny scripted trace, with the binary
trie printed after every sweep so you can watch ranges split, classify,
decay and join.

Run:  python examples/algorithm_walkthrough.py
"""

from repro.core.algorithm import IPD
from repro.core.iputil import IPV4, parse_ip
from repro.core.params import IPDParams
from repro.core.state import ClassifiedState
from repro.netflow.records import FlowRecord
from repro.topology.elements import IngressPoint

BLUE = IngressPoint("R1", "et0")
RED = IngressPoint("R2", "et0")


def dump_trie(ipd: IPD) -> None:
    """Print every node of the IPv4 trie with its state."""
    tree = ipd.trees[IPV4]

    def walk(prefix, depth):
        # the trie keeps only its leaves: a range is internal when the
        # leaf at its first address is longer than it
        if tree.lookup_leaf(prefix.value) != prefix:
            print(f"    {'  ' * depth}{prefix}  ·")
            for half in prefix.children():
                walk(half, depth + 1)
            return
        state = tree.state(prefix)
        if isinstance(state, ClassifiedState):
            label = (f"CLASSIFIED -> {state.ingress} "
                     f"(n={state.total:.0f})")
        elif state.is_empty():
            label = "unclassified (empty)"
        else:
            label = (f"unclassified, s_ipcount={state.sample_count:.0f}, "
                     f"{len(tree.sources(prefix))} sources")
        print(f"    {'  ' * depth}{prefix}  {label}")

    walk(tree.root_prefix, 0)


def feed(ipd: IPD, base_text: str, ingress: IngressPoint, count: int,
         ts: float) -> None:
    base = parse_ip(base_text)[0]
    for index in range(count):
        ipd.ingest(FlowRecord(
            timestamp=ts + index * 0.5, src_ip=base + index * 16,
            version=IPV4, ingress=ingress,
        ))


def main() -> None:
    # tiny thresholds so the example converges in a handful of sweeps:
    # n_cidr(/0) = 0.001 * sqrt(2^32) ≈ 65 samples
    params = IPDParams(n_cidr_factor_v4=0.001, n_cidr_factor_v6=0.001,
                       cidr_max_v4=4)
    ipd = IPD(params)
    now = 0.0

    print("t0: 40 blue + 40 red samples land in the /0 root")
    feed(ipd, "16.0.0.0", BLUE, 40, now)
    feed(ipd, "200.0.0.0", RED, 40, now)
    ipd.sweep(now := now + 60.0)
    print("    after sweep 1 — enough samples, two colors -> SPLIT:")
    dump_trie(ipd)

    print("\nt1: traffic continues; each /1 half is single-colored")
    feed(ipd, "16.0.0.0", BLUE, 40, now)
    feed(ipd, "200.0.0.0", RED, 40, now)
    ipd.sweep(now := now + 60.0)
    print("    after sweep 2 — both halves CLASSIFY:")
    dump_trie(ipd)

    print("\nt2: red traffic stops entirely; blue keeps flowing")
    for __ in range(6):
        feed(ipd, "16.0.0.0", BLUE, 40, now)
        ipd.sweep(now := now + 60.0)
    print("    after 6 idle sweeps — red decayed away and was dropped,")
    print("    the empty sibling was pruned back:")
    dump_trie(ipd)

    print("\nt3: red's old space now also enters via BLUE")
    for __ in range(4):
        feed(ipd, "16.0.0.0", BLUE, 40, now)
        feed(ipd, "200.0.0.0", BLUE, 40, now)
        ipd.sweep(now := now + 60.0)
    print("    after re-classification and the JOIN pass — one /0 range:")
    dump_trie(ipd)

    print("\nTable-3 view of the final state:")
    for record in ipd.snapshot(now):
        print("   ", record.ingress_field(), record.range,
              f"s_ingress={record.s_ingress:.2f}")


if __name__ == "__main__":
    main()
