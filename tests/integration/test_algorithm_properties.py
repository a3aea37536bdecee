"""Property-based invariants of the IPD engine under random traffic.

Whatever flow stream the engine sees, the following must hold after any
number of sweeps — these are the structural guarantees everything else
(LPM validation, snapshot analyses) relies on:

* the leaves of each trie partition the address space exactly;
* every classified range satisfies the q threshold on its counters;
* no leaf is deeper than cidr_max;
* snapshot records are disjoint and sorted;
* total retained sample weight never exceeds what was ingested.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm import IPD
from repro.core.iputil import IPV4, IPV6
from repro.core.params import IPDParams
from repro.core.state import ClassifiedState, UnclassifiedState
from repro.netflow.records import FlowBatch, FlowRecord
from repro.testkit.strategies import DEFAULT_INGRESSES as INGRESSES
from repro.testkit.strategies import flow_events_list
from repro.topology.elements import IngressPoint


def run_engine(raw_flows, q=0.95, cidr_max=12):
    params = IPDParams(
        n_cidr_factor_v4=0.0005,
        n_cidr_factor_v6=0.0005,
        q=q,
        cidr_max_v4=cidr_max,
    )
    ipd = IPD(params)
    now = 0.0
    for chunk_start in range(0, len(raw_flows), 25):
        for src, ingress_index, offset in raw_flows[chunk_start:chunk_start + 25]:
            ipd.ingest(FlowRecord(
                timestamp=now + offset * 10.0,
                src_ip=src,
                version=IPV4,
                ingress=INGRESSES[ingress_index],
            ))
        now += 60.0
        ipd.sweep(now)
    return ipd, now


@settings(max_examples=30, deadline=None)
@given(flow_events_list(min_size=1, max_size=200))
def test_leaves_partition_space(raw_flows):
    ipd, __ = run_engine(raw_flows)
    tree = ipd.trees[IPV4]
    leaves = tree.leaves()
    total = sum(leaf.num_addresses for leaf in leaves)
    assert total == 1 << 32
    values = [leaf.value for leaf in leaves]
    assert values == sorted(values)


@settings(max_examples=30, deadline=None)
@given(flow_events_list(min_size=1, max_size=200))
def test_classified_ranges_respect_q(raw_flows):
    ipd, __ = run_engine(raw_flows)
    params = ipd.params
    tree = ipd.trees[IPV4]
    for leaf in tree.leaves():
        state = tree.state(leaf)
        if not isinstance(state, ClassifiedState):
            continue
        members = [
            IngressPoint(state.ingress.router, name)
            for name in state.ingress.interfaces()
        ]
        assert state.confidence_for(members) >= params.q - 1e-9


@settings(max_examples=30, deadline=None)
@given(flow_events_list(min_size=1, max_size=200))
def test_depth_bounded_by_cidr_max(raw_flows):
    ipd, __ = run_engine(raw_flows, cidr_max=10)
    for leaf in ipd.trees[IPV4].leaves():
        assert leaf.masklen <= 10


@settings(max_examples=30, deadline=None)
@given(flow_events_list(min_size=1, max_size=200))
def test_snapshot_disjoint_and_sorted(raw_flows):
    ipd, now = run_engine(raw_flows)
    records = ipd.snapshot(now, include_unclassified=True)
    v4 = [r for r in records if r.version == IPV4]
    for first, second in zip(v4, v4[1:]):
        assert (
            first.range.value + first.range.num_addresses
            <= second.range.value
        )


@settings(max_examples=30, deadline=None)
@given(flow_events_list(min_size=1, max_size=200))
def test_retained_weight_bounded_by_ingested(raw_flows):
    ipd, __ = run_engine(raw_flows)
    retained = 0.0
    tree = ipd.trees[IPV4]
    for leaf in tree.leaves():
        state = tree.state(leaf)
        if isinstance(state, UnclassifiedState):
            retained += state.sample_count
        else:
            retained += state.total
    assert retained <= len(raw_flows) + 1e-6


@st.composite
def unordered_batches(draw):
    """Rows in no time order, a few sources each on several ingresses,
    several raw sources per masked one, either family and mask width."""
    version = draw(st.sampled_from([IPV4, IPV6]))
    bits = 32 if version == IPV4 else 128
    cidr_max = draw(st.sampled_from([24, 28, 32] if version == IPV4 else [48, 64, 72, 128]))
    host_bits = bits - cidr_max
    prefixes = draw(st.lists(
        st.integers(0, (1 << cidr_max) - 1), min_size=1, max_size=5, unique=True
    ))
    rows = draw(st.lists(
        st.tuples(
            st.sampled_from(prefixes),
            st.integers(0, (1 << host_bits) - 1),
            st.sampled_from(INGRESSES),
            st.integers(0, 8000).map(lambda tick: tick / 8),  # timestamp
            st.integers(1, 1 << 20),                           # bytes
        ),
        min_size=1,
        max_size=60,
    ))
    flows = [
        FlowRecord(
            timestamp=stamp, src_ip=prefix << host_bits | host, version=version,
            ingress=ingress, bytes=size,
        )
        for prefix, host, ingress, stamp, size in rows
    ]
    field = "cidr_max_v4" if version == IPV4 else "cidr_max_v6"
    params = IPDParams(count_bytes=draw(st.booleans()), **{field: cidr_max})
    return params, flows


@settings(max_examples=80, deadline=None)
@given(unordered_batches())
def test_unordered_batch_folds_like_rows_in_order(case):
    """One ``ingest_batch`` of rows that are not time-ordered leaves the
    bytes one-row ``ingest`` calls in row order leave: newest / oldest
    are the max / min of a source's rows (not its last / first), and
    sources and their cells fold in first-row order."""
    params, flows = case
    batched, one_by_one = IPD(params), IPD(params)
    batched.ingest_batch(FlowBatch.from_flows(flows))
    for flow in flows:
        one_by_one.ingest(flow)
    assert batched.to_bytes() == one_by_one.to_bytes()
