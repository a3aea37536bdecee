"""Shared hypothesis strategies for IPD property suites.

Every property test in the repository draws flows, traces, parameters
and shard topologies from here, so the distributions stay consistent
across suites (and tightening one tightens them all).  The strategies
are plain functions returning ``SearchStrategy`` objects; import them
directly::

    from repro.testkit import strategies as ipd_st

    @given(raw_flows=ipd_st.flow_events_list(max_size=250))
    def test_...(raw_flows): ...

``flow_events`` keeps the historical raw-tuple shape
``(src_ip, ingress_index, bucket_offset)`` used by the shard-equivalence
and algorithm-property suites; ``traces`` builds ready-to-ingest
:class:`~repro.netflow.records.FlowRecord` streams with non-decreasing
timestamps for the differential-oracle suite.
"""

from __future__ import annotations

from hypothesis import strategies as st

from ..core.iputil import IPV4
from ..core.params import IPDParams
from ..netflow.records import FlowBatch, FlowRecord
from ..topology.elements import IngressPoint

__all__ = [
    "DEFAULT_INGRESSES",
    "SMALL_SPACE_PARAMS",
    "adversarial_traces",
    "clipped_elephants",
    "engine_params",
    "flap_schedules",
    "flood_bursts",
    "flow_batches",
    "flow_events",
    "flow_events_list",
    "shard_counts",
    "traces",
]

#: the four-ingress topology the property suites have always used: two
#: interfaces on one router (exercises §3.2 bundling), two more routers
DEFAULT_INGRESSES = (
    IngressPoint("R1", "et0"),
    IngressPoint("R1", "et1"),
    IngressPoint("R2", "et0"),
    IngressPoint("R3", "hu0"),
)

#: thresholds scaled down so a couple hundred generated flows can drive
#: classifications, splits and joins inside a /12-bounded IPv4 trie
SMALL_SPACE_PARAMS = IPDParams(
    n_cidr_factor_v4=0.0005,
    n_cidr_factor_v6=0.0005,
    cidr_max_v4=12,
)


def flow_events(
    ingress_count: int = len(DEFAULT_INGRESSES),
    max_offset: int = 5,
    version: int = IPV4,
) -> st.SearchStrategy:
    """Raw ``(src_ip, ingress_index, bucket_offset)`` tuples.

    The offset is in 10-second steps inside a sweep bucket; the driver
    loops of the property suites add it to the current bucket start.
    """
    max_src = (1 << 32) - 1 if version == IPV4 else (1 << 128) - 1
    return st.tuples(
        st.integers(min_value=0, max_value=max_src),
        st.integers(min_value=0, max_value=ingress_count - 1),
        st.integers(min_value=0, max_value=max_offset),
    )


def flow_events_list(
    min_size: int = 0,
    max_size: int = 250,
    version: int = IPV4,
) -> st.SearchStrategy:
    """Lists of :func:`flow_events` tuples (the usual @given input)."""
    return st.lists(
        flow_events(version=version), min_size=min_size, max_size=max_size
    )


@st.composite
def traces(
    draw: st.DrawFn,
    min_buckets: int = 1,
    max_buckets: int = 8,
    max_flows_per_bucket: int = 40,
    t: float = 60.0,
    versions: tuple[int, ...] = (IPV4,),
    ingresses: tuple[IngressPoint, ...] = DEFAULT_INGRESSES,
    max_bytes: int = 1,
) -> list[FlowRecord]:
    """Time-ordered :class:`FlowRecord` streams spanning several buckets.

    Each bucket holds a sorted burst of flows with timestamps inside one
    sweep interval; bucket count, per-bucket volume, sources, families
    and byte weights are all drawn.  Suitable for feeding the engine and
    the oracle (or a Pipeline) directly.
    """
    flows: list[FlowRecord] = []
    buckets = draw(st.integers(min_value=min_buckets, max_value=max_buckets))
    for bucket in range(buckets):
        start = bucket * t
        count = draw(st.integers(min_value=0, max_value=max_flows_per_bucket))
        offsets = sorted(
            draw(
                st.lists(
                    st.floats(
                        min_value=0.0,
                        max_value=t - 1e-3,
                        allow_nan=False,
                        allow_infinity=False,
                    ),
                    min_size=count,
                    max_size=count,
                )
            )
        )
        for offset in offsets:
            version = draw(st.sampled_from(versions))
            max_src = (1 << 32) - 1 if version == IPV4 else (1 << 128) - 1
            flows.append(
                FlowRecord(
                    timestamp=start + offset,
                    src_ip=draw(st.integers(min_value=0, max_value=max_src)),
                    version=version,
                    ingress=draw(st.sampled_from(ingresses)),
                    bytes=draw(st.integers(min_value=1, max_value=max_bytes)),
                )
            )
    return flows


@st.composite
def flow_batches(
    draw: st.DrawFn,
    version: int = IPV4,
    max_rows: int = 64,
    ingresses: tuple[IngressPoint, ...] = DEFAULT_INGRESSES,
) -> FlowBatch:
    """Columnar :class:`FlowBatch` values of one family for the batch
    round-trip property.

    Addresses span the family, counts the int64 columns, timestamps are
    arbitrary finite f64 values (a round trip must keep them bit-exact),
    and destinations are on no row, some rows or every row.
    ``max_rows=0`` yields only empty batches.
    """
    bits = 32 if version == IPV4 else 128
    address = st.integers(min_value=0, max_value=(1 << bits) - 1)
    count = st.integers(min_value=0, max_value=(1 << 63) - 1)
    rows = draw(st.integers(min_value=0, max_value=max_rows))

    def column(values: st.SearchStrategy) -> list:
        return draw(st.lists(values, min_size=rows, max_size=rows))

    return FlowBatch(
        version,
        column(st.floats(allow_nan=False, allow_infinity=False, width=64)),
        column(address),
        column(st.sampled_from(ingresses)),
        column(count),
        column(count),
        column(draw(st.sampled_from((st.none(), st.none() | address, address)))),
    )


@st.composite
def flood_bursts(
    draw: st.DrawFn,
    max_buckets: int = 6,
    max_benign_per_bucket: int = 10,
    max_flood_sources: int = 120,
    t: float = 60.0,
    ingresses: tuple[IngressPoint, ...] = DEFAULT_INGRESSES,
) -> list[FlowRecord]:
    """Benign elephants plus a spoofed-source burst in the middle buckets.

    The benign sub-stream repeats a handful of sources at stable
    ingresses; the burst sprays drawn-distinct sources (each seen once,
    the shape admission exists for) at one or two attacker ingresses.
    Sizes stay small enough for the paper-literal oracle to keep up.
    """
    buckets = draw(st.integers(min_value=2, max_value=max_buckets))
    benign_sources = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    benign_ingress = {
        src: draw(st.sampled_from(ingresses)) for src in benign_sources
    }
    flood_ingresses = draw(
        st.lists(st.sampled_from(ingresses), min_size=1, max_size=2, unique=True)
    )
    burst_bucket = draw(st.integers(min_value=1, max_value=buckets - 1))
    flood_sources = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            min_size=1,
            max_size=max_flood_sources,
            unique=True,
        )
    )
    flows: list[FlowRecord] = []
    for bucket in range(buckets):
        start = bucket * t
        count = draw(
            st.integers(min_value=0, max_value=max_benign_per_bucket)
        )
        for index in range(count):
            src = draw(st.sampled_from(benign_sources))
            flows.append(
                FlowRecord(
                    timestamp=start + index * (t / (max_benign_per_bucket + 1)),
                    src_ip=src,
                    version=IPV4,
                    ingress=benign_ingress[src],
                    bytes=draw(st.integers(min_value=1, max_value=1500)),
                )
            )
        if bucket == burst_bucket:
            step = t / (len(flood_sources) + 1)
            for index, src in enumerate(flood_sources):
                flows.append(
                    FlowRecord(
                        timestamp=start + index * step,
                        src_ip=src,
                        version=IPV4,
                        ingress=draw(st.sampled_from(flood_ingresses)),
                        bytes=1,
                    )
                )
    flows.sort(key=lambda flow: flow.timestamp)
    return flows


@st.composite
def clipped_elephants(
    draw: st.DrawFn,
    max_buckets: int = 8,
    max_flows_per_bucket: int = 12,
    t: float = 60.0,
    ingresses: tuple[IngressPoint, ...] = DEFAULT_INGRESSES,
) -> list[FlowRecord]:
    """Elephant streams whose byte weights collapse inside a clip window.

    Models the visible effect of a token-bucket policer: the flow *count*
    survives, the *byte* counters drop to the policed residue for a span
    of buckets, then recover.  Exercises byte-weighted counting and decay
    against a mid-trace regime change.
    """
    buckets = draw(st.integers(min_value=3, max_value=max_buckets))
    clip_start = draw(st.integers(min_value=1, max_value=buckets - 2))
    clip_len = draw(st.integers(min_value=1, max_value=buckets - clip_start - 1))
    sources = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    source_ingress = {
        src: draw(st.sampled_from(ingresses)) for src in sources
    }
    heavy = draw(st.integers(min_value=10_000, max_value=1_000_000))
    residue = draw(st.integers(min_value=1, max_value=100))
    flows: list[FlowRecord] = []
    for bucket in range(buckets):
        start = bucket * t
        clipped = clip_start <= bucket < clip_start + clip_len
        count = draw(st.integers(min_value=1, max_value=max_flows_per_bucket))
        for index in range(count):
            src = draw(st.sampled_from(sources))
            flows.append(
                FlowRecord(
                    timestamp=start + index * (t / (max_flows_per_bucket + 1)),
                    src_ip=src,
                    version=IPV4,
                    ingress=source_ingress[src],
                    bytes=residue if clipped else heavy,
                )
            )
    return flows


@st.composite
def flap_schedules(
    draw: st.DrawFn,
    max_buckets: int = 10,
    max_flows_per_bucket: int = 8,
    t: float = 60.0,
    ingresses: tuple[IngressPoint, ...] = DEFAULT_INGRESSES,
) -> list[FlowRecord]:
    """One prefix whose ingress oscillates with a drawn dwell time.

    All sources share a drawn high-bit prefix; the serving ingress
    rotates through a drawn pair every ``dwell`` buckets (dwell 1 is a
    storm faster than ``t``).  Probes the decay function's stability
    under path churn without any generator machinery.
    """
    buckets = draw(st.integers(min_value=4, max_value=max_buckets))
    dwell = draw(st.integers(min_value=1, max_value=3))
    masklen = draw(st.integers(min_value=8, max_value=20))
    base = draw(
        st.integers(min_value=0, max_value=(1 << 32) - 1)
    ) & ~((1 << (32 - masklen)) - 1)
    span = 1 << (32 - masklen)
    pair = draw(
        st.lists(st.sampled_from(ingresses), min_size=2, max_size=2, unique=True)
    )
    flows: list[FlowRecord] = []
    for bucket in range(buckets):
        start = bucket * t
        ingress = pair[(bucket // dwell) % len(pair)]
        count = draw(st.integers(min_value=1, max_value=max_flows_per_bucket))
        for index in range(count):
            flows.append(
                FlowRecord(
                    timestamp=start + index * (t / (max_flows_per_bucket + 1)),
                    src_ip=base + draw(st.integers(min_value=0, max_value=span - 1)),
                    version=IPV4,
                    ingress=ingress,
                    bytes=draw(st.integers(min_value=1, max_value=1500)),
                )
            )
    return flows


def adversarial_traces(
    t: float = 60.0,
    ingresses: tuple[IngressPoint, ...] = DEFAULT_INGRESSES,
) -> st.SearchStrategy:
    """Any of the three adversarial trace families, equally weighted.

    The differential suite feeds these to the optimized engines and the
    paper-literal oracle: hostile shapes must not change a single
    decision relative to the reference semantics.
    """
    return st.one_of(
        flood_bursts(t=t, ingresses=ingresses),
        clipped_elephants(t=t, ingresses=ingresses),
        flap_schedules(t=t, ingresses=ingresses),
    )


def engine_params(
    max_cidr_v4: int = 12,
    include_byte_counting: bool = True,
) -> st.SearchStrategy:
    """Small-space :class:`IPDParams` variations for differential runs.

    Keeps ``n_cidr`` factors tiny (so generated traces can classify) and
    bounds the IPv4 trie depth; draws the dominance threshold ``q``,
    bundling on/off and flow-vs-byte weighting.
    """
    return st.builds(
        IPDParams,
        n_cidr_factor_v4=st.sampled_from([0.0005, 0.005, 0.05]),
        n_cidr_factor_v6=st.just(0.0005),
        cidr_max_v4=st.integers(min_value=4, max_value=max_cidr_v4),
        q=st.sampled_from([0.6, 0.8, 0.95]),
        enable_bundles=st.booleans(),
        count_bytes=(
            st.booleans() if include_byte_counting else st.just(False)
        ),
    )


def shard_counts(max_depth: int = 8) -> st.SearchStrategy:
    """Legal ShardedIPD shard counts: powers of two from 2 to 2^max_depth."""
    return st.sampled_from([1 << depth for depth in range(1, max_depth + 1)])
