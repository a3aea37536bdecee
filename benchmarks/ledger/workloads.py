"""Seeded inputs of the perf ledger: three traces, six workloads.

Every input is a pure function of ``(seed, scale)``: no wall clock, no
global RNG.  Three traces feed the six workloads:

* ``zipf`` — :func:`repro.workloads.scenarios.default_scenario`, the
  Zipf/diurnal tier-1 mix ``cli simulate`` writes, with timestamps
  rounded to the flow CSV's millisecond precision so the file replay and
  the prebuilt-batch replay consume the *same* stream.
* ``multifractal`` — :func:`multifractal_trace`, a conservative binomial
  cascade over the top 28 source bits (Misa et al., arXiv:2504.01374):
  the realistic worst case for trie shape, deep and skewed.
* ``flood`` — the PR-9 ``flood-uniform`` adversarial scenario, where the
  admission gate does nearly all the work.

Sizes are cut to what the benchmark driver's wall-clock cap allows on a
2-core box (see README.md, "Sizes"); ``scale`` shrinks them further for
``--quick``.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.core.admission import AdmissionConfig
from repro.core.iputil import IPV4
from repro.core.params import IPDParams
from repro.netflow.records import FlowBatch, FlowRecord, iter_flow_batches
from repro.topology.elements import IngressPoint
from repro.workloads import adversarial_scenario
from repro.workloads.adversarial import AdversarialGroundTruth
from repro.workloads.scenarios import default_scenario

__all__ = [
    "BATCH_ROWS",
    "Trace",
    "WORKLOADS",
    "Workload",
    "build_trace",
    "cascade_sources",
    "flood_trace",
    "multifractal_trace",
    "trace_digest",
    "zipf_trace",
]

#: rows per prebuilt batch and per ``read_flows_csv_batched`` batch —
#: the ``cli run`` default
BATCH_ROWS = 8192

#: cascade depth: the top 28 bits, i.e. down to IPv4 ``cidr_max``
_CASCADE_BITS = 28
#: every cascade node sends this share (or one minus it) of its mass
#: left; drawn per node from a hash, so the tree is fixed by the seed
_SPLIT_DEVIATION = (0.30, 0.48)
#: the top levels split the same way for every seed, the rest by seed.
#: A handful of top nodes decide how much of the space is busy at all;
#: drawn per seed they moved flows/s by ±15 % between seeds, which the
#: driver would read as run-to-run noise.  Below /10 a thousand subtrees
#: average that out, so the seed still redraws the structure the trie
#: works on.
_SHARED_LEVELS = 28
_SHARED_SALT = 0x1905
#: ingress is constant inside hashed blocks of these prefix lengths
_BLOCK_LENGTHS = (12, 24)
_NOISE_SHARE = 0.02
_INGRESS_POINTS = tuple(
    IngressPoint(f"mf-r{index // 4}", f"et{index % 4}") for index in range(24)
)

#: factor paired with the multifractal volume: the trie reaches /28 and
#: the final snapshot holds > 1 000 ranges at 200 k flows over 30 sweeps
MULTIFRACTAL_PARAMS = IPDParams(
    n_cidr_factor_v4=0.005, n_cidr_factor_v6=0.005, drop_threshold=0.25
)
#: the pairing ``cli run --scenario`` uses for the downsized flood
FLOOD_PARAMS = IPDParams(
    n_cidr_factor_v4=0.01, n_cidr_factor_v6=0.01, drop_threshold=0.25
)


@dataclass
class Trace:
    """One generated input: batches, the params paired with its volume."""

    name: str
    params: IPDParams
    batches: list[FlowBatch]
    #: flood traces only: what the adversary did (sizes the lossy gate,
    #: scores pollution)
    truth: Optional[AdversarialGroundTruth] = None
    flows: int = field(init=False)

    def __post_init__(self) -> None:
        self.flows = sum(len(batch) for batch in self.batches)

    def iter_flows(self) -> Iterator[FlowRecord]:
        for batch in self.batches:
            yield from batch.iter_flows()


def trace_digest(batches: list[FlowBatch]) -> str:
    """SHA-256 over every column of every row (same trace ⇔ same hex)."""
    digest = hashlib.sha256()
    for batch in batches:
        rows = len(batch)
        digest.update(struct.pack(f">{rows}d", *batch.timestamps))
        digest.update(struct.pack(f">{rows}Q", *batch.src_ips))
        digest.update(struct.pack(f">{rows}Q", *batch.packet_counts))
        digest.update(struct.pack(f">{rows}Q", *batch.byte_counts))
        digest.update("|".join(map(str, batch.ingresses)).encode())
    return digest.hexdigest()


# -- multifractal cascade ------------------------------------------------------


def _mix64(values: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wraps by design)."""
    with np.errstate(over="ignore"):
        values = values + np.uint64(0x9E3779B97F4A7C15)
        values = (values ^ (values >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        values = (values ^ (values >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return values ^ (values >> np.uint64(31))


def cascade_sources(seed: int, flows: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw *flows* IPv4 sources from the seeded cascade.

    Returns ``(addresses, ingress indices)`` as uint64 arrays.  At each
    of the 28 levels a node's left share is ``0.5 ± d`` with ``d`` and
    the sign taken from a hash of (prefix, level, seed) — of (prefix,
    level) alone in the top ``_SHARED_LEVELS`` levels: mass is
    conserved per node, and the product of 28 lopsided splits gives the
    heavy-tailed, self-similar address structure the paper's trie sees
    at its worst.  The low 4 bits (below ``cidr_max``) are uniform.
    """
    rng = np.random.default_rng(seed)
    salts = _mix64(np.array([_SHARED_SALT, seed], dtype=np.uint64))
    salt = salts[1]
    low, high = _SPLIT_DEVIATION
    prefix = np.zeros(flows, dtype=np.uint64)
    for level in range(_CASCADE_BITS):
        node = _mix64(
            ((prefix << np.uint64(5)) | np.uint64(level))
            ^ salts[int(level >= _SHARED_LEVELS)]
        )
        unit = (node >> np.uint64(11)).astype(np.float64) / float(1 << 53)
        sign = (node & np.uint64(1)).astype(np.float64) * 2.0 - 1.0
        left_share = 0.5 + sign * (low + (high - low) * unit)
        bit = (rng.random(flows) >= left_share).astype(np.uint64)
        prefix = (prefix << np.uint64(1)) | bit
    addresses = (prefix << np.uint64(4)) | rng.integers(
        0, 16, flows, dtype=np.uint64
    )
    shortest, longest = _BLOCK_LENGTHS
    span = np.uint64(longest - shortest + 1)
    block_length = np.uint64(shortest) + _mix64(
        (addresses >> np.uint64(32 - shortest)) ^ salt ^ np.uint64(0xA5)
    ) % span
    block = addresses >> (np.uint64(32) - block_length)
    points = np.uint64(len(_INGRESS_POINTS))
    ingress = _mix64(
        ((block << np.uint64(5)) | block_length) ^ salt ^ np.uint64(0x5A)
    ) % points
    noisy = rng.random(flows) < _NOISE_SHARE
    ingress = np.where(
        noisy, rng.integers(0, len(_INGRESS_POINTS), flows, dtype=np.uint64), ingress
    )
    return addresses, ingress


def multifractal_trace(
    seed: int, flows: int = 200_000, duration_seconds: float = 1800.0
) -> Trace:
    """The cascade trace as prebuilt batches (30 sweeps at ``t`` = 60 s)."""
    addresses, ingress = cascade_sources(seed, flows)
    # a separate stream, so the address structure of a seed does not
    # change with the flow count's effect on earlier draws
    clock = np.random.default_rng([seed, 1])
    timestamps = np.sort(clock.random(flows)) * duration_seconds
    stamps = timestamps.tolist()
    sources = addresses.tolist()
    ingresses = [_INGRESS_POINTS[index] for index in ingress.tolist()]
    batches = []
    for start in range(0, flows, BATCH_ROWS):
        end = min(flows, start + BATCH_ROWS)
        rows = end - start
        batches.append(
            FlowBatch(
                IPV4,
                stamps[start:end],
                sources[start:end],
                ingresses[start:end],
                [1] * rows,
                [1500] * rows,
                [None] * rows,
            )
        )
    return Trace("multifractal", MULTIFRACTAL_PARAMS, batches)


# -- scenario loaders ----------------------------------------------------------


def _csv_precision(flows: Iterator[FlowRecord]) -> Iterator[FlowRecord]:
    """Round timestamps exactly as ``write_flows_csv`` prints them."""
    for flow in flows:
        yield flow._replace(timestamp=float(f"{flow.timestamp:.3f}"))


def zipf_trace(
    seed: int, hours: float = 1.0, flows_per_bucket_peak: int = 3500
) -> Trace:
    """The ``default_scenario`` Zipf/diurnal trace (``cli simulate``)."""
    scenario = default_scenario(
        duration_hours=hours,
        flows_per_bucket_peak=flows_per_bucket_peak,
        seed=seed,
    )
    flows = _csv_precision(scenario.generator().flows())
    return Trace(
        "zipf", scenario.params, list(iter_flow_batches(flows, BATCH_ROWS))
    )


def flood_trace(
    seed: int, hours: float = 0.5, flows_per_bucket_peak: int = 800
) -> Trace:
    """The PR-9 uniform spoofed flood over the benign mix."""
    scenario = adversarial_scenario(
        "flood-uniform",
        duration_hours=hours,
        flows_per_bucket_peak=flows_per_bucket_peak,
        seed=seed,
        params=FLOOD_PARAMS,
    )
    return Trace(
        "flood",
        scenario.params,
        list(iter_flow_batches(scenario.generator().flows(), BATCH_ROWS)),
        truth=scenario.ground_truth,
    )


def build_trace(name: str, seed: int, scale: float = 1.0) -> Trace:
    """Generate trace *name*; ``scale`` < 1 shrinks it (``--quick``)."""
    if name == "zipf":
        return zipf_trace(seed, hours=1.0 * scale)
    if name == "multifractal":
        return multifractal_trace(seed, flows=int(200_000 * scale))
    if name == "flood":
        return flood_trace(seed, hours=0.5 * scale)
    raise ValueError(f"unknown trace {name!r}")


# -- the six workloads ---------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One source → sink path through the public entry points."""

    name: str
    trace: str
    why: str
    #: "csv" replays the flow file from disk, "batches" prebuilt batches
    source: str = "batches"
    #: admission mode (None = off); the lossy gate is sized from the
    #: flood's ground truth exactly as ``cli run --scenario`` does
    admission: Optional[str] = None
    shards: int = 1
    executor: str = "serial"
    #: checkpoint cadence in trace seconds (None = no store attached)
    checkpoint_every: Optional[float] = None
    #: "replay" reports flows/s over ≥ 5 repeats and probes lookups
    #: briefly; "serve" does the reverse
    family: str = "replay"
    #: exact workloads must match ``ReferenceIPD`` sweep by sweep
    exact: bool = True

    def admission_config(self, trace: Trace) -> Optional[AdmissionConfig]:
        if self.admission is None:
            return None
        if trace.truth is not None:
            return AdmissionConfig.for_cardinality(
                trace.truth.expected_sources, mode=self.admission
            )
        return AdmissionConfig(mode=self.admission)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "csv_replay",
            "zipf",
            "the cli run path: flow CSV on disk, decode does most of the "
            "work, so a decode or sink gain shows here and a kernel gain barely",
            source="csv",
            checkpoint_every=1800.0,
        ),
        Workload(
            "batch_multifractal",
            "multifractal",
            "decode bypassed: grouping, leaf lookup, split/join and the "
            "dirty sweep work on a deep skewed trie, where kernel gains must show",
        ),
        Workload(
            "batch_zipf_exact",
            "zipf",
            "the same engine behind the exact admission gate on benign "
            "traffic: gate, held-mice buffer and replay-before-sweep overhead",
            admission="exact",
        ),
        Workload(
            "flood_lossy",
            "flood",
            "admission does nearly all the work and little reaches the "
            "trie: a kernel change that costs the gated path shows here",
            admission="lossy",
            exact=False,
        ),
        Workload(
            "sharded_mp",
            "multifractal",
            "router, batch encode, transport and the sweep barrier on 4 "
            "shards over mp workers: the measured mp-vs-single row",
            shards=4,
            executor="mp",
        ),
        Workload(
            "serve_lookup",
            "multifractal",
            "reads beside writes: closed-loop GET and MGET over a socket "
            "while a fresh snapshot is compiled and swapped in every 250 ms",
            family="serve",
        ),
    )
}
