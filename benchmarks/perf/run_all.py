"""Hot-path microbenchmarks for the IPD substrate.

Run from the repo root:

    PYTHONPATH=src python benchmarks/perf/run_all.py --output perf-results.json

Three groups of measurements, all on the §5.7 workload (4096 distinct
/28 sources, 8 ingresses, monotone timestamps):

* ``ingest``   — Stage-1 throughput through the three ingest paths:
  per-flow ``ingest()``, the fused ``ingest_many()`` record loop, and
  ``ingest_batch()`` over prebuilt columnar batches.  Each is compared
  against the committed seed rate (427,637 flows/s, per-flow era).
* ``batch_size_scaling`` — ``ingest_batch()`` throughput as the batch
  size grows, showing where per-batch amortisation saturates.
* ``sweep``    — Stage-2 latency for an *active* sweep (every leaf
  dirty) vs subsequent *idle* sweeps, at growing state sizes.  With
  dirty-range sweeps the idle cost tracks the classified-leaf count,
  not the total state size.
* ``sharded_mp`` — steady-state ``ingest_batch()`` through the sharded
  runtime's multiprocessing executor vs a single warm engine, on a
  source-spread variant of the workload (the §5.7 sources sit in one
  /16, which a depth-3 shard split cannot spread).  Recorded, not
  gated: the ratio depends on the core count, which is captured
  alongside.  The target is ≥ 2x single-engine on ≥ 4 cores.
* ``checkpoint`` — state externalization cost on a settled
  source-spread engine: encode+save and load+restore throughput
  (leaves/s) through ``CheckpointStore``, and the wire-format density
  (bytes per leaf on disk).  Recorded, not gated — it bounds the sweep
  budget a checkpoint barrier consumes.
* ``query``    — the serving plane: CompiledLPM compile cost and blob
  size, bulk and per-call lookup throughput through an installed
  epoch, p50/p99 per-call latency, and the epoch hot-swap pause (the
  longest single install over 1000 swaps).  Recorded, not gated.
* ``admission`` — the sketch-gated admission front-end: per-decision
  admit cost through both gate paths (count-min update vs the
  known-elephant set probe), the exact-mode holdback ratio, and
  off/exact/lossy ``ingest_batch()`` throughput on the uniform §5.7
  workload (every source promotes within one batch) and on a
  spoofed-random-source workload (no source ever promotes — the shape
  the gate exists for).  The lossy spoofed rate is compared against
  the committed prebuilt-batch ingest baseline.

``--only GROUP[,GROUP]`` restricts a run to the named groups (the CI
serving job runs ``--only query`` as a smoke check).

``--check BASELINE`` re-runs the ingest group and fails (exit 1) if any
path regresses more than ``--tolerance`` (default 30%) against the
baseline JSON.  Rates are normalised by a small pure-Python calibration
loop so the gate compares algorithmic speed, not machine speed.

The testkit's fault-injection seams (``fault_hook`` on the executors,
``Pipeline`` and ``CheckpointStore``) sit on the measured paths but
default to ``None``: when no :class:`repro.testkit.FaultPlan` is
attached, each seam costs one identity check per *tick* (never per
flow), so these benchmarks — and the CI gate — also pin that the hooks
stay free.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import statistics
import sys
import time

try:
    from repro.core.algorithm import IPD
except ImportError:  # allow running without PYTHONPATH=src
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))
    from repro.core.algorithm import IPD

from repro.core.iputil import IPV4, parse_ip
from repro.core.params import IPDParams
from repro.netflow.records import FlowRecord, iter_flow_batches
from repro.topology.elements import IngressPoint

#: the committed single-core rate of the pre-batching substrate
SEED_FLOWS_PER_SECOND = 427_637

#: the committed prebuilt-batch ingest rate (baseline.json's
#: ``ingest.ingest_batch_prebuilt``) — the bar the lossy admission
#: front-end must clear on the spoofed-random-source workload
SEED_BATCH_FLOWS_PER_SECOND = 3_486_442

INGRESSES = [IngressPoint(f"R{i}", "et0") for i in range(8)]

BATCH_SIZES = (256, 1024, 4096, 16384, 65536)
SWEEP_FLOW_COUNTS = (10_000, 50_000, 200_000)
IDLE_SWEEPS = 10


def sec57_params() -> IPDParams:
    return IPDParams(n_cidr_factor_v4=0.05, n_cidr_factor_v6=0.05)


def build_flows(count: int, sources: int = 4096) -> list[FlowRecord]:
    """The §5.7 workload: ``sources`` distinct /28s, 8 rotating ingresses."""
    base = parse_ip("11.0.0.0")[0]
    return [
        FlowRecord(
            timestamp=index * 0.001,
            src_ip=base + (index % sources) * 16,
            version=IPV4,
            ingress=INGRESSES[(index // 512) % len(INGRESSES)],
        )
        for index in range(count)
    ]


def best_of(func, repeats: int) -> float:
    """Run ``func`` ``repeats`` times, return the fastest wall time."""
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        func()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def calibrate() -> float:
    """Machine-speed reference: a fixed mask-and-group loop (ops/s).

    The regression gate divides measured rates by this so a slower CI
    runner does not read as an algorithmic regression.
    """
    ops = 300_000

    def loop():
        grouped: dict[int, float] = {}
        get = grouped.get
        for value in range(ops):
            key = (value * 2654435761) & 0xFFFFFFF0
            grouped[key] = get(key, 0.0) + 1.0

    return ops / best_of(loop, repeats=3)


def bench_ingest(flows: list[FlowRecord], repeats: int) -> dict:
    batches = list(iter_flow_batches(flows, batch_size=65536))

    def per_flow():
        ipd = IPD(sec57_params())
        ingest = ipd.ingest
        for flow in flows:
            ingest(flow)

    def ingest_many():
        IPD(sec57_params()).ingest_many(flows)

    def ingest_batch():
        ipd = IPD(sec57_params())
        for batch in batches:
            ipd.ingest_batch(batch)

    results = {}
    for name, func in (
        ("per_flow", per_flow),
        ("ingest_many", ingest_many),
        ("ingest_batch_prebuilt", ingest_batch),
    ):
        rate = len(flows) / best_of(func, repeats)
        results[name] = {
            "flows_per_second": round(rate),
            "speedup_vs_seed": round(rate / SEED_FLOWS_PER_SECOND, 2),
        }
        print(f"  ingest/{name:<22} {rate:>12,.0f} flows/s "
              f"({rate / SEED_FLOWS_PER_SECOND:.2f}x seed)")
    return results


def bench_batch_sizes(flows: list[FlowRecord], repeats: int) -> list[dict]:
    results = []
    for size in BATCH_SIZES:
        batches = list(iter_flow_batches(flows, batch_size=size))

        def ingest_all():
            ipd = IPD(sec57_params())
            for batch in batches:
                ipd.ingest_batch(batch)

        rate = len(flows) / best_of(ingest_all, repeats)
        results.append({"batch_size": size, "flows_per_second": round(rate)})
        print(f"  batch_size={size:<6} {rate:>12,.0f} flows/s")
    return results


def bench_sweep() -> list[dict]:
    results = []
    for count in SWEEP_FLOW_COUNTS:
        flows = build_flows(count, sources=50_000)
        ipd = IPD(sec57_params())
        ipd.ingest_many(flows)
        now = flows[-1].timestamp + 0.001

        start = time.perf_counter()
        active = ipd.sweep(now)
        active_ms = (time.perf_counter() - start) * 1000.0

        # Let the split cascade settle: contested ranges keep splitting
        # (real Stage-2 work) until they hit cidr_max and go quiet.
        settle_sweeps = 0
        step = 0
        report = active
        while report.splits or report.joins or report.prunes:
            step += 1
            settle_sweeps += 1
            report = ipd.sweep(now + step * 0.01)
            if settle_sweeps >= 100:
                break

        idle_times = []
        visited = 0
        for _ in range(IDLE_SWEEPS):
            step += 1
            start = time.perf_counter()
            report = ipd.sweep(now + step * 0.01)
            idle_times.append((time.perf_counter() - start) * 1000.0)
            visited = report.visited
        idle_ms = statistics.median(idle_times)

        results.append({
            "flows": count,
            "state_size": ipd.state_size(),
            "leaf_count": ipd.leaf_count(),
            "active_sweep_ms": round(active_ms, 3),
            "active_visited": active.visited,
            "settle_sweeps": settle_sweeps,
            "idle_sweep_ms": round(idle_ms, 4),
            "idle_visited": visited,
        })
        print(f"  sweep flows={count:<7} state={ipd.state_size():<6} "
              f"leaves={ipd.leaf_count():<5} active={active_ms:.2f} ms "
              f"settle={settle_sweeps} idle={idle_ms:.4f} ms "
              f"(visited {visited})")
    return results


def build_spread_flows(count: int) -> list[FlowRecord]:
    """The sec57 workload with sources spread over the whole v4 space.

    Knuth-hash the index so every depth-3 subtree carries ~1/8 of the
    traffic — the shape address-space sharding is designed for.
    """
    return [
        FlowRecord(
            timestamp=index * 0.001,
            src_ip=(index * 2654435761) & 0xFFFFFFF0,
            version=IPV4,
            ingress=INGRESSES[(index // 512) % len(INGRESSES)],
        )
        for index in range(count)
    ]


def bench_sharded_mp(flow_count: int, repeats: int,
                     shards: int = 8) -> dict:
    import os

    from repro.runtime import ShardedIPD

    cores = os.cpu_count() or 1
    workers = min(4, cores)
    # thresholds low enough that the split cascade reaches the shard
    # depth with this flow budget (sec57's 0.05 would keep /0 whole)
    params = IPDParams(n_cidr_factor_v4=1e-5, n_cidr_factor_v6=1e-5)
    flows = build_spread_flows(flow_count)
    batches = list(iter_flow_batches(flows, batch_size=8192))
    sweep_at = flows[-1].timestamp + 0.001

    def warm(engine) -> None:
        # steady state: leaves exist, the shard split is fully delegated
        for batch in batches:
            engine.ingest_batch(batch)
        for step in range(6):
            engine.sweep(sweep_at + step * 0.01)

    single = IPD(params)
    warm(single)

    def run_single():
        for batch in batches:
            single.ingest_batch(batch)

    single_rate = len(flows) / best_of(run_single, repeats)

    engine = ShardedIPD(params, shards=shards, executor="mp", workers=workers)
    warm(engine)
    engine.state_size()  # metrics round trip: workers fully drained

    def run_mp():
        for batch in batches:
            engine.ingest_batch(batch)
        # FIFO barrier: the metrics reply implies every feed was applied
        engine.state_size()

    mp_rate = len(flows) / best_of(run_mp, repeats)
    delegated = sum(len(indices) for indices in engine._delegated.values())
    engine.close()

    ratio = mp_rate / single_rate if single_rate else 0.0
    result = {
        "cores": cores,
        "workers": workers,
        "shards": shards,
        "delegated_shards": delegated,
        "single_engine_flows_per_second": round(single_rate),
        "mp_flows_per_second": round(mp_rate),
        "mp_vs_single_ratio": round(ratio, 2),
        "target": "mp >= 2x single-engine ingest_batch on >= 4 cores",
        "target_applicable": cores >= 4,
        "target_met": cores >= 4 and ratio >= 2.0,
    }
    print(f"  sharded_mp cores={cores} workers={workers} shards={shards} "
          f"single={single_rate:,.0f} mp={mp_rate:,.0f} flows/s "
          f"({ratio:.2f}x; target applies on >= 4 cores)")
    return result


def bench_checkpoint(flow_count: int, repeats: int) -> dict:
    import tempfile

    from repro.core.algorithm import IPD as _IPD
    from repro.runtime import Checkpoint, CheckpointStore

    params = IPDParams(n_cidr_factor_v4=1e-5, n_cidr_factor_v6=1e-5)
    flows = build_spread_flows(flow_count)
    engine = _IPD(params)
    engine.ingest_many(flows)
    now = flows[-1].timestamp + 0.001
    for step in range(6):  # settle the split cascade
        engine.sweep(now + step * 0.01)
    leaves = engine.leaf_count()
    blob = engine.to_bytes()

    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore(tmp, retain=1)

        def save():
            store.save(Checkpoint(
                when=now, flows_processed=len(flows), next_sweep=now + 60.0,
                next_snapshot=None, sweep_count=1,
                engine_blob=engine.to_bytes(),
            ))

        save_seconds = best_of(save, repeats)
        on_disk = store.list()[-1].stat().st_size

        path = store.list()[-1]

        def restore():
            _IPD.from_bytes(store.load(path).engine_blob)

        restore_seconds = best_of(restore, repeats)

    result = {
        "leaves": leaves,
        "state_size": engine.state_size(),
        "blob_bytes": len(blob),
        "on_disk_bytes": on_disk,
        "bytes_per_leaf": round(on_disk / leaves, 1) if leaves else 0.0,
        "bytes_per_source": (
            round(on_disk / engine.state_size(), 1)
            if engine.state_size() else 0.0
        ),
        "save_ms": round(save_seconds * 1000.0, 2),
        "restore_ms": round(restore_seconds * 1000.0, 2),
        "save_leaves_per_second": round(leaves / save_seconds),
        "restore_leaves_per_second": round(leaves / restore_seconds),
    }
    print(f"  checkpoint leaves={leaves:,} disk={on_disk:,} B "
          f"({result['bytes_per_leaf']} B/leaf) "
          f"save={result['save_ms']} ms restore={result['restore_ms']} ms")
    return result


def bench_query(flow_count: int, repeats: int,
                ranges: int = 4096) -> dict:
    """The serving plane: compiled-LPM lookups and epoch hot-swap.

    Measures compile cost, bulk and per-call lookup throughput through
    an installed epoch, per-call tail latency, and the swap pause — the
    longest single :meth:`IngressLookupService.install` observed while
    alternating two prebuilt epochs (the zero-pause claim, quantified).
    Recorded, not gated.
    """
    from repro.core.lpm import CompiledLPM
    from repro.core.output import IPDRecord
    from repro.core.snapshot import Snapshot
    from repro.core.iputil import Prefix
    from repro.serving import IngressLookupService, ServingEpoch

    base = parse_ip("11.0.0.0")[0]
    records = [
        IPDRecord(
            timestamp=300.0,
            range=Prefix(base + index * 16, 28, IPV4),
            ingress=INGRESSES[index % len(INGRESSES)],
            s_ingress=0.97,
            s_ipcount=64,
            n_cidr=4,
            candidates=(),
            classified=True,
        )
        for index in range(ranges)
    ]
    compile_seconds = best_of(
        lambda: CompiledLPM.from_records(records), repeats
    )
    table = CompiledLPM.from_records(records)
    blob_bytes = len(table.to_bytes())

    # query mix: ~87% hits spread across every range, rest misses
    queries = [
        (base + ((index * 2654435761) % (ranges * 16 * 8 // 7)))
        & 0xFFFFFFFF
        for index in range(max(flow_count, 10_000))
    ]

    service = IngressLookupService()
    snapshot = Snapshot(300.0, records, epoch=1, source="bench")
    service.install_snapshot(snapshot)

    bulk_seconds = best_of(lambda: table.lookup_many(queries), repeats)
    bulk_rate = len(queries) / bulk_seconds
    service_seconds = best_of(
        lambda: service.lookup_many(queries), repeats
    )
    service_rate = len(queries) / service_seconds

    # per-call latency distribution through the service hot path
    samples = queries[:20_000]
    lookup = service.lookup
    latencies = []
    for value in samples:
        start = time.perf_counter()
        lookup(value)
        latencies.append(time.perf_counter() - start)
    latencies.sort()
    p50_us = latencies[len(latencies) // 2] * 1e6
    p99_us = latencies[(len(latencies) * 99) // 100] * 1e6

    # swap pause: alternate two fully built epochs under measurement
    other = ServingEpoch.from_snapshot(
        Snapshot(600.0, records, epoch=2, source="bench")
    )
    first = service.current
    installs = 1000
    worst = 0.0
    for index in range(installs):
        epoch = other if index & 1 else first
        start = time.perf_counter()
        service.install(epoch)
        pause = time.perf_counter() - start
        if pause > worst:
            worst = pause

    result = {
        "rows": len(table),
        "compile_ms": round(compile_seconds * 1000.0, 3),
        "blob_bytes": blob_bytes,
        "queries": len(queries),
        "bulk_lookups_per_second": round(bulk_rate),
        "service_lookups_per_second": round(service_rate),
        "p50_latency_us": round(p50_us, 3),
        "p99_latency_us": round(p99_us, 3),
        "swap_installs": installs,
        "swap_pause_max_us": round(worst * 1e6, 3),
        "note": "recorded, not gated: the swap pause bounds reader "
                "stall during an epoch install (one reference store)",
    }
    print(f"  query compile={result['compile_ms']} ms "
          f"({len(table)} rows, blob {blob_bytes:,} B)")
    print(f"  query bulk={bulk_rate:,.0f} service={service_rate:,.0f} "
          f"lookups/s  p50={p50_us:.2f} us  p99={p99_us:.2f} us")
    print(f"  query swap pause max={result['swap_pause_max_us']} us "
          f"over {installs} installs")
    return result


def bench_admission(flow_count: int, repeats: int) -> dict:
    """The admission front-end: gate cost, holdback, mode throughput.

    Two workload shapes bracket the gate's behaviour: the uniform §5.7
    workload (4096 repeating sources — every group promotes on its
    first batch, so exact/lossy pay only the elephant-set probe) and a
    spoofed-random-source workload (every flow a distinct source —
    nothing promotes, exact buffers everything, lossy refuses the trie
    ingest entirely).  The lossy spoofed rate is the headline: it must
    beat the committed prebuilt-batch baseline, which was measured with
    no gate on the *friendly* uniform workload.
    """
    from repro.core.admission import (
        AdmissionConfig,
        AdmissionController,
        auto_sketch_width,
    )

    workloads = {
        "uniform": build_flows(flow_count),
        "spoofed": build_spread_flows(flow_count),
    }
    # size the sketch for the workload's distinct-source count (the
    # default 2^14 width saturates against 100k spoofed sources and the
    # controller would degrade to admit-everything — correct behaviour,
    # but it would measure the fallback instead of the gate); the
    # spoofed workload has one distinct source per flow
    width = auto_sketch_width(flow_count)
    modes: dict[str, "AdmissionConfig | None"] = {
        "off": None,
        "exact": AdmissionConfig(mode="exact", width=width),
        "lossy": AdmissionConfig(mode="lossy", width=width),
    }

    # per-decision admit cost, measured through filter_groups directly:
    # distinct keys exercise the count-min update path; a promoted herd
    # exercises the known-elephant fast path.
    decisions = 50_000
    keys = [((index * 2654435761) & 0xFFFFFFF0) for index in range(decisions)]
    group_dicts = [
        {key: [{0: 1.0}, 0.0, 0.0] for key in keys[start:start + 4096]}
        for start in range(0, decisions, 4096)
    ]

    def admit_sketch_path():
        controller = AdmissionController(
            AdmissionConfig(mode="lossy", width=width)
        )
        filter_groups = controller.filter_groups
        for groups in group_dicts:
            filter_groups(4, groups)

    sketch_seconds = best_of(admit_sketch_path, repeats)

    herd_controller = AdmissionController(
        AdmissionConfig(mode="lossy", promote_weight=0.5, width=width)
    )
    for groups in group_dicts:  # weight 1.0 >= 0.5: promotes every key
        herd_controller.filter_groups(4, groups)

    def admit_elephant_path():
        filter_groups = herd_controller.filter_groups
        for groups in group_dicts:
            filter_groups(4, groups)

    elephant_seconds = best_of(admit_elephant_path, repeats)

    result: dict = {
        "admit_ns_sketch_path": round(sketch_seconds / decisions * 1e9, 1),
        "admit_ns_elephant_path": round(elephant_seconds / decisions * 1e9, 1),
        "note": "recorded, not gated except lossy_spoofed_beats_baseline: "
                "lossy must out-ingest the ungated prebuilt-batch baseline "
                "on hostile traffic",
    }
    print(f"  admission admit cost sketch={result['admit_ns_sketch_path']} "
          f"ns/decision  elephant={result['admit_ns_elephant_path']} "
          f"ns/decision")

    for workload_name, flows in workloads.items():
        batches = list(iter_flow_batches(flows, batch_size=65536))
        rates = {}
        for mode_name, config in modes.items():
            def ingest_all():
                ipd = IPD(sec57_params(), admission=config)
                for batch in batches:
                    ipd.ingest_batch(batch)

            rates[mode_name] = len(flows) / best_of(ingest_all, repeats)

        # holdback ratio: share of exact-mode gate decisions that
        # buffered the group instead of passing it to the trie
        probe = IPD(
            sec57_params(),
            admission=AdmissionConfig(mode="exact", width=width),
        )
        for batch in batches:
            probe.ingest_batch(batch)
        assert probe.admission is not None
        admitted, held, dropped, promoted = probe.admission.take_counters()
        total = admitted + held + dropped
        holdback = held / total if total else 0.0

        result[workload_name] = {
            "off_flows_per_second": round(rates["off"]),
            "exact_flows_per_second": round(rates["exact"]),
            "lossy_flows_per_second": round(rates["lossy"]),
            "exact_vs_off_ratio": round(rates["exact"] / rates["off"], 2),
            "lossy_vs_off_ratio": round(rates["lossy"] / rates["off"], 2),
            "holdback_ratio": round(holdback, 4),
            "promoted_groups": promoted,
        }
        print(f"  admission {workload_name:<8} off={rates['off']:>12,.0f} "
              f"exact={rates['exact']:>12,.0f} "
              f"lossy={rates['lossy']:>12,.0f} flows/s  "
              f"holdback={holdback:.2%}")

    lossy_spoofed = result["spoofed"]["lossy_flows_per_second"]
    result["baseline_prebuilt_flows_per_second"] = SEED_BATCH_FLOWS_PER_SECOND
    result["lossy_spoofed_beats_baseline"] = (
        lossy_spoofed > SEED_BATCH_FLOWS_PER_SECOND
    )
    print(f"  admission lossy spoofed {lossy_spoofed:,.0f} flows/s vs "
          f"ungated prebuilt baseline {SEED_BATCH_FLOWS_PER_SECOND:,} "
          f"({'beats' if result['lossy_spoofed_beats_baseline'] else 'BELOW'})")
    return result


def bench_adversarial(repeats: int) -> dict:
    """The adversarial scenario pack (EXPERIMENTS.md rows, DESIGN.md §14).

    One downsized scenario per family, each with its pass criterion:

    * **flood** — spoofed-source ingest throughput off/exact/lossy over
      the attack-window slice of the flood trace (lossy must beat the
      benign twin's prebuilt-batch rate measured in the same run —
      frozen cross-machine constants would make the gate meaningless),
      peak benign-range pollution with and without lossy admission, and
      the state blow-up factor over the attack-free baseline twin.
    * **policing** — clipped elephants must keep their ingress
      classification through the clip window.
    * **flap** — the survival curve over flap periods bracketing ``t``:
      stable again by ~16t, fully unstable at period = ``t`` itself.
    """
    from repro.analysis import (
        clip_survival,
        flap_survival,
        peak_pollution,
        state_blowup,
    )
    from repro.core.admission import AdmissionConfig
    from repro.core.params import IPDParams
    from repro.workloads import adversarial_scenario

    # factor-0.01 pairing for the downsized flow volume (DESIGN.md §5)
    params = IPDParams(
        n_cidr_factor_v4=0.01, n_cidr_factor_v6=0.01, drop_threshold=0.25
    )
    result: dict = {
        "note": "recorded, not throughput-gated; the per-family pass "
                "criteria are asserted by the CI adversarial smoke step",
    }

    # --- spoofed flood ----------------------------------------------------
    scenario = adversarial_scenario(
        "flood-uniform",
        duration_hours=1.0,
        flows_per_bucket_peak=800,
        params=params,
    )
    truth = scenario.ground_truth
    flows = list(scenario.generator().flows())
    # rate the hostile slice: outside the window the trace is benign and
    # would dilute the throughput question the gate exists to answer
    lo, hi = truth.attack_window
    window = [flow for flow in flows if lo <= flow.timestamp < hi]
    batches = list(iter_flow_batches(window, batch_size=65536))
    lossy = AdmissionConfig.for_cardinality(truth.expected_sources, mode="lossy")
    modes: dict = {
        "off": None,
        "exact": AdmissionConfig.for_cardinality(
            truth.expected_sources, mode="exact"
        ),
        "lossy": lossy,
    }
    rates = {}
    for mode_name, config in modes.items():
        def ingest_all():
            ipd = IPD(params, admission=config)
            for batch in batches:
                ipd.ingest_batch(batch)

        rates[mode_name] = len(window) / best_of(ingest_all, repeats)

    # same-run benign yardstick: the attack-free twin ingested ungated
    # from prebuilt batches, same params, same machine, same moment
    benign_flows = list(scenario.baseline().generator().flows())
    benign_batches = list(iter_flow_batches(benign_flows, batch_size=65536))

    def ingest_benign():
        ipd = IPD(params)
        for batch in benign_batches:
            ipd.ingest_batch(batch)

    benign_rate = len(benign_flows) / best_of(ingest_benign, repeats)

    __, attacked = scenario.run(snapshot_seconds=300.0, keep_flows=False)
    __, gated = scenario.run(
        snapshot_seconds=300.0, keep_flows=False, admission=lossy
    )
    __, baseline = scenario.baseline().run(
        snapshot_seconds=300.0, keep_flows=False
    )
    pollution_off = peak_pollution(attacked, truth)
    pollution_lossy = peak_pollution(gated, truth)
    blowup = state_blowup(baseline, attacked)
    blowup_lossy = state_blowup(baseline, gated)
    result["flood"] = {
        "flows": len(flows),
        "window_flows": len(window),
        "flood_flows": truth.notes["total_flood_flows"],
        "expected_sources": truth.expected_sources,
        "sketch_width": lossy.width,
        "off_flows_per_second": round(rates["off"]),
        "exact_flows_per_second": round(rates["exact"]),
        "lossy_flows_per_second": round(rates["lossy"]),
        "benign_prebuilt_flows_per_second": round(benign_rate),
        "seed_prebuilt_flows_per_second": SEED_BATCH_FLOWS_PER_SECOND,
        "lossy_beats_prebuilt_baseline": rates["lossy"] > benign_rate,
        "peak_pollution_rate_off": round(pollution_off.pollution_rate, 4),
        "peak_pollution_rate_lossy": round(pollution_lossy.pollution_rate, 4),
        "state_blowup_off": round(blowup.factor, 2),
        "state_blowup_lossy": round(blowup_lossy.factor, 2),
    }
    print(f"  adversarial flood   off={rates['off']:>12,.0f} "
          f"exact={rates['exact']:>12,.0f} "
          f"lossy={rates['lossy']:>12,.0f} flows/s  "
          f"benign prebuilt={benign_rate:>12,.0f}")
    print(f"  adversarial flood   pollution off={pollution_off.pollution_rate:.2%} "
          f"lossy={pollution_lossy.pollution_rate:.2%}  "
          f"blowup off={blowup.factor:.2f}x lossy={blowup_lossy.factor:.2f}x")

    # --- policing clip ----------------------------------------------------
    scenario = adversarial_scenario(
        "policing-clip",
        duration_hours=1.5,
        flows_per_bucket_peak=1200,
        params=params,
    )
    __, clipped_run = scenario.run(snapshot_seconds=300.0, keep_flows=False)
    survivals = clip_survival(clipped_run, scenario.ground_truth)
    result["policing"] = {
        "targets": len(survivals),
        "survived": sum(1 for s in survivals if s.survived),
        "all_survived": all(s.survived for s in survivals),
        "per_prefix": [
            {
                "prefix": s.prefix,
                "classified_share": round(s.classified_share, 3),
                "ingress_changes": s.ingress_changes,
                "survived": s.survived,
            }
            for s in survivals
        ],
    }
    print(f"  adversarial policing {result['policing']['survived']}"
          f"/{result['policing']['targets']} clipped elephants survived")

    # --- route-flap storm -------------------------------------------------
    scenario = adversarial_scenario(
        "flap-storm",
        duration_hours=2.0,
        flows_per_bucket_peak=1200,
        params=params,
    )
    __, flap_run = scenario.run(snapshot_seconds=300.0, keep_flows=False)
    curve = flap_survival(flap_run, scenario.ground_truth)
    result["flap"] = {
        "curve": [
            {
                "period_seconds": point.period_seconds,
                "classified_share": round(point.classified_share, 3),
                "ingresses_seen": len(point.ingresses_seen),
            }
            for point in curve
        ],
        # stability returns around 16t (960 s); the longest period has
        # the fewest storm snapshots, so gate on the best long point
        "stable_at_long_periods": any(
            point.period_seconds >= 960.0 and point.stable(0.75)
            for point in curve
        ),
        "unstable_at_t": any(
            point.period_seconds == 60.0 and point.classified_share <= 0.25
            for point in curve
        ),
    }
    for point in curve:
        print(f"  adversarial flap    period={point.period_seconds:>6.0f}s "
              f"classified={point.classified_share:.2%} "
              f"ingresses={len(point.ingresses_seen)}")
    return result


#: benchmark group name -> needs the sec57 flow list
GROUPS = (
    "ingest",
    "batch_size_scaling",
    "sweep",
    "sharded_mp",
    "checkpoint",
    "query",
    "admission",
    "adversarial",
)


def run_benchmarks(flow_count: int, repeats: int,
                   only: "set[str] | None" = None) -> dict:
    selected = set(GROUPS) if not only else only
    unknown = selected - set(GROUPS)
    if unknown:
        raise ValueError(f"unknown benchmark group(s): {sorted(unknown)}")
    print(f"sec57 workload: {flow_count:,} flows, best of {repeats}; "
          f"groups: {', '.join(g for g in GROUPS if g in selected)}")
    flows = (
        build_flows(flow_count)
        if selected & {"ingest", "batch_size_scaling"}
        else []
    )
    print("calibrating machine speed...")
    calibration = calibrate()
    print(f"  calibration {calibration:,.0f} ops/s")
    results: dict = {
        "meta": {
            "workload": "sec57",
            "flows": flow_count,
            "repeats": repeats,
            "python": sys.version.split()[0],
        },
        "calibration_ops_per_second": round(calibration),
        "seed_flows_per_second": SEED_FLOWS_PER_SECOND,
    }
    if "ingest" in selected:
        results["ingest"] = bench_ingest(flows, repeats)
    if "batch_size_scaling" in selected:
        results["batch_size_scaling"] = bench_batch_sizes(flows, repeats)
    if "sweep" in selected:
        results["sweep"] = bench_sweep()
    if "sharded_mp" in selected:
        results["sharded_mp"] = bench_sharded_mp(flow_count, repeats)
    if "checkpoint" in selected:
        results["checkpoint"] = bench_checkpoint(flow_count, repeats)
    if "query" in selected:
        results["query"] = bench_query(flow_count, repeats)
    if "admission" in selected:
        results["admission"] = bench_admission(flow_count, repeats)
    if "adversarial" in selected:
        results["adversarial"] = bench_adversarial(repeats)
    return results


def check_against_baseline(results: dict, baseline: dict,
                           tolerance: float) -> int:
    """Exit status 0 if no ingest path regressed beyond ``tolerance``."""
    scale = (results["calibration_ops_per_second"]
             / baseline["calibration_ops_per_second"])
    print(f"\nregression check (tolerance {tolerance:.0%}, "
          f"machine-speed scale {scale:.2f}):")
    if results["meta"]["flows"] != baseline["meta"]["flows"]:
        print(f"  note: flow budgets differ "
              f"({results['meta']['flows']:,} vs baseline "
              f"{baseline['meta']['flows']:,})")
    failures = 0
    for name, measured in results["ingest"].items():
        base = baseline["ingest"].get(name)
        if base is None:
            print(f"  {name}: not in baseline, skipped")
            continue
        floor = (1.0 - tolerance) * base["flows_per_second"] * scale
        rate = measured["flows_per_second"]
        status = "ok" if rate >= floor else "REGRESSED"
        print(f"  {name:<22} {rate:>12,.0f} flows/s  "
              f"(floor {floor:,.0f})  {status}")
        if rate < floor:
            failures += 1
    return 1 if failures else 0


def _assert_hot_path_is_free() -> None:
    """Refuse to benchmark if the @hot_path marker grows a wrapper.

    The lint marker on ingest/sweep must stay a zero-cost identity
    decorator: every number this harness records is measured *through*
    it, so a wrapper would silently tax the exact paths being gated.
    """
    from repro.devtools.markers import hot_path

    def probe() -> None:
        pass

    assert hot_path(probe) is probe, (
        "repro.devtools.markers.hot_path must return its argument "
        "unchanged; a wrapping marker would skew every measurement below"
    )
    assert IPD.ingest.__qualname__ == "IPD.ingest", (
        "IPD.ingest is wrapped; the @hot_path marker (or another "
        "decorator) is no longer free on the measured hot paths"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--flows", type=int, default=100_000,
                        help="sec57 workload size (default 100000)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per bench, fastest kept")
    parser.add_argument("--output", type=pathlib.Path, default=None,
                        help="write machine-readable JSON results here")
    parser.add_argument("--check", type=pathlib.Path, default=None,
                        help="baseline JSON to gate against (exit 1 on "
                             "regression)")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression vs baseline "
                             "(default 0.30)")
    parser.add_argument("--only", default=None,
                        help="comma-separated benchmark groups to run "
                             f"(default all: {','.join(GROUPS)})")
    args = parser.parse_args(argv)

    only = (
        {name.strip() for name in args.only.split(",") if name.strip()}
        if args.only
        else None
    )
    _assert_hot_path_is_free()
    try:
        results = run_benchmarks(args.flows, args.repeats, only=only)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.check is not None and "ingest" not in results:
        print("error: --check needs the ingest group (drop --only or "
              "include ingest)", file=sys.stderr)
        return 2
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nwrote {args.output}")

    if args.check is not None:
        try:
            baseline = json.loads(args.check.read_text())
        except FileNotFoundError:
            print(f"error: baseline not found: {args.check}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"error: baseline is not valid JSON: {exc}", file=sys.stderr)
            return 2
        return check_against_baseline(results, baseline, args.tolerance)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
