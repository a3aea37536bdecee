"""One replay repeat, source opened → sinks closed, in its own process.

``prepare`` is the set-up of a workload: generate the trace from the
seed, write the flow CSV where the workload reads one, and replay the
trace through the paper-literal ``ReferenceIPD`` (or, for the lossy
workload, through one reference pipeline run) to fix what every repeat
must reproduce.  ``replay_once`` runs in a forked child: it builds the
pipeline from the public entry points, times the run, and compares every
sweep report and the final snapshot with the reference.  The traced
variant swaps in the proxies of :mod:`spans`.
"""

from __future__ import annotations

import gc
import hashlib
import io
import multiprocessing
import os
import resource
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional

from repro.analysis.adversarial import peak_pollution
from repro.core.output import IPDRecord, write_records_csv
from repro.netflow.records import read_flows_csv_batched, write_flows_csv
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.pipeline import Pipeline
from repro.runtime.result import RunResult
from repro.runtime.sinks import CSVSink, MemorySink
from repro.testkit.oracle import ORACLE_REPORT_FIELDS, replay_reference

from machine import pin
from spans import (
    TimedCheckpointStore,
    TimedEngine,
    TimedSink,
    TimedSource,
    Tracer,
)
from workloads import BATCH_ROWS, Trace, Workload, build_trace

__all__ = [
    "Prepared",
    "prepare",
    "records_digest",
    "replay_once",
    "run_in_child",
]

SNAPSHOT_SECONDS = 300.0
_ADMISSION_FIELDS = (
    "admission_admitted", "admission_held", "admission_dropped",
    "admission_promoted",
)


def records_digest(records: list[IPDRecord]) -> str:
    """SHA-256 over the records, floats at 12 significant digits.

    Not over the Table-3 CSV, which rounds shares to three decimals; and
    not over ``repr``: the engine and the oracle sum a bundle's decayed
    counters in different orders, so the last ulp may differ (README.md,
    first-run findings).  Twelve digits still pin every count and share.
    """
    lines = []
    for record in records:
        candidates = ";".join(
            f"{point}={weight:.12g}" for point, weight in record.candidates
        )
        lines.append(
            f"{record.timestamp:.12g}|{record.range}|{record.ingress}|"
            f"{record.s_ingress:.12g}|{record.s_ipcount:.12g}|"
            f"{record.n_cidr:.12g}|{candidates}|{int(record.classified)}"
        )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _sweep_keys(result: RunResult, fields: tuple[str, ...]) -> list[tuple]:
    return [
        tuple(getattr(report, name) for name in fields)
        for report in result.sweeps
    ]


def _records_csv(records: list[IPDRecord]) -> bytes:
    # newline="" as CSVSink opens its file, so the bytes are comparable
    stream = io.StringIO(newline="")
    write_records_csv(records, stream)
    return stream.getvalue().encode()


@dataclass
class Prepared:
    """Everything one workload's repeats share (inherited over fork)."""

    workload: Workload
    trace: Trace
    workdir: Path
    #: sweep-report fields every repeat must reproduce, and their values
    sweep_fields: tuple[str, ...]
    sweep_keys: list[tuple]
    final_digest: str
    #: csv_replay only: the flow file read, the bytes CSVSink must write
    flows_csv: Optional[Path]
    expected_csv: Optional[bytes]
    #: final and mid-run records, what the query stage serves
    final_records: list[IPDRecord]
    mid_records: list[IPDRecord]
    #: seconds the reference replay took (``oracle.flows_per_s``)
    reference_seconds: float


def _pipeline(workload: Workload, trace: Trace, **kwargs: Any) -> Pipeline:
    return Pipeline(
        trace.params,
        shards=workload.shards,
        executor=workload.executor,
        workers=(
            min(2, os.cpu_count() or 1) if workload.executor == "mp" else None
        ),
        snapshot_seconds=SNAPSHOT_SECONDS,
        admission=workload.admission_config(trace),
        **kwargs,
    )


def prepare(
    workload: Workload, seed: int, scale: float, workdir: Path
) -> Prepared:
    """Set-up: the trace, its file, and the reference every repeat meets."""
    workdir.mkdir(parents=True, exist_ok=True)
    trace = build_trace(workload.trace, seed, scale)
    flows_csv = None
    if workload.source == "csv":
        flows_csv = workdir / "flows.csv"
        with open(flows_csv, "w") as stream:
            write_flows_csv(trace.iter_flows(), stream)
    started = time.perf_counter()
    if workload.exact:
        reference = replay_reference(
            trace.iter_flows(),
            trace.params,
            snapshot_seconds=SNAPSHOT_SECONDS,
            include_unclassified=False,
        )
        sweep_fields = ORACLE_REPORT_FIELDS
    else:
        # lossy admission has no oracle: one pipeline run is the
        # reference, and every repeat must repeat it exactly, decision
        # counters included
        with _pipeline(workload, trace) as pipeline:
            reference = pipeline.run(trace.batches)
        sweep_fields = ORACLE_REPORT_FIELDS + _ADMISSION_FIELDS
    reference_seconds = time.perf_counter() - started
    final = reference.final_snapshot()
    times = reference.snapshot_times()
    mid = reference.snapshots[times[len(times) // 2]] if times else []
    return Prepared(
        workload=workload,
        trace=trace,
        workdir=workdir,
        sweep_fields=sweep_fields,
        sweep_keys=_sweep_keys(reference, sweep_fields),
        final_digest=records_digest(final),
        flows_csv=flows_csv,
        expected_csv=_records_csv(final) if flows_csv is not None else None,
        final_records=final,
        mid_records=mid,
        reference_seconds=reference_seconds,
    )


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def replay_once(
    prepared: Prepared,
    repeat: int,
    traced: bool = False,
    corrupt_digest: bool = False,
    affinity: Optional[list[int]] = None,
    **overrides: Any,
) -> dict[str, Any]:
    """Run the workload's pipeline once and check it (child process).

    *overrides* replace Workload fields for the per-layer comparison
    rows (``executor="serial"``, ``shards=1``) and may carry a
    ``transport=`` for the mp transport rows; the end-to-end runs pass
    none.  *corrupt_digest* flips one byte of the expected final digest
    (the self-test that a mismatch fails the run).  *affinity* widens
    the CPU set inherited from the (pinned) parent, for the mp workload.
    """
    if affinity is not None:
        pin(affinity)
    transport = overrides.pop("transport", None)
    engine_kwargs = {"transport": transport} if transport is not None else {}
    workload = replace(prepared.workload, **overrides)
    trace = prepared.trace
    rundir = prepared.workdir / f"run-{os.getpid()}-{repeat}"
    rundir.mkdir()
    tracer = Tracer(f"{workload.name}/{repeat}") if traced else None
    state_sizes: list[int] = []
    sweeps_seen: list[float] = []

    sink: Any = (
        CSVSink(str(rundir / "records.csv"))
        if workload.source == "csv"
        else MemorySink()
    )
    run_kwargs: dict[str, Any] = {}
    if workload.checkpoint_every is not None:
        run_kwargs["checkpoint_every"] = workload.checkpoint_every
        run_kwargs["checkpoint_store"] = (
            TimedCheckpointStore(rundir / "ckpt", tracer)
            if tracer is not None
            else CheckpointStore(rundir / "ckpt")
        )

    def sample_state_size(report: Any, engine: Any) -> None:
        # O(leaves) per call, so every fifth sweep only, and under its
        # own span so the walk is not booked as pipeline self time
        if len(sweeps_seen) % 5 == 0:
            with tracer.span("ledger.state_size"):
                state_sizes.append(engine.state_size())
        sweeps_seen.append(report.timestamp)

    if tracer is None:
        pipeline = _pipeline(
            workload, trace, sinks=[sink], **engine_kwargs, **run_kwargs
        )
    else:
        # the inner pipeline only builds the engine the public way; the
        # outer one drives it through the proxy
        inner = _pipeline(workload, trace, **engine_kwargs)
        layer = "algorithm" if workload.shards == 1 else "sharding"
        pipeline = Pipeline(
            engine=TimedEngine(inner.engine, tracer, layer),
            snapshot_seconds=SNAPSHOT_SECONDS,
            sinks=[TimedSink(sink, tracer)],
            on_sweep=sample_state_size,
            **run_kwargs,
        )

    gc.collect()
    # what the child inherited over fork is the benchmark's, not the
    # program's: keep the collector (and copy-on-write) off it
    gc.freeze()
    cpu_self = _cpu_seconds(resource.RUSAGE_SELF)
    cpu_children = _cpu_seconds(resource.RUSAGE_CHILDREN)
    with tracer.span("pipeline.run") if tracer is not None else nullcontext():
        started = time.perf_counter()
        if workload.source == "csv":
            with open(prepared.flows_csv) as stream:
                source: Any = read_flows_csv_batched(stream, BATCH_ROWS)
                if tracer is not None:
                    source = TimedSource(source, tracer, "records.decode")
                result = pipeline.run(source)
        else:
            source = iter(trace.batches)
            if tracer is not None:
                source = TimedSource(source, tracer, "source.next")
            result = pipeline.run(source)
        pipeline.close()
        wall = time.perf_counter() - started
    cpu_self = _cpu_seconds(resource.RUSAGE_SELF) - cpu_self
    cpu_children = _cpu_seconds(resource.RUSAGE_CHILDREN) - cpu_children
    maxrss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    # -- correctness gate: flows, every sweep, the final snapshot --------
    errors: list[str] = []
    sweeps = _sweep_keys(result, prepared.sweep_fields)
    attempted = trace.flows + len(prepared.sweep_keys) + 1
    failed = abs(trace.flows - result.flows_processed)
    if failed:
        errors.append(
            f"processed {result.flows_processed} of {trace.flows} flows"
        )
    bad_sweeps = sum(
        1 for got, want in zip(sweeps, prepared.sweep_keys) if got != want
    ) + abs(len(sweeps) - len(prepared.sweep_keys))
    if bad_sweeps:
        errors.append(f"{bad_sweeps} sweep report(s) differ from the reference")
    failed += bad_sweeps
    final = result.final_snapshot()
    expected_digest = prepared.final_digest
    if corrupt_digest:
        expected_digest = (
            ("1" if expected_digest[0] == "0" else "0") + expected_digest[1:]
        )
    final_ok = records_digest(final) == expected_digest
    if final_ok and prepared.expected_csv is not None:
        final_ok = (rundir / "records.csv").read_bytes() == prepared.expected_csv
    if final_ok and trace.truth is not None:
        polluted = peak_pollution(result, trace.truth).polluted
        if polluted:
            errors.append(f"{polluted} polluted range(s) under the lossy gate")
            final_ok = False
    if not final_ok:
        errors.append("final snapshot differs from the reference")
        failed += 1

    last = result.sweeps[-1] if result.sweeps else None
    out: dict[str, Any] = {
        "wall_s": wall,
        "flows": result.flows_processed,
        "cpu_self_s": cpu_self,
        "cpu_children_s": cpu_children,
        "maxrss_kb": maxrss_kb,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "final_digest": records_digest(final),
        "counts": {
            "splits": sum(r.splits for r in result.sweeps),
            "joins": sum(r.joins for r in result.sweeps),
            "cache_hit_rate": last.cache_hit_rate if last else 0.0,
            "ranges_final": len(final),
            "leaves_final": last.leaves if last else 0,
            "admitted": sum(r.admission_admitted for r in result.sweeps),
            "held": sum(r.admission_held for r in result.sweeps),
            "dropped": sum(r.admission_dropped for r in result.sweeps),
            "promoted": sum(r.admission_promoted for r in result.sweeps),
            "state_size_peak": max(state_sizes, default=0),
        },
    }
    store = run_kwargs.get("checkpoint_store")
    if store is not None:
        files = store.list()
        out["counts"]["checkpoint_bytes"] = (
            files[-1].stat().st_size if files else 0
        )
    if tracer is not None:
        out["spans"] = tracer.spans
        if workload.shards == 1:
            # the final engine image, input of the restore kernel
            out["engine_blob"] = inner.engine.to_bytes()
    return out


def _child_main(conn: Any, function: Callable[..., Any], args: tuple, kwargs: dict) -> None:
    try:
        conn.send(("ok", function(*args, **kwargs)))
    except BaseException:  # reported to the parent, which raises
        conn.send(("error", traceback.format_exc()))
        raise
    finally:
        conn.close()


def run_in_child(function: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Call *function* in a forked child and return its (pickled) result.

    Fork, not spawn: the parent holds no threads at this point, and the
    child must inherit the prepared trace copy-on-write — re-importing
    and re-loading 200 k flows per repeat would spend the driver's
    per-run time cap on set-up instead of measurement.  The repo's own
    mp executor forks for the same reason.  The child is not daemonic,
    so the mp workload may start its own workers.
    """
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_child_main, args=(child_conn, function, args, kwargs)
    )
    process.start()
    child_conn.close()
    try:
        status, payload = parent_conn.recv()
    except EOFError:
        status, payload = "error", "child exited without a result"
    finally:
        parent_conn.close()
        process.join()
    if status != "ok":
        raise RuntimeError(f"{function.__name__} failed in its child:\n{payload}")
    return payload
