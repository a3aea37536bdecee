#!/usr/bin/env python3
"""The layered perf ledger: one command, six workloads, every layer.

Ledger mode (the command a person runs)::

    python benchmarks/ledger/run.py [--seed N] [--quick] [--out FILE] [--trace-out FILE]

runs all six workloads end to end with tracing off, then a traced pass,
prints every metric by name with its unit, checks every output against
the reference and exits non-zero on any mismatch.

Driver mode (what ``BENCHMARK.json`` names)::

    python benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and ends with one JSON line: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``--compare A.json B.json`` compares two ledger files, or two
comma-separated sets of them (see compare.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Optional, Sequence

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parents[1]
sys.path.insert(0, str(_HERE))
if (_ROOT / "src").is_dir():
    sys.path.insert(0, str(_ROOT / "src"))

try:
    import repro  # noqa: F401  (the program under test)
except ImportError as exc:
    sys.stderr.write(
        f"ledger: cannot import the program under test ({exc}); run from a "
        "checkout that holds src/\n"
    )
    raise SystemExit(2)

import compare  # noqa: E402
from kernels import run_kernels  # noqa: E402
from machine import HOME_CPUS, QUERY_CPU, REPLAY_CPU, Speedometer, pin  # noqa: E402
from metrics import END_TO_END, PER_LAYER, layer_metrics  # noqa: E402
from replay import Prepared, prepare, replay_once, run_in_child  # noqa: E402
from serve import QueryPlan, echo_once, plan_queries, query_once  # noqa: E402
from spans import write_jsonl  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 7
DEFAULT_SECONDS = 6
#: set-up is repeated and its median reported, so one slow disk flush
#: does not read as a set-up regression
_SETUP_ROUNDS = 3
#: least repeats of each stage, by workload family: more of the stage
#: that is the workload's own
_REPLAY_REPEATS = {"replay": 5, "serve": 3}
_QUERY_REPEATS = {"replay": 6, "serve": 12}
#: (GETs, MGETs of 64) per query repeat: three segments (serve.py).  The
#: repeats are short and many because the host's noise lasts about a
#: second: it takes whole repeats, and the median wants many of them
_QUERIES = (4_500, 90)

MP_ONLY = "measured on sharded_mp only"
#: end-to-end metrics that are rates (scaled by 1/speed, not by speed)
_RATES = ("flows_per_s", "get_per_s", "mget_lookups_per_s")


def _setup(name: str, seed: int, scale: float, workdir: Path, queries: tuple[int, int]) -> tuple[Prepared, QueryPlan]:
    """Trace generation, file writing, reference digest, server start."""
    prepared = prepare(WORKLOADS[name], seed, scale, workdir)
    plan = plan_queries(
        prepared.final_records, prepared.mid_records, seed, *queries
    )
    # server start: the host comes up once on the data it will serve
    query_once(
        QueryPlan(plan.final_records, plan.mid_records, plan.addresses[:1],
                  plan.gets[:1], [])
    )
    return prepared, plan


class _Tally:
    """Attempted/failed operations and the messages behind the failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, outcome: dict[str, Any]) -> None:
        self.attempted += outcome["attempted"]
        self.failed += outcome["failed"]
        self.errors.extend(outcome["errors"])


class _Stage:
    """The repeats of one kind of sample: at least *minimum* of them, and
    more until *budget* seconds went into them."""

    def __init__(self, minimum: int, budget: float, function: Any, *args: Any, **kwargs: Any) -> None:
        self.minimum = minimum
        self.budget = budget
        self.call = lambda index: function(*args, index, **kwargs)
        self.outcomes: list[dict[str, Any]] = []
        self.seconds = 0.0

    def wanted(self) -> bool:
        return len(self.outcomes) < self.minimum or self.seconds < self.budget

    def take(self) -> None:
        started = time.perf_counter()
        self.outcomes.append(self.call(len(self.outcomes)))
        self.seconds += time.perf_counter() - started


def _speed(meter: Speedometer, cpus: Sequence[int]) -> float:
    """Mean speed of *cpus* since their last calibration loop."""
    return statistics.fmean(meter.lap(cpus).values())


def _cpus_for(executor: str) -> list[int]:
    """Single-process replays stay on the ledger's core; mp floats."""
    return list(HOME_CPUS) if executor == "mp" else [REPLAY_CPU]


def _queries(quick: bool) -> tuple[int, int]:
    """(GETs, MGETs) per query repeat."""
    gets, mgets = _QUERIES
    return (gets // 10, mgets // 10) if quick else (gets, mgets)


def _query_repeat(meter: Speedometer, plan: QueryPlan, repeat: int) -> dict[str, Any]:
    return query_once(plan, lambda: _speed(meter, [QUERY_CPU]))


def _replay_repeat(
    meter: Speedometer, cpus: Sequence[int], prepared: Prepared, repeat: int,
    **kwargs: Any,
) -> dict[str, Any]:
    """One replay in a child, with the speed of its *cpus* around it."""
    meter.lap(cpus)
    outcome = run_in_child(replay_once, prepared, repeat, affinity=cpus, **kwargs)
    outcome["speed"] = _speed(meter, cpus)
    return outcome


def measure_end_to_end(
    name: str, seed: int, seconds: float, scale: float, workroot: Path,
    quick: bool = False, corrupt_digest: bool = False,
) -> dict[str, Any]:
    """Tracing off: set-up, replay repeats in children, query repeats.

    Returns per-metric samples twice: ``raw`` as measured, ``samples``
    at reference machine speed (what the medians are taken over).
    """
    workload = WORKLOADS[name]
    serving = workload.family == "serve"
    queries = _queries(quick)
    meter = Speedometer(HOME_CPUS)
    cpus = _cpus_for(workload.executor)
    setup_seconds, setup_speeds = [], []
    for round_index in range(1 if quick else _SETUP_ROUNDS):
        started = time.perf_counter()
        prepared, plan = _setup(
            name, seed, scale, workroot / f"setup-{round_index}", queries
        )
        setup_seconds.append(time.perf_counter() - started)
        setup_speeds.append(_speed(meter, [REPLAY_CPU]))

    tally = _Tally()
    replay_stage = _Stage(
        1 if quick else _REPLAY_REPEATS[workload.family],
        0.0 if serving or quick else seconds,
        _replay_repeat, meter, cpus, prepared, corrupt_digest=corrupt_digest,
    )
    query_stage = _Stage(
        1 if quick else _QUERY_REPEATS[workload.family],
        seconds if serving and not quick else 0.0,
        _query_repeat, meter, plan,
    )
    # the two kinds of repeat alternate: the host's bad stretches last up
    # to half a minute, and one must not swallow every repeat of a kind.
    # Queries first, so every replay child forks from a parent whose heap
    # a query repeat has already grown (peak_rss_mb: 105 MB, not 102)
    while replay_stage.wanted() or query_stage.wanted():
        for stage in (query_stage, replay_stage):
            if stage.wanted():
                stage.take()
    replays, lookups = replay_stage.outcomes, query_stage.outcomes
    print(
        f"ledger: {name}: set-up {len(setup_seconds)} x "
        f"{statistics.median(setup_seconds):.2f} s, {len(replays)} replay "
        f"repeat(s) in {replay_stage.seconds:.2f} s, {len(lookups)} query "
        f"repeat(s) in {query_stage.seconds:.2f} s, "
        f"machine speed {statistics.median(meter.laps):.2f}",
        file=sys.stderr,
    )
    for outcome in replays + lookups:
        tally.add(outcome)
    answered = [q for q in lookups if q["segments"]]
    segments = [segment for q in answered for segment in q["segments"]]

    raw: dict[str, list[float]] = {
        "setup_s": setup_seconds,
        "flows_per_s": [r["flows"] / r["wall_s"] for r in replays],
        "cpu_s_per_mflow": [
            (r["cpu_self_s"] + r["cpu_children_s"]) / max(1, r["flows"]) * 1e6
            for r in replays
        ],
        "peak_rss_mb": (
            [q["host_maxrss_kb"] / 1024.0 for q in answered]
            if serving
            else [r["maxrss_kb"] / 1024.0 for r in replays]
        ),
    }
    speeds: dict[str, list[float]] = {
        "setup_s": setup_speeds,
        "flows_per_s": [r["speed"] for r in replays],
        "cpu_s_per_mflow": [r["speed"] for r in replays],
    }
    for metric in ("get_per_s", "get_p50_us", "get_p99_us", "mget_lookups_per_s"):
        phase = "mget_speed" if metric.startswith("mget") else "get_speed"
        raw[metric] = [seg[metric] for seg in segments if metric in seg]
        speeds[metric] = [seg[phase] for seg in segments if metric in seg]
    samples = {
        metric: [
            value / speed if metric in _RATES else value * speed
            for value, speed in zip(values, speeds[metric])
        ] if metric in speeds else list(values)
        for metric, values in raw.items()
    }
    return {
        "workload": name,
        "samples": samples,
        "raw": raw,
        "metrics": {
            metric: statistics.median(values) if values else None
            for metric, values in samples.items()
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "final_digest": replays[0]["final_digest"],
        "repeats": {"replay": len(replays), "query": len(lookups)},
        "speed": statistics.median(meter.laps),
    }


def measure_layers(
    name: str, seed: int, scale: float, workroot: Path, quick: bool = False
) -> dict[str, Any]:
    """The traced pass: per-layer self times plus the isolated kernels."""
    workload = WORKLOADS[name]
    prepared, plan = _setup(
        name, seed, scale, workroot / "traced", _queries(quick)
    )
    tally = _Tally()
    meter = Speedometer(HOME_CPUS)

    def replay(index: int, **kwargs: Any) -> dict[str, Any]:
        cpus = _cpus_for(kwargs.get("executor", workload.executor))
        outcome = _replay_repeat(meter, cpus, prepared, index, **kwargs)
        # seconds at reference machine speed: the two ratios below must
        # not read a speed flip of the machine as a difference
        outcome["reference_s"] = outcome["wall_s"] * outcome["speed"]
        tally.add(outcome)
        return outcome

    # plain and traced runs alternate, so a slow minute of the machine
    # lands on both sides of trace_overhead_ratio
    plain, traced = [], []
    for index in range(1 if quick else 4):
        plain.append(replay(2 * index))
        traced.append(replay(2 * index + 1, traced=True))
    traced.sort(key=lambda outcome: outcome["reference_s"])
    chosen = traced[len(traced) // 2]
    plain_reference = statistics.median(o["reference_s"] for o in plain)

    values: dict[str, Optional[float]] = dict(layer_metrics(chosen))
    reasons: dict[str, str] = {}
    values["trace_overhead_ratio"] = chosen["reference_s"] / plain_reference

    # -- the mp rows: serial twin, one row per transport, single engine --
    blob = chosen.get("engine_blob")
    mp_rows = (
        "sharding.serial_flows_per_s", "executors.mp_pickle_flows_per_s",
        "executors.mp_shm_flows_per_s", "mp_vs_single_ratio",
    )
    base = ""
    if workload.executor == "mp":
        def rate(**overrides: Any) -> float:
            outcome = replay(0, **overrides)
            return outcome["flows"] / outcome["wall_s"]

        values["sharding.serial_flows_per_s"] = rate(executor="serial")
        try:
            from repro.runtime.executors import TRANSPORT_KINDS
        except ImportError:
            TRANSPORT_KINDS = ()
        for kind in ("pickle", "shm"):
            row = f"executors.mp_{kind}_flows_per_s"
            if kind in TRANSPORT_KINDS:
                values[row] = rate(transport=kind)
            else:
                values[row] = None
                reasons[row] = f"transport {kind!r} is not in TRANSPORT_KINDS"
        single = replay(0, traced=True, shards=1, executor="serial")
        blob = single["engine_blob"]
        values["mp_vs_single_ratio"] = single["reference_s"] / plain_reference
        base = (
            f"{prepared.trace.flows / plain_reference:,.0f} flows/s on 4 "
            f"shards over {min(2, os.cpu_count() or 1)} mp workers vs "
            f"{prepared.trace.flows / single['reference_s']:,.0f} flows/s "
            f"single engine, at reference speed, {os.cpu_count()} cores"
        )
    else:
        for row in mp_rows:
            values[row] = None
            reasons[row] = MP_ONLY

    # -- isolated kernels on this workload's inputs -----------------------
    kernel_values, kernel_reasons = run_kernels(
        prepared.trace.batches,
        prepared.final_records,
        plan.addresses,
        blob,
        workload.admission_config(prepared.trace),
        prepared.trace.params.cidr_max_v4,
    )
    parse_ns = kernel_values.pop("server.parse_ns")
    values.update(kernel_values)
    reasons.update(kernel_reasons)

    # -- the query stage once, for the host-side rows, and the floor ------
    lookup = query_once(plan)
    tally.add(lookup)
    if lookup["segments"]:
        values["service.calls"] = lookup["installs"]
        values["service.busy_s"] = lookup["install_busy_s"]
        values["service.install_p50_ms"] = lookup["install_p50_ms"]
        values["service.install_max_ms"] = lookup["install_max_ms"]
        in_process = values.get("service.lookup_ns")
        if in_process is not None and parse_ns is not None:
            values["server.overhead_us_per_get"] = (
                statistics.median(
                    segment["get_p50_us"] for segment in lookup["segments"]
                ) - (in_process + parse_ns) / 1e3
            )
        else:
            values["server.overhead_us_per_get"] = None
            reasons["server.overhead_us_per_get"] = "an input row is null"
    values["loopback.echo_p50_us"] = echo_once(plan.gets)

    if workload.exact:
        values["oracle.flows_per_s"] = (
            prepared.trace.flows / prepared.reference_seconds
        )
    else:
        values["oracle.flows_per_s"] = None
        reasons["oracle.flows_per_s"] = "no oracle for lossy admission"
    meter.lap()
    values["machine.speed"] = statistics.median(meter.laps)
    return {
        "workload": name,
        "metrics": {name: values.get(name) for name, __, __ in PER_LAYER},
        "reasons": reasons,
        "mp_vs_single_base": base,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "spans": chosen["spans"],
    }


# -- the two front ends --------------------------------------------------------


def _driver(args: argparse.Namespace, workroot: Path) -> int:
    """One workload, one final JSON line (the BENCHMARK.json contract)."""
    scale = 0.1 if args.quick else 1.0
    if args.trace:
        outcome = measure_layers(
            args.workload, args.seed, scale, workroot, quick=args.quick
        )
        table = [(name, unit) for name, unit, __ in PER_LAYER]
    else:
        outcome = measure_end_to_end(
            args.workload, args.seed, args.seconds, scale, workroot,
            quick=args.quick, corrupt_digest=args.corrupt_digest,
        )
        table = [(name, unit) for name, unit, __, __ in END_TO_END]
    for message in outcome["errors"]:
        print(f"ledger: {message}", file=sys.stderr)
    metrics = {
        # a row that does not apply to this workload reads 0 here; the
        # ledger mode prints it as null with the reason
        name: {"value": outcome["metrics"][name] or 0.0, "unit": unit}
        for name, unit in table
    }
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0 if outcome["failed"] == 0 else 1


def _format(value: Optional[float]) -> str:
    if value is None:
        return "null"
    return f"{value:,.4g}" if abs(value) < 1e4 else f"{value:,.0f}"


def _ledger(args: argparse.Namespace, workroot: Path) -> int:
    """All six workloads, both passes, every metric printed by name."""
    scale = 0.1 if args.quick else 1.0
    report: dict[str, Any] = {
        "seed": args.seed, "scale": scale, "nproc": os.cpu_count(),
        "seconds": args.seconds, "workloads": {},
    }
    failed_total = 0
    spans = []
    for name in WORKLOADS:
        e2e = measure_end_to_end(
            name, args.seed, args.seconds, scale, workroot / name,
            quick=args.quick, corrupt_digest=args.corrupt_digest,
        )
        layers = measure_layers(
            name, args.seed, scale, workroot / name, quick=args.quick
        )
        spans.extend(layers.pop("spans"))
        attempted = e2e["attempted"] + layers["attempted"]
        failed = e2e["failed"] + layers["failed"]
        entry = {
            "end_to_end": {
                metric: {
                    "median": e2e["metrics"][metric], "unit": unit,
                    "samples": e2e["samples"][metric],
                    "as_measured": e2e["raw"][metric],
                }
                for metric, unit, __, __ in END_TO_END
            },
            "per_layer": {
                metric: {
                    "value": layers["metrics"][metric], "unit": unit,
                    **({"reason": layers["reasons"][metric]}
                       if metric in layers["reasons"] else {}),
                }
                for metric, unit, __ in PER_LAYER
            },
            "repeats": e2e["repeats"],
            "final_digest": e2e["final_digest"],
            "attempted": attempted,
            "failed": failed,
            "errors": e2e["errors"] + layers["errors"],
        }
        report["workloads"][name] = entry
        print(f"== {name}: {WORKLOADS[name].why}")
        print(f"  (end to end at reference machine speed; as measured in "
              f"brackets, machine speed {e2e['speed']:.2f})")
        for metric, unit, __, __ in END_TO_END:
            measured = e2e["raw"][metric]
            print(f"  {metric:<38} {_format(e2e['metrics'][metric]):>14} {unit}"
                  f"  [{_format(statistics.median(measured) if measured else None)}]")
        print(f"  {'failed_share':<38} {failed / attempted:>14.6f} share "
              f"({failed} of {attempted})")
        for metric, unit, __ in PER_LAYER:
            note = layers["reasons"].get(metric, "")
            if metric == "mp_vs_single_ratio" and layers["mp_vs_single_base"]:
                note = layers["mp_vs_single_base"]
            print(f"  {metric:<38} {_format(layers['metrics'][metric]):>14} "
                  f"{unit}{'  (' + note + ')' if note else ''}")
        for message in entry["errors"]:
            print(f"  FAILED: {message}")
        failed_total += failed

    # cross-workload identities: same trace, same mapping
    digests = {n: w["final_digest"] for n, w in report["workloads"].items()}
    for left, right in (("sharded_mp", "batch_multifractal"),
                        ("batch_zipf_exact", "csv_replay")):
        if digests[left] != digests[right]:
            print(f"FAILED: {left} final digest differs from {right}")
            report["workloads"][left]["failed"] += 1
            failed_total += 1
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if args.trace_out:
        with open(args.trace_out, "w") as stream:
            write_jsonl(spans, stream)
    print(f"failed operations: {failed_total}")
    return 0 if failed_total == 0 else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measurement budget of a workload's repeat loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one-tenth inputs, one repeat (smoke run)")
    parser.add_argument("--out", help="write the ledger as JSON")
    parser.add_argument("--trace-out", help="write the traced spans as JSONL")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="two ledger files, or two comma-separated sets")
    parser.add_argument("--corrupt-digest", action="store_true",
                        help="self-test: flip one byte of the expected digest")
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    # inside the checkout, never outside it
    workroot = _ROOT / ".ledger_work" / f"run-{os.getpid()}"
    workroot.mkdir(parents=True)
    # one core for the ledger and what it forks (machine.py: the speed
    # reference must be taken on the core that did the work)
    pin([REPLAY_CPU])
    try:
        if args.workload:
            return _driver(args, workroot)
        return _ledger(args, workroot)
    finally:
        pin(HOME_CPUS)
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            workroot.parent.rmdir()  # unless another run is using it
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
