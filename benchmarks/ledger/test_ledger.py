"""Tests of the ledger itself (run explicitly; tier-1 stays ``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run  # noqa: E402
from kernels import KERNELS, run_kernels  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from spans import Span, self_times  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    cascade_sources,
    multifractal_trace,
    trace_digest,
)

from repro.runtime.pipeline import Pipeline  # noqa: E402

_ROOT = Path(__file__).resolve().parents[2]
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- workloads.py ----------------------------------------------------------------


def test_same_seed_same_trace_other_seed_other_trace():
    first = trace_digest(multifractal_trace(3, flows=20_000).batches)
    again = trace_digest(multifractal_trace(3, flows=20_000).batches)
    other = trace_digest(multifractal_trace(4, flows=20_000).batches)
    assert first == again
    assert first != other


def test_cascade_is_skewed():
    addresses, __ = cascade_sources(7, 200_000)
    __, counts = np.unique(addresses >> np.uint64(8), return_counts=True)
    counts.sort()
    top = counts[-max(1, len(counts) // 100):].sum() / len(addresses)
    # stated share: the busiest 1 % of /24s carry over a third of the flows
    assert top > 1 / 3
    # and the tail is long: tens of thousands of distinct /24s
    assert len(counts) > 10_000


def test_trace_drives_the_trie_to_cidr_max():
    trace = multifractal_trace(7)
    with Pipeline(trace.params) as pipeline:
        final = pipeline.run(trace.batches).final_snapshot()
    assert len(final) >= 700
    assert max(record.range.masklen for record in final) == trace.params.cidr_max_v4


# -- spans.py --------------------------------------------------------------------


def _span(name, start, end, parent):
    return Span(name, start, end, parent, "test")


def test_self_time_of_nested_and_overlapping_spans():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),       # nested child
        _span("a.inner", 2.0, 3.0, 1),  # grandchild: not root's business
        _span("b", 3.0, 6.0, 0),       # overlaps a on [3, 4]
        _span("c", 9.0, 12.0, 0),      # runs past the parent: clipped
    ]
    table = self_times(spans)
    # children cover [1, 6] and [9, 10] of the root: 6 of its 10 seconds
    assert table["root"]["self_s"] == pytest.approx(4.0)
    assert table["a"]["self_s"] == pytest.approx(2.0)
    assert table["a"]["busy_s"] == pytest.approx(3.0)
    assert table["a.inner"]["self_s"] == pytest.approx(1.0)
    assert table["b"]["calls"] == 1


def test_self_times_of_properly_nested_spans_sum_to_the_root():
    spans = [
        _span("root", 0.0, 5.0, None),
        _span("x", 0.5, 2.0, 0),
        _span("y", 1.0, 1.5, 1),
        _span("x", 2.0, 4.5, 0),
    ]
    table = self_times(spans)
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(5.0)


# -- the ledger end to end -------------------------------------------------------


@pytest.fixture(scope="module")
def quick_ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "quick.json"
    trace_out = out.with_suffix(".jsonl")
    status = run.main(["--quick", "--out", str(out), "--trace-out", str(trace_out)])
    return status, json.loads(out.read_text()), trace_out


def test_quick_ledger_reports_every_metric_with_a_unit(quick_ledger):
    status, ledger, trace_out = quick_ledger
    assert status == 0
    assert set(ledger["workloads"]) == set(WORKLOADS)
    for name, entry in ledger["workloads"].items():
        assert entry["failed"] == 0, (name, entry["errors"])
        for metric, unit, __, __ in END_TO_END:
            cell = entry["end_to_end"][metric]
            assert cell["unit"] == unit
            assert cell["median"] > 0, (name, metric)
        for metric, unit, __ in PER_LAYER:
            cell = entry["per_layer"][metric]
            assert cell["unit"] == unit
            assert cell["value"] is not None or cell["reason"], (name, metric)
    mp = ledger["workloads"]["sharded_mp"]["per_layer"]
    assert mp["mp_vs_single_ratio"]["value"] > 0
    assert mp["executors.mp_shm_flows_per_s"]["value"] > 0
    spans = [json.loads(line) for line in trace_out.read_text().splitlines()]
    assert {"name", "start", "end", "parent", "run_id"} <= set(spans[0])
    assert {span["run_id"].split("/")[0] for span in spans} == set(WORKLOADS)


def test_metric_names_are_plain_and_match_benchmark_json():
    manifest = json.loads((_ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in manifest["end_to_end"]
    ] == [tuple(row) for row in END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]
    ] == [tuple(row) for row in PER_LAYER]
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(_NAME.fullmatch(name) for name in names)
    assert manifest["paths"] == ["benchmarks/ledger"]


def test_driver_mode_ends_with_one_json_line(capsys):
    status = run.main(["--workload", "flood_lossy", "--quick", "--trace", "1"])
    line = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(line)
    assert status == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [name for name, __, __ in PER_LAYER]
    assert all(
        isinstance(cell["value"], (int, float)) for cell in result["metrics"].values()
    )
    assert result["metrics"]["admission.dropped"]["value"] > 0


def test_a_flipped_digest_byte_fails_the_run(capsys):
    status = run.main(
        ["--workload", "batch_multifractal", "--quick", "--corrupt-digest"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert result["correct"] is False and result["failed"] >= 1


# -- kernels.py ------------------------------------------------------------------


def _kernel_inputs():
    trace = multifractal_trace(5, flows=20_000)
    with Pipeline(trace.params) as pipeline:
        final = pipeline.run(trace.batches).final_snapshot()
        blob = pipeline.engine.to_bytes()
    addresses = [int(value) for value in cascade_sources(5, 500)[0]]
    return trace.batches, final, addresses, blob, None, 28


def test_a_deleted_symbol_yields_a_null_row_not_a_crash(monkeypatch):
    monkeypatch.delattr("repro.netflow.wirecodec.FlowBatchEncoder")
    monkeypatch.delattr("repro.core.admission.AdmissionController.prefilter_rows")
    values, reasons = run_kernels(*_kernel_inputs())
    assert set(values) == set(KERNELS)
    for row in ("wirecodec.encode_ns_per_flow", "wirecodec.decode_ns_per_flow",
                "wirecodec.bytes_per_flow", "admission.prefilter_ns_per_row"):
        assert values[row] is None and row in reasons
    assert values["pickle.dumps_ns_per_flow"] > 0
    assert values["lpm.compile_ms"] > 0


# -- compare.py ------------------------------------------------------------------


def _ledger(rate, spread=0.0):
    samples = [rate * (1 + spread * step) for step in (-1, -0.5, 0, 0.5, 1)]
    cell = {"median": rate, "unit": "flows/s", "samples": samples}
    other = {"median": 1.0, "unit": "x", "samples": [1.0, 1.0, 1.0]}
    return {"workloads": {"batch_multifractal": {
        "end_to_end": {
            metric: copy.deepcopy(cell if metric == "flows_per_s" else other)
            for metric, __, __, __ in END_TO_END
        },
        "attempted": 100, "failed": 0,
    }}}


def _verdict(a, b, metric="flows_per_s"):
    rows = compare.compare_ledgers([a], [b])
    return next(row["verdict"] for row in rows if row["metric"] == metric)


def test_compare_marks_ok_breach_and_unresolved():
    bound = compare.bound_for("flows_per_s")
    base = _ledger(100_000.0)
    assert _verdict(base, _ledger(100_000.0 * (1 - bound / 2))) == "ok"
    assert _verdict(base, _ledger(100_000.0 * (1 - bound * 1.5))) == "breach"
    # faster is never a breach for a higher-is-better metric
    assert _verdict(base, _ledger(150_000.0)) == "ok"
    noisy = _ledger(100_000.0, spread=bound)
    assert _verdict(base, noisy) == "unresolved"
    # with three runs a side the spread is over the runs' medians
    steady = [_ledger(100_000.0 * (1 + step / 100), spread=bound) for step in range(3)]
    rows = compare.compare_ledgers(steady, steady)
    assert {row["verdict"] for row in rows} == {"ok"}
    failing = _ledger(100_000.0)
    failing["workloads"]["batch_multifractal"]["failed"] = 1
    assert _verdict(base, failing, "failed_share") == "breach"
