"""Isolated-kernel timings (†) on inputs captured from the workload.

Each row times one function of one layer on the workload's own flows,
final snapshot or final engine image, so it can be read beside the
traced self times of the same run.  A row whose symbol a later PR has
deleted reports ``None`` with the reason instead of failing: every
kernel imports what it calls inside its own body, and :func:`run_kernels`
turns a missing name into a null row.
"""

from __future__ import annotations

import io
import pickle
import statistics
import time
from typing import Any, Callable, Optional

from repro.core.admission import AdmissionConfig
from repro.core.iputil import IPV4, format_ip
from repro.core.output import IPDRecord
from repro.netflow.records import FlowBatch, FlowRecord

__all__ = ["KERNELS", "run_kernels"]

#: flows a kernel sees; the first batches of the trace
_SAMPLE_ROWS = 3 * 8192
_ROUNDS = 3


def _median_seconds(function: Callable[[], Any]) -> float:
    """Median wall of ``_ROUNDS`` calls."""
    walls = []
    for __ in range(_ROUNDS):
        started = time.perf_counter()
        function()
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


class _Inputs:
    """What the kernels run on, captured from one workload."""

    def __init__(
        self,
        batches: list[FlowBatch],
        final_records: list[IPDRecord],
        addresses: list[int],
        engine_blob: bytes,
        admission: Optional[AdmissionConfig],
        cidr_max: int,
    ) -> None:
        self.batches = []
        rows = 0
        for batch in batches:
            if rows >= _SAMPLE_ROWS:
                break
            self.batches.append(batch)
            rows += len(batch)
        self.rows = rows
        self.final_records = final_records
        self.addresses = addresses[:20_000]
        self.engine_blob = engine_blob
        # the gate kernels need a lossy controller; a workload without
        # one is measured with the default-width gate
        self.admission = (
            admission
            if admission is not None and admission.mode == "lossy"
            else AdmissionConfig(mode="lossy")
        )
        self.shift = 32 - cidr_max

    def flows(self) -> list[FlowRecord]:
        return [flow for batch in self.batches for flow in batch.iter_flows()]


def _export(inputs: _Inputs, exporter_class: Any) -> tuple[Any, dict[str, list[bytes]]]:
    """The sample as per-router export packets (routers export alone)."""
    from repro.netflow.codec import InterfaceIndexMap

    by_router: dict[str, list[FlowRecord]] = {}
    for flow in inputs.flows():
        by_router.setdefault(flow.ingress.router, []).append(flow)
    index_map = InterfaceIndexMap()
    for router, flows in by_router.items():
        names = sorted({flow.ingress.interface for flow in flows})
        for index, name in enumerate(names, start=1):
            index_map.add(router, name, index)
    packets = {
        router: list(exporter_class(router, index_map).export(flows))
        for router, flows in by_router.items()
    }
    return index_map, packets


def _parse_ns(inputs: _Inputs, exporter_class: Any, reader_class: Any) -> float:
    index_map, packets = _export(inputs, exporter_class)

    def parse_all() -> None:
        for router, stream in packets.items():
            reader = reader_class(router, index_map)
            for packet in stream:
                reader.parse(packet)

    return _median_seconds(parse_all) / inputs.rows * 1e9


def _v5_parse(inputs: _Inputs) -> float:
    from repro.netflow.codec import NetflowV5Exporter, NetflowV5Reader

    return _parse_ns(inputs, NetflowV5Exporter, NetflowV5Reader)


def _ipfix_parse(inputs: _Inputs) -> float:
    from repro.netflow.ipfix import IPFIXCollector, IPFIXExporter

    return _parse_ns(inputs, IPFIXExporter, IPFIXCollector)


def _prefilter(inputs: _Inputs) -> float:
    from repro.core.admission import AdmissionController

    def gate() -> None:
        controller = AdmissionController(inputs.admission)
        for batch in inputs.batches:
            controller.prefilter_rows(IPV4, inputs.shift, batch.src_ips)

    return _median_seconds(gate) / inputs.rows * 1e9


def _age(inputs: _Inputs) -> float:
    from repro.core.admission import AdmissionController

    controller = AdmissionController(inputs.admission)
    controller.sketch(IPV4)
    step = inputs.admission.age_seconds
    controller.age_to(0.0)
    boundary = 0

    def one_boundary() -> None:
        nonlocal boundary
        boundary += 1
        controller.age_to(boundary * step)

    return _median_seconds(one_boundary) * 1e3


def _filter_groups(inputs: _Inputs) -> float:
    from repro.core.admission import AdmissionController

    shift = inputs.shift
    grouped = []
    for batch in inputs.batches:
        groups: dict[int, list] = {}
        for stamp, source, ingress in zip(
            batch.timestamps, batch.src_ips, batch.ingresses
        ):
            masked = (source >> shift) << shift
            group = groups.get(masked)
            if group is None:
                groups[masked] = [{ingress: 1.0}, stamp, stamp]
            else:
                group[0][ingress] = group[0].get(ingress, 0.0) + 1.0
                group[1] = stamp
        grouped.append(groups)
    count = sum(len(groups) for groups in grouped)

    def gate() -> None:
        controller = AdmissionController(inputs.admission)
        for groups in grouped:
            controller.filter_groups(IPV4, groups)

    return _median_seconds(gate) / count * 1e9


def _restore(inputs: _Inputs) -> float:
    from repro.runtime.checkpoint import restore_engine

    return _median_seconds(lambda: restore_engine(inputs.engine_blob)) * 1e3


def _wire_frames(inputs: _Inputs) -> list[bytes]:
    from repro.netflow.wirecodec import FlowBatchEncoder

    encoder = FlowBatchEncoder()
    return [encoder.encode(batch) for batch in inputs.batches]


def _wire_encode(inputs: _Inputs) -> float:
    return _median_seconds(lambda: _wire_frames(inputs)) / inputs.rows * 1e9


def _wire_decode(inputs: _Inputs) -> float:
    from repro.netflow.wirecodec import FlowBatchDecoder

    frames = _wire_frames(inputs)

    def decode_all() -> None:
        decoder = FlowBatchDecoder()
        for frame in frames:
            decoder.decode_from(frame)

    return _median_seconds(decode_all) / inputs.rows * 1e9


def _wire_bytes(inputs: _Inputs) -> float:
    return sum(map(len, _wire_frames(inputs))) / inputs.rows


def _pickles(inputs: _Inputs) -> list[bytes]:
    return [
        pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
        for batch in inputs.batches
    ]


def _pickle_dumps(inputs: _Inputs) -> float:
    return _median_seconds(lambda: _pickles(inputs)) / inputs.rows * 1e9


def _pickle_loads(inputs: _Inputs) -> float:
    # only bytes this process just wrote are unpickled
    blobs = _pickles(inputs)
    return _median_seconds(
        lambda: [pickle.loads(blob) for blob in blobs]
    ) / inputs.rows * 1e9


def _pickle_bytes(inputs: _Inputs) -> float:
    return sum(map(len, _pickles(inputs))) / inputs.rows


def _lpm_compile(inputs: _Inputs) -> float:
    from repro.core.lpm import CompiledLPM

    return _median_seconds(
        lambda: CompiledLPM.from_records(inputs.final_records)
    ) * 1e3


def _lpm_blob(inputs: _Inputs) -> float:
    from repro.core.lpm import CompiledLPM

    return float(len(CompiledLPM.from_records(inputs.final_records).to_bytes()))


def _lpm_lookup(inputs: _Inputs) -> float:
    from repro.core.lpm import CompiledLPM

    lookup = CompiledLPM.from_records(inputs.final_records).lookup

    def walk() -> None:
        for value in inputs.addresses:
            lookup(value)

    return _median_seconds(walk) / len(inputs.addresses) * 1e9


def _lpm_lookup_many(inputs: _Inputs) -> float:
    from repro.core.lpm import CompiledLPM

    table = CompiledLPM.from_records(inputs.final_records)
    return _median_seconds(
        lambda: table.lookup_many(inputs.addresses)
    ) / len(inputs.addresses) * 1e9


def _service_lookup(inputs: _Inputs) -> float:
    from repro.core.snapshot import Snapshot
    from repro.serving.service import IngressLookupService

    service = IngressLookupService()
    service.install_snapshot(Snapshot(1.0, inputs.final_records, epoch=1))
    lookup = service.lookup

    def walk() -> None:
        for value in inputs.addresses:
            lookup(value)

    return _median_seconds(walk) / len(inputs.addresses) * 1e9


def _request_parse(inputs: _Inputs) -> float:
    from repro.core.iputil import parse_ip

    lines = [f"GET {format_ip(value, IPV4)}" for value in inputs.addresses]

    def parse_all() -> None:
        for line in lines:
            parse_ip(line.split()[1])

    return _median_seconds(parse_all) / len(lines) * 1e9


def _output_encode(inputs: _Inputs) -> float:
    from repro.core.output import write_records_csv

    if not inputs.final_records:
        return 0.0
    return _median_seconds(
        lambda: write_records_csv(inputs.final_records, io.StringIO())
    ) / len(inputs.final_records) * 1e9


#: metric name -> kernel; ``server.parse_ns`` only feeds
#: ``server.overhead_us_per_get``
KERNELS: dict[str, Callable[[_Inputs], float]] = {
    "codec.v5_parse_ns_per_flow": _v5_parse,
    "ipfix.parse_ns_per_flow": _ipfix_parse,
    "admission.prefilter_ns_per_row": _prefilter,
    "admission.age_ms_per_boundary": _age,
    "admission.filter_groups_ns_per_group": _filter_groups,
    "checkpoint.restore_ms": _restore,
    "wirecodec.encode_ns_per_flow": _wire_encode,
    "wirecodec.decode_ns_per_flow": _wire_decode,
    "wirecodec.bytes_per_flow": _wire_bytes,
    "pickle.dumps_ns_per_flow": _pickle_dumps,
    "pickle.loads_ns_per_flow": _pickle_loads,
    "pickle.bytes_per_flow": _pickle_bytes,
    "lpm.compile_ms": _lpm_compile,
    "lpm.blob_bytes": _lpm_blob,
    "lpm.lookup_ns": _lpm_lookup,
    "lpm.lookup_many_ns_per_ip": _lpm_lookup_many,
    "service.lookup_ns": _service_lookup,
    "server.parse_ns": _request_parse,
    "output.encode_ns_per_range": _output_encode,
}


def run_kernels(
    batches: list[FlowBatch],
    final_records: list[IPDRecord],
    addresses: list[int],
    engine_blob: bytes,
    admission: Optional[AdmissionConfig],
    cidr_max: int,
) -> tuple[dict[str, Optional[float]], dict[str, str]]:
    """Every kernel's value, or ``None`` plus the reason it is null."""
    inputs = _Inputs(
        batches, final_records, addresses, engine_blob, admission, cidr_max
    )
    values: dict[str, Optional[float]] = {}
    reasons: dict[str, str] = {}
    for name, kernel in KERNELS.items():
        try:
            values[name] = kernel(inputs)
        except (ImportError, AttributeError) as exc:
            # the symbol behind this row is gone: a null row, not a crash
            values[name] = None
            reasons[name] = f"{type(exc).__name__}: {exc}"
    return values, reasons
