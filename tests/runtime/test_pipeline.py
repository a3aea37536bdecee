"""The Pipeline / LivePipeline API surface and the output sinks."""

import io
from math import inf, nan

import pytest

from repro.core.iputil import IPV4, IPV6, parse_ip
from repro.core.output import read_records_csv
from repro.core.params import IPDParams
from repro.netflow.records import FlowBatch, FlowRecord, iter_flow_batches
from repro.runtime import (
    CallbackSink,
    CheckpointStore,
    CSVSink,
    LivePipeline,
    MemorySink,
    Pipeline,
    ShardedIPD,
)
from repro.testkit.traces import DUALSTACK_PARAMS, dualstack_trace
from repro.topology.elements import IngressPoint
from tests.runtime.test_checkpoint_resume import assert_resumed_equivalent
from tests.runtime.test_shard_equivalence import assert_equivalent

A = IngressPoint("R1", "et0")


def flow(timestamp: float, version: int = IPV4) -> FlowRecord:
    return FlowRecord(timestamp=timestamp, src_ip=1, version=version, ingress=A)


def params(**kwargs) -> IPDParams:
    defaults = dict(n_cidr_factor_v4=0.001, n_cidr_factor_v6=0.001)
    defaults.update(kwargs)
    return IPDParams(**defaults)


def stream(n_buckets: int, per_bucket: int = 50, start: float = 0.0):
    base = parse_ip("10.0.0.0")[0]
    for bucket in range(n_buckets):
        for index in range(per_bucket):
            yield FlowRecord(
                timestamp=start + bucket * 60.0 + index * (60.0 / per_bucket),
                src_ip=base + index * 16,
                version=IPV4,
                ingress=A,
            )


class TestPipeline:
    def test_default_engine_is_plain_ipd(self):
        from repro.core.algorithm import IPD

        assert isinstance(Pipeline(params()).engine, IPD)

    def test_sharded_engine_selected(self):
        pipeline = Pipeline(params(), shards=4)
        assert isinstance(pipeline.engine, ShardedIPD)
        pipeline.close()

    def test_invalid_snapshot_interval(self):
        with pytest.raises(ValueError):
            Pipeline(params(), snapshot_seconds=0.0)

    def test_invalid_executor(self):
        with pytest.raises(ValueError):
            Pipeline(params(), executor="quantum")

    def test_on_sweep_receives_engine(self):
        seen = []
        pipeline = Pipeline(
            params(),
            on_sweep=lambda report, engine: seen.append(engine.state_size()),
        )
        pipeline.run(stream(4))
        assert len(seen) == 4

    def test_context_manager_closes_engine(self):
        with Pipeline(params(), shards=4, executor="mp", workers=2) as pipeline:
            pipeline.run(stream(3))
        # a second close must be harmless
        pipeline.close()


def mixed_stream(flows, run=61):
    """Alternate runs of bare records and prebuilt batches, order kept."""
    for number, start in enumerate(range(0, len(flows), run)):
        chunk = flows[start:start + run]
        if number % 2:
            yield from iter_flow_batches(chunk, batch_size=23)
        else:
            yield from chunk


class TestRecordNormalisation:
    """Records are chunked into batches once, at the top of the replay:
    how the stream is packaged must not show anywhere in the output."""

    def run(self, stream, directory, **kwargs):
        store = CheckpointStore(directory, retain=100)
        with Pipeline(
            DUALSTACK_PARAMS,
            snapshot_seconds=120.0,
            include_unclassified=True,
            checkpoint_store=store,
            checkpoint_every=DUALSTACK_PARAMS.t,
            **kwargs,
        ) as pipeline:
            result = pipeline.run(stream)
        return result, [store.load(path) for path in store.list()]

    @pytest.mark.parametrize("shards", [1, 4])
    def test_records_batches_and_mixed_streams_agree(self, tmp_path, shards):
        flows = dualstack_trace()
        reference, reference_saves = self.run(
            flows, tmp_path / "records", shards=shards
        )
        assert len(reference_saves) == len(reference.sweeps)
        for name, stream in (
            ("batched", iter_flow_batches(flows, batch_size=97)),
            ("mixed", mixed_stream(flows)),
        ):
            result, saves = self.run(stream, tmp_path / name, shards=shards)
            assert_equivalent(reference, result)
            # every sweep tick's checkpoint: same cursor, same engine bytes
            assert saves == reference_saves, name

    def test_resume_cursor_mid_chunk_replays_exactly(self, tmp_path):
        flows = dualstack_trace()
        reference, saves = self.run(flows, tmp_path / "ckpt")
        # the cursors fall inside the record chunks and inside the
        # 97-row batches, so the skip has to cut both kinds of item
        assert any(save.flows_processed % 97 for save in saves[:-1])
        for index, checkpoint in enumerate(saves):
            for name, stream in (
                ("records", flows),
                ("batched", iter_flow_batches(flows, batch_size=97)),
                ("mixed", mixed_stream(flows)),
            ):
                with Pipeline.resume(
                    CheckpointStore(tmp_path / f"{name}-{index}", retain=100),
                    checkpoint=checkpoint,
                    snapshot_seconds=120.0,
                    include_unclassified=True,
                ) as pipeline:
                    resumed = pipeline.run(stream)
                assert_resumed_equivalent(reference, checkpoint, resumed)

    @pytest.mark.parametrize(
        "stream",
        [
            # inside one record chunk, across a family cut, inside a batch
            [flow(100.0), flow(10.0)],
            [flow(100.0), flow(100.0, version=IPV6), flow(10.0)],
            [FlowBatch.from_flows([flow(100.0), flow(10.0)])],
            [flow(100.0), FlowBatch.from_flows([flow(10.0)])],
        ],
        ids=["records", "family-cut", "batch", "record-then-batch"],
    )
    def test_out_of_order_stream_rejected(self, stream):
        with pytest.raises(ValueError, match="not time-ordered"):
            Pipeline(params()).run(stream)

    @pytest.mark.parametrize(
        "stream, message",
        [
            (
                [FlowBatch.from_flows([flow(5.0), flow(50.0), flow(20.0), flow(10.0)])],
                "20.0 after 50.0",
            ),
            (
                [
                    FlowBatch.from_flows([flow(5.0), flow(50.0)]),
                    FlowBatch.from_flows([flow(30.0), flow(10.0)]),
                ],
                "30.0 after 50.0",
            ),
        ],
        ids=["inside-batch", "across-batches"],
    )
    def test_out_of_order_error_names_first_offender(self, stream, message):
        with pytest.raises(ValueError, match=f"not time-ordered: {message}$"):
            Pipeline(params()).run(stream)

    @pytest.mark.parametrize(
        "stream, row, value",
        [
            ([FlowBatch.from_flows([flow(5.0), flow(nan), flow(9.0)])], 1, "nan"),
            (
                [
                    FlowBatch.from_flows([flow(5.0), flow(9.0)]),
                    FlowBatch.from_flows([flow(9.5), flow(nan)]),
                ],
                3,
                "nan",
            ),
            ([flow(nan), flow(5.0)], 0, "nan"),
            ([FlowBatch.from_flows([flow(inf), flow(5.0)])], 0, "inf"),
            ([FlowBatch.from_flows([flow(-inf), flow(5.0)])], 0, "-inf"),
        ],
        ids=["nan-mid-batch", "nan-second-batch", "nan-first", "inf-first", "-inf-first"],
    )
    def test_non_finite_timestamp_rejected_before_ingest(self, stream, row, value):
        pipeline = Pipeline(params())
        with pytest.raises(
            ValueError, match=f"^flow stream row {row}: timestamp {value} is not finite$"
        ):
            pipeline.run(stream)
        # no row of the offending batch reached the engine (the first
        # batch of the two-batch stream did, in full)
        assert pipeline.engine.flows_ingested == (2 if row == 3 else 0)

    def test_nan_does_not_let_a_late_row_through(self):
        # before the check, 5.0 after 9.0 passed because NaN compares false
        stream = [FlowBatch.from_flows([flow(9.0), flow(nan), flow(5.0)])]
        with pytest.raises(ValueError, match="row 1: timestamp nan"):
            Pipeline(params()).run(stream)

    def test_sub_nanosecond_jitter_still_accepted(self):
        result = Pipeline(params()).run([flow(100.0), flow(100.0 - 5e-10)])
        assert result.flows_processed == 2


class TestSinks:
    def test_memory_sink(self):
        sink = MemorySink()
        pipeline = Pipeline(params(), snapshot_seconds=300.0, sinks=[sink])
        result = pipeline.run(stream(11))
        pipeline.close()
        assert sink.snapshots == result.snapshots
        assert sink.final_snapshot() == result.final_snapshot()

    def test_callback_sink(self):
        times = []
        sink = CallbackSink(lambda when, records: times.append(when))
        pipeline = Pipeline(params(), snapshot_seconds=300.0, sinks=[sink])
        result = pipeline.run(stream(11))
        pipeline.close()
        assert times == result.snapshot_times()

    def test_csv_sink_final_only(self, tmp_path):
        path = tmp_path / "final.csv"
        sink = CSVSink(str(path))
        pipeline = Pipeline(params(), snapshot_seconds=300.0, sinks=[sink])
        result = pipeline.run(stream(11))
        pipeline.close()
        with open(path) as handle:
            records = list(read_records_csv(handle))
        final = result.final_snapshot()
        assert sink.rows_written == len(final)
        assert [r.range for r in records] == [r.range for r in final]

    def test_service_sink_feeds_live_service(self):
        from repro.runtime import ServiceSink

        sink = ServiceSink()
        pipeline = Pipeline(params(), snapshot_seconds=300.0, sinks=[sink])
        result = pipeline.run(stream(11))
        pipeline.close()
        # one hot-swapped epoch per emitted snapshot, newest one serving
        assert sink.installed == len(result.snapshot_times())
        assert sink.service.current is sink.latest
        assert sink.latest.watermark == result.snapshot_times()[-1]
        final = result.final_snapshot()
        classified = [r for r in final if r.classified]
        assert classified
        for record in classified:
            answer = sink.service.lookup(record.range.value, record.range.version)
            assert answer is not None
            assert answer.ingress == record.ingress
            assert answer.epoch == sink.latest.epoch

    def test_service_sink_wraps_existing_service(self):
        from repro.runtime import ServiceSink
        from repro.serving import IngressLookupService

        service = IngressLookupService()
        sink = ServiceSink(service)
        pipeline = Pipeline(params(), snapshot_seconds=300.0, sinks=[sink])
        pipeline.run(stream(6))
        pipeline.close()
        assert sink.service is service
        assert service.current is sink.latest

    def test_csv_sink_every_snapshot(self, tmp_path):
        path = tmp_path / "all.csv"
        sink = CSVSink(str(path), final_only=False)
        pipeline = Pipeline(params(), snapshot_seconds=300.0, sinks=[sink])
        result = pipeline.run(stream(11))
        pipeline.close()
        with open(path) as handle:
            records = list(read_records_csv(handle))
        expected = [
            record
            for when in result.snapshot_times()
            for record in result.snapshots[when]
        ]
        assert len(records) == len(expected)
        assert [r.timestamp for r in records] == [r.timestamp for r in expected]


class _CountingSink(MemorySink):
    def __init__(self):
        super().__init__()
        self.close_calls = 0

    def _close(self):
        self.close_calls += 1


class TestSinkLifecycle:
    def test_sink_close_is_idempotent(self):
        sink = _CountingSink()
        assert not sink.closed
        sink.close()
        sink.close()
        sink.close()
        assert sink.closed
        assert sink.close_calls == 1

    def test_pipeline_closes_each_sink_exactly_once(self):
        sinks = [_CountingSink(), _CountingSink()]
        pipeline = Pipeline(params(), snapshot_seconds=300.0, sinks=sinks)
        pipeline.run(stream(3))
        pipeline.close()
        pipeline.close()  # explicit double-close must stay a no-op
        assert [sink.close_calls for sink in sinks] == [1, 1]

    def test_context_manager_exit_after_explicit_close(self):
        sink = _CountingSink()
        with Pipeline(params(), snapshot_seconds=300.0, sinks=[sink]) as p:
            p.run(stream(3))
            p.close()  # caller closes early; __exit__ follows anyway
        assert sink.close_calls == 1

    def test_sinks_closed_once_when_the_stream_raises(self):
        def broken():
            yield from stream(2)
            raise RuntimeError("upstream died")

        sink = _CountingSink()
        with pytest.raises(RuntimeError, match="upstream died"):
            with Pipeline(
                params(), snapshot_seconds=300.0, sinks=[sink]
            ) as pipeline:
                pipeline.run(broken())
        assert sink.closed
        assert sink.close_calls == 1

    def test_csv_sink_second_close_does_not_rewrite(self, tmp_path):
        path = tmp_path / "once.csv"
        sink = CSVSink(str(path))
        pipeline = Pipeline(params(), snapshot_seconds=300.0, sinks=[sink])
        pipeline.run(stream(11))
        pipeline.close()
        written = sink.rows_written
        path.write_text("sentinel: closing again must not clobber this\n")
        sink.close()
        pipeline.close()
        assert sink.rows_written == written
        assert path.read_text().startswith("sentinel")


class TestLivePipeline:
    def test_stop_without_start_ingests_everything(self):
        """No submitted flow may be lost, even without a running thread."""
        runner = LivePipeline(params(), sweep_interval=100.0,
                              clock=lambda: 50.0)
        for index in range(25):
            runner.submit(
                FlowRecord(timestamp=0.0, src_ip=index * 16, version=IPV4,
                           ingress=A)
            )
        runner.stop()
        assert runner.engine.flows_ingested == 25
