"""The replay grid of Pipeline and the stop/drain contract of LivePipeline."""

import time

import pytest

from repro.core.iputil import IPV4, IPV6, parse_ip
from repro.core.params import IPDParams
from repro.netflow.records import FlowBatch, FlowRecord
from repro.runtime import LivePipeline, Pipeline
from repro.topology.elements import IngressPoint

A = IngressPoint("R1", "et0")
B = IngressPoint("R2", "xe0")


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


class TestPipelineReplay:
    def test_sweeps_fire_per_bucket(self):
        pipeline = Pipeline(params(), snapshot_seconds=300.0)
        result = pipeline.run(stream(10))
        # one sweep per 60s bucket boundary crossed, plus the closing one
        assert len(result.sweeps) == 10
        assert result.flows_processed == 500

    def test_snapshots_every_five_minutes(self):
        pipeline = Pipeline(params(), snapshot_seconds=300.0)
        result = pipeline.run(stream(11))
        times = result.snapshot_times()
        assert 300.0 in times
        assert 600.0 in times

    def test_final_snapshot_closes_run(self):
        pipeline = Pipeline(params(), snapshot_seconds=300.0)
        result = pipeline.run(stream(3))
        assert result.snapshot_times()[-1] == pytest.approx(180.0)
        assert result.final_snapshot()  # classified by then

    def test_records_are_classified(self):
        pipeline = Pipeline(params())
        result = pipeline.run(stream(5))
        final = result.final_snapshot()
        assert len(final) == 1
        assert final[0].ingress == A

    def test_unordered_stream_rejected(self):
        pipeline = Pipeline(params())
        flows = [
            FlowRecord(timestamp=100.0, src_ip=1, version=IPV4, ingress=A),
            FlowRecord(timestamp=10.0, src_ip=2, version=IPV4, ingress=A),
        ]
        with pytest.raises(ValueError):
            pipeline.run(flows)

    def test_empty_stream(self):
        pipeline = Pipeline(params())
        result = pipeline.run([])
        assert result.flows_processed == 0
        assert result.snapshots == {}

    def test_on_sweep_callback(self):
        seen = []
        pipeline = Pipeline(
            params(), on_sweep=lambda report, ipd: seen.append(report.timestamp)
        )
        pipeline.run(stream(4))
        assert len(seen) == 4

    def test_incremental_yields_snapshots(self):
        pipeline = Pipeline(params(), snapshot_seconds=300.0)
        emitted = list(pipeline.run_incremental(stream(11)))
        assert emitted[0][0] == pytest.approx(300.0)
        assert all(isinstance(records, list) for __, records in emitted)

    def test_grid_aligned_to_trace_start(self):
        """A trace starting at noon sweeps at noon+60s, not at epoch."""
        pipeline = Pipeline(params())
        result = pipeline.run(stream(3, start=43_200.0))
        assert result.sweeps[0].timestamp == pytest.approx(43_260.0)


class TestLivePipeline:
    def test_live_pipeline_classifies(self):
        runner = LivePipeline(params(), sweep_interval=0.05)
        runner.start()
        base = parse_ip("10.0.0.0")[0]
        for index in range(200):
            runner.submit(
                FlowRecord(timestamp=0.0, src_ip=base + index * 16,
                           version=IPV4, ingress=A)
            )
        time.sleep(0.3)
        runner.stop()
        snapshot = runner.snapshot()
        assert len(snapshot) >= 1
        assert snapshot[0].ingress == A
        assert runner.sweep_reports

    def test_double_start_rejected(self):
        runner = LivePipeline(params(), sweep_interval=10.0)
        runner.start()
        with pytest.raises(RuntimeError):
            runner.start()
        runner.stop()

    def test_stop_ingests_unstarted_queue(self):
        """No submitted flow may be lost to the stop/queue race.

        Without ``start()`` every submission sits in the queue when
        ``stop()`` runs — the deterministic worst case of the race where
        flows are enqueued after the stop sentinel.  All of them must be
        ingested before the final sweep.
        """
        runner = LivePipeline(params(), sweep_interval=100.0,
                             clock=lambda: 10.0)
        base = parse_ip("10.0.0.0")[0]
        for index in range(500):
            runner.submit(
                FlowRecord(timestamp=0.0, src_ip=base + index * 16,
                           version=IPV4, ingress=A)
            )
        runner.stop()
        assert runner.engine.flows_ingested == 500
        assert runner.sweep_reports  # the final sweep saw them

    def test_stop_drains_running_queue(self):
        """With live threads, stop() still accounts for every submission."""
        runner = LivePipeline(params(), sweep_interval=50.0)
        runner.start()
        base = parse_ip("10.0.0.0")[0]
        for index in range(2000):
            runner.submit(
                FlowRecord(timestamp=0.0, src_ip=base + (index % 64) * 16,
                           version=IPV4, ingress=A)
            )
        runner.stop()
        assert runner.engine.flows_ingested == 2000

    def test_restamping_uses_live_clock(self):
        clock_value = [1000.0]
        runner = LivePipeline(
            params(), sweep_interval=100.0, clock=lambda: clock_value[0]
        )
        flow = FlowRecord(timestamp=5.0, src_ip=1, version=IPV4, ingress=A)
        runner.start()
        runner.submit(flow)
        runner.stop()
        tree = runner.engine.trees[IPV4]
        # the ingested sample carries the live clock, not the trace time
        [leaf] = tree.leaves()
        [(__, seen, __)] = tree.sources(leaf)
        assert seen == pytest.approx(1000.0)


class RecordingEngine:
    """Stands in for an engine: keeps what ``ingest_batch`` was handed."""

    def __init__(self, engine):
        self.engine = engine
        self.batches: list[FlowBatch] = []

    def __getattr__(self, name):
        return getattr(self.engine, name)

    def ingest_batch(self, batch):
        self.batches.append(batch)
        return self.engine.ingest_batch(batch)


def numbered(index: int, version: int = IPV4) -> FlowRecord:
    return FlowRecord(timestamp=0.0, src_ip=index, version=version, ingress=A)


class TestLiveCoalescing:
    """The consumer turns whatever is queued into batches, in submit order."""

    def submit_mixed(self, runner) -> list[int]:
        """Records, a family change, a prebuilt batch, more records."""
        for index in range(40):
            runner.submit(numbered(index))
        for index in range(40, 50):
            runner.submit(numbered(index, IPV6))
        runner.submit_batch(
            FlowBatch.from_flows([numbered(index) for index in range(50, 70)])
        )
        for index in range(70, 100):
            runner.submit(numbered(index))
        return list(range(100))

    def test_coalescing_preserves_submit_order(self):
        from repro.core.algorithm import IPD

        engine = RecordingEngine(IPD(params()))
        runner = LivePipeline(engine=engine, sweep_interval=100.0,
                              clock=lambda: 10.0)
        expected = self.submit_mixed(runner)
        runner.stop()
        assert [src for batch in engine.batches for src in batch.addresses()] == expected
        # one batch per same-family run, not one per record
        assert [(b.version, len(b)) for b in engine.batches] == [
            (IPV4, 40), (IPV6, 10), (IPV4, 20), (IPV4, 30)
        ]
        assert engine.flows_ingested == 100

    def test_items_behind_the_stop_sentinel_are_ingested(self):
        runner = LivePipeline(params(), sweep_interval=100.0, clock=lambda: 10.0)
        runner.submit(numbered(1))
        runner._queue.put(None)  # an earlier stop's sentinel, mid-queue
        runner.submit(numbered(2))
        runner.submit_batch(FlowBatch.from_flows([numbered(3), numbered(4)]))
        runner.stop()
        assert runner.engine.flows_ingested == 4
