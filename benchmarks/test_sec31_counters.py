"""§3.1: the flow-count simplification and its justification.

Paper: flow and byte counts correlate at 0.82 in the tier-1's traffic,
so the deployment counts flows to avoid 32-bit byte-counter overflows
on high-capacity links.  This bench regenerates both halves: the
correlation on the synthetic trace and the overflow-headroom comparison.
It also runs the engine in both counting modes and shows the resulting
mappings agree.
"""

from repro.analysis.counters import counter_overflow_study, flow_byte_correlation
from repro.reporting.tables import render_table
from repro.runtime import Pipeline

from conftest import write_result


def test_sec31_flow_vs_byte_counters(benchmark, headline):
    scenario = headline["scenario"]
    flows = [f for f in headline["flows"] if f.timestamp < 16 * 3600.0]

    correlation, n_prefixes = benchmark.pedantic(
        flow_byte_correlation, args=(flows,), kwargs={"min_flows": 10},
        rounds=1, iterations=1,
    )
    study = counter_overflow_study(flows)

    # run the engine in byte mode on a slice and compare mappings
    byte_params = scenario.params.with_overrides(count_bytes=True)
    slice_flows = [f for f in flows if f.timestamp < 14.0 * 3600.0]
    flow_run = Pipeline(scenario.params).run(slice_flows)
    byte_run = Pipeline(byte_params).run(slice_flows)
    flow_map = {
        str(r.range): r.ingress for r in flow_run.final_snapshot()
    }
    byte_map = {
        str(r.range): r.ingress for r in byte_run.final_snapshot()
    }
    common = set(flow_map) & set(byte_map)
    agree = sum(1 for key in common if flow_map[key] == byte_map[key])
    agreement = agree / len(common) if common else 0.0

    write_result(
        "sec31_counters",
        render_table(
            ["metric", "measured", "paper"],
            [
                ["flow/byte correlation", f"{correlation:.2f} "
                 f"({n_prefixes} prefixes)", "0.82"],
                ["32-bit headroom (flows)",
                 f"{study.flow_headroom_doublings:.1f} doublings", "ample"],
                ["32-bit headroom (bytes)",
                 f"{study.byte_headroom_doublings:.1f} doublings",
                 "overflows quickly"],
                ["mode agreement on common ranges", f"{agreement:.2f}",
                 "byte mode optional"],
            ],
            title="§3.1: counting flows instead of bytes"),
    )

    assert correlation > 0.6
    assert study.flows_safer
    assert (
        study.flow_headroom_doublings - study.byte_headroom_doublings > 5.0
    )
    assert agreement > 0.9
