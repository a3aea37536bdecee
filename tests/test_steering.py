"""Tests for the §5.8 hyper-giant traffic steering policy."""

import pytest

from repro.core.iputil import Prefix
from repro.core.output import IPDRecord
from repro.steering import SteeringPolicy, apply_plan, link_loads
from repro.topology.elements import IngressPoint

# small_topology: AS100 has PNIs L1 (R1, LAG et0/et1) and L2 (R4.et0);
# AS200 peering L3 (R2.xe0); AS300 transit L4; AS400 transit L5.
ON_L1 = IngressPoint("R1", "et0")
ON_L2 = IngressPoint("R4", "et0")
ON_L3 = IngressPoint("R2", "xe0")


def record(range_text: str, ingress: IngressPoint, load: float) -> IPDRecord:
    return IPDRecord(
        timestamp=0.0, range=Prefix.from_string(range_text), ingress=ingress,
        s_ingress=1.0, s_ipcount=load, n_cidr=2.0,
        candidates=((ingress, load),),
    )


class TestLinkLoads:
    def test_aggregates_by_link(self, small_topology):
        records = [
            record("10.0.0.0/24", ON_L1, 60.0),
            record("10.0.1.0/24", IngressPoint("R1", "et1"), 40.0),  # same L1
            record("10.0.2.0/24", ON_L2, 10.0),
        ]
        loads = link_loads(records, small_topology, {"L1": 200.0, "L2": 100.0})
        assert loads["L1"].load == 100.0
        assert loads["L1"].utilization == pytest.approx(0.5)
        assert loads["L2"].load == 10.0

    def test_uncapacitated_links_have_zero_utilization_risk(self, small_topology):
        loads = link_loads(
            [record("10.0.0.0/24", ON_L1, 5.0)], small_topology, {}
        )
        assert loads["L1"].utilization == 0.0 or loads["L1"].capacity == float("inf")


class TestSteeringPolicy:
    def make_policy(self, small_topology, capacities=None):
        capacities = capacities or {"L1": 100.0, "L2": 100.0}
        return SteeringPolicy(
            small_topology, capacities,
            high_watermark=0.9, low_watermark=0.6,
        )

    def test_no_moves_when_healthy(self, small_topology):
        policy = self.make_policy(small_topology)
        plan = policy.plan([record("10.0.0.0/24", ON_L1, 50.0)])
        assert plan.moves == []
        assert plan.unrelieved == []

    def test_overload_moves_to_same_neighbor_alternative(self, small_topology):
        policy = self.make_policy(small_topology)
        records = [
            record(f"10.0.{i}.0/24", ON_L1, 20.0) for i in range(5)
        ]  # L1 at 100/100 = 1.0 utilization
        plan = policy.plan(records)
        assert plan.moves
        for move in plan.moves:
            assert move.from_link == "L1"
            assert move.to_link == "L2"  # AS100's other PNI
        # moved enough to reach the low watermark
        remaining = 100.0 - plan.moved_load()
        assert remaining <= 0.6 * 100.0

    def test_never_moves_to_other_neighbors_link(self, small_topology):
        """A CDN can only serve from its own sites: moves stay within
        the neighbor's links (never e.g. AS200's peering link)."""
        policy = self.make_policy(small_topology)
        records = [record(f"10.0.{i}.0/24", ON_L1, 30.0) for i in range(4)]
        plan = policy.plan(records)
        assert all(move.to_link == "L2" for move in plan.moves)

    def test_unrelieved_when_no_alternative(self, small_topology):
        # AS200 has only one link (L3): overload cannot be relieved
        policy = SteeringPolicy(
            small_topology, {"L3": 50.0}, high_watermark=0.9,
            low_watermark=0.6,
        )
        plan = policy.plan([record("20.0.0.0/24", ON_L3, 100.0)])
        assert plan.moves == []
        assert plan.unrelieved == ["L3"]

    def test_target_capacity_respected(self, small_topology):
        """Moves never push the target link above its own ceiling."""
        policy = SteeringPolicy(
            small_topology, {"L1": 100.0, "L2": 40.0},
            high_watermark=0.9, low_watermark=0.3,
            max_target_utilization=0.8,
        )
        records = [record(f"10.0.{i}.0/24", ON_L1, 25.0) for i in range(4)]
        plan = policy.plan(records)
        moved_to_l2 = plan.by_target().get("L2", 0.0)
        assert moved_to_l2 <= 0.8 * 40.0

    def test_watermark_validation(self, small_topology):
        with pytest.raises(ValueError):
            SteeringPolicy(small_topology, {}, high_watermark=0.5,
                           low_watermark=0.9)


class TestApplyPlan:
    def test_plan_becomes_remap_events(self, small_topology):
        policy = SteeringPolicy(
            small_topology, {"L1": 100.0, "L2": 100.0},
            high_watermark=0.9, low_watermark=0.6,
        )
        records = [record(f"10.0.{i}.0/24", ON_L1, 25.0) for i in range(4)]
        plan = policy.plan(records)
        events = apply_plan(plan, start=1000.0, end=2000.0)
        assert len(events) == len(plan.moves)
        for event, move in zip(events, plan.moves):
            assert event.prefix == move.range
            assert event.new_ingress == move.to_ingress
            assert event.start == 1000.0


class TestClosedLoop:
    def test_steering_relieves_overload_end_to_end(self, small_topology):
        """IPD detects the imbalance, the plan is applied (CDN remaps),
        the next IPD epoch shows the load balanced — the full §5.8 loop."""
        from repro.core.iputil import parse_ip
        from repro.core.params import IPDParams
        from repro.netflow.records import FlowRecord
        from repro.runtime import Pipeline
        from repro.workloads.events import EventSchedule

        import random

        base = parse_ip("10.0.0.0")[0]
        capacities = {"L1": 3000.0, "L2": 3000.0}
        params = IPDParams(n_cidr_factor_v4=0.005, n_cidr_factor_v6=0.005)

        def flows(events: EventSchedule, start: float, minutes: int):
            rng = random.Random(1)
            out = []
            for bucket in range(minutes):
                ts0 = start + bucket * 60.0
                for index in range(80):
                    ts = ts0 + index * 0.7
                    src = base + (index % 4) * (1 << 16) + (index % 16) * 16
                    ingress = events.rewrite(ts, src, 4, ON_L1, rng)
                    out.append(FlowRecord(
                        timestamp=ts, src_ip=src, version=4, ingress=ingress,
                    ))
            return out

        # epoch 1: everything enters via L1 -> overloaded
        result = Pipeline(params).run(flows(EventSchedule(), 0.0, 30))
        snapshot = result.final_snapshot()
        policy = SteeringPolicy(
            small_topology, capacities,
            high_watermark=0.5, low_watermark=0.3,
        )
        plan = policy.plan(snapshot)
        assert plan.moves, "the overload must produce a plan"

        # epoch 2: CDN honors the plan; IPD re-learns the mapping
        schedule = EventSchedule()
        for event in apply_plan(plan, start=0.0, end=1e9):
            schedule.add(event)
        result2 = Pipeline(params).run(flows(schedule, 0.0, 30))
        loads = link_loads(
            result2.final_snapshot(), small_topology, capacities
        )
        assert loads.get("L2") is not None and loads["L2"].load > 0
        assert loads["L1"].load < link_loads(
            snapshot, small_topology, capacities
        )["L1"].load


class TestSubdivideByFlows:
    def test_coarse_range_refined_to_observed_subprefixes(self, small_topology):
        from repro.core.iputil import parse_ip
        from repro.netflow.records import FlowRecord
        from repro.steering import subdivide_by_flows

        coarse = record("10.0.0.0/8", ON_L1, 100.0)
        flows = []
        # 30 flows in 10.1.0.0/16, 10 in 10.2.0.0/16
        for i in range(30):
            flows.append(FlowRecord(timestamp=0.0,
                                    src_ip=parse_ip("10.1.0.0")[0] + i,
                                    version=4, ingress=ON_L1))
        for i in range(10):
            flows.append(FlowRecord(timestamp=0.0,
                                    src_ip=parse_ip("10.2.0.0")[0] + i,
                                    version=4, ingress=ON_L1))
        refined = subdivide_by_flows([coarse], flows, masklen=16)
        by_range = {str(r.range): r for r in refined}
        assert by_range["10.1.0.0/16"].s_ipcount == 30.0
        assert by_range["10.2.0.0/16"].s_ipcount == 10.0
        assert all(r.ingress == ON_L1 for r in refined)

    def test_fine_ranges_pass_through(self, small_topology):
        from repro.steering import subdivide_by_flows

        fine = record("10.0.0.0/24", ON_L1, 5.0)
        refined = subdivide_by_flows([fine], [], masklen=16)
        assert len(refined) == 1
        assert str(refined[0].range) == "10.0.0.0/24"
        assert refined[0].s_ipcount == 5.0

    def test_plan_on_refined_records_moves_real_load(self, small_topology):
        """Steering a coarse range whose load concentrates in one corner:
        blind splitting would move empty space, flow-weighted refinement
        moves the actual traffic."""
        from repro.core.iputil import parse_ip
        from repro.netflow.records import FlowRecord
        from repro.steering import SteeringPolicy, subdivide_by_flows

        coarse = record("10.0.0.0/8", ON_L1, 1000.0)
        flows = [
            FlowRecord(timestamp=0.0, src_ip=parse_ip("10.5.0.0")[0] + i % 256,
                       version=4, ingress=ON_L1)
            for i in range(1000)
        ]
        refined = subdivide_by_flows([coarse], flows, masklen=16)
        policy = SteeringPolicy(
            small_topology, {"L1": 1000.0, "L2": 2000.0},
            high_watermark=0.5, low_watermark=0.2,
        )
        plan = policy.plan(refined)
        assert plan.moves
        # the move targets the sub-prefix that actually carries traffic
        assert any("10.5." in str(m.range) or
                   m.range.contains(parse_ip("10.5.0.1")[0])
                   for m in plan.moves)
