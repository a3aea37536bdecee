"""Canned experiment scenarios.

Each paper experiment needs a workload with particular structure (a
maintenance window, a violation trend, weeks of prime-time snapshots…).
A :class:`Scenario` bundles everything needed to run one: the topology,
the address plan, unit configuration, traffic config, event schedule and
scaled IPD parameters — and knows how to produce fresh deterministic
flow streams, the matching BGP table and the analysis group sets.

**Scale note.**  The paper's deployment sees ~32 M flows/minute; the
Python substrate replays thousands.  IPD's decisions depend only on the
ratio of traffic to the ``n_cidr`` thresholds, so scenarios scale
``n_cidr_factor`` down with the flow rate (DESIGN.md §5).  The default
pairing (factor 0.25 at 3,000 flows/bucket) makes the /0 root split
within minutes, just as factor 64 does at 32 M flows/minute.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

from typing import TYPE_CHECKING

from ..core.params import IPDParams
from ..runtime.pipeline import Pipeline
from ..runtime.result import RunResult
from ..netflow.records import FlowRecord
from ..topology.elements import IngressPoint
from ..topology.generator import TopologySpec, generate_topology
from ..topology.network import ISPTopology
from .address_space import AddressPlan
from .diurnal import DiurnalModel
from .events import EventSchedule, LoadBalanceEvent, MaintenanceEvent, RemapEvent
from .mapping import ASIngressModel, UnitConfig, build_units
from .traffic import TrafficConfig, TrafficGenerator

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..bgp.announcements import AnnouncementConfig
    from ..bgp.rib import BGPTable
    from ..core.admission import AdmissionConfig

__all__ = [
    "Scenario",
    "SCALED_PARAMS",
    "default_scenario",
    "dualstack_scenario",
    "events_scenario",
    "reaction_scenario",
    "longitudinal_scenario",
    "violations_scenario",
    "load_balancing_scenario",
]

#: production Table-1 parameters rescaled to synthetic traffic volume
SCALED_PARAMS = IPDParams(
    n_cidr_factor_v4=0.25, n_cidr_factor_v6=0.1, drop_threshold=0.25
)

#: simulation epoch starts at local midnight; noon of day one
_NOON = 12 * 3600.0


@dataclass
class Scenario:
    """A fully specified, reproducible experiment setup."""

    name: str
    topology: ISPTopology
    plan: AddressPlan
    traffic_config: TrafficConfig
    params: IPDParams = field(default_factory=lambda: SCALED_PARAMS)
    unit_config: UnitConfig = field(default_factory=UnitConfig)
    unit_overrides: dict[int, UnitConfig] = field(default_factory=dict)
    events: EventSchedule = field(default_factory=EventSchedule)
    unit_seed: int = 11
    #: free-form scenario annotations (e.g. which AS carries which event)
    notes: dict = field(default_factory=dict)

    # -- workload -----------------------------------------------------------

    def build_models(self) -> dict[int, ASIngressModel]:
        """Fresh, deterministic per-AS unit models (safe to mutate)."""
        return build_units(
            self.topology,
            self.plan.profiles,
            config=self.unit_config,
            overrides=self.unit_overrides,
            seed=self.unit_seed,
        )

    def generator(self) -> TrafficGenerator:
        """A fresh generator; identical stream on every call."""
        return TrafficGenerator(
            self.topology, self.build_models(), self.traffic_config, self.events
        )

    def flow_source(self) -> Callable[[], Iterable[FlowRecord]]:
        """Factory form used by the parameter study runner."""
        return lambda: self.generator().flows()

    # -- substrate views ------------------------------------------------------

    def bgp_table(
        self, timestamp: float = 0.0, config: "Optional[AnnouncementConfig]" = None
    ) -> "BGPTable":
        """The RIB consistent with this scenario's plan and home links."""
        from ..bgp.announcements import generate_table

        return generate_table(
            self.topology, self.plan, self.build_models(), config, timestamp
        )

    def asn_of(self) -> Callable[[int], Optional[int]]:
        from ..analysis.accuracy import asn_lookup_from_blocks

        return asn_lookup_from_blocks(self.plan.blocks())

    def groups(self) -> dict[str, set[int]]:
        """The paper's TOP5/TOP20 traffic groups."""
        return {
            "TOP5": set(self.plan.top_asns(5)),
            "TOP20": set(self.plan.top_asns(20)),
        }

    def tier1_asns(self) -> list[int]:
        return [
            profile.asn
            for profile in self.plan.profiles.values()
            if profile.is_tier1
        ]

    # -- execution -------------------------------------------------------------

    def run(
        self,
        snapshot_seconds: float = 300.0,
        include_unclassified: bool = False,
        keep_flows: bool = True,
        admission: "Optional[AdmissionConfig]" = None,
    ) -> tuple[list[FlowRecord], RunResult]:
        """Replay the scenario through IPD; returns (flows, results).

        With ``keep_flows=False`` the stream is not materialized (for
        long runs where only snapshots matter) and the first element is
        an empty list.  The run is one plain engine (a sharded replay is
        ``Pipeline(shards=...)``, with identical results).  ``admission``
        attaches the sketch-gated front-end (one gate per deployment);
        ``exact`` mode keeps results identical to admission off,
        ``lossy`` trades never-promoted mice for ingest throughput.
        """
        with Pipeline(
            self.params,
            snapshot_seconds=snapshot_seconds,
            include_unclassified=include_unclassified,
            admission=admission,
        ) as pipeline:
            if keep_flows:
                flows = list(self.generator().flows())
                result = pipeline.run(flows)
                return flows, result
            result = pipeline.run(self.generator().flows())
            return [], result


def _base_topology_and_plan(
    seed: int,
) -> tuple[TopologySpec, ISPTopology, AddressPlan]:
    spec = TopologySpec(seed=seed)
    topology = generate_topology(spec)
    plan = AddressPlan.build(
        hypergiant_asns=spec.hypergiant_asns,
        peer_asns=spec.peer_asns,
        tier1_asns=spec.transit_asns,
    )
    return spec, topology, plan


def _symmetry_overrides(
    plan: AddressPlan, base: UnitConfig
) -> dict[int, UnitConfig]:
    """Per-group symmetry anchors for the Fig. 16 targets.

    tier-1 ASes ~91 %, TOP5 (hypergiants) ~77 %, the tail ~55 %.
    """
    overrides: dict[int, UnitConfig] = {}
    top5 = set(plan.top_asns(5))
    for asn, profile in plan.profiles.items():
        if profile.is_tier1:
            overrides[asn] = replace(base, symmetry_probability=0.93)
        elif asn in top5:
            overrides[asn] = replace(base, symmetry_probability=0.80)
        else:
            overrides[asn] = replace(base, symmetry_probability=0.55)
    return overrides


def default_scenario(
    duration_hours: float = 6.0,
    flows_per_bucket_peak: int = 3500,
    start_hour: float = 12.0,
    seed: int = 7,
    params: IPDParams | None = None,
) -> Scenario:
    """The general-purpose workload behind Figs. 2-6, 9, 11, 15, 16.

    Zipf AS mix calibrated to TOP5 = 52 % of volume, diurnal load, CDN
    churn, 2 % ingress noise, ~8 % genuinely multi-ingress units, 10 %
    elephants.
    """
    __, topology, plan = _base_topology_and_plan(seed)
    unit_config = UnitConfig(
        multi_ingress_fraction=0.04,
        secondary_share_range=(0.10, 0.45),
        elephant_fraction=0.20,
        churny_remap_range=(0.002, 0.018),
    )
    traffic_config = TrafficConfig(
        start_time=start_hour * 3600.0,
        duration_seconds=duration_hours * 3600.0,
        flows_per_bucket_peak=flows_per_bucket_peak,
        noise_share=0.015,
        seed=seed + 100,
        diurnal=DiurnalModel(trough_ratio=0.35),
    )
    return Scenario(
        name="default",
        topology=topology,
        plan=plan,
        traffic_config=traffic_config,
        params=params or SCALED_PARAMS,
        unit_config=unit_config,
        unit_overrides=_symmetry_overrides(plan, unit_config),
        unit_seed=seed + 4,
    )


def dualstack_scenario(
    duration_hours: float = 4.0,
    flows_per_bucket_peak: int = 3500,
    v6_flow_share: float = 0.2,
    seed: int = 7,
) -> Scenario:
    """A dual-stack workload exercising the IPv6 (/48, factor-0.1) path.

    Every AS additionally originates an IPv6 /32, carved into /40-/46
    units with /48 source slots; *v6_flow_share* of the flow volume is
    IPv6.  Used by the IPv6 benches/tests — the v4-only scenarios stay
    cheaper.
    """
    spec = TopologySpec(seed=seed)
    topology = generate_topology(spec)
    plan = AddressPlan.build(
        hypergiant_asns=spec.hypergiant_asns,
        peer_asns=spec.peer_asns,
        tier1_asns=spec.transit_asns,
        include_ipv6=True,
    )
    unit_config = UnitConfig(
        multi_ingress_fraction=0.04,
        secondary_share_range=(0.10, 0.45),
        elephant_fraction=0.20,
        churny_remap_range=(0.002, 0.018),
    )
    traffic_config = TrafficConfig(
        start_time=12.0 * 3600.0,
        duration_seconds=duration_hours * 3600.0,
        flows_per_bucket_peak=flows_per_bucket_peak,
        noise_share=0.015,
        v6_flow_share=v6_flow_share,
        seed=seed + 100,
        diurnal=DiurnalModel(trough_ratio=0.35),
    )
    # The v6 minimum-sample curve is anchored at /64, so its /0 root
    # requires factor * 2^32 samples — at simulation volume the factor
    # must shrink accordingly (the deployment's factor 24 is matched to
    # ~4M flows/s; see DESIGN.md §5).
    params = SCALED_PARAMS.with_overrides(n_cidr_factor_v6=1e-7)
    return Scenario(
        name="dualstack",
        topology=topology,
        plan=plan,
        traffic_config=traffic_config,
        params=params,
        unit_config=unit_config,
        unit_overrides=_symmetry_overrides(plan, unit_config),
        unit_seed=seed + 4,
    )


def events_scenario(
    duration_hours: float = 24.0,
    flows_per_bucket_peak: int = 3000,
    seed: int = 7,
) -> Scenario:
    """Fig. 7/8: TOP5 ASes with distinct, diagnosable miss causes.

    * AS1 (rank 1): router maintenance around 11 AM and 11 PM diverts a
      LAG member to two *other* interfaces on the same router —
      interface misses at exactly those hours.
    * AS3 (rank 3): a CDN mapping misalignment sends one prefix's
      traffic to a router in another country during the busy afternoon
      — PoP misses correlated with load.
    * AS4 (rank 4): demand-driven CDN remaps (high churn) — PoP misses
      tracking the diurnal curve.
    """
    scenario = default_scenario(
        duration_hours=duration_hours,
        flows_per_bucket_peak=flows_per_bucket_peak,
        start_hour=0.0,
        seed=seed,
    )
    scenario.name = "events"
    topology, plan = scenario.topology, scenario.plan
    models = scenario.build_models()
    ranked = plan.top_asns(5)

    events = EventSchedule()

    # --- "AS1" role: maintenance on a LAG member of a busy link ---------
    # The paper's AS1 had a *bundle* classified; during maintenance, part
    # of its traffic arrived on other interfaces of the same router
    # (interface misses) while the bulk kept entering the bundle.  We
    # pick the highest-ranked AS whose home link is a LAG so the
    # classification survives the partial diversion.
    maintenance_asn = next(
        (asn for asn in ranked
         if len(topology.links[models[asn].home_link].interfaces) >= 2),
        ranked[0],
    )
    maint_link = topology.links[models[maintenance_asn].home_link]
    maint_router = maint_link.router
    fallback_iface = _other_interface_on(topology, maint_router,
                                         maint_link.link_id)
    maintenance_hours = (11.0, 23.0)
    if fallback_iface is not None:
        for hour in maintenance_hours:
            events.add(
                MaintenanceEvent(
                    router=maint_router,
                    interface=maint_link.interfaces[0].name,
                    start=hour * 3600.0,
                    end=(hour + 0.75) * 3600.0,
                    fallback=fallback_iface,
                )
            )
    scenario.notes["maintenance_asn"] = maintenance_asn
    scenario.notes["maintenance_hours"] = maintenance_hours

    # --- AS3 role: mapping misalignment into another country -------------
    # The paper's AS3 shows *sustained* PoP misses tracking its demand
    # curve: the CDN's mapping keeps sending changing user groups to the
    # wrong site.  A single long remap would be learned by IPD within
    # minutes (it is exactly the Fig. 13 reaction), so the misalignment
    # rotates: each hour of the busy window a different heavy unit is
    # mapped into another country for 45 minutes — IPD chases it all
    # afternoon, as the real CDN made it do.
    as3 = ranked[2]
    heavy_units = sorted(
        models[as3].units, key=lambda u: -u.weight
    )[:8]
    foreign = _ingress_in_other_country(
        topology, topology.links[heavy_units[0].primary_link].router
    )
    remap_window = (13.0, 21.0)
    if foreign is not None:
        for day_start in _day_starts(scenario.traffic_config):
            for slot, hour in enumerate(
                range(int(remap_window[0]), int(remap_window[1]))
            ):
                unit = heavy_units[slot % len(heavy_units)]
                events.add(
                    RemapEvent(
                        prefix=unit.prefix,
                        start=day_start + hour * 3600.0,
                        end=day_start + (hour + 0.75) * 3600.0,
                        new_ingress=foreign,
                    )
                )
    scenario.notes["remap_asn"] = as3
    scenario.notes["remap_window"] = remap_window

    # --- AS4 role: crank up demand-driven churn ---------------------------
    as4 = ranked[3]
    scenario.notes["churn_asn"] = as4
    scenario.unit_overrides[as4] = replace(
        scenario.unit_overrides.get(as4, scenario.unit_config),
        churny_remap_range=(0.02, 0.10),
        elephant_fraction=0.0,
    )
    scenario.traffic_config = replace(
        scenario.traffic_config, cdn_remap_boost=10.0
    )
    scenario.events = events
    return scenario


def reaction_scenario(seed: int = 7) -> Scenario:
    """Fig. 13/14: a /23 whose ingress changes during router maintenance.

    The first TOP5 AS's first unit plays the paper's ``x.y.196.0/23``:
    stable on one interface, then permanently moved to a different
    interface of the same router on "2020-07-14" (here: hour 12 of day
    2), reproducing the counter/confidence trajectory of Fig. 14.
    """
    scenario = default_scenario(
        duration_hours=96.0, flows_per_bucket_peak=3000, start_hour=0.0, seed=seed
    )
    scenario.name = "reaction"
    topology = scenario.topology
    models = scenario.build_models()
    as1 = scenario.plan.top_asns(5)[0]
    model = models[as1]
    # prefer a heavy, reasonably coarse unit — the paper's Fig. 13 watches
    # a /23 with sustained traffic
    coarse = [u for u in model.units if u.prefix.masklen <= 24]
    unit = max(coarse or model.units, key=lambda u: u.weight)
    link = topology.links[unit.primary_link]
    # move to a different router: same-router moves would be absorbed
    # into an interface bundle rather than triggering a reclassification
    other_link = next(
        l for l in topology.links.values() if l.router != link.router
    )
    new_iface = other_link.interfaces[0].ingress_point()
    switch_time = 36.0 * 3600.0
    scenario.events.add(
        RemapEvent(
            prefix=unit.prefix,
            start=switch_time,
            end=scenario.traffic_config.duration_seconds,
            new_ingress=new_iface,
        )
    )
    # pin the observed unit: no competing churn on it
    scenario.unit_overrides[as1] = replace(
        scenario.unit_overrides.get(as1, scenario.unit_config),
        churny_remap_range=(0.0005, 0.002),
        multi_ingress_fraction=0.0,
    )
    return scenario


def longitudinal_scenario(
    days: int = 45,
    flows_per_bucket_peak: int = 2500,
    seed: int = 7,
) -> Scenario:
    """Fig. 10: weeks of daily 8 PM prime-time windows.

    Traffic is emitted only 19:30-20:30 each day (unit drift for the
    skipped hours is compounded), keeping multi-week simulated runs
    affordable while preserving the daily comparison the paper makes.
    """
    scenario = default_scenario(
        duration_hours=days * 24.0,
        flows_per_bucket_peak=flows_per_bucket_peak,
        start_hour=19.0,
        seed=seed,
    )
    scenario.name = "longitudinal"
    # IPD restarts cold each day (state expires between windows); the
    # /0 -> /28 split cascade needs ~40 minutes, so the window must be
    # wide enough that prime-time snapshots are taken on a warm trie.
    scenario.traffic_config = replace(
        scenario.traffic_config,
        start_time=19.0 * 3600.0,
        duration_seconds=days * 86_400.0,
        active_hours=(19.0, 21.0),
    )
    scenario.notes["snapshot_hour"] = 20.75
    return scenario


def violations_scenario(
    days: int = 120,
    flows_per_bucket_peak: int = 2000,
    seed: int = 7,
) -> Scenario:
    """Fig. 17: tier-1 prefixes drifting onto third-party links.

    A small base violation rate grows linearly with simulated time —
    the paper observes +50 % from late 2019 and a doubling by 2020.
    """
    scenario = longitudinal_scenario(
        days=days, flows_per_bucket_peak=flows_per_bucket_peak, seed=seed
    )
    scenario.name = "violations"
    scenario.traffic_config = replace(
        scenario.traffic_config,
        violation_base=0.03,
        violation_growth_per_day=0.0008,
    )
    # tier-1 units must remap at all for violations to appear
    for asn, profile in scenario.plan.profiles.items():
        if profile.is_tier1:
            scenario.unit_overrides[asn] = replace(
                scenario.unit_overrides.get(asn, scenario.unit_config),
                elephant_fraction=0.0,
                churny_remap_range=(0.01, 0.04),
            )
    return scenario


def load_balancing_scenario(
    duration_hours: float = 4.0, seed: int = 7
) -> Scenario:
    """§5.8: a hypergiant balances one prefix over two routers.

    IPD is expected to *fail to classify* the balanced prefix — the
    documented design limitation.
    """
    scenario = default_scenario(
        duration_hours=duration_hours, flows_per_bucket_peak=3000, seed=seed
    )
    scenario.name = "load-balancing"
    topology = scenario.topology
    models = scenario.build_models()
    as1 = scenario.plan.top_asns(5)[0]
    unit = max(models[as1].units, key=lambda u: u.weight)
    routers = list(topology.routers)
    first = topology.links[unit.primary_link].interfaces[0].ingress_point()
    other_router = next(r for r in routers if r != first.router)
    second = next(
        iface.ingress_point()
        for iface in topology.interfaces()
        if iface.router == other_router
    )
    scenario.events.add(
        LoadBalanceEvent(
            prefix=unit.prefix,
            start=scenario.traffic_config.start_time,
            end=scenario.traffic_config.start_time
            + scenario.traffic_config.duration_seconds,
            choices=(first, second),
        )
    )
    return scenario


# -- small topology helpers ----------------------------------------------------


def _other_interface_on(
    topology: ISPTopology, router: str, exclude_link: str
) -> Optional[IngressPoint]:
    """Another interface on the same router (an interface-miss target)."""
    for iface in topology.interfaces():
        if iface.router == router and iface.link_id != exclude_link:
            return iface.ingress_point()
    return None


def _ingress_in_other_country(
    topology: ISPTopology, router: str
) -> Optional[IngressPoint]:
    """An ingress point in a different country (a PoP-miss target)."""
    country = topology.country_of_router(router)
    for iface in topology.interfaces():
        if topology.country_of_router(iface.router) != country:
            return iface.ingress_point()
    return None


def _day_starts(config: TrafficConfig) -> list[float]:
    """Midnights covered by a traffic config's duration."""
    first_day = int(config.start_time // 86_400)
    last_day = int((config.start_time + config.duration_seconds) // 86_400)
    return [day * 86_400.0 for day in range(first_day, last_day + 1)]
