"""Adversarial scenario pack: hostile workloads with generator-side truth.

Three attack/pathology families stress the claims the benign scenarios
never test (DESIGN.md §14):

* **Spoofed-source floods** — uniform-random or subnet-concentrated
  source spraying layered over a benign baseline with a linear ramp.
  Measures IPD state blow-up, classification pollution of benign
  ranges, and ingest throughput with admission off/exact/lossy; this is
  the workload the sketch-gated admission front-end exists for.
* **Traffic policing** — token-bucket rate enforcement clips elephant
  flows mid-trace (:class:`~repro.workloads.events.PolicingEvent`).
  The volume *profile* changes shape while the ingress does not;
  classification must survive.
* **Route-flap storms** — prefixes oscillate between ingresses at
  periods bracketing the engine's ``t``
  (:class:`~repro.workloads.events.RouteFlapEvent`), probing the decay
  function's stability envelope.

Every factory returns an :class:`AdversarialScenario` carrying an
:class:`AdversarialGroundTruth` record consumed by the evaluators in
:mod:`repro.analysis.adversarial`.  The benign sub-stream of a flood
scenario is byte-identical to its :meth:`~AdversarialScenario.baseline`
twin (the flood uses its own seeded RNG), so attack/baseline A/B
comparisons isolate the attack's effect exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..core.iputil import IPV4, Prefix
from ..core.params import IPDParams
from ..netflow.records import FlowRecord
from ..topology.elements import IngressPoint
from ..topology.network import ISPTopology
from .events import EventSchedule, PolicingEvent, RouteFlapEvent
from .mapping import ASIngressModel, MappingUnit
from .scenarios import Scenario, default_scenario
from .traffic import TrafficConfig, TrafficGenerator

__all__ = [
    "ADVERSARIAL_SCENARIOS",
    "AdversarialGroundTruth",
    "AdversarialScenario",
    "AdversarialTrafficGenerator",
    "FloodProfile",
    "adversarial_scenario",
    "policing_clip_scenario",
    "route_flap_scenario",
    "spoofed_flood_scenario",
]

#: mean bytes of one generated flow: packets ~ 1 + Exp(8), sizes drawn
#: uniformly from {64, 576, 1500} (see TrafficGenerator._make_flow)
_MEAN_FLOW_BYTES = 9 * (64 + 576 + 1500) / 3


@dataclass(frozen=True)
class FloodProfile:
    """A spoofed-source flood layered over the benign stream.

    Sources are sprayed uniformly over the IPv4 space (``uniform``) or
    inside one concentrated subnet (``subnet``); intensity ramps
    linearly to the peak over *ramp_seconds*.  Flood flows are
    single-packet smalls (the classic reflection/SYN shape) entering
    via the victim *ingresses*.
    """

    start: float
    duration_seconds: float
    peak_flows_per_bucket: int
    ramp_seconds: float = 600.0
    mode: str = "uniform"
    subnet: Optional[Prefix] = None
    ingresses: tuple[IngressPoint, ...] = ()
    flow_bytes: int = 64
    seed: int = 1905

    def __post_init__(self) -> None:
        if self.mode not in ("uniform", "subnet"):
            raise ValueError(f"unknown flood mode: {self.mode!r}")
        if self.mode == "subnet" and self.subnet is None:
            raise ValueError("subnet mode needs a subnet")
        if not self.ingresses:
            raise ValueError("a flood needs at least one victim ingress")
        if self.peak_flows_per_bucket <= 0 or self.duration_seconds <= 0:
            raise ValueError("flood volume and duration must be positive")

    @property
    def end(self) -> float:
        return self.start + self.duration_seconds

    def intensity(self, timestamp: float) -> float:
        """Ramp factor in [0, 1] at *timestamp* (0 outside the window)."""
        if not self.start <= timestamp < self.end:
            return 0.0
        if self.ramp_seconds <= 0.0:
            return 1.0
        return min(1.0, (timestamp - self.start) / self.ramp_seconds)

    def source_space(self) -> int:
        """Number of addresses the spray draws from."""
        if self.mode == "subnet" and self.subnet is not None:
            return self.subnet.num_addresses
        return 1 << 32


@dataclass
class AdversarialGroundTruth:
    """What the adversary actually did — the evaluators' reference.

    The generator *decides* the attack, so this record is exact, not
    inferred: attacked source space, the benign plan it pollutes, the
    clip events, the flap schedule.
    """

    family: str
    #: source space the attack sprays from (flood) or targets (clip/flap)
    attacked_prefixes: tuple[Prefix, ...] = ()
    #: the benign address plan's allocated blocks
    benign_prefixes: tuple[Prefix, ...] = ()
    #: [start, end) of the attack, in trace time
    attack_window: Optional[tuple[float, float]] = None
    #: ingress points the flood converges on
    flood_ingresses: tuple[IngressPoint, ...] = ()
    #: expected distinct spoofed sources (sizes the admission sketch)
    expected_sources: int = 0
    #: the policing events, verbatim
    clipped: tuple[PolicingEvent, ...] = ()
    #: the flap schedule, verbatim
    flaps: tuple[RouteFlapEvent, ...] = ()
    notes: dict = field(default_factory=dict)


class AdversarialTrafficGenerator(TrafficGenerator):
    """Benign generator plus a flood overlay.

    The flood draws from its own seeded RNG, so the benign sub-stream
    is byte-identical with and without the attack — A/B comparisons
    (state blow-up, pollution) isolate the flood's effect exactly.
    """

    def __init__(
        self,
        topology: ISPTopology,
        models: dict[int, ASIngressModel],
        config: TrafficConfig | None = None,
        events: Optional[EventSchedule] = None,
        flood: Optional[FloodProfile] = None,
    ) -> None:
        super().__init__(topology, models, config, events)
        self.flood = flood
        self._flood_rng = random.Random(flood.seed if flood else 0)
        #: flood flows emitted so far (attack-volume bookkeeping)
        self.flood_flows = 0

    def bucket_flows(
        self, bucket_start: float, drift_buckets: int = 1
    ) -> list[FlowRecord]:
        flows = super().bucket_flows(bucket_start, drift_buckets)
        flood = self.flood
        if flood is None:
            return flows
        bucket_seconds = self.config.bucket_seconds
        count = round(
            flood.peak_flows_per_bucket
            * flood.intensity(bucket_start + bucket_seconds / 2.0)
        )
        if count <= 0:
            return flows
        flows.extend(self._flood_flows(flood, bucket_start, count))
        flows.sort(key=lambda flow: flow.timestamp)
        self.flood_flows += count
        return flows

    def _flood_flows(
        self, flood: FloodProfile, bucket_start: float, count: int
    ) -> list[FlowRecord]:
        rng = self._flood_rng
        lo = max(bucket_start, flood.start)
        hi = min(bucket_start + self.config.bucket_seconds, flood.end)
        span = max(hi - lo, 0.0)
        subnet = flood.subnet
        flows: list[FlowRecord] = []
        for __ in range(count):
            if subnet is not None:
                src_ip = subnet.value + rng.randrange(subnet.num_addresses)
            else:
                src_ip = rng.randrange(1 << 32)
            flows.append(
                FlowRecord(
                    timestamp=lo + rng.random() * span,
                    src_ip=src_ip,
                    version=IPV4,
                    ingress=rng.choice(flood.ingresses),
                    packets=1,
                    bytes=flood.flow_bytes,
                )
            )
        return flows


@dataclass
class AdversarialScenario(Scenario):
    """A :class:`Scenario` carrying an attack and its ground truth."""

    ground_truth: AdversarialGroundTruth = field(
        default_factory=lambda: AdversarialGroundTruth(family="benign")
    )
    flood: Optional[FloodProfile] = None

    def generator(self) -> TrafficGenerator:
        return AdversarialTrafficGenerator(
            self.topology,
            self.build_models(),
            self.traffic_config,
            self.events,
            flood=self.flood,
        )

    def baseline(self) -> "AdversarialScenario":
        """The attack-free twin: same benign stream, no adversary.

        Flood scenarios share the benign RNG with their baseline, so
        the only difference between the two runs is the attack itself.
        """
        stripped = EventSchedule(
            maintenance=list(self.events.maintenance),
            remaps=list(self.events.remaps),
            load_balancing=list(self.events.load_balancing),
        )
        return replace(
            self,
            name=f"{self.name}-baseline",
            events=stripped,
            flood=None,
            ground_truth=AdversarialGroundTruth(
                family="baseline",
                benign_prefixes=self.ground_truth.benign_prefixes,
            ),
        )


# -- factories -----------------------------------------------------------------


def spoofed_flood_scenario(
    mode: str = "uniform",
    duration_hours: float = 1.5,
    flows_per_bucket_peak: int = 1500,
    flood_multiplier: float = 8.0,
    ramp_minutes: float = 10.0,
    victim_ingresses: int = 1,
    seed: int = 7,
    params: IPDParams | None = None,
) -> AdversarialScenario:
    """A spoofed-source DDoS flood over the default benign workload.

    The flood ramps to ``flood_multiplier`` times the benign peak over
    *ramp_minutes*, occupies the middle half of the run, and converges
    on one victim ingress (a volumetric attack on one customer link —
    the single dominant ingress is what lets spoofed ranges classify
    and pollute; raise *victim_ingresses* to spread the attack).
    ``uniform`` sprays the whole IPv4 space (pollution pressure
    everywhere), ``subnet`` concentrates on one unallocated /12
    (localized state blow-up).
    """
    base = default_scenario(
        duration_hours=duration_hours,
        flows_per_bucket_peak=flows_per_bucket_peak,
        seed=seed,
        params=params,
    )
    config = base.traffic_config
    start = config.start_time + 0.25 * config.duration_seconds
    duration = 0.5 * config.duration_seconds
    subnet = _offplan_subnet(base) if mode == "subnet" else None
    flood = FloodProfile(
        start=start,
        duration_seconds=duration,
        peak_flows_per_bucket=int(flows_per_bucket_peak * flood_multiplier),
        ramp_seconds=ramp_minutes * 60.0,
        mode=mode,
        subnet=subnet,
        ingresses=_victim_ingresses(base.topology, victim_ingresses),
        seed=seed + 1905,
    )
    total_flood = _total_flood_flows(flood, config)
    space = flood.source_space()
    expected_sources = round(space * (1.0 - math.exp(-total_flood / space)))
    ground_truth = AdversarialGroundTruth(
        family="flood",
        attacked_prefixes=(subnet,) if subnet else (Prefix.root(IPV4),),
        benign_prefixes=tuple(block for __, block in base.plan.blocks()),
        attack_window=(flood.start, flood.end),
        flood_ingresses=flood.ingresses,
        expected_sources=expected_sources,
        notes={
            "mode": mode,
            "flood_multiplier": flood_multiplier,
            "total_flood_flows": total_flood,
        },
    )
    return AdversarialScenario(
        name=f"flood-{mode}",
        topology=base.topology,
        plan=base.plan,
        traffic_config=config,
        params=base.params,
        unit_config=base.unit_config,
        unit_overrides=base.unit_overrides,
        events=base.events,
        unit_seed=base.unit_seed,
        notes=base.notes,
        ground_truth=ground_truth,
        flood=flood,
    )


def policing_clip_scenario(
    duration_hours: float = 2.0,
    flows_per_bucket_peak: int = 3000,
    clip_ratio: float = 0.1,
    targets: int = 3,
    seed: int = 7,
    params: IPDParams | None = None,
) -> AdversarialScenario:
    """Token-bucket policing clips the heaviest elephants mid-trace.

    The heaviest unit of each of the top-*targets* ASes is policed to
    ``clip_ratio`` of its offered byte rate during the middle third of
    the run.  The policed ASes are pinned (no churn, no secondary
    links) so survival measures policing alone, not coincident remaps.
    """
    base = default_scenario(
        duration_hours=duration_hours,
        flows_per_bucket_peak=flows_per_bucket_peak,
        seed=seed,
        params=params,
    )
    target_asns = base.plan.top_asns(targets)
    for asn in target_asns:
        base.unit_overrides[asn] = replace(
            base.unit_overrides.get(asn, base.unit_config),
            churny_remap_range=(0.0, 0.0),
            multi_ingress_fraction=0.0,
        )
    models = base.build_models()
    config = base.traffic_config
    clip_start = config.start_time + config.duration_seconds / 3.0
    clip_end = clip_start + config.duration_seconds / 3.0
    total_weight = sum(p.weight for p in base.plan.profiles.values())

    events: list[PolicingEvent] = []
    for asn in target_asns:
        model = models[asn]
        unit = max(model.units, key=lambda u: u.weight)
        offered = _offered_bytes_per_second(
            unit, model, config, base.plan.profiles[asn].weight / total_weight
        )
        rate = max(1.0, clip_ratio * offered)
        event = PolicingEvent(
            prefix=unit.prefix,
            start=clip_start,
            end=clip_end,
            rate_bytes_per_second=rate,
            burst_bytes=rate * 10.0,
        )
        events.append(event)
        base.events.add(event)
    ground_truth = AdversarialGroundTruth(
        family="policing",
        attacked_prefixes=tuple(event.prefix for event in events),
        benign_prefixes=tuple(block for __, block in base.plan.blocks()),
        attack_window=(clip_start, clip_end),
        clipped=tuple(events),
        notes={"clip_ratio": clip_ratio, "target_asns": target_asns},
    )
    return AdversarialScenario(
        name="policing-clip",
        topology=base.topology,
        plan=base.plan,
        traffic_config=config,
        params=base.params,
        unit_config=base.unit_config,
        unit_overrides=base.unit_overrides,
        events=base.events,
        unit_seed=base.unit_seed,
        notes=base.notes,
        ground_truth=ground_truth,
    )


def route_flap_scenario(
    duration_hours: float = 2.0,
    flows_per_bucket_peak: int = 3000,
    periods: tuple[float, ...] = (15.0, 30.0, 60.0, 240.0, 960.0, 3840.0),
    warmup_minutes: float = 30.0,
    seed: int = 7,
    params: IPDParams | None = None,
) -> AdversarialScenario:
    """A route-flap storm at periods bracketing the engine's ``t``.

    Each period gets its own heavy prefix oscillating between two
    ingresses on *different* routers (same-router pairs would be
    absorbed by §3.2 interface bundling) from *warmup_minutes* in until
    the end of the run.  Periods above ``t`` should survive the decay
    function; the instability onset below ``t`` is the measurement.
    """
    base = default_scenario(
        duration_hours=duration_hours,
        flows_per_bucket_peak=flows_per_bucket_peak,
        seed=seed,
        params=params,
    )
    target_asns = base.plan.top_asns(len(periods))
    for asn in target_asns:
        base.unit_overrides[asn] = replace(
            base.unit_overrides.get(asn, base.unit_config),
            churny_remap_range=(0.0, 0.0),
            multi_ingress_fraction=0.0,
        )
    models = base.build_models()
    config = base.traffic_config
    # short runs clamp the warmup so the storm always has a window
    warmup = min(warmup_minutes * 60.0, config.duration_seconds / 4.0)
    flap_start = config.start_time + warmup
    flap_end = config.start_time + config.duration_seconds

    flaps: list[RouteFlapEvent] = []
    for asn, period in zip(target_asns, periods):
        unit = max(models[asn].units, key=lambda u: u.weight)
        event = RouteFlapEvent(
            prefix=unit.prefix,
            start=flap_start,
            end=flap_end,
            period_seconds=period,
            ingresses=_flap_pair(base.topology, unit),
        )
        flaps.append(event)
        base.events.add(event)
    ground_truth = AdversarialGroundTruth(
        family="flap",
        attacked_prefixes=tuple(event.prefix for event in flaps),
        benign_prefixes=tuple(block for __, block in base.plan.blocks()),
        attack_window=(flap_start, flap_end),
        flaps=tuple(flaps),
        notes={"periods": periods, "target_asns": target_asns},
    )
    return AdversarialScenario(
        name="flap-storm",
        topology=base.topology,
        plan=base.plan,
        traffic_config=config,
        params=base.params,
        unit_config=base.unit_config,
        unit_overrides=base.unit_overrides,
        events=base.events,
        unit_seed=base.unit_seed,
        notes=base.notes,
        ground_truth=ground_truth,
    )


#: scenario-name registry behind ``cli run --scenario`` and the bench group
_FACTORIES: dict[str, Callable[..., AdversarialScenario]] = {
    "flood-uniform": lambda **kw: spoofed_flood_scenario(mode="uniform", **kw),
    "flood-subnet": lambda **kw: spoofed_flood_scenario(mode="subnet", **kw),
    "policing-clip": policing_clip_scenario,
    "flap-storm": route_flap_scenario,
}

ADVERSARIAL_SCENARIOS: tuple[str, ...] = tuple(sorted(_FACTORIES))


def adversarial_scenario(name: str, **overrides: object) -> AdversarialScenario:
    """Build a registered adversarial scenario by name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(ADVERSARIAL_SCENARIOS)
        raise ValueError(
            f"unknown adversarial scenario {name!r}; choose from: {known}"
        ) from None
    return factory(**overrides)


# -- internals -----------------------------------------------------------------


def _victim_ingresses(
    topology: ISPTopology, count: int = 2
) -> tuple[IngressPoint, ...]:
    """One ingress on each of the first *count* distinct routers."""
    points: list[IngressPoint] = []
    seen: set[str] = set()
    for iface in topology.interfaces():
        if iface.router in seen:
            continue
        seen.add(iface.router)
        points.append(iface.ingress_point())
        if len(points) == count:
            break
    return tuple(points)


def _offplan_subnet(scenario: Scenario, masklen: int = 12) -> Prefix:
    """A /12 disjoint from every allocated block (class-E territory)."""
    blocks = [block for __, block in scenario.plan.blocks()]
    span = 1 << (32 - masklen)
    for index in range(1 << 4):  # walk 240.0.0.0/4 in /12 steps
        candidate = Prefix.from_ip(0xF000_0000 + index * span, masklen, IPV4)
        if not any(
            candidate.contains(block) or block.contains(candidate)
            for block in blocks
        ):
            return candidate
    raise RuntimeError("no unallocated /12 found for the flood subnet")


def _total_flood_flows(flood: FloodProfile, config: TrafficConfig) -> int:
    """Deterministic total of flood flows the generator will emit."""
    total = 0
    bucket_start = config.start_time
    end_time = config.start_time + config.duration_seconds
    while bucket_start < end_time:
        total += round(
            flood.peak_flows_per_bucket
            * flood.intensity(bucket_start + config.bucket_seconds / 2.0)
        )
        bucket_start += config.bucket_seconds
    return total


def _offered_bytes_per_second(
    unit: MappingUnit,
    model: ASIngressModel,
    config: TrafficConfig,
    as_share: float,
) -> float:
    """Expected peak byte rate of one unit (for sizing the policer)."""
    family_units = [u for u in model.units if u.prefix.version == unit.prefix.version]
    unit_share = unit.weight / sum(u.weight for u in family_units)
    flows_per_bucket = config.flows_per_bucket_peak * as_share * unit_share
    return flows_per_bucket * _MEAN_FLOW_BYTES / config.bucket_seconds


def _flap_pair(
    topology: ISPTopology, unit: MappingUnit
) -> tuple[IngressPoint, IngressPoint]:
    """The unit's home ingress plus one on a different router."""
    first = topology.links[unit.primary_link].interfaces[0].ingress_point()
    second = next(
        iface.ingress_point()
        for iface in topology.interfaces()
        if iface.router != first.router
    )
    return first, second
