"""Population scenarios: factory-stamped fleets as ordinary catalog entries.

Both entries ride the existing ``ScenarioSpec`` / registry / matrix
machinery unchanged: topology knobs (floors, racks, seats, seed) and
every traffic axis in :data:`~repro.population.traffic.TRAFFIC_DEFAULTS`
are declared as scenario axes, so ``expand_matrix`` sweeps fleet sizes
and offered loads exactly like bandwidths.  The traffic parameters are
recorded into ``spec.params`` where
:func:`~repro.population.traffic.install_traffic` picks them up.

``static_arp=False`` is deliberate: the traffic installer's pair-scoped
static ARP entries already cover every flow it wires, so the compiler's
all-pairs ARP, one shared directory per scope, would add nothing.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.lan.segment import DEFAULT_BANDWIDTH_BPS
from repro.population.factory import HostFactory, PopulationPlan
from repro.population.traffic import TRAFFIC_DEFAULTS
from repro.scenario.registry import register_scenario
from repro.scenario.spec import BASIC_WARMUP, ScenarioSpec

#: The traffic axes every population entry exposes, in declaration order.
_TRAFFIC_AXES: Tuple[str, ...] = tuple(sorted(TRAFFIC_DEFAULTS))


def _traffic_params(traffic: Dict[str, object]) -> Dict[str, object]:
    for key in traffic:
        if key not in TRAFFIC_DEFAULTS:
            raise ValueError(f"unknown traffic axis {key!r}")
    merged = dict(TRAFFIC_DEFAULTS)
    merged.update(traffic)
    return merged


def _population_spec(
    name: str,
    description: str,
    plan: PopulationPlan,
    pop_seed: int,
    traffic: Dict[str, object],
    shape: Dict[str, object],
) -> ScenarioSpec:
    params = _traffic_params(traffic)
    params["pop_seed"] = pop_seed
    params.update(shape)
    return ScenarioSpec(
        name=name,
        label=plan.label,
        description=description,
        segments=plan.segments,
        hosts=plan.hosts,
        devices=plan.devices,
        # The traffic installer's pair-scoped entries cover every flow it
        # wires, so the scope-wide ARP directory would add nothing.
        static_arp=False,
        ready_time=BASIC_WARMUP,
        params=params,
    )


@register_scenario(
    "population/office",
    description="office fleet: floor LANs behind learning bridges on one backbone",
    axes=("floors", "hosts_per_floor", "pop_seed", "bandwidth_bps") + _TRAFFIC_AXES,
)
def office_population(
    floors: int = 4,
    hosts_per_floor: int = 24,
    pop_seed: int = 0,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    **traffic: object,
) -> ScenarioSpec:
    plan = HostFactory(pop_seed).office(
        floors=floors,
        hosts_per_floor=hosts_per_floor,
        bandwidth_bps=bandwidth_bps,
    )
    return _population_spec(
        "population/office",
        "typed office fleet with synthetic request/response and burst traffic",
        plan,
        pop_seed,
        dict(traffic),
        {"floors": floors, "hosts_per_floor": hosts_per_floor},
    )


@register_scenario(
    "population/datacenter",
    description="datacenter row: server-heavy racks behind bridges on a spine",
    axes=("racks", "hosts_per_rack", "pop_seed", "bandwidth_bps") + _TRAFFIC_AXES,
)
def datacenter_population(
    racks: int = 4,
    hosts_per_rack: int = 24,
    pop_seed: int = 0,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    **traffic: object,
) -> ScenarioSpec:
    plan = HostFactory(pop_seed).datacenter(
        racks=racks,
        hosts_per_rack=hosts_per_rack,
        bandwidth_bps=bandwidth_bps,
    )
    return _population_spec(
        "population/datacenter",
        "typed datacenter row with rack-local databases and query fan-in",
        plan,
        pop_seed,
        dict(traffic),
        {"racks": racks, "hosts_per_rack": hosts_per_rack},
    )
