"""Compiling a :class:`ScenarioSpec` into a live network.

The compiler replays a spec as the exact sequence of
:class:`~repro.lan.topology.NetworkBuilder` calls the hand-written setup
functions used to make — segments, hosts, static ARP warm-up, ``build()``,
then devices in declaration order — so a spec-driven experiment is
bit-identical to its legacy builder equivalent.  The result is a
:class:`ScenarioRun`: the assembled network plus typed accessors and the
adapters (:meth:`ScenarioRun.as_pair`, :meth:`ScenarioRun.as_ring`) the
measurement tools consume.

**Partition contiguity invariant.**  :func:`plan_partition` chunks segments
*contiguously in declaration order*, balancing chunks by attachment weight
and force-advancing so no shard is ever left segment-less; hosts follow
their segment and devices their first port's segment.  Contiguity is what
keeps the cut small on chain/ring topologies (a bridge chain cuts exactly at
chunk boundaries) and what makes the cut set — and with it the conservative
lookahead, the minimum over cut segments of wire service time for a
minimum-size frame plus propagation delay — a deterministic function of the
spec alone.  Every cut segment must have a positive propagation delay: that
delay anchors the fabric's lookahead, and the relaxed window length depends
on it being non-zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.baselines.c_repeater import BufferedRepeater
from repro.baselines.static_bridge import StaticLearningBridge
from repro.core.node import ActiveNode
from repro.costs.model import CostModel
from repro.ethernet.frame import MIN_WIRE_LENGTH
from repro.exceptions import SimulationError
from repro.faults.timeline import FaultTimeline
from repro.lan.host import Host
from repro.lan.segment import Segment
from repro.lan.topology import Network, NetworkBuilder
from repro.scenario.spec import (
    DeviceSpec,
    PartitionSpec,
    ScenarioSpec,
    SPANNING_TREE_WARMUP,
)
from repro.sim.clock import seconds_to_ns
from repro.sim.fabric import ShardedSimulator
from repro.switchlets.packaging import (
    control_package,
    dec_spanning_tree_package,
    dumb_bridge_package,
    learning_bridge_package,
    spanning_tree_package,
    vlan_bridge_package,
)

#: Switchlet catalog: spec name -> factory(environment, **params) -> package.
SWITCHLET_CATALOG: Dict[str, Callable] = {
    "dumb-bridge": dumb_bridge_package,
    "learning-bridge": learning_bridge_package,
    "spanning-tree": spanning_tree_package,
    "dec-spanning-tree": dec_spanning_tree_package,
    "control": control_package,
    "vlan-bridge": vlan_bridge_package,
}


@dataclass
class PairSetup:
    """A two-host configuration ready for ping/ttcp measurements.

    Attributes:
        network: the assembled network.
        left / right: the two measurement hosts.
        device: the interconnecting device (``None`` for the direct baseline).
        ready_time: simulated time after which the path is forwarding (the
            spanning-tree configurations need ~30 s of warm-up).
        label: short name used in benchmark output.
    """

    network: Network
    left: Host
    right: Host
    device: Optional[object]
    ready_time: float
    label: str


@dataclass
class RingSetup:
    """The Section 7.5 ring of active bridges.

    Attributes:
        network: the assembled network.
        bridges: the active bridges, in chain order.
        left_segment / right_segment: the end segments the measurement
            host's two NICs attach to.
        ready_time: time by which the old (DEC) protocol has converged.
    """

    network: Network
    bridges: List[ActiveNode] = field(default_factory=list)
    left_segment: Optional[Segment] = None
    right_segment: Optional[Segment] = None
    ready_time: float = SPANNING_TREE_WARMUP


@dataclass
class PartitionPlan:
    """The partitioner's output: where every component of a spec runs.

    Attributes:
        n_shards: shard engines the plan uses (1 = plain single engine).
        assignments: component name -> shard index, complete over the spec's
            segments, hosts and devices.
        cut_segments: segments whose attached stations span shards — the
            fabric's only coupling points.
        lookahead_ns: the conservative-synchronization lookahead — the
            minimum over the cut segments of wire service time for a
            minimum-size frame plus propagation delay, in nanoseconds
            (``None`` when the shards are fully independent).
        backend: relaxed-window execution backend (``"thread"`` in-process,
            ``"process"`` one worker process per shard).
    """

    n_shards: int
    assignments: Dict[str, int]
    cut_segments: Tuple[str, ...] = ()
    lookahead_ns: Optional[int] = None
    backend: str = "thread"


def plan_partition(
    spec: ScenarioSpec, partition: Union[int, PartitionSpec]
) -> PartitionPlan:
    """Partition a spec's segment graph across shard engines.

    Segments are chunked contiguously in declaration order, balancing chunks
    by attachment weight (1 + hosts + device ports per segment); each host is
    placed with its segment and each device with its first port's segment, so
    a bridge chain cuts exactly at chunk boundaries.  Explicit
    :attr:`PartitionSpec.assignments` override any automatic placement.

    The plan's lookahead is the minimum over cut segments of the cross-shard
    handoff latency: the serialization time of a minimum-size frame plus the
    propagation delay (a delivery can land no earlier than its transmit plus
    both).  A cut segment with zero propagation delay is rejected because the
    conservative synchronizer requires cross-shard handoffs to land strictly
    in the receiving shard's future.

    The shard count is clamped to the number of segments; plans for one shard
    (or specs without segments) fall back to the single engine.
    """
    if isinstance(partition, PartitionSpec):
        requested, explicit = partition.shards, dict(partition.assignments)
        backend = partition.backend
    else:
        requested, explicit = int(partition), {}
        backend = "thread"
    if requested < 1:
        raise ValueError("a partition needs at least one shard")
    shards = min(requested, len(spec.segments)) if spec.segments else 1
    known = {
        item.name
        for group in (spec.segments, spec.hosts, spec.devices)
        for item in group
    }
    for name, index in explicit.items():
        if name not in known:
            raise ValueError(
                f"partition assigns unknown component {name!r}; the scenario "
                f"{spec.name!r} has no segment, host or device by that name"
            )
        if not 0 <= int(index) < shards:
            raise ValueError(
                f"partition assigns {name!r} to shard {index}, but the plan "
                f"uses only {shards} shard(s) for {len(spec.segments)} "
                "segment(s); lower the assignment or add segments"
            )
    if shards <= 1:
        names = [item.name for group in (spec.segments, spec.hosts, spec.devices)
                 for item in group]
        return PartitionPlan(
            n_shards=1,
            assignments={name: 0 for name in names},
            backend=backend,
        )

    weights = {segment.name: 1 for segment in spec.segments}
    for host in spec.hosts:
        weights[host.segment] += 1
    for device in spec.devices:
        for port in device.ports:
            weights[port.segment] += 1

    assignments: Dict[str, int] = {}
    total = sum(weights.values())
    consumed = 0.0
    shard = 0
    remaining = len(spec.segments)
    chunk_size = 0
    for segment in spec.segments:
        # Advance to the next shard once this one has its fair share — and
        # *always* advance when exactly one segment per still-empty shard
        # remains, so no shard is ever left without a segment (the clamp
        # above guarantees there are enough segments to go around).
        if shard < shards - 1 and chunk_size > 0:
            if remaining <= shards - shard - 1 or (
                consumed >= total * (shard + 1) / shards
                and remaining > shards - shard - 1
            ):
                shard += 1
                chunk_size = 0
        assignments[segment.name] = explicit.get(segment.name, shard)
        consumed += weights[segment.name]
        remaining -= 1
        chunk_size += 1
    for host in spec.hosts:
        assignments[host.name] = explicit.get(host.name, assignments[host.segment])
    for device in spec.devices:
        automatic = (
            assignments[device.ports[0].segment] if device.ports else 0
        )
        assignments[device.name] = explicit.get(device.name, automatic)

    cut: List[str] = []
    lookahead_ns: Optional[int] = None
    attached: Dict[str, set] = {segment.name: set() for segment in spec.segments}
    for host in spec.hosts:
        attached[host.segment].add(assignments[host.name])
    for device in spec.devices:
        for port in device.ports:
            attached[port.segment].add(assignments[device.name])
    for segment in spec.segments:
        stations = attached[segment.name]
        if stations - {assignments[segment.name]}:
            cut.append(segment.name)
            if segment.propagation_delay <= 0:
                raise ValueError(
                    f"segment {segment.name!r} joins shards with zero "
                    "propagation delay: the conservative synchronizer has no "
                    "lookahead; give the cut segment a positive delay or "
                    "adjust the partition"
                )
            # The true cross-shard handoff latency is wire *service* plus
            # propagation: a delivery run lands no earlier than its transmit
            # plus the minimum frame's serialization time.  Both knobs only
            # move the latency up at run time (the :meth:`Segment.set_degrade`
            # contract), so folding the minimum wire time into the lookahead
            # stays conservative; the -1 ns absorbs the engine's
            # round-to-nearest nanosecond quantization.
            latency = (
                segment.propagation_delay
                + MIN_WIRE_LENGTH * 8.0 / segment.bandwidth_bps
            )
            delay_ns = seconds_to_ns(latency) - 1
            if lookahead_ns is None or delay_ns < lookahead_ns:
                lookahead_ns = delay_ns
    return PartitionPlan(
        n_shards=shards,
        assignments=assignments,
        cut_segments=tuple(cut),
        lookahead_ns=lookahead_ns,
        backend=backend,
    )


@dataclass
class ScenarioRun:
    """A compiled, live scenario: the network plus spec-aware accessors.

    Attributes:
        spec: the spec this run was compiled from.
        network: the assembled :class:`~repro.lan.topology.Network`.
        ready_time: simulated time after which the data path is forwarding.
        partition: the partition plan the run was compiled with (``None``
            for single-engine runs).
        faults: the installed :class:`~repro.faults.timeline.FaultTimeline`
            (``None`` when the scenario schedules no faults).
    """

    spec: ScenarioSpec
    network: Network
    ready_time: float
    partition: Optional[PartitionPlan] = None
    faults: Optional[FaultTimeline] = None
    seed: int = 0

    @property
    def n_shards(self) -> int:
        """Shard engines this run executes on (1 = single engine)."""
        return getattr(self.network.sim, "n_shards", 1)

    @property
    def backend(self) -> str:
        """The relaxed execution backend (``"thread"`` for single engine)."""
        return getattr(self.network.sim, "relaxed_backend", "thread")

    # -- accessors ----------------------------------------------------------

    @property
    def sim(self):
        """The shared simulator."""
        return self.network.sim

    def host(self, name: str) -> Host:
        """Look up a host by name."""
        return self.network.host(name)

    def segment(self, name: str) -> Segment:
        """Look up a segment by name."""
        return self.network.segment(name)

    def device(self, name: str) -> object:
        """Look up a device (station) by name."""
        return self.network.station(name)

    @property
    def hosts(self) -> List[Host]:
        """Hosts in spec declaration order."""
        return [self.network.host(spec.name) for spec in self.spec.hosts]

    @property
    def devices(self) -> List[object]:
        """Devices in spec declaration order."""
        return [self.network.station(spec.name) for spec in self.spec.devices]

    def run_until(self, until_seconds: float) -> int:
        """Convenience passthrough to :meth:`Simulator.run_until`."""
        return self.network.run_until(until_seconds)

    def report(self, latency_ns=None):
        """Build the structured :class:`~repro.telemetry.report.RunReport`.

        Available with or without telemetry enabled: the metrics snapshot
        always carries ``engine_events_dispatched`` and the segment
        families, read from the live counters; the telemetry registry's
        families and the wall breakdown join them when the run was compiled
        with ``telemetry=True`` or ``sim.enable_telemetry()`` was called.
        ``latency_ns`` optionally carries the caller's round-trip samples
        (nanoseconds) for the p50/p95/p99 latency section.
        """
        from repro.telemetry import build_report

        return build_report(self, latency_ns=latency_ns)

    def warm_up(self) -> None:
        """Run the simulator up to the scenario's ready time.

        Under the process backend, warm-up runs on the in-process relaxed
        engine (canonically identical by the relaxed contract): the process
        backend supports exactly one measured dispatch per run, which the
        warm-up must not consume.
        """
        sim = self.network.sim
        if getattr(sim, "relaxed_backend", "thread") == "process":
            sim.set_backend("thread")
            try:
                self.network.run_until(self.ready_time)
            finally:
                sim.set_backend("process")
            return
        self.network.run_until(self.ready_time)

    # -- measurement adapters ----------------------------------------------

    def as_pair(self) -> PairSetup:
        """View this run as a two-host measurement pair.

        Requires exactly two hosts; the first declared device (if any) is the
        interconnect under test.
        """
        if len(self.spec.hosts) != 2:
            raise ValueError(
                f"scenario {self.spec.name!r} has {len(self.spec.hosts)} hosts; "
                "a pair setup needs exactly two"
            )
        devices = self.devices
        return PairSetup(
            network=self.network,
            left=self.network.host(self.spec.hosts[0].name),
            right=self.network.host(self.spec.hosts[1].name),
            device=devices[0] if devices else None,
            ready_time=self.ready_time,
            label=self.spec.display_label,
        )

    def as_ring(self) -> RingSetup:
        """View this run as the Section 7.5 bridge chain.

        The devices (in declaration order) are the chain; the first and last
        declared segments are the ends the measurement host's NICs close.
        """
        if not self.spec.segments or not self.spec.devices:
            raise ValueError(
                f"scenario {self.spec.name!r} has no devices/segments; "
                "a ring setup needs a bridge chain"
            )
        return RingSetup(
            network=self.network,
            bridges=self.devices,
            left_segment=self.network.segment(self.spec.segments[0].name),
            right_segment=self.network.segment(self.spec.segments[-1].name),
            ready_time=self.ready_time,
        )


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def _build_switchlet(environment, spec) -> object:
    try:
        factory = SWITCHLET_CATALOG[spec.name]
    except KeyError as exc:
        raise ValueError(
            f"unknown switchlet {spec.name!r}; catalog has "
            f"{sorted(SWITCHLET_CATALOG)}"
        ) from exc
    return factory(environment, **dict(spec.params))


def _vlan_port_config(device: DeviceSpec) -> Dict[str, Dict[str, object]]:
    config: Dict[str, Dict[str, object]] = {}
    for port in device.ports:
        if port.mode == "trunk":
            allowed = None if port.allowed_vlans is None else list(port.allowed_vlans)
            entry: Dict[str, object] = {"mode": "trunk", "allowed": allowed}
            if port.native_vlan is not None:
                entry["native"] = int(port.native_vlan)
            config[port.name] = entry
        else:
            config[port.name] = {"mode": "access", "vlan": int(port.vlan)}
    return config


def _instantiate_device(network: Network, device: DeviceSpec) -> object:
    sim = network.sim_for(device.name)
    if device.kind == "repeater":
        station = BufferedRepeater(sim, device.name, cost_model=network.cost_model)
        for port in device.ports:
            station.add_interface(port.name, network.segment(port.segment))
        return station
    if device.kind == "static-bridge":
        station = StaticLearningBridge(sim, device.name, cost_model=network.cost_model)
        for port in device.ports:
            station.add_interface(port.name, network.segment(port.segment))
        return station
    node = ActiveNode(sim, device.name, cost_model=network.cost_model)
    for port in device.ports:
        node.add_interface(port.name, network.segment(port.segment))
    environment = node.environment.modules
    for switchlet in device.switchlets:
        node.load_switchlet(_build_switchlet(environment, switchlet))
    if any(switchlet.name == "vlan-bridge" for switchlet in device.switchlets):
        node.func.call("bridge.vlan.configure", _vlan_port_config(device))
    return node


def _arp_groups(spec: ScenarioSpec) -> List[List[str]]:
    """Host-name groups that should know each other's MAC addresses.

    Hosts are grouped by VLAN: untagged hosts (``vlan=None``) form one
    classic broadcast domain, and each VLAN forms its own.  Group and member
    order follow host declaration order, so ARP warm-up is deterministic.
    """
    groups: Dict[object, List[str]] = {}
    for host in spec.hosts:
        groups.setdefault(host.vlan, []).append(host.name)
    return list(groups.values())


def compile_spec(
    spec: ScenarioSpec,
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    trace_sinks=None,
    shards: Union[int, PartitionSpec] = 1,
    backend: Optional[str] = None,
    faults=None,
    telemetry: bool = False,
) -> ScenarioRun:
    """Compile ``spec`` into a live :class:`ScenarioRun`.

    The call sequence mirrors the legacy hand-written builders exactly:
    segments, hosts, static ARP, ``build()``, then devices in declaration
    order — so address allocation, switchlet load order and therefore every
    simulated timestamp match the pre-fabric code path.

    With ``shards`` > 1 (or an explicit :class:`PartitionSpec`) the same
    sequence is replayed onto a :class:`~repro.sim.fabric.ShardedSimulator`:
    the partitioner places every component on a shard engine, which runs
    per-shard lookahead windows one after another on the calling thread.
    The run's canonical records, counters and component statistics equal
    the single-engine compile's (see :mod:`repro.sim.fabric` for the
    contract).  ``backend="process"`` (directly or via
    :attr:`PartitionSpec.backend`; the explicit argument wins) runs those
    windows on one worker process per shard for wall-clock multi-core
    speedup.  ``trace_sinks`` names the single engine's store (see
    :class:`~repro.sim.engine.Simulator`).  A sharded run keeps each shard's
    records in its own store, so ``trace_sinks`` raises
    :class:`~repro.exceptions.SimulationError` there; a spec too small to
    shard compiles onto the single engine, store and all.

    ``faults`` extends the spec's own fault timeline with additional
    :class:`~repro.faults.spec.FaultSpec` events; the combined timeline is
    installed on the simulator control path *before any event has been
    dispatched*, which is what keeps one timeline identical on the single
    engine and the fabric (see :mod:`repro.faults.timeline`).

    ``telemetry=True`` enables the engine's metrics/span instrumentation
    (:mod:`repro.telemetry`) before any event dispatches.  Telemetry never
    changes a simulation outcome — the determinism suite proves catalog-wide
    bit-identity with it on; ``ScenarioRun.report()`` collects the results.
    """
    plan = plan_partition(spec, shards)
    if backend is not None:
        if backend not in ShardedSimulator.BACKENDS:
            raise ValueError(
                f"unknown relaxed backend {backend!r}; expected one of "
                f"{ShardedSimulator.BACKENDS}"
            )
        plan.backend = backend
    if plan.n_shards > 1:
        if trace_sinks is not None:
            raise SimulationError(
                f"trace_sinks: a sharded run ({plan.n_shards} shards) keeps "
                "each shard's records in its own store; pass trace_sinks "
                "only to single-engine runs"
            )
        engine = ShardedSimulator(
            seed=seed,
            shards=plan.n_shards,
            placement=plan.assignments,
            lookahead_ns=plan.lookahead_ns,
            backend=plan.backend,
        )
        builder = NetworkBuilder(seed=seed, cost_model=cost_model, engine=engine)
    else:
        plan = None
        builder = NetworkBuilder(
            seed=seed, cost_model=cost_model, trace_sinks=trace_sinks
        )
    for segment in spec.segments:
        builder.add_segment(
            segment.name,
            bandwidth_bps=segment.bandwidth_bps,
            propagation_delay=segment.propagation_delay,
        )
    for host in spec.hosts:
        builder.add_host(host.name, host.segment, ip=host.ip)
    if spec.static_arp and spec.hosts:
        for group in _arp_groups(spec):
            builder.populate_static_arp(group)
    network = builder.build()
    for device in spec.devices:
        builder.register_station(device.name, _instantiate_device(network, device))
    fault_events = tuple(spec.faults) + tuple(faults or ())
    timeline = None
    if fault_events:
        timeline = FaultTimeline(seed=seed).extend(fault_events)
        timeline.install(network)
    if telemetry:
        # After construction, before any event dispatches: metrics are
        # deterministic functions of the event stream and spans are
        # out-of-band wall clock, so this cannot change an outcome.
        network.sim.enable_telemetry()
    return ScenarioRun(
        spec=spec, network=network, ready_time=spec.ready_time, partition=plan,
        faults=timeline, seed=seed,
    )
