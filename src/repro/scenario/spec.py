"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a complete, data-only description of an
experimental topology: LAN segments, end hosts, interconnecting devices and
the switchlet stack each device runs.  Specs are plain frozen dataclasses, so
a scenario family can be generated by :func:`dataclasses.replace` and by the
matrix expander in :mod:`repro.scenario.registry`, and every spec compiles to
exactly one sequence of :class:`~repro.lan.topology.NetworkBuilder` calls
(see :mod:`repro.scenario.compile`) — the declarative analogue of the five
hand-written builder functions the paper's figures used to be driven by.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Tuple

from repro.faults.spec import (
    FaultSpec,
    NODE_KINDS,
    PORT_KINDS,
    SEGMENT_KINDS,
)
from repro.lan.segment import DEFAULT_BANDWIDTH_BPS, DEFAULT_PROPAGATION_DELAY
from repro.sim.relaxed import BACKENDS

#: Extra settling time after the forwarding-delay window before measuring.
SPANNING_TREE_WARMUP = 31.0

#: Settling time for configurations with no spanning tree.
BASIC_WARMUP = 0.1

#: Device kinds understood by the compiler.
DEVICE_KINDS = ("active-node", "repeater", "static-bridge")

#: VLAN port modes understood by the compiler and the VLAN switchlet.
PORT_MODES = ("access", "trunk")


@dataclass(frozen=True)
class SegmentSpec:
    """One shared LAN segment.

    Attributes:
        name: segment name (unique within the scenario).
        bandwidth_bps: wire speed in bits per second.
        propagation_delay: one-way propagation delay in seconds.
    """

    name: str
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS
    propagation_delay: float = DEFAULT_PROPAGATION_DELAY


@dataclass(frozen=True)
class HostSpec:
    """One end host attached to a segment.

    Attributes:
        name: host name (unique within the scenario).
        segment: name of the segment the host's NIC attaches to.
        ip: explicit IPv4 address; ``None`` lets the builder allocate one.
        vlan: VLAN this host logically belongs to; static ARP warm-up is
            scoped to hosts of the same VLAN (``None`` groups all untagged
            hosts together, which is the classic single-broadcast-domain
            behaviour).
    """

    name: str
    segment: str
    ip: Optional[str] = None
    vlan: Optional[int] = None


@dataclass(frozen=True)
class PortSpec:
    """One device port: an interface name bound to a segment.

    The VLAN fields only matter to devices whose switchlet stack contains the
    VLAN-aware bridge; for every other device a port is just a NIC.

    Attributes:
        name: interface name on the device (``eth0``, ``eth1``, ...).
        segment: name of the segment this port attaches to.
        mode: ``"access"`` (untagged, single VLAN) or ``"trunk"``
            (802.1Q-tagged, carries several VLANs).
        vlan: the access VLAN id (ignored for trunk ports).
        allowed_vlans: VLANs a trunk port carries; ``None`` means all.
        native_vlan: the trunk's native VLAN — untagged frames arriving on
            the trunk are classified into it and frames of it egress
            untagged; ``None`` means the trunk carries tagged traffic only
            (ignored for access ports).
    """

    name: str
    segment: str
    mode: str = "access"
    vlan: int = 1
    allowed_vlans: Optional[Tuple[int, ...]] = None
    native_vlan: Optional[int] = None


@dataclass(frozen=True)
class PartitionSpec:
    """How a scenario is sharded across cooperating engines.

    Attributes:
        shards: number of shard engines.  The compiler clamps this to the
            number of segments (a shard without a segment would sit idle)
            and treats ``1`` as "run on the plain single engine".
        assignments: explicit component-name -> shard-index placements that
            override the automatic segment-graph partitioner.  Components
            left out are placed automatically: segments by balanced
            contiguous chunking in declaration order, hosts with their
            segment, devices with their first port's segment.
        backend: relaxed-window execution backend — ``"thread"`` (default,
            in-process, one window after another on the calling thread) or
            ``"process"`` (one worker process per shard for wall-clock
            multi-core speedup; see :mod:`repro.sim.procpool`).
    """

    shards: int = 1
    assignments: Mapping[str, int] = field(default_factory=dict)
    backend: str = "thread"

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("a partition needs at least one shard")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown relaxed backend {self.backend!r}; "
                f"expected one of {BACKENDS}"
            )
        for name, index in dict(self.assignments).items():
            if not 0 <= int(index) < self.shards:
                raise ValueError(
                    f"partition assigns {name!r} to shard {index}, outside "
                    f"0..{self.shards - 1}"
                )


@dataclass(frozen=True)
class SwitchletSpec:
    """One entry of a device's switchlet stack, by catalog name.

    Attributes:
        name: catalog key (``"dumb-bridge"``, ``"learning-bridge"``,
            ``"spanning-tree"``, ``"dec-spanning-tree"``, ``"control"``,
            ``"vlan-bridge"``).
        params: keyword arguments forwarded to the packaging factory
            (e.g. ``{"autostart": False}`` for a dormant spanning tree).
    """

    name: str
    params: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class DeviceSpec:
    """One interconnecting device (active bridge, repeater, static bridge).

    Attributes:
        name: station name (unique within the scenario).
        kind: one of :data:`DEVICE_KINDS`; ``"active-node"`` is the
            programmable bridge, the other two are the fixed baselines.
        ports: the device's ports, in interface order.
        switchlets: the switchlet stack loaded into an active node, in load
            order (ignored by the fixed-function kinds).
    """

    name: str
    kind: str = "active-node"
    ports: Tuple[PortSpec, ...] = ()
    switchlets: Tuple[SwitchletSpec, ...] = ()


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative scenario.

    Attributes:
        name: scenario name (registry key, possibly suffixed with matrix
            parameters).
        description: one-line description shown by the catalog listing.
        label: short label used by measurement output (defaults to ``name``).
        segments / hosts / devices: the topology, in creation order — the
            compiler replays them as :class:`NetworkBuilder` calls in exactly
            this order, so address allocation is deterministic.
        static_arp: pre-populate static ARP entries between hosts (scoped
            per VLAN) so first-packet latency is representative.
        ready_time: simulated time after which the data path is forwarding
            (spanning-tree scenarios need ~30 s of warm-up).
        faults: the scenario's fault timeline — scheduled
            :class:`~repro.faults.spec.FaultSpec` events (link/port failures,
            loss models, degradations) the compiler installs on the
            simulator control path at compile time.  An ordinary matrix
            axis: sweep failure times or loss rates exactly like topology
            parameters.
        params: the matrix-axis values this spec was expanded with (purely
            descriptive; recorded by the expander).
    """

    name: str
    description: str = ""
    label: str = ""
    segments: Tuple[SegmentSpec, ...] = ()
    hosts: Tuple[HostSpec, ...] = ()
    devices: Tuple[DeviceSpec, ...] = ()
    static_arp: bool = True
    ready_time: float = BASIC_WARMUP
    faults: Tuple[FaultSpec, ...] = ()
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen = set()
        for group in (self.segments, self.hosts, self.devices):
            for item in group:
                if item.name in seen:
                    raise ValueError(
                        f"scenario {self.name!r}: duplicate component name {item.name!r}"
                    )
                seen.add(item.name)
        segment_names = {segment.name for segment in self.segments}
        for host in self.hosts:
            if host.segment not in segment_names:
                raise ValueError(
                    f"scenario {self.name!r}: host {host.name!r} references "
                    f"unknown segment {host.segment!r}"
                )
        for device in self.devices:
            if device.kind not in DEVICE_KINDS:
                raise ValueError(
                    f"scenario {self.name!r}: device {device.name!r} has "
                    f"unknown kind {device.kind!r}"
                )
            for port in device.ports:
                if port.segment not in segment_names:
                    raise ValueError(
                        f"scenario {self.name!r}: port {device.name}.{port.name} "
                        f"references unknown segment {port.segment!r}"
                    )
                if port.mode not in PORT_MODES:
                    raise ValueError(
                        f"scenario {self.name!r}: port {device.name}.{port.name} "
                        f"has unknown mode {port.mode!r}"
                    )
        device_ports = {
            device.name: {port.name for port in device.ports}
            for device in self.devices
        }
        host_names = {host.name for host in self.hosts}
        for fault in self.faults:
            if fault.kind in SEGMENT_KINDS:
                if fault.target not in segment_names:
                    raise ValueError(
                        f"scenario {self.name!r}: fault {fault.describe()!r} "
                        f"references unknown segment {fault.target!r}"
                    )
            elif fault.kind in PORT_KINDS or fault.kind in NODE_KINDS:
                if fault.target in device_ports:
                    if fault.kind in PORT_KINDS and (
                        fault.port not in device_ports[fault.target]
                    ):
                        raise ValueError(
                            f"scenario {self.name!r}: fault {fault.describe()!r} "
                            f"references unknown port {fault.port!r} on "
                            f"{fault.target!r}"
                        )
                elif fault.target not in host_names:
                    raise ValueError(
                        f"scenario {self.name!r}: fault {fault.describe()!r} "
                        f"references unknown device/host {fault.target!r}"
                    )

    @property
    def display_label(self) -> str:
        """The measurement label: explicit ``label`` or the scenario name."""
        return self.label or self.name

    def with_params(self, **params: object) -> "ScenarioSpec":
        """A copy of this spec with extra axis values recorded."""
        merged = dict(self.params)
        merged.update(params)
        return replace(self, params=merged)
