"""Topology construction.

:class:`NetworkBuilder` allocates MAC and IP addresses, creates LAN segments
and hosts, attaches arbitrary stations (active bridges, baseline repeaters)
and produces a :class:`Network` handle that experiments drive.  The paper's
concrete configurations (Figures 7 and 8, and the Section 7.5 ring) are built
on top of this by :mod:`repro.measurement.setups`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.costs.model import CostModel
from repro.ethernet.mac import MacAddress
from repro.exceptions import TopologyError
from repro.lan.host import Host
from repro.lan.segment import (
    DEFAULT_BANDWIDTH_BPS,
    DEFAULT_PROPAGATION_DELAY,
    Segment,
)
from repro.netstack.ip import IPv4Address
from repro.sim.engine import Simulator


@dataclass
class Network:
    """The assembled network: simulator plus named components.

    Attributes:
        sim: the shared simulator.
        segments: LAN segments by name.
        hosts: end hosts by name.
        stations: every non-host station (active bridges, repeaters) by name.
        cost_model: the cost model shared by default across components.
    """

    sim: Simulator
    cost_model: CostModel
    segments: Dict[str, Segment] = field(default_factory=dict)
    hosts: Dict[str, Host] = field(default_factory=dict)
    stations: Dict[str, object] = field(default_factory=dict)

    def segment(self, name: str) -> Segment:
        """Look up a segment by name (raises :class:`TopologyError` if absent)."""
        try:
            return self.segments[name]
        except KeyError as exc:
            raise TopologyError(f"no segment named {name!r}") from exc

    def host(self, name: str) -> Host:
        """Look up a host by name."""
        try:
            return self.hosts[name]
        except KeyError as exc:
            raise TopologyError(f"no host named {name!r}") from exc

    def station(self, name: str) -> object:
        """Look up a non-host station (bridge, repeater) by name."""
        try:
            return self.stations[name]
        except KeyError as exc:
            raise TopologyError(f"no station named {name!r}") from exc

    def sim_for(self, name: str) -> Simulator:
        """The engine the named component is placed on.

        Under the sharded fabric this resolves the component's shard; with a
        plain :class:`Simulator` it is just the shared simulator.
        """
        resolver = getattr(self.sim, "sim_for", None)
        if resolver is None:
            return self.sim
        return resolver(name)

    def run_until(self, until_seconds: float) -> int:
        """Convenience passthrough to :meth:`Simulator.run_until`."""
        return self.sim.run_until(until_seconds)


class NetworkBuilder:
    """Incrementally build a :class:`Network`.

    Args:
        seed: simulator seed (deterministic experiments).
        cost_model: cost constants shared by hosts and stations created
            through this builder; ``None`` selects the calibrated defaults.
        subnet_prefix: first three octets of the IPv4 addresses handed to
            hosts.  The fourth octet is allocated sequentially from 1; when
            it exhausts (beyond 254) allocation rolls into the next /24 by
            incrementing the third octet, and into the next /16 by
            incrementing the second octet when the third exhausts, so
            multi-hundred-LAN topologies (the 256-LAN sharded-fabric
            sweeps) and 65k+-station populations get unique addresses
            without any configuration.
        trace_sinks: the simulator's trace store: ``None`` for the default
            :class:`~repro.sim.trace.ListSink`, or a one-element list holding
            the store to write instead (e.g. a bounded
            :class:`~repro.sim.trace.RingBufferSink` for very long runs)
            that no other simulator holds; anything else raises
            :class:`TypeError`.  Ignored when
            ``engine`` is given (the engine owns its stores).
        engine: an already-constructed engine to build on instead of a fresh
            :class:`Simulator` — in particular a
            :class:`~repro.sim.fabric.ShardedSimulator`, whose ``sim_for``
            placement decides which shard each created component runs on.
    """

    def __init__(
        self,
        seed: int = 0,
        cost_model: Optional[CostModel] = None,
        subnet_prefix: str = "10.0.0",
        trace_sinks=None,
        engine=None,
    ) -> None:
        self.sim = engine if engine is not None else Simulator(
            seed=seed, trace_sinks=trace_sinks
        )
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.subnet_prefix = subnet_prefix
        self._network = Network(sim=self.sim, cost_model=self.cost_model)
        self._next_station_id = 1
        self._next_host_octet = 1

    # ------------------------------------------------------------------
    # Address allocation
    # ------------------------------------------------------------------

    def allocate_mac(self) -> MacAddress:
        """Allocate the next locally-administered MAC address."""
        mac = MacAddress.locally_administered(self._next_station_id)
        self._next_station_id += 1
        return mac

    def allocate_ip(self) -> IPv4Address:
        """Allocate the next host IPv4 address.

        Addresses fill the builder's subnet (``prefix.1`` .. ``prefix.254``)
        and then roll into successive /24s by incrementing the prefix's
        third octet — and into successive /16s by incrementing the second
        octet when the third exhausts — so the first 254 hosts keep their
        historical addresses, the 256-LAN sweeps keep their /24 roll, and
        population-scale fleets (65k+ stations) keep allocating without any
        configuration.  Exhausting the *second* octet is true exhaustion
        and still raises.
        """
        if self._next_host_octet > 254:
            first, _, rest = self.subnet_prefix.partition(".")
            second_text, _, third_text = rest.partition(".")
            second, third = int(second_text), int(third_text)
            third += 1
            if third > 254:
                second += 1
                third = 0
                if second > 254:
                    raise TopologyError(
                        f"address space exhausted rolling past subnet "
                        f"{self.subnet_prefix}"
                    )
            self.subnet_prefix = f"{first}.{second}.{third}"
            self._next_host_octet = 1
        address = IPv4Address.from_string(f"{self.subnet_prefix}.{self._next_host_octet}")
        self._next_host_octet += 1
        return address

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------

    def add_segment(
        self,
        name: str,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        propagation_delay: float = DEFAULT_PROPAGATION_DELAY,
    ) -> Segment:
        """Create a LAN segment."""
        if name in self._network.segments:
            raise TopologyError(f"segment {name!r} already exists")
        segment = Segment(
            self._network.sim_for(name),
            name,
            bandwidth_bps=bandwidth_bps,
            propagation_delay=propagation_delay,
        )
        self._network.segments[name] = segment
        return segment

    def add_host(
        self,
        name: str,
        segment: str,
        ip: Optional[str] = None,
        cost_model: Optional[CostModel] = None,
    ) -> Host:
        """Create a host and attach it to ``segment``."""
        if name in self._network.hosts:
            raise TopologyError(f"host {name!r} already exists")
        address = (
            IPv4Address.from_string(ip) if ip is not None else self.allocate_ip()
        )
        host = Host(
            self._network.sim_for(name),
            name,
            mac=self.allocate_mac(),
            ip=address,
            cost_model=cost_model if cost_model is not None else self.cost_model,
        )
        host.attach(self._network.segment(segment))
        self._network.hosts[name] = host
        return host

    def register_station(self, name: str, station: object) -> None:
        """Record a non-host station (active bridge, repeater) in the network.

        The station object is created by higher-level code (it needs classes
        from :mod:`repro.core` or :mod:`repro.baselines`, which sit above this
        package); the builder just tracks it and can hand out addresses for
        its NICs via :meth:`allocate_mac`.
        """
        if name in self._network.stations:
            raise TopologyError(f"station {name!r} already exists")
        self._network.stations[name] = station

    # ------------------------------------------------------------------
    # Finalization helpers
    # ------------------------------------------------------------------

    def populate_static_arp(self, host_names: Optional[Iterable[str]] = None) -> None:
        """Make the named hosts (all hosts by default) know each other's MACs.

        Latency measurements want the first ping to be representative, so the
        benchmark setups pre-populate ARP exactly as a long-running testbed
        would have it warm.  The scope gets one ``{ip: mac}`` directory,
        which every host's stack holds by reference behind its own table
        (:meth:`HostStack.add_arp_directory
        <repro.netstack.stack.HostStack.add_arp_directory>`): the cost is one
        entry per host, not one per pair.  A host never resolves itself
        through it, and an entry the host learns or is given later wins.
        """
        names: List[str] = (
            list(host_names) if host_names is not None else list(self._network.hosts)
        )
        hosts = [self._network.host(name) for name in names]
        directory = {host.ip: host.mac for host in hosts}
        for host in hosts:
            host.stack.add_arp_directory(directory)

    def build(self) -> Network:
        """Return the assembled :class:`Network`."""
        return self._network
