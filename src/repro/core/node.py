"""The active node (Figures 5 and 6 of the paper).

An :class:`ActiveNode` is the machine that runs the switchlet loader: a set
of Ethernet interfaces, a single CPU on which all user-space frame handling
is serialized, the eight-module thinned environment, and the loader itself.

The per-frame path mirrors the seven steps of Figure 5, collapsed into their
cost-bearing components:

1. the frame arrives on a NIC (simulated by the LAN substrate),
2. it crosses into user space (``kernel_crossing_cost``),
3. the interpreted switchlet code runs over it (``switchlet_frame_cost``),
4. any frames the switchlet emits cross back into the kernel
   (``kernel_crossing_cost`` each) and are transmitted by the NIC.

All three software costs are charged on the node's single
:class:`~repro.costs.cpu.CpuQueue`, which is what produces the ~1800
frames/second forwarding ceiling the paper measures.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.costs.cpu import CpuQueue
from repro.costs.model import CostModel
from repro.core.environment import NodeEnvironment, build_environment
from repro.core.loader import LoadedSwitchlet, SwitchletLoader
from repro.core.switchlet import SwitchletPackage
from repro.core.unixnet import Unixnet
from repro.ethernet.frame import EthernetFrame
from repro.ethernet.mac import MacAddress
from repro.exceptions import TopologyError
from repro.lan.nic import NetworkInterface
from repro.lan.segment import Segment
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer

#: Namespace base for automatically assigned node interface MAC addresses.
#: Node interfaces start at 0xB00000 so they never collide with the host
#: addresses handed out by :class:`repro.lan.topology.NetworkBuilder` (which
#: start at 1).  Allocation is per engine (:meth:`Simulator.auto_station_id`)
#: so back-to-back runs in one process stay bit-identical.
_AUTO_MAC_BASE = 0xB0_0000


def _forward_detail(interface: str, frame_length: int) -> dict:
    """Lazy detail of a ``node.forward`` record."""
    return {"interface": interface, "bytes": frame_length}


class ActiveNode:
    """A programmable network element.

    Args:
        sim: owning simulator.
        name: node name used in traces (e.g. ``"bridge1"``).
        cost_model: software cost constants; ``None`` selects the calibrated
            defaults.
    """

    # Population fleets bridge hundreds of segments; slots keep the node
    # (and with it the whole station object chain) __dict__-free.
    __slots__ = (
        "sim",
        "name",
        "costs",
        "cpu",
        "interfaces",
        "unixnet",
        "environment",
        "loader",
        "_gc_timer",
        "frames_received",
        "frames_claimed",
        "frames_unclaimed",
        "frames_transmitted",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.costs = cost_model if cost_model is not None else CostModel()
        self.cpu = CpuQueue(sim, f"{name}.cpu")
        self.interfaces: Dict[str, NetworkInterface] = {}
        self.unixnet = Unixnet(name, self._transmit, trace=sim.trace)
        self.environment: NodeEnvironment = build_environment(sim, name, self.unixnet)
        self.loader = SwitchletLoader(trace=sim.trace, source_name=name)
        self.loader.add_available_units(self.environment.modules)
        self._gc_timer: Optional[PeriodicTimer] = None
        if self.costs.gc_pause_duration > 0:
            self._gc_timer = PeriodicTimer(
                sim,
                self.costs.gc_pause_interval,
                self._gc_pause,
                label=f"{name}.gc",
            )
            self._gc_timer.start()
        # Statistics
        self.frames_received = 0
        self.frames_claimed = 0
        self.frames_unclaimed = 0
        self.frames_transmitted = 0

    # ------------------------------------------------------------------
    # Interfaces
    # ------------------------------------------------------------------

    def add_interface(
        self,
        name: str,
        segment: Segment,
        mac: Optional[MacAddress] = None,
    ) -> NetworkInterface:
        """Create an Ethernet interface, attach it to ``segment`` and register it.

        Interface names follow the paper's convention (``eth0``, ``eth1``...).
        """
        if name in self.interfaces:
            raise TopologyError(f"node {self.name!r} already has an interface {name!r}")
        if mac is None:
            mac = MacAddress.locally_administered(self.sim.auto_station_id(_AUTO_MAC_BASE))
        nic = NetworkInterface(self.sim, f"{self.name}.{name}", mac)
        # segment_local: every reaction of the node — switchlet dispatch and
        # any frame a switchlet sends — rides the CPU queue (see _receive /
        # _transmit), never the wire synchronously.  That holds for any
        # loaded switchlet by construction: a switchlet reaches the wire
        # only through Unixnet.send_pkt_out, which calls _transmit, which
        # submits to the CPU queue.  The handler goes in before the attach,
        # which folds it into the segment's lane.
        nic.set_handler(
            lambda _nic, frame, port=name: self._receive(port, frame),
            segment_local=True,
        )
        nic.attach(segment)
        self.interfaces[name] = nic
        self.unixnet.add_interface(name, mac, nic.set_promiscuous)
        return nic

    def interface(self, name: str) -> NetworkInterface:
        """Look up an interface by its short name (``eth0``)."""
        try:
            return self.interfaces[name]
        except KeyError as exc:
            raise TopologyError(f"node {self.name!r} has no interface {name!r}") from exc

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def _receive(self, interface: str, frame: EthernetFrame) -> None:
        """A NIC accepted a frame: charge the user-space path and dispatch it."""
        self.frames_received += 1
        cost = self.costs.kernel_crossing_cost + self.costs.switchlet_frame_cost(
            frame.frame_length
        )

        def dispatch() -> None:
            claimed = self.unixnet.deliver_frame(interface, frame)
            if claimed is None:
                self.frames_unclaimed += 1
            else:
                self.frames_claimed += 1

        self.cpu.submit(cost, dispatch)

    def _transmit(self, interface: str, frame: EthernetFrame) -> None:
        """A switchlet emitted a frame: charge the transmit crossing and send it."""
        nic = self.interface(interface)

        def send() -> None:
            self.frames_transmitted += 1
            trace = self.sim.trace
            if trace.wants("node.forward"):
                trace.emit(
                    self.name,
                    "node.forward",
                    _forward_detail,
                    interface,
                    frame.frame_length,
                )
            nic.send(frame)

        self.cpu.submit(self.costs.kernel_crossing_cost, send)

    def _gc_pause(self) -> None:
        self.cpu.stall(self.costs.gc_pause_duration)
        self.sim.trace.emit(
            self.name, "node.gc_pause", {"duration": self.costs.gc_pause_duration}
        )

    # ------------------------------------------------------------------
    # Programming the node
    # ------------------------------------------------------------------

    def load_switchlet(self, package: SwitchletPackage, charge_cost: bool = True) -> LoadedSwitchlet:
        """Load a switchlet package into this node immediately.

        This is the "load from disk" path available to the initial loader;
        network loading goes through :class:`~repro.core.netloader.NetworkLoader`
        which ends up calling :meth:`load_switchlet_bytes`.

        Args:
            package: the switchlet to load.
            charge_cost: also charge the dynamic-link cost on the node CPU
                (defaults to true; tests that only care about semantics can
                disable it).
        """
        record = self.loader.load(package)
        if charge_cost:
            self.cpu.submit(self.costs.load_cost(), lambda: None)
        return record

    def load_switchlet_bytes(self, data: bytes) -> LoadedSwitchlet:
        """Load a switchlet from its transported byte form (TFTP / capsule path)."""
        record = self.loader.load_bytes(data)
        self.cpu.submit(self.costs.load_cost(), lambda: None)
        return record

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def statistics(self) -> dict:
        """Counters for the node and its interfaces."""
        return {
            "frames_received": self.frames_received,
            "frames_claimed": self.frames_claimed,
            "frames_unclaimed": self.frames_unclaimed,
            "frames_transmitted": self.frames_transmitted,
            "switchlets_loaded": len(self.loader.loaded),
            "cpu_utilization": self.cpu.utilization(),
            "interfaces": {
                name: nic.statistics() for name, nic in self.interfaces.items()
            },
        }

    @property
    def func(self):
        """The node's function registry (node-side introspection, not thinned)."""
        return self.environment.func

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ActiveNode({self.name!r}, interfaces={list(self.interfaces)}, "
            f"loaded={self.loader.loaded_names()})"
        )
