"""End hosts.

A :class:`Host` models one of the Linux PCs in the paper's testbed: a single
NIC, a small protocol stack (:class:`~repro.netstack.stack.HostStack`) and a
CPU on which protocol processing costs are charged.  The measurement tools
(ping, ttcp) run "on" hosts by calling their stack API and reading the
simulator trace.

Like a real driver, a host programs its NIC's multicast group filter from
what its software listens for, so the NIC drops the bridges' spanning-tree
multicast before it costs the host any CPU.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.costs.cpu import CpuQueue
from repro.costs.model import CostModel
from repro.ethernet.frame import EthernetFrame
from repro.ethernet.mac import MacAddress
from repro.lan.nic import NetworkInterface
from repro.lan.segment import Segment
from repro.netstack.ip import IPv4Address
from repro.netstack.stack import HostStack
from repro.sim.engine import Simulator


class Host:
    """An end station with one NIC, a protocol stack and a CPU cost model.

    Args:
        sim: owning simulator.
        name: host name used in traces (e.g. ``"host1"``).
        mac: the NIC's MAC address.
        ip: the host's IPv4 address.
        cost_model: software cost constants; ``None`` selects the calibrated
            defaults.
    """

    # Population-scale fleets allocate tens of thousands of hosts; slots
    # drop the per-instance __dict__ from the whole station object chain.
    __slots__ = ("sim", "name", "costs", "nic", "cpu", "stack", "_raw_listeners")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac: MacAddress,
        ip: IPv4Address,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.costs = cost_model if cost_model is not None else CostModel()
        self.nic = NetworkInterface(sim, f"{name}.eth0", mac)
        self.cpu = CpuQueue(sim, f"{name}.cpu")
        self.stack = HostStack(name=name, mac=mac, ip=ip, send_frame=self._stack_send)
        # segment_local: the stack path defers every reaction through the
        # CPU queue (see _nic_receive); raw listeners are observation taps.
        self.nic.set_handler(self._nic_receive, segment_local=True)
        # A snapshot rebuilt on registration: receive iterates it without a
        # per-frame copy, and a listener added during dispatch only sees the
        # next frame.
        self._raw_listeners: Tuple[Callable[[EthernetFrame], None], ...] = ()
        self.stack.demux.program_group_filter(self.nic)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    @property
    def mac(self) -> MacAddress:
        """The host NIC's MAC address."""
        return self.nic.mac

    @property
    def ip(self) -> IPv4Address:
        """The host's IPv4 address."""
        return self.stack.ip

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def attach(self, segment: Segment) -> None:
        """Plug the host's NIC into a LAN segment."""
        self.nic.attach(segment)

    # ------------------------------------------------------------------
    # Data path (cost accounting happens here)
    # ------------------------------------------------------------------

    def _stack_send(self, frame: EthernetFrame) -> None:
        """Protocol stack wants to transmit: charge CPU cost, then hit the NIC."""
        cost = self.costs.host_frame_cost_total(frame.frame_length)
        self.cpu.submit(cost, lambda: self.nic.send(frame))

    def send_raw_frame(self, frame: EthernetFrame, charge_cost: bool = True) -> None:
        """Send an arbitrary Ethernet frame from this host.

        Used by workloads that bypass IP (the ttcp bulk generator can run over
        raw measurement frames, and the agility probe injects prebuilt
        frames).
        """
        if charge_cost:
            cost = self.costs.host_frame_cost_total(frame.frame_length)
            self.cpu.submit(cost, lambda: self.nic.send(frame))
        else:
            self.nic.send(frame)

    def _nic_receive(self, _nic: NetworkInterface, frame: EthernetFrame) -> None:
        """NIC accepted a frame: charge receive cost, then run the stack."""
        for listener in self._raw_listeners:
            listener(frame)
        cost = self.costs.host_frame_cost_total(frame.frame_length)
        self.cpu.submit(cost, lambda: self.stack.handle_frame(frame))

    def add_raw_listener(self, listener: Callable[[EthernetFrame], None]) -> None:
        """Register a callback that sees every frame the NIC accepts (pre-stack).

        From then on the NIC passes every multicast group up, whatever the
        demux registers.
        """
        self._raw_listeners = self._raw_listeners + (listener,)
        self.stack.demux.program_group_filter(None)
        self.nic.set_group_filter(None)

    # ------------------------------------------------------------------
    # Convenience wrappers over the stack
    # ------------------------------------------------------------------

    def ping(
        self, destination: IPv4Address, identifier: int, sequence: int, payload: bytes
    ) -> None:
        """Send one ICMP echo request (the reply arrives via the stack)."""
        self.stack.send_icmp_echo(destination, identifier, sequence, payload)

    def send_udp(
        self,
        destination: IPv4Address,
        destination_port: int,
        source_port: int,
        payload: bytes,
    ) -> None:
        """Send one UDP datagram."""
        self.stack.send_udp(destination, destination_port, source_port, payload)

    def bind_udp(self, port: int, handler: Callable[[bytes, Tuple], None]) -> None:
        """Bind a UDP port on this host."""
        self.stack.bind_udp(port, handler)

    def statistics(self) -> dict:
        """Combined NIC and IP counters for this host."""
        stats = self.nic.statistics()
        stats.update(
            {
                "ip_packets_sent": self.stack.ip_packets_sent,
                "ip_packets_received": self.stack.ip_packets_received,
                "ip_packets_dropped": self.stack.ip_packets_dropped,
            }
        )
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name!r}, {self.ip}, {self.mac})"
