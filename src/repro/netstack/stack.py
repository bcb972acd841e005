"""Layer composition: the Ethernet demultiplexer and the host protocol stack.

Two pieces live here:

* :class:`EthernetDemux` — the lowest layer of the paper's network loader:
  "it then demultiplexes these frames based on the Ethernet protocol
  identifier".  The same class is reused inside the active node (where
  switchlets register for EtherTypes and multicast addresses) and inside
  hosts.

* :class:`HostStack` — the thin end-station stack (ARP + minimal IP + UDP +
  ICMP echo) that the measurement hosts run.  It is *not* the active node's
  stack; the node builds its own from switchlets.  Keeping a conventional
  host stack lets ``ping`` and ``ttcp`` traffic cross the bridge exactly the
  way the paper's Linux hosts generated it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.ethernet.ethertype import EtherType
from repro.ethernet.frame import EthernetFrame, MAX_PAYLOAD
from repro.ethernet.mac import BROADCAST, MacAddress
from repro.exceptions import PacketError, ProtocolError
from repro.netstack.arp import ArpOperation, ArpPacket
from repro.netstack.icmp import IcmpMessage, IcmpType
from repro.netstack.ip import IPV4_HEADER_LENGTH, IPv4Address, IPv4Packet, IpProtocol
from repro.netstack.udp import UDP_HEADER_LENGTH, UdpDatagram

FrameCallback = Callable[[EthernetFrame], None]
UdpHandler = Callable[[bytes, Tuple[IPv4Address, int]], None]
IcmpHandler = Callable[[IcmpMessage, IPv4Address], None]
SendFrame = Callable[[EthernetFrame], None]

#: Maximum UDP payload that fits in a single unfragmented Ethernet frame.
MAX_UDP_PAYLOAD = MAX_PAYLOAD - IPV4_HEADER_LENGTH - UDP_HEADER_LENGTH

#: Maximum ICMP echo data that fits in a single unfragmented Ethernet frame.
MAX_ICMP_PAYLOAD = MAX_PAYLOAD - IPV4_HEADER_LENGTH - 8


class EthernetDemux:
    """Dispatch received frames by EtherType (and optionally by destination).

    Handlers registered for an EtherType receive every accepted frame with
    that type.  Handlers registered for a destination MAC address (used by
    the spanning-tree switchlets to claim the All-Bridges or DEC multicast
    groups) take precedence over EtherType handlers, mirroring the paper's
    demultiplexer where the spanning-tree switchlet "registers with the
    demultiplexer requesting packets addressed to the All Bridges multicast
    address" while "all other packets continue to be sent to the learning
    function".
    """

    def __init__(self) -> None:
        self._by_ethertype: Dict[int, List[FrameCallback]] = defaultdict(list)
        self._by_destination: Dict[MacAddress, List[FrameCallback]] = defaultdict(list)
        self._default: List[FrameCallback] = []
        # The NIC whose group filter follows the handlers (see
        # program_group_filter), or None.
        self._nic = None

    def program_group_filter(self, nic) -> None:
        """Keep ``nic``'s multicast group filter on what this demux handles.

        The NIC joins exactly the multicast destinations that have a
        handler, or passes every group while a default handler is
        registered, since that handler sees every frame no other
        registration matches.  The filter is reprogrammed now and on every
        destination or default handler change, never per frame; ``None``
        stops programming.
        """
        self._nic = nic
        if nic is None:
            return
        if self._default:
            nic.set_group_filter(None)
        else:
            nic.set_group_filter([
                destination
                for destination, handlers in self._by_destination.items()
                if handlers and destination.is_multicast
            ])

    def register_ethertype(self, ethertype: int, handler: FrameCallback) -> None:
        """Deliver frames with this EtherType to ``handler``."""
        self._by_ethertype[int(ethertype)].append(handler)

    def unregister_ethertype(self, ethertype: int, handler: FrameCallback) -> None:
        """Remove a previously registered EtherType handler."""
        handlers = self._by_ethertype.get(int(ethertype), [])
        if handler in handlers:
            handlers.remove(handler)

    def register_destination(self, destination: MacAddress, handler: FrameCallback) -> None:
        """Deliver frames addressed to ``destination`` to ``handler``."""
        self._by_destination[destination].append(handler)
        self.program_group_filter(self._nic)

    def unregister_destination(self, destination: MacAddress, handler: FrameCallback) -> None:
        """Remove a previously registered destination handler."""
        handlers = self._by_destination.get(destination, [])
        if handler in handlers:
            handlers.remove(handler)
            self.program_group_filter(self._nic)

    def register_default(self, handler: FrameCallback) -> None:
        """Deliver frames matched by no other registration to ``handler``."""
        self._default.append(handler)
        self.program_group_filter(self._nic)

    def unregister_default(self, handler: FrameCallback) -> None:
        """Remove a default handler."""
        if handler in self._default:
            self._default.remove(handler)
            self.program_group_filter(self._nic)

    def dispatch(self, frame: EthernetFrame) -> int:
        """Dispatch ``frame``; returns the number of handlers that saw it."""
        destination_handlers = self._by_destination.get(frame.destination, [])
        if destination_handlers:
            for handler in list(destination_handlers):
                handler(frame)
            return len(destination_handlers)
        type_handlers = self._by_ethertype.get(int(frame.ethertype), [])
        if type_handlers:
            for handler in list(type_handlers):
                handler(frame)
            return len(type_handlers)
        for handler in list(self._default):
            handler(frame)
        return len(self._default)


class HostStack:
    """ARP + minimal IP + UDP + ICMP echo for an end station.

    Args:
        name: host name used in traces.
        mac: the host NIC's MAC address.
        ip: the host's IPv4 address.
        send_frame: callable that puts an Ethernet frame on the wire
            (supplied by :class:`repro.lan.host.Host`, which charges CPU cost
            before calling the NIC).
    """

    def __init__(
        self,
        name: str,
        mac: MacAddress,
        ip: IPv4Address,
        send_frame: SendFrame,
    ) -> None:
        self.name = name
        self.mac = mac
        self.ip = ip
        self._send_frame = send_frame
        self.demux = EthernetDemux()
        self.demux.register_ethertype(EtherType.IPV4, self._handle_ip_frame)
        self.demux.register_ethertype(EtherType.ARP, self._handle_arp_frame)
        self._arp_table: Dict[IPv4Address, MacAddress] = {}
        # Static ARP directories shared by every stack of a scope (see
        # add_arp_directory), newest first, consulted behind _arp_table.
        self._arp_directories: Tuple[Dict[IPv4Address, MacAddress], ...] = ()
        self._arp_pending: Dict[IPv4Address, List[IPv4Packet]] = defaultdict(list)
        self._udp_bindings: Dict[int, UdpHandler] = {}
        self._icmp_handlers: List[IcmpHandler] = []
        self._echo_responder_enabled = True
        self._ident_counter = 0
        # Statistics
        self.ip_packets_sent = 0
        self.ip_packets_received = 0
        self.ip_packets_dropped = 0

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------

    def handle_frame(self, frame: EthernetFrame) -> None:
        """Entry point for every frame accepted by the host's NIC."""
        self.demux.dispatch(frame)

    def _handle_arp_frame(self, frame: EthernetFrame) -> None:
        try:
            packet = ArpPacket.decode(frame.payload)
        except ProtocolError:
            return
        # Learn the sender mapping opportunistically (gratuitous ARP included).
        self._learn_arp(packet.sender_ip, packet.sender_mac)
        if packet.operation == int(ArpOperation.REQUEST) and packet.target_ip == self.ip:
            reply = packet.make_reply(self.mac)
            self._transmit(frame.source, EtherType.ARP, reply.encode())

    def _handle_ip_frame(self, frame: EthernetFrame) -> None:
        try:
            packet = IPv4Packet.decode(frame.payload)
        except ProtocolError:
            self.ip_packets_dropped += 1
            return
        if packet.destination != self.ip:
            # A promiscuous host (the agility probe) may see traffic for
            # others; a normal host simply ignores it.
            return
        self.ip_packets_received += 1
        if packet.protocol == int(IpProtocol.ICMP):
            self._handle_icmp(packet)
        elif packet.protocol == int(IpProtocol.UDP):
            self._handle_udp(packet)
        else:
            self.ip_packets_dropped += 1

    def _handle_icmp(self, packet: IPv4Packet) -> None:
        try:
            message = IcmpMessage.decode(packet.payload)
        except ProtocolError:
            self.ip_packets_dropped += 1
            return
        if message.is_request and self._echo_responder_enabled:
            reply = message.make_reply()
            self.send_ip(packet.source, IpProtocol.ICMP, reply.encode())
        for handler in list(self._icmp_handlers):
            handler(message, packet.source)

    def _handle_udp(self, packet: IPv4Packet) -> None:
        try:
            datagram = UdpDatagram.decode(packet.payload, packet.source, packet.destination)
        except ProtocolError:
            self.ip_packets_dropped += 1
            return
        handler = self._udp_bindings.get(datagram.destination_port)
        if handler is None:
            self.ip_packets_dropped += 1
            return
        handler(datagram.payload, (packet.source, datagram.source_port))

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------

    def send_ip(self, destination: IPv4Address, protocol: int, payload: bytes) -> None:
        """Send an IP packet, resolving the next-hop MAC with ARP if needed."""
        self._ident_counter = (self._ident_counter + 1) & 0xFFFF
        packet = IPv4Packet(
            source=self.ip,
            destination=destination,
            protocol=int(protocol),
            payload=payload,
            identification=self._ident_counter,
        )
        if packet.total_length > MAX_PAYLOAD:
            raise PacketError(
                f"packet of {packet.total_length} bytes does not fit in one frame "
                "and the minimal IP layer does not fragment"
            )
        mac = self.arp_lookup(destination)
        if mac is None:
            self._arp_pending[destination].append(packet)
            self._send_arp_request(destination)
            return
        self.ip_packets_sent += 1
        self._transmit(mac, EtherType.IPV4, packet.encode())

    def send_udp(
        self,
        destination: IPv4Address,
        destination_port: int,
        source_port: int,
        payload: bytes,
    ) -> None:
        """Send a UDP datagram in a single frame."""
        if len(payload) > MAX_UDP_PAYLOAD:
            raise PacketError(
                f"UDP payload of {len(payload)} bytes exceeds the unfragmented "
                f"maximum of {MAX_UDP_PAYLOAD}"
            )
        datagram = UdpDatagram(
            source_port=source_port, destination_port=destination_port, payload=payload
        )
        self.send_ip(destination, IpProtocol.UDP, datagram.encode(self.ip, destination))

    def send_icmp_echo(
        self,
        destination: IPv4Address,
        identifier: int,
        sequence: int,
        payload: bytes,
    ) -> None:
        """Send an ICMP echo request (what ``ping`` does)."""
        message = IcmpMessage(
            icmp_type=int(IcmpType.ECHO_REQUEST),
            identifier=identifier,
            sequence=sequence,
            payload=payload,
        )
        self.send_ip(destination, IpProtocol.ICMP, message.encode())

    # ------------------------------------------------------------------
    # Bindings
    # ------------------------------------------------------------------

    def bind_udp(self, port: int, handler: UdpHandler) -> None:
        """Register a handler for UDP datagrams arriving on ``port``."""
        if port in self._udp_bindings:
            raise PacketError(f"UDP port {port} is already bound on {self.name}")
        self._udp_bindings[port] = handler

    def unbind_udp(self, port: int) -> None:
        """Remove a UDP port binding."""
        self._udp_bindings.pop(port, None)

    def add_icmp_handler(self, handler: IcmpHandler) -> None:
        """Register a callback for every ICMP message addressed to this host."""
        self._icmp_handlers.append(handler)

    def set_echo_responder(self, enabled: bool) -> None:
        """Enable/disable the automatic echo-reply behaviour."""
        self._echo_responder_enabled = enabled

    # ------------------------------------------------------------------
    # ARP
    # ------------------------------------------------------------------

    def add_static_arp(self, ip: IPv4Address, mac: MacAddress) -> None:
        """Install one static ARP entry in this stack's own table.

        The own table sits in front of every shared directory (see
        :meth:`add_arp_directory`), so this entry wins, as a learned one
        does.
        """
        self._learn_arp(ip, mac)

    def add_arp_directory(self, directory: Dict[IPv4Address, MacAddress]) -> None:
        """Resolve through ``directory``, a scope's shared ``{ip: mac}`` map.

        :meth:`NetworkBuilder.populate_static_arp
        <repro.lan.topology.NetworkBuilder.populate_static_arp>` hands one
        directory to every stack of a scope, held by reference and never
        written.  It acts as if each entry but the host's own had been
        added with :meth:`add_static_arp` now: it replaces what the own
        table learned for those addresses, and packets waiting on one go
        out in directory order.  A newer directory wins over an older one.
        """
        table = self._arp_table
        for ip in [ip for ip in table if ip in directory and ip != self.ip]:
            del table[ip]
        self._arp_directories = (directory, *self._arp_directories)
        if self._arp_pending:
            for ip, mac in directory.items():
                if ip in self._arp_pending and ip != self.ip:
                    self._flush_pending(ip, mac)

    def arp_lookup(self, ip: IPv4Address) -> Optional[MacAddress]:
        """Return the MAC for ``ip``, if known.

        The own table (learned and :meth:`add_static_arp` entries) answers
        first, then the shared directories, newest first.  A directory
        never resolves the host's own address.
        """
        mac = self._arp_table.get(ip)
        if mac is None and ip != self.ip:
            for directory in self._arp_directories:
                mac = directory.get(ip)
                if mac is not None:
                    break
        return mac

    def _learn_arp(self, ip: IPv4Address, mac: MacAddress) -> None:
        self._arp_table[ip] = mac
        self._flush_pending(ip, mac)

    def _flush_pending(self, ip: IPv4Address, mac: MacAddress) -> None:
        for packet in self._arp_pending.pop(ip, []):
            self.ip_packets_sent += 1
            self._transmit(mac, EtherType.IPV4, packet.encode())

    def _send_arp_request(self, target_ip: IPv4Address) -> None:
        request = ArpPacket.request(self.mac, self.ip, target_ip)
        self._transmit(BROADCAST, EtherType.ARP, request.encode())

    # ------------------------------------------------------------------
    # Frame output
    # ------------------------------------------------------------------

    def _transmit(self, destination: MacAddress, ethertype: int, payload: bytes) -> None:
        frame = EthernetFrame(
            destination=destination,
            source=self.mac,
            ethertype=int(ethertype),
            payload=payload,
        )
        self._send_frame(frame)
