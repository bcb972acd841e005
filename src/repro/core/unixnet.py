"""``Unixnet`` — the network access module of Figure 4.

This is the interface through which switchlets reach the machine's network
interfaces.  It follows the paper's signature closely:

* input and output are separated (``iport`` / ``oport``),
* ports are bound by interface name (``bind_in``/``bind_out``), by "next
  available" (``get_iport``/``get_oport``), or by *address*
  (``bind_addr``) — the mechanism the spanning-tree and control switchlets
  use to claim the All-Bridges / DEC multicast addresses,
* the **first switchlet to bind a given port succeeds and all others fail**
  (``Already_bound``), and binding an input port puts the underlying
  interface into promiscuous mode,
* packets are records of ``(len, addr, pkt)`` that the switchlet must
  unmarshal itself.

Two pragmatic adaptations for an event-driven simulator are documented here
rather than hidden:

* ``pkt`` contains the frame header plus payload but **not** the frame check
  sequence; the FCS is computed by the NIC on transmit (the paper likewise
  cannot set the CRC on a write) and verified by the NIC on receive.
* In addition to the pull-style ``get_next_pkt_in``, a bound input port may
  install a push handler with ``set_handler_in``; the paper gets the same
  effect with a per-port reader thread, which a discrete-event kernel
  expresses more naturally as a callback.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.ethernet.ethertype import EtherType
from repro.ethernet.frame import EthernetFrame, VlanTag
from repro.ethernet.mac import MacAddress
from repro.exceptions import AlreadyBound, FrameError, NoInterface
from repro.core.safeunix import SockAddr


#: The 802.1Q tag protocol identifier, recognized in ``pkt`` byte strings.
_VLAN_TPID = int(EtherType.VLAN_8021Q)


def _unclaimed_detail(interface: str, destination: MacAddress) -> dict:
    """Lazy detail of a ``unixnet.unclaimed`` record."""
    return {"interface": interface, "destination": str(destination)}


def frame_to_packet_bytes(frame: EthernetFrame) -> bytes:
    """Flatten an Ethernet frame into the ``pkt`` byte string switchlets see.

    802.1Q tags are preserved in-line (TPID + TCI between the source address
    and the real EtherType), exactly as on the wire — a VLAN-aware switchlet
    must unmarshal the tag itself, like any other header field.
    """
    header = frame.destination.octets + frame.source.octets
    if frame.vlan is not None:
        header += _VLAN_TPID.to_bytes(2, "big") + frame.vlan.tci.to_bytes(2, "big")
    return header + int(frame.ethertype).to_bytes(2, "big") + frame.payload


#: Version byte of the frame-envelope format (see :func:`frame_to_envelope_bytes`).
_ENVELOPE_VERSION = 2

#: Envelope flag bit: the frame carries an 802.1Q tag.
_ENV_HAS_VLAN = 0x01


def frame_to_envelope_bytes(frame: EthernetFrame) -> bytes:
    """Flatten a frame into a *lossless* transport envelope.

    The wire format of :func:`frame_to_packet_bytes` is what switchlets see
    and is deliberately ambiguous for one corner: an untagged frame whose
    EtherType happens to be 0x8100 re-parses as a tagged frame, unless its
    payload starts with a tag word of VLAN id 0 or 4095.  The
    envelope is the fabric's own transport encoding (cross-process shard
    mailboxes), so it must round-trip *every* field exactly; it therefore
    carries an explicit VLAN-presence flag instead of the in-line TPID
    trick.  It is a frame codec only: a mailbox entry carries its own
    simulated time.

    Layout (big-endian throughout)::

        version(1) flags(1) dst(6) src(6) ethertype(2)
        [tci(2) if flags&HAS_VLAN] payload_len(4) payload
    """
    flags = 0
    tag = b""
    if frame.vlan is not None:
        flags = _ENV_HAS_VLAN
        tag = frame.vlan.tci.to_bytes(2, "big")
    return (
        bytes([_ENVELOPE_VERSION, flags])
        + frame.destination.octets
        + frame.source.octets
        + int(frame.ethertype).to_bytes(2, "big")
        + tag
        + len(frame.payload).to_bytes(4, "big")
        + frame.payload
    )


def envelope_bytes_to_frame(data: bytes) -> EthernetFrame:
    """Rebuild the frame from :func:`frame_to_envelope_bytes` output."""
    if len(data) < 20:
        raise FrameError(f"envelope too short: {len(data)} bytes")
    if data[0] != _ENVELOPE_VERSION:
        raise FrameError(f"unknown envelope version {data[0]}")
    destination = MacAddress(bytes(data[2:8]))
    source = MacAddress(bytes(data[8:14]))
    ethertype = int.from_bytes(bytes(data[14:16]), "big")
    offset = 16
    vlan = None
    if data[1] & _ENV_HAS_VLAN:
        vlan = VlanTag.from_tci(int.from_bytes(bytes(data[offset : offset + 2]), "big"))
        offset += 2
    payload_len = int.from_bytes(bytes(data[offset : offset + 4]), "big")
    offset += 4
    payload = bytes(data[offset : offset + payload_len])
    if len(payload) != payload_len:
        raise FrameError(
            f"envelope payload truncated: expected {payload_len}, got {len(payload)}"
        )
    return EthernetFrame(
        destination=destination,
        source=source,
        ethertype=ethertype,
        payload=payload,
        vlan=vlan,
    )


def packet_bytes_to_frame(data: bytes) -> EthernetFrame:
    """Rebuild an Ethernet frame from switchlet-produced ``pkt`` bytes.

    Addresses are interned (:meth:`MacAddress.interned`), so equal octets
    give the same address object and its text is rendered once.  A tag
    word whose VLAN id names no VLAN (0 or 4095) stays payload, as in
    :meth:`EthernetFrame.decode`.
    """
    if len(data) < 14:
        raise FrameError(f"packet bytes too short for an Ethernet header: {len(data)}")
    outer_type = int.from_bytes(bytes(data[12:14]), "big")
    vlan = None
    body_start = 14
    ethertype = outer_type
    if outer_type == _VLAN_TPID:
        if len(data) < 18:
            raise FrameError(f"packet bytes too short for an 802.1Q header: {len(data)}")
        tci = int.from_bytes(bytes(data[14:16]), "big")
        if 0 < (tci & 0x0FFF) < 0x0FFF:
            vlan = VlanTag.from_tci(tci)
            ethertype = int.from_bytes(bytes(data[16:18]), "big")
            body_start = 18
    return EthernetFrame(
        destination=MacAddress.interned(bytes(data[0:6])),
        source=MacAddress.interned(bytes(data[6:12])),
        ethertype=ethertype,
        payload=bytes(data[body_start:]),
        vlan=vlan,
    )


class Packet(NamedTuple):
    """The packet record of Figure 4: ``{len; addr; pkt}`` plus the input port name.

    An immutable record, built for every received frame.

    Attributes:
        len: length of ``pkt`` in bytes.
        addr: a :class:`~repro.core.safeunix.SockAddr` describing where the
            packet came from (interface name and source MAC).
        pkt: the raw frame bytes (header + payload, no FCS).
        iport: the name of the input port the packet arrived on.
    """

    len: int
    addr: SockAddr
    pkt: bytes
    iport: str


PacketHandler = Callable[[Packet], None]
TransmitCallback = Callable[[str, EthernetFrame], None]


class _InputBinding:
    """State for one bound input port (physical interface or address)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.queue: Deque[Packet] = deque()
        self.handler: Optional[PacketHandler] = None
        self.packets_delivered = 0

    def deliver(self, packet: Packet) -> None:
        self.packets_delivered += 1
        if self.handler is not None:
            self.handler(packet)
        else:
            self.queue.append(packet)


class IPort:
    """Opaque input-port handle returned to switchlets."""

    def __init__(self, binding: _InputBinding, kind: str) -> None:
        self._binding = binding
        self._kind = kind

    @property
    def name(self) -> str:
        """The bound interface name (or address string for address bindings)."""
        return self._binding.name

    def __repr__(self) -> str:
        return f"<iport {self._binding.name} ({self._kind})>"


class OPort:
    """Opaque output-port handle returned to switchlets."""

    def __init__(self, name: str) -> None:
        self._name = name

    @property
    def name(self) -> str:
        """The bound interface name."""
        return self._name

    def __repr__(self) -> str:
        return f"<oport {self._name}>"


class Unixnet:
    """The ``Unixnet`` module implementation for one active node.

    The owning :class:`~repro.core.node.ActiveNode` constructs one instance,
    registers its interfaces with :meth:`add_interface`, feeds received
    frames in with :meth:`deliver_frame`, and supplies a ``transmit``
    callback that puts frames on the wire (after charging the transmit-side
    kernel-crossing cost).
    """

    def __init__(
        self, node_name: str, transmit: TransmitCallback, trace=None
    ) -> None:
        self._node_name = node_name
        self._transmit = transmit
        #: Optional :class:`~repro.sim.trace.TraceRecorder`; the owning node
        #: passes its simulator's hub so demux misses show up in timelines.
        self._trace = trace
        self._interface_order: List[str] = []
        self._promiscuous_hook: Dict[str, Callable[[bool], None]] = {}
        self._interface_macs: Dict[str, MacAddress] = {}
        self._in_bindings: Dict[str, _InputBinding] = {}
        self._out_bindings: Dict[str, OPort] = {}
        self._addr_bindings: Dict[str, _InputBinding] = {}
        # Frame reuse on the output path (see send_pkt_out): the pkt bytes
        # last delivered and the frame they came from, and per output port
        # the pkt bytes last parsed and the frame parsed from them.
        self._delivered_pkt: Optional[bytes] = None
        self._delivered_frame: Optional[EthernetFrame] = None
        self._parsed_out: Dict[str, Tuple[bytes, EthernetFrame]] = {}
        # Statistics (read by the node, not exported to switchlets)
        self.packets_delivered = 0
        self.packets_unclaimed = 0
        self.packets_sent = 0

    # ------------------------------------------------------------------
    # Node-side wiring (not exported to switchlets)
    # ------------------------------------------------------------------

    def add_interface(
        self,
        name: str,
        mac: MacAddress,
        set_promiscuous: Callable[[bool], None],
    ) -> None:
        """Register a physical interface by name."""
        if name in self._interface_order:
            raise AlreadyBound(f"interface {name!r} already registered")
        self._interface_order.append(name)
        self._interface_macs[name] = mac
        self._promiscuous_hook[name] = set_promiscuous

    def interface_names(self) -> list:
        """The registered interface names, in registration order."""
        return list(self._interface_order)

    def interface_mac(self, name: str) -> MacAddress:
        """The MAC address of a registered interface."""
        try:
            return self._interface_macs[name]
        except KeyError as exc:
            raise NoInterface(f"no interface named {name!r}") from exc

    def deliver_frame(self, interface: str, frame: EthernetFrame) -> Optional[Packet]:
        """Deliver a received frame to the appropriate binding.

        Address bindings take precedence over interface bindings, mirroring
        the demultiplexer behaviour the spanning-tree switchlet relies on.
        Returns the packet if some binding claimed it, else ``None``.
        """
        pkt = frame_to_packet_bytes(frame)
        packet = Packet(len(pkt), SockAddr(interface, str(frame.source)), pkt, interface)
        # An untagged frame of EtherType 0x8100 may not survive the trip
        # through pkt bytes (it can re-parse as tagged), so it is never reused.
        if frame.vlan is not None or frame.ethertype != _VLAN_TPID:
            self._delivered_pkt = pkt
            self._delivered_frame = frame
        addr_binding = self._addr_bindings.get(str(frame.destination))
        if addr_binding is not None:
            self.packets_delivered += 1
            addr_binding.deliver(packet)
            return packet
        in_binding = self._in_bindings.get(interface)
        if in_binding is not None:
            self.packets_delivered += 1
            in_binding.deliver(packet)
            return packet
        self.packets_unclaimed += 1
        trace = self._trace
        if trace is not None and trace.wants("unixnet.unclaimed"):
            trace.emit(
                self._node_name,
                "unixnet.unclaimed",
                _unclaimed_detail,
                interface,
                frame.destination,
            )
        return None

    def reset(self) -> None:
        """Drop every binding (used when a node is reset between experiments)."""
        self._in_bindings.clear()
        self._out_bindings.clear()
        self._addr_bindings.clear()

    # ------------------------------------------------------------------
    # Input ports (exported)
    # ------------------------------------------------------------------

    def bind_in(self, interface: str) -> IPort:
        """Bind the named interface for input (first bind wins)."""
        if interface not in self._interface_order:
            raise NoInterface(f"no interface named {interface!r}")
        if interface in self._in_bindings:
            raise AlreadyBound(f"input port {interface!r} is already bound")
        binding = _InputBinding(interface)
        self._in_bindings[interface] = binding
        # The paper: "whenever an input port is bound, it is put into
        # promiscuous mode" — a transparent bridge must see everything.
        self._promiscuous_hook[interface](True)
        return IPort(binding, "interface")

    def bind_addr(self, address: str) -> IPort:
        """Bind a destination MAC address (e.g. the All-Bridges multicast group).

        Frames addressed to ``address`` on *any* interface are delivered to
        this binding instead of the per-interface binding.
        """
        key = str(MacAddress.from_string(address))
        if key in self._addr_bindings:
            raise AlreadyBound(f"address {key} is already bound")
        binding = _InputBinding(key)
        self._addr_bindings[key] = binding
        return IPort(binding, "address")

    def get_iport(self) -> IPort:
        """Bind the next interface that is not yet bound for input."""
        for interface in self._interface_order:
            if interface not in self._in_bindings:
                return self.bind_in(interface)
        raise NoInterface("no unbound input interface is available")

    def pkts_waiting_p_in(self, iport: IPort) -> bool:
        """Whether packets are queued on this input port (pull mode)."""
        return bool(iport._binding.queue)

    def get_next_pkt_in(self, iport: IPort) -> Packet:
        """Dequeue the next packet from this input port (pull mode).

        Raises:
            NoInterface: if no packet is waiting (the paper's reader thread
                would block; event-driven callers check
                :meth:`pkts_waiting_p_in` first or use a push handler).
        """
        if not iport._binding.queue:
            raise NoInterface(f"no packet waiting on {iport.name!r}")
        return iport._binding.queue.popleft()

    def set_handler_in(self, iport: IPort, handler: Optional[PacketHandler]) -> None:
        """Install (or clear) a push handler on a bound input port."""
        iport._binding.handler = handler

    def unbind_in(self, iport: IPort) -> None:
        """Release an input-port binding."""
        name = iport._binding.name
        if self._in_bindings.get(name) is iport._binding:
            del self._in_bindings[name]
            self._promiscuous_hook[name](False)

    def unbind_addr(self, iport: IPort) -> None:
        """Release an address binding."""
        name = iport._binding.name
        if self._addr_bindings.get(name) is iport._binding:
            del self._addr_bindings[name]

    # ------------------------------------------------------------------
    # Output ports (exported)
    # ------------------------------------------------------------------

    def bind_out(self, interface: str) -> OPort:
        """Bind the named interface for output (first bind wins)."""
        if interface not in self._interface_order:
            raise NoInterface(f"no interface named {interface!r}")
        if interface in self._out_bindings:
            raise AlreadyBound(f"output port {interface!r} is already bound")
        oport = OPort(interface)
        self._out_bindings[interface] = oport
        return oport

    def get_oport(self) -> OPort:
        """Bind the next interface that is not yet bound for output."""
        for interface in self._interface_order:
            if interface not in self._out_bindings:
                return self.bind_out(interface)
        raise NoInterface("no unbound output interface is available")

    def unbind_out(self, oport: OPort) -> None:
        """Release an output-port binding."""
        if self._out_bindings.get(oport.name) is oport:
            del self._out_bindings[oport.name]

    def ready_to_send_p_out(self, oport: OPort) -> bool:
        """Whether the output port can accept a frame (always true here)."""
        return oport.name in self._out_bindings

    def send_pkt_out(
        self,
        oport: OPort,
        data: bytes,
        offset: int,
        length: int,
        addr: Optional[SockAddr] = None,
    ) -> int:
        """Transmit ``data[offset:offset+length]`` on the bound output port.

        The byte string must be a complete Ethernet header plus payload (no
        FCS); returns the number of bytes accepted for transmission.  The
        ``addr`` argument is accepted for interface fidelity with Figure 4
        but is informational only — the frame's own header determines where
        it goes.

        Frames are immutable, so a whole-buffer send of the very bytes
        object this module last delivered (a bridge forwarding
        ``packet.pkt`` unchanged) transmits the received frame itself, and a
        whole-buffer send of the very bytes object last parsed for this
        port (an unchanged PDU) transmits that parsed frame again.  Any
        other send parses ``data`` afresh.
        """
        name = oport.name
        if self._out_bindings.get(name) is not oport:
            raise NoInterface(f"output port {name!r} is not bound")
        if offset == 0 and length >= len(data):
            sent = len(data)
            if data is self._delivered_pkt:
                frame = self._delivered_frame
            else:
                parsed = self._parsed_out.get(name)
                if parsed is not None and data is parsed[0]:
                    frame = parsed[1]
                else:
                    frame = packet_bytes_to_frame(bytes(data))
                    if type(data) is bytes:  # immutable, so identity pins content
                        self._parsed_out[name] = (data, frame)
        else:
            window = bytes(data[offset : offset + length])
            sent = len(window)
            frame = packet_bytes_to_frame(window)
        self.packets_sent += 1
        self._transmit(name, frame)
        return sent

    # ------------------------------------------------------------------
    # Generic and debugging functions (exported)
    # ------------------------------------------------------------------

    def iport_to_oport(self, iport: IPort) -> OPort:
        """Bind (or return) the output port for the same interface as ``iport``."""
        name = iport._binding.name
        existing = self._out_bindings.get(name)
        if existing is not None:
            return existing
        return self.bind_out(name)

    def debug_iport_to_string(self, iport: IPort) -> str:
        """Debugging aid: describe an input port."""
        return f"iport({iport.name}, queued={len(iport._binding.queue)})"

    def debug_oport_to_string(self, oport: OPort) -> str:
        """Debugging aid: describe an output port."""
        return f"oport({oport.name})"

    def debug_demux_num_devs(self) -> int:
        """Debugging aid: number of registered physical interfaces."""
        return len(self._interface_order)

    #: Names exported to switchlets when this object is thinned into ``Unixnet``.
    THINNED_EXPORTS = (
        "bind_in",
        "bind_addr",
        "get_iport",
        "pkts_waiting_p_in",
        "get_next_pkt_in",
        "set_handler_in",
        "unbind_in",
        "unbind_addr",
        "bind_out",
        "get_oport",
        "unbind_out",
        "ready_to_send_p_out",
        "send_pkt_out",
        "iport_to_oport",
        "interface_names",
        "interface_mac",
        "debug_iport_to_string",
        "debug_oport_to_string",
        "debug_demux_num_devs",
    )
