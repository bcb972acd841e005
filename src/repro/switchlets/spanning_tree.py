"""The third switchlet: the IEEE 802.1D spanning tree.

Section 5.3: "The third and final switchlet implements the spanning tree
functionality.  This switchlet adds a function that registers with the
demultiplexer requesting packets addressed to the All Bridges multicast
address.  All other packets continue to be sent to the learning function from
the second switchlet.  Based on the 802.1D protocol, this function takes part
in the calculation of the spanning tree for the network.  Then it uses access
points in the previous switchlets to suppress the traffic from certain input
and output ports.  With this switchlet, we have a fully functional bridge."

:class:`SpanningTreeApp` implements a faithful (if streamlined) 802.1D
configuration protocol: root election by lowest bridge identifier, root-port
and designated-port selection by priority vectors, BPDU origination by the
root every hello time, propagation on designated ports, message ageing, and
the listening → learning → forwarding transition governed by the forward
delay timer — which is exactly the 2 x 15 s the paper's agility experiment
measures (Section 7.5).

The DEC-style "old protocol" of the transition experiment is the subclass in
:mod:`repro.switchlets.dec_spanning_tree`; it differs only in wire format and
multicast address, as in the paper.
"""

from __future__ import annotations

from repro.switchlets.bpdu import ConfigBpdu
from repro.switchlets.framefmt import FrameFmt


class SpanningTreeApp:
    """The 802.1D spanning-tree switchlet application.

    Args:
        unixnet: the thinned ``Unixnet`` module.
        func: the thinned ``Func`` registry (for the bridge access points).
        log: the thinned ``Log`` module.
        safeunix: the thinned ``Safeunix`` module (time).
        safethread: the thinned ``Safethread`` module (timers).
        priority: the bridge priority half of the bridge identifier.
        hello_time / max_age / forward_delay: the standard 802.1D timers.
    """

    PROTOCOL_NAME = "ieee"
    REGISTRY_KEY = "stp.ieee"
    MULTICAST_ADDR = "01:80:c2:00:00:00"
    ETHERTYPE = 0x8181

    DEFAULT_PRIORITY = 0x8000
    PATH_COST = 19  # 802.1D recommended cost for a 100 Mb/s port.

    HELLO_TIME = 2.0
    MAX_AGE = 20.0
    FORWARD_DELAY = 15.0

    STATE_BLOCKING = "blocking"
    STATE_LISTENING = "listening"
    STATE_LEARNING = "learning"
    STATE_FORWARDING = "forwarding"

    ROLE_ROOT = "root"
    ROLE_DESIGNATED = "designated"
    ROLE_BLOCKED = "blocked"

    SEND_OUT_KEY = "bridge.send_out"
    PORTS_KEY = "bridge.ports"
    FILTER_KEY = "bridge.set_port_filter"

    def __init__(self, unixnet, func, log, safeunix, safethread,
                 priority=DEFAULT_PRIORITY,
                 hello_time=HELLO_TIME,
                 max_age=MAX_AGE,
                 forward_delay=FORWARD_DELAY):
        self.unixnet = unixnet
        self.func = func
        self.log = log
        self.safeunix = safeunix
        self.safethread = safethread
        self.priority = int(priority)
        self.hello_time = float(hello_time)
        self.max_age = float(max_age)
        self.forward_delay = float(forward_delay)
        self.running = False
        self.listening = False
        self.ports = {}
        self.bridge_mac = b"\x00" * 6
        self.root_priority = self.priority
        self.root_mac = self.bridge_mac
        self.root_path_cost = 0
        self.root_port = None
        self._port_order = ()
        self._sent_pdus = {}
        self._addr_iport = None
        self._hello_handle = None
        self.bpdus_sent = 0
        self.bpdus_received = 0
        self.bpdus_ignored = 0
        self.recomputes = 0

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------

    def bridge_id(self):
        """This bridge's identifier: (priority, MAC bytes)."""
        return (self.priority, self.bridge_mac)

    def root_id(self):
        """The identifier of the bridge we currently believe is the root."""
        return (self.root_priority, self.root_mac)

    def is_root(self):
        """Whether this bridge believes it is the root of the spanning tree."""
        return self.root_id() == self.bridge_id()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, listen=True):
        """Start the protocol: claim the multicast address and begin hellos.

        Args:
            listen: bind the protocol's multicast address.  The control
                switchlet passes ``False`` when it wants to hold the binding
                itself and feed packets in through :meth:`deliver_packet`.
        """
        if self.running:
            return
        port_names = list(self.func.call(self.PORTS_KEY))
        macs = [bytes(self.unixnet.interface_mac(name).octets) for name in port_names]
        self.bridge_mac = min(macs) if macs else b"\x00" * 6
        self.root_priority = self.priority
        self.root_mac = self.bridge_mac
        self.root_path_cost = 0
        self.root_port = None
        next_port_id = 1
        for name in sorted(port_names):
            self.ports[name] = {
                "port_id": next_port_id,
                "state": self.STATE_BLOCKING,
                "role": self.ROLE_DESIGNATED,
                "info": None,
                "transition": None,
            }
            next_port_id += 1
        self._port_order = tuple(sorted(self.ports))
        self._sent_pdus = {}
        self.running = True
        if listen:
            self.listen()
        self.func.call(self.FILTER_KEY, self.forwarding_allowed)
        self._recompute()
        self._hello_handle = self.safethread.every(self.hello_time, self._hello_tick)
        self._originate_hellos()
        self.log.log("%s spanning tree started (bridge id %04x/%s)" % (
            self.PROTOCOL_NAME, self.priority, FrameFmt.mac_to_str(self.bridge_mac)))

    def listen(self):
        """Bind the protocol's multicast address and receive its PDUs."""
        if self._addr_iport is not None:
            return
        self._addr_iport = self.unixnet.bind_addr(self.MULTICAST_ADDR)
        self.unixnet.set_handler_in(self._addr_iport, self.deliver_packet)
        self.listening = True

    def stop_listening(self):
        """Release the multicast address binding."""
        if self._addr_iport is not None:
            self.unixnet.unbind_addr(self._addr_iport)
            self._addr_iport = None
        self.listening = False

    def suspend(self):
        """Halt the protocol (timers stopped, address released); state is retained.

        Used by the control switchlet when transitioning between protocols;
        :meth:`resume` restarts from the retained state.
        """
        if not self.running:
            return
        if self._hello_handle is not None:
            self._hello_handle.cancel()
            self._hello_handle = None
        for port in self.ports.values():
            if port["transition"] is not None:
                port["transition"].cancel()
                port["transition"] = None
        self.stop_listening()
        self.running = False
        self.log.log("%s spanning tree suspended" % self.PROTOCOL_NAME)

    def resume(self, listen=True):
        """Restart a suspended protocol, keeping its port roles and states."""
        if self.running:
            return
        self.running = True
        if listen:
            self.listen()
        self.func.call(self.FILTER_KEY, self.forwarding_allowed)
        self._hello_handle = self.safethread.every(self.hello_time, self._hello_tick)
        self._originate_hellos()
        self.log.log("%s spanning tree resumed" % self.PROTOCOL_NAME)

    # ------------------------------------------------------------------
    # Wire format hooks (overridden by the DEC subclass)
    # ------------------------------------------------------------------

    def _make_pdu(self, port_name):
        port = self.ports[port_name]
        return ConfigBpdu(
            root_priority=self.root_priority,
            root_mac=self.root_mac,
            root_path_cost=self.root_path_cost,
            bridge_priority=self.priority,
            bridge_mac=self.bridge_mac,
            port_id=port["port_id"],
            message_age=0.0 if self.is_root() else 1.0,
            max_age=self.max_age,
            hello_time=self.hello_time,
            forward_delay=self.forward_delay,
        )

    def _parse_pdu(self, payload):
        return ConfigBpdu.decode(payload)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------

    def deliver_packet(self, packet):
        """Handle one packet addressed to the protocol's multicast group."""
        if not self.running:
            return
        pkt = packet.pkt
        if FrameFmt.ethertype(pkt) != self.ETHERTYPE:
            self.bpdus_ignored += 1
            return
        port = self.ports.get(packet.iport)
        if port is not None:
            info = port["info"]
            if info is not None and info["pkt"] == pkt:
                # The very PDU the stored information came from: skip the
                # decode and take the unchanged-vector path directly.
                self.bpdus_received += 1
                self._refresh_info(packet.iport, info, info["max_age"], pkt)
                return
        try:
            pdu = self._parse_pdu(FrameFmt.payload(pkt))
        except ValueError:
            self.bpdus_ignored += 1
            return
        self._handle_pdu(packet.iport, pdu, pkt)

    def _handle_pdu(self, in_port, pdu, pkt):
        if in_port not in self.ports:
            self.bpdus_ignored += 1
            return
        self.bpdus_received += 1
        port = self.ports[in_port]
        received_vector = (pdu.root_id(), pdu.root_path_cost, pdu.bridge_id(), pdu.port_id)
        stored = port["info"]
        if stored is None:
            should_store = self._vector_better(received_vector, self._designated_vector(in_port))
        else:
            stored_vector = self._stored_vector(stored)
            if stored_vector == received_vector:
                self._refresh_info(in_port, stored, pdu.max_age, pkt)
                return
            same_designated = stored_vector[2] == received_vector[2]
            should_store = same_designated or self._vector_better(received_vector, stored_vector)
        if should_store:
            port["info"] = {
                "root_priority": pdu.root_priority,
                "root_mac": bytes(pdu.root_mac),
                "cost": pdu.root_path_cost,
                "bridge_priority": pdu.bridge_priority,
                "bridge_mac": bytes(pdu.bridge_mac),
                "port_id": pdu.port_id,
                "received_at": self.safeunix.gettimeofday(),
                "max_age": pdu.max_age,
                "pkt": pkt,
            }
            changed = self._recompute()
            if in_port == self.root_port or changed:
                self._transmit_on_designated_ports()
        else:
            # Inferior information: if we are designated on this port, answer
            # with our own (better) PDU so the sender corrects itself.
            if port["role"] == self.ROLE_DESIGNATED:
                self._send_pdu(in_port)

    def _refresh_info(self, in_port, info, max_age, pkt):
        """Store a PDU that repeats the port's stored priority vector.

        Only the message age restarts.  Roles are a function of the stored
        vectors alone, so a recompute could change nothing and is skipped;
        the root port still relays, as for any stored PDU.
        """
        info["received_at"] = self.safeunix.gettimeofday()
        info["max_age"] = max_age
        info["pkt"] = pkt
        if in_port == self.root_port:
            self._transmit_on_designated_ports()

    # ------------------------------------------------------------------
    # Priority vectors and recomputation
    # ------------------------------------------------------------------

    @staticmethod
    def _vector_better(candidate, reference):
        """Whether priority vector ``candidate`` is strictly better (lower)."""
        return candidate < reference

    @staticmethod
    def _stored_vector(info):
        """The priority vector of a port's stored information."""
        return (
            (info["root_priority"], info["root_mac"]),
            info["cost"],
            (info["bridge_priority"], info["bridge_mac"]),
            info["port_id"],
        )

    def _designated_vector(self, port_name):
        """The vector this bridge would advertise on ``port_name``."""
        port = self.ports[port_name]
        return (self.root_id(), self.root_path_cost, self.bridge_id(), port["port_id"])

    def _root_preferred(self, claimed, best):
        """Root election order: whether root id ``claimed`` beats ``best``."""
        return claimed < best

    def _non_root_role(self, port_name, info):
        """The role of a port that is not the root port and holds ``info``."""
        if self._vector_better(self._designated_vector(port_name), self._stored_vector(info)):
            return self.ROLE_DESIGNATED
        return self.ROLE_BLOCKED

    def _recompute(self):
        """Re-derive root, root port, and port roles; returns whether anything changed."""
        self.recomputes += 1
        order = self._port_order
        ports = self.ports
        previous = (self.root_id(), self.root_port, tuple(ports[name]["role"] for name in order))

        # Elect the root: our own identifier versus every stored root claim.
        best_root = self.bridge_id()
        for name in order:
            info = ports[name]["info"]
            if info is None:
                continue
            claimed = (info["root_priority"], info["root_mac"])
            if self._root_preferred(claimed, best_root):
                best_root = claimed
        self.root_priority, self.root_mac = best_root

        # Select the root port and our path cost to the root.
        if self.is_root():
            self.root_port = None
            self.root_path_cost = 0
        else:
            best_port = None
            best_key = None
            for name in order:
                info = ports[name]["info"]
                if info is None:
                    continue
                if (info["root_priority"], info["root_mac"]) != best_root:
                    continue
                key = (
                    info["cost"] + self.PATH_COST,
                    (info["bridge_priority"], info["bridge_mac"]),
                    info["port_id"],
                    ports[name]["port_id"],
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best_port = name
            self.root_port = best_port
            self.root_path_cost = best_key[0] if best_key is not None else 0

        # Assign roles.
        for name in order:
            port = ports[name]
            if name == self.root_port:
                port["role"] = self.ROLE_ROOT
            elif port["info"] is None:
                port["role"] = self.ROLE_DESIGNATED
            else:
                port["role"] = self._non_root_role(name, port["info"])

        # Drive port states toward their roles.
        for name in order:
            self._update_port_state(name)

        current = (self.root_id(), self.root_port, tuple(ports[name]["role"] for name in order))
        return current != previous

    def _update_port_state(self, port_name):
        port = self.ports[port_name]
        should_forward = port["role"] in (self.ROLE_ROOT, self.ROLE_DESIGNATED)
        if not should_forward:
            if port["transition"] is not None:
                port["transition"].cancel()
                port["transition"] = None
            if port["state"] != self.STATE_BLOCKING:
                port["state"] = self.STATE_BLOCKING
                self.log.log("%s port %s -> blocking" % (self.PROTOCOL_NAME, port_name))
            return
        if port["state"] in (self.STATE_LISTENING, self.STATE_LEARNING, self.STATE_FORWARDING):
            return  # already on its way to (or in) forwarding
        port["state"] = self.STATE_LISTENING
        self.log.log("%s port %s -> listening" % (self.PROTOCOL_NAME, port_name))
        port["transition"] = self.safethread.delay(
            self.forward_delay, self._make_transition(port_name, self.STATE_LEARNING)
        )

    def _make_transition(self, port_name, next_state):
        def advance():
            port = self.ports.get(port_name)
            if port is None or not self.running:
                return
            if port["role"] not in (self.ROLE_ROOT, self.ROLE_DESIGNATED):
                return
            port["state"] = next_state
            self.log.log("%s port %s -> %s" % (self.PROTOCOL_NAME, port_name, next_state))
            if next_state == self.STATE_LEARNING:
                port["transition"] = self.safethread.delay(
                    self.forward_delay,
                    self._make_transition(port_name, self.STATE_FORWARDING),
                )
            else:
                port["transition"] = None

        return advance

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------

    def _send_pdu(self, port_name):
        # Every field the PDU advertises (message age follows from the root
        # id and our own); an unchanged PDU is sent as the same bytes object.
        key = (self.root_priority, self.root_mac, self.root_path_cost, self.priority,
               self.bridge_mac, self.max_age, self.hello_time, self.forward_delay)
        cached = self._sent_pdus.get(port_name)
        if cached is not None and cached[0] == key:
            pkt = cached[1]
        else:
            pdu = self._make_pdu(port_name)
            source_mac = bytes(self.unixnet.interface_mac(port_name).octets)
            pkt = FrameFmt.build(
                FrameFmt.str_to_mac(self.MULTICAST_ADDR),
                source_mac,
                self.ETHERTYPE,
                pdu.encode(),
            )
            self._sent_pdus[port_name] = (key, pkt)
        self.func.call(self.SEND_OUT_KEY, port_name, pkt)
        self.bpdus_sent += 1

    def _originate_hellos(self):
        if self.is_root():
            for name in self._port_order:
                self._send_pdu(name)

    def _transmit_on_designated_ports(self):
        for name in self._port_order:
            if self.ports[name]["role"] == self.ROLE_DESIGNATED:
                self._send_pdu(name)

    def _hello_tick(self):
        if not self.running:
            return
        self._expire_stale_info()
        if self.is_root():
            self._originate_hellos()

    def _expire_stale_info(self):
        now = self.safeunix.gettimeofday()
        expired = False
        for port in self.ports.values():
            info = port["info"]
            if info is None:
                continue
            limit = info.get("max_age", self.max_age) or self.max_age
            if now - info["received_at"] > limit:
                port["info"] = None
                expired = True
        if expired:
            changed = self._recompute()
            if changed:
                self._transmit_on_designated_ports()

    # ------------------------------------------------------------------
    # Access points used by other switchlets
    # ------------------------------------------------------------------

    def forwarding_allowed(self, in_port, out_port):
        """The forwarding filter handed to the learning bridge.

        A frame is forwarded only if its input port and (when given) output
        port are both in the forwarding state.  Ports this protocol does not
        manage are left alone.
        """
        for name in (in_port, out_port):
            if name is None:
                continue
            port = self.ports.get(name)
            if port is None:
                continue
            if port["state"] != self.STATE_FORWARDING:
                return False
        return True

    def port_state(self, port_name):
        """The current state of one port (``"blocking"`` ... ``"forwarding"``)."""
        return self.ports[port_name]["state"]

    def snapshot(self):
        """A comparable summary of the computed tree (used for validation).

        The control switchlet captures this from the old protocol at
        suspension time and compares it against the new protocol's snapshot
        after the network has stabilized (Section 5.4).
        """
        return {
            "protocol": self.PROTOCOL_NAME,
            "bridge_mac": FrameFmt.mac_to_str(self.bridge_mac),
            "root_priority": self.root_priority,
            "root_mac": FrameFmt.mac_to_str(self.root_mac),
            "root_port": self.root_port,
            "root_path_cost": self.root_path_cost,
            "port_roles": dict((name, port["role"]) for name, port in self.ports.items()),
            "port_states": dict((name, port["state"]) for name, port in self.ports.items()),
        }

    def stats(self):
        """Protocol counters.

        ``recomputes`` counts the recomputations actually run: a PDU that
        repeats a port's stored priority vector only refreshes its age.
        """
        return {
            "bpdus_sent": self.bpdus_sent,
            "bpdus_received": self.bpdus_received,
            "bpdus_ignored": self.bpdus_ignored,
            "recomputes": self.recomputes,
            "is_root": self.is_root(),
        }


class BuggySpanningTreeApp(SpanningTreeApp):
    """A deliberately faulty 802.1D implementation.

    It inverts the root election (it prefers the *highest* bridge identifier)
    and never blocks a port, so the tree it computes disagrees with the one
    the old protocol computed.
    This is the "algorithmic failure in a loadable module" the paper's
    control switchlet detects and falls back from; the fallback benchmark
    loads this variant as the "new" protocol.
    """

    def _root_preferred(self, claimed, best):
        return claimed > best  # BUG: should be '<'

    def _non_root_role(self, port_name, info):
        # BUG: never blocks, so a looped topology keeps every port forwarding.
        return self.ROLE_DESIGNATED


#: Registration epilogue for a stand-alone, immediately started 802.1D switchlet.
REGISTRATION_SOURCE = """
_app = SpanningTreeApp(Unixnet, Func, Log, Safeunix, Safethread)
Func.register("stp.ieee", _app)
_app.start(listen=True)
"""

#: Registration epilogue used in the protocol-transition experiment: the new
#: protocol is loaded but left dormant until the control switchlet starts it
#: (Table 1's initial "loaded" state).
REGISTRATION_SOURCE_DORMANT = """
_app = SpanningTreeApp(Unixnet, Func, Log, Safeunix, Safethread)
Func.register("stp.ieee", _app)
"""

#: Dormant registration of the deliberately faulty implementation.
REGISTRATION_SOURCE_BUGGY_DORMANT = """
_app = BuggySpanningTreeApp(Unixnet, Func, Log, Safeunix, Safethread)
Func.register("stp.ieee", _app)
"""

#: The classes shipped inside the 802.1D switchlet.
PACKAGED_COMPONENTS = (FrameFmt, ConfigBpdu, SpanningTreeApp)

#: The classes shipped inside the faulty-802.1D switchlet.
PACKAGED_COMPONENTS_BUGGY = (FrameFmt, ConfigBpdu, SpanningTreeApp, BuggySpanningTreeApp)
