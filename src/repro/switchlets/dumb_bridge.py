"""The first switchlet: a minimal "dumb" bridge (buffered repeater).

Section 5.3: "The first, lowest level switchlet implements a minimal 'dumb'
bridge.  It has three parts.  Part one is a function that reads an input
packet from a queue and sends it out through a given network interface.
Part two is a function that takes an input packet and queues it to all
network interfaces except for the one on which it was received.  Part three
is a function that reads packets from a network interface and demultiplexes
them to the functions from part two."

"This switchlet is actually performing the function of a buffered repeater.
It cannot tolerate a network topology with any loops ..."

:class:`DumbBridgeApp` implements those three parts against the thinned
environment, and additionally registers the *access points* later switchlets
build on:

* ``"bridge.switch"`` — the switching function (part two); the learning
  switchlet replaces this registration,
* ``"bridge.send_out"`` — send raw frame bytes out of a named port,
* ``"bridge.ports"`` — the list of port names,
* ``"bridge.set_port_filter"`` — install a predicate that can suppress
  traffic per (input port, output port); the spanning-tree switchlet uses it
  to block ports that are not on the tree,
* ``"bridge.stats"`` — forwarding counters.
"""

from __future__ import annotations

from repro.switchlets.framefmt import FrameFmt


class DumbBridgeApp:
    """The dumb bridge / buffered repeater switchlet application.

    Args:
        unixnet: the thinned ``Unixnet`` module.
        func: the thinned ``Func`` registry module.
        log: the thinned ``Log`` module.
    """

    SWITCH_KEY = "bridge.switch"
    SEND_OUT_KEY = "bridge.send_out"
    PORTS_KEY = "bridge.ports"
    FILTER_KEY = "bridge.set_port_filter"
    STATS_KEY = "bridge.stats"

    def __init__(self, unixnet, func, log):
        self.unixnet = unixnet
        self.func = func
        self.log = log
        self.iports = {}
        self.oports = {}
        self.port_filter = None
        self.running = False
        self.frames_handled = 0
        self.frames_flooded = 0
        self.frames_suppressed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Bind every interface for input and output and begin repeating."""
        if self.running:
            return
        names = list(self.unixnet.interface_names())
        for name in names:
            iport = self.unixnet.bind_in(name)
            oport = self.unixnet.iport_to_oport(iport)
            self.iports[name] = iport
            self.oports[name] = oport
            # Part three: the per-port reader hands packets to the switch
            # function looked up through Func, so later switchlets can
            # replace the switching behaviour without touching the readers.
            self.unixnet.set_handler_in(iport, self._make_reader(name))
        self._register()
        self.running = True
        self.log.log("dumb bridge started on ports: %s" % ", ".join(sorted(self.iports)))

    def _register(self):
        self.func.register(self.SWITCH_KEY, self.switch)
        self.func.register(self.SEND_OUT_KEY, self.send_out)
        self.func.register(self.PORTS_KEY, self.ports)
        self.func.register(self.FILTER_KEY, self.set_port_filter)
        self.func.register(self.STATS_KEY, self.stats)

    def _make_reader(self, port_name):
        def reader(packet):
            switch = self.func.lookup(self.SWITCH_KEY)
            switch(port_name, packet.pkt)

        return reader

    # ------------------------------------------------------------------
    # Part one: send a packet out of a given interface
    # ------------------------------------------------------------------

    def send_out(self, port_name, pkt_bytes):
        """Send raw frame bytes out of the named port (access point)."""
        oport = self.oports.get(port_name)
        if oport is None:
            raise KeyError("no such output port: %r" % (port_name,))
        return self.unixnet.send_pkt_out(oport, pkt_bytes, 0, len(pkt_bytes), None)

    # ------------------------------------------------------------------
    # Part two: the switching function (flood to all other ports)
    # ------------------------------------------------------------------

    def switch(self, in_port, pkt_bytes):
        """Queue the packet to every port except the one it arrived on."""
        self.frames_handled += 1
        flooded = 0
        for out_port in self.oports:
            if out_port == in_port:
                continue
            if not self._allowed(in_port, out_port):
                self.frames_suppressed += 1
                continue
            self.send_out(out_port, pkt_bytes)
            flooded += 1
        if flooded:
            self.frames_flooded += 1

    def _allowed(self, in_port, out_port):
        if self.port_filter is None:
            return True
        return bool(self.port_filter(in_port, out_port))

    # ------------------------------------------------------------------
    # Access points
    # ------------------------------------------------------------------

    def ports(self):
        """The port names this bridge is repeating between."""
        return sorted(self.iports)

    def set_port_filter(self, predicate):
        """Install (or clear, with ``None``) the per-port forwarding filter."""
        self.port_filter = predicate

    def stats(self):
        """Forwarding counters."""
        return {
            "frames_handled": self.frames_handled,
            "frames_flooded": self.frames_flooded,
            "frames_suppressed": self.frames_suppressed,
        }


#: Source epilogue executed when this switchlet is loaded into a node: it
#: instantiates the application, starts it, and registers the instance so the
#: node (and later switchlets) can find it.
REGISTRATION_SOURCE = """
_app = DumbBridgeApp(Unixnet, Func, Log)
_app.start()
Func.register("switchlet.dumb-bridge", _app)
"""

#: The classes whose source is shipped inside the dumb-bridge switchlet.
PACKAGED_COMPONENTS = (FrameFmt, DumbBridgeApp)
