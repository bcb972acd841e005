"""The second switchlet: self-learning.

Section 5.3: "The second switchlet adds learning to the bridge.  This
switchlet replaces the switching function from the dumb bridge with one that
learns the locations of the hosts on the network.  For each packet received,
the triple (source address, current time, input port) is placed into a hash
table keyed by the source address, replacing any previous entry.  Next, the
hash table is searched for the destination address of the packet.  If a match
is found and is current, the packet is sent out on the port indicated unless
that was the port on which the packet was received.  If no match is found,
this bridge has not yet learned the destination address and the packet is
sent out on all ports except the one on which it arrived."

Footnote 3: "if the source address is a multicast or broadcast address, this
step is bypassed.  Similarly, if the destination address is a broadcast or
multicast address, the packet is sent out on all ports except the one on
which it arrived."

:class:`LearningBridgeApp` is exactly that switching function.  It requires
the dumb bridge to be loaded first (it uses its ``"bridge.send_out"`` /
``"bridge.ports"`` access points and replaces its ``"bridge.switch"``
registration), mirroring the incremental build-up of the paper.
"""

from __future__ import annotations

from repro.switchlets.framefmt import FrameFmt


class LearningTable:
    """The host-location table: source MAC -> (time learned, input port).

    Entries older than ``aging_time`` are treated as absent (the paper's
    "if a match is found and is current").
    """

    DEFAULT_AGING_TIME = 300.0

    def __init__(self, hashtbl_module, aging_time=DEFAULT_AGING_TIME):
        # hashtbl_module is Safestd.Hashtbl -- the Caml-style hash table the
        # paper's learning switchlet keys by source address.
        self._table = hashtbl_module.create(64)
        self.aging_time = float(aging_time)
        self.learned = 0
        self.refreshed = 0

    def learn(self, source_mac, now, in_port):
        """Record (source address, current time, input port), replacing any entry."""
        existing = self._table.find_opt(source_mac)
        if existing is None:
            self.learned += 1
        else:
            self.refreshed += 1
        self._table.replace(source_mac, (float(now), in_port))

    def lookup(self, destination_mac, now):
        """Return the learned port for ``destination_mac`` if current, else ``None``."""
        entry = self._table.find_opt(destination_mac)
        if entry is None:
            return None
        learned_at, port = entry
        if float(now) - learned_at > self.aging_time:
            return None
        return port

    def forget(self, mac):
        """Remove a learned entry (used when a port goes down)."""
        self._table.remove(mac)

    def size(self):
        """Number of addresses currently in the table (including stale ones)."""
        return len(self._table.keys())

    def snapshot(self, now):
        """A dict of address -> (age, port) for every *current* entry."""
        result = {}
        for mac, entry in self._table.items():
            learned_at, port = entry
            age = float(now) - learned_at
            if age <= self.aging_time:
                result[mac] = (age, port)
        return result


class LearningBridgeApp:
    """The self-learning switching function.

    Args:
        unixnet: the thinned ``Unixnet`` module (unused on the hot path but
            kept so the app could bind ports directly if loaded standalone).
        func: the thinned ``Func`` registry.
        log: the thinned ``Log`` module.
        safeunix: the thinned ``Safeunix`` module (for ``gettimeofday``).
        safestd: the thinned ``Safestd`` module (for ``Hashtbl``).
        aging_time: seconds after which a learned entry is no longer current.
    """

    SWITCH_KEY = "bridge.switch"
    SEND_OUT_KEY = "bridge.send_out"
    PORTS_KEY = "bridge.ports"
    LOOKUP_KEY = "bridge.learning.lookup"
    SNAPSHOT_KEY = "bridge.learning.snapshot"
    STATS_KEY = "bridge.learning.stats"
    FILTER_KEY = "bridge.learning.set_port_filter"

    def __init__(self, unixnet, func, log, safeunix, safestd,
                 aging_time=LearningTable.DEFAULT_AGING_TIME):
        self.unixnet = unixnet
        self.func = func
        self.log = log
        self.safeunix = safeunix
        self.table = LearningTable(safestd.Hashtbl, aging_time)
        self.port_filter = None
        self.running = False
        self.frames_handled = 0
        self.frames_forwarded = 0
        self.frames_flooded = 0
        self.frames_filtered = 0
        self.frames_suppressed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Replace the dumb bridge's switching function with the learning one."""
        if self.running:
            return
        if not self.func.registered(self.SEND_OUT_KEY):
            raise RuntimeError(
                "learning bridge requires the dumb bridge switchlet to be loaded first"
            )
        self.func.register(self.SWITCH_KEY, self.switch)
        self.func.register(self.LOOKUP_KEY, self.lookup)
        self.func.register(self.SNAPSHOT_KEY, self.snapshot)
        self.func.register(self.STATS_KEY, self.stats)
        self.func.register(self.FILTER_KEY, self.set_port_filter)
        # Keep the canonical filter access point pointing at this switchlet
        # so the spanning tree talks to whichever switching function is live.
        self.func.register("bridge.set_port_filter", self.set_port_filter)
        self.running = True
        self.log.log("learning bridge switching function installed")

    # ------------------------------------------------------------------
    # The switching function
    # ------------------------------------------------------------------

    def switch(self, in_port, pkt_bytes):
        """Learn from the source address, then forward or flood."""
        self.frames_handled += 1
        now = self.safeunix.gettimeofday()
        src = FrameFmt.src_bytes(pkt_bytes)
        dst = FrameFmt.dst_bytes(pkt_bytes)
        src_str = FrameFmt.mac_to_str(src)
        dst_str = FrameFmt.mac_to_str(dst)

        if self._allowed(in_port, None) is False:
            # The input port is suppressed (not on the spanning tree): the
            # frame is neither learned from nor forwarded.
            self.frames_suppressed += 1
            return

        # Footnote 3: never learn from group source addresses.
        if not FrameFmt.is_group(src):
            self.table.learn(src_str, now, in_port)

        # Footnote 3: group destinations are always flooded.
        if FrameFmt.is_group(dst):
            self._flood(in_port, pkt_bytes)
            return

        out_port = self.table.lookup(dst_str, now)
        if out_port is None:
            self._flood(in_port, pkt_bytes)
            return
        if out_port == in_port:
            # The destination lies on the LAN the frame came from: filtering
            # it is the whole point of a learning bridge.
            self.frames_filtered += 1
            return
        if not self._allowed(in_port, out_port):
            self.frames_suppressed += 1
            return
        self.func.call(self.SEND_OUT_KEY, out_port, pkt_bytes)
        self.frames_forwarded += 1

    def _flood(self, in_port, pkt_bytes):
        ports = self.func.call(self.PORTS_KEY)
        sent = 0
        for out_port in ports:
            if out_port == in_port:
                continue
            if not self._allowed(in_port, out_port):
                self.frames_suppressed += 1
                continue
            self.func.call(self.SEND_OUT_KEY, out_port, pkt_bytes)
            sent += 1
        if sent:
            self.frames_flooded += 1

    def _allowed(self, in_port, out_port):
        if self.port_filter is None:
            return True
        return bool(self.port_filter(in_port, out_port))

    # ------------------------------------------------------------------
    # Access points
    # ------------------------------------------------------------------

    def set_port_filter(self, predicate):
        """Install (or clear) the spanning-tree forwarding filter."""
        self.port_filter = predicate

    def lookup(self, mac_str):
        """The learned port for a MAC string, if the entry is current."""
        return self.table.lookup(mac_str, self.safeunix.gettimeofday())

    def snapshot(self):
        """The current host-location table as address -> (age, port)."""
        return self.table.snapshot(self.safeunix.gettimeofday())

    def stats(self):
        """Forwarding and learning counters."""
        return {
            "frames_handled": self.frames_handled,
            "frames_forwarded": self.frames_forwarded,
            "frames_flooded": self.frames_flooded,
            "frames_filtered": self.frames_filtered,
            "frames_suppressed": self.frames_suppressed,
            "addresses_learned": self.table.learned,
            "table_size": self.table.size(),
        }


#: Source epilogue executed when this switchlet is loaded into a node.
REGISTRATION_SOURCE = """
_app = LearningBridgeApp(Unixnet, Func, Log, Safeunix, Safestd)
_app.start()
Func.register("switchlet.learning-bridge", _app)
"""

#: The classes whose source is shipped inside the learning-bridge switchlet.
PACKAGED_COMPONENTS = (FrameFmt, LearningTable, LearningBridgeApp)
