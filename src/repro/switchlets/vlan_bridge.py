"""A VLAN-aware learning bridge switchlet (802.1Q-style tagged segments).

The ROADMAP's first new workload beyond the paper: the same self-learning
switching function as :mod:`repro.switchlets.learning_bridge`, but with
802.1Q semantics layered on top, following the classic access/trunk model of
fixed-function LAN switches:

* every port is either an **access** port (untagged frames, one VLAN) or a
  **trunk** port (802.1Q-tagged frames, a configurable set of VLANs),
* a trunk may carry one **native VLAN**: untagged frames arriving on the
  trunk are classified into it, and frames of the native VLAN egress the
  trunk untagged — the classic 802.1Q interoperability device for joining
  VLAN-unaware equipment across a trunk,
* each VLAN has its **own learning table** — host locations never leak
  between VLANs,
* frames are forwarded or flooded strictly within the VLAN they arrived on:
  out access ports of that VLAN untagged, out trunk ports carrying that VLAN
  tagged (untagged if it is the trunk's native VLAN),
* frames that violate the port discipline (tagged on access, untagged on a
  native-less trunk, VLAN not allowed on trunk, or a frame arriving *tagged
  with the native VLAN id* — the classic native-mismatch hazard real
  switches guard with ``vlan dot1q tag native``) are dropped and counted.

The **native-VLAN discipline invariant**: classification happens entirely at
ingress (untagged-on-access -> port VLAN, untagged-on-trunk -> native VLAN,
tagged-with-native-id -> drop), so by the time a frame reaches learning or
forwarding it has exactly one VLAN identity, and egress tagging is a pure
function of (frame VLAN, egress port config).  Learning tables are keyed by
that single identity, which is why per-VLAN isolation survives any mix of
access, tagged-trunk and native-trunk paths — and why results are identical
under the single engine and both sharded execution modes (the switchlet
never consults ordering beyond its own port's frame sequence).

Like the plain learning switchlet it replaces the dumb bridge's
``"bridge.switch"`` registration and uses its ``"bridge.send_out"`` /
``"bridge.ports"`` access points, so it slots into the same incremental
stack.  Port configuration arrives through the ``"bridge.vlan.configure"``
access point — the scenario compiler pushes the declarative
:class:`~repro.scenario.spec.PortSpec` table through it after loading.
"""

from __future__ import annotations

from repro.switchlets.framefmt import FrameFmt
from repro.switchlets.learning_bridge import LearningTable


class VlanLearningBridgeApp:
    """The VLAN-aware self-learning switching function.

    Args:
        unixnet: the thinned ``Unixnet`` module.
        func: the thinned ``Func`` registry.
        log: the thinned ``Log`` module.
        safeunix: the thinned ``Safeunix`` module (for ``gettimeofday``).
        safestd: the thinned ``Safestd`` module (for ``Hashtbl``).
        default_vlan: access VLAN assumed for ports with no explicit
            configuration (VLAN 1, as on real switches).
        aging_time: seconds after which a learned entry is no longer current.
    """

    SWITCH_KEY = "bridge.switch"
    SEND_OUT_KEY = "bridge.send_out"
    PORTS_KEY = "bridge.ports"
    CONFIGURE_KEY = "bridge.vlan.configure"
    SNAPSHOT_KEY = "bridge.vlan.snapshot"
    STATS_KEY = "bridge.vlan.stats"

    DEFAULT_VLAN = 1

    def __init__(self, unixnet, func, log, safeunix, safestd,
                 default_vlan=DEFAULT_VLAN,
                 aging_time=LearningTable.DEFAULT_AGING_TIME):
        self.unixnet = unixnet
        self.func = func
        self.log = log
        self.safeunix = safeunix
        self.safestd = safestd
        self.default_vlan = int(default_vlan)
        self.aging_time = float(aging_time)
        # Per-VLAN learning tables, created on first use.
        self.tables = {}
        # Port name -> {"mode": "access", "vlan": id} or
        #              {"mode": "trunk", "allowed": list-or-None}.
        self.port_config = {}
        self.port_filter = None
        self.running = False
        self.frames_handled = 0
        self.frames_forwarded = 0
        self.frames_flooded = 0
        self.frames_filtered = 0
        self.frames_suppressed = 0
        self.dropped_tagged_on_access = 0
        self.dropped_untagged_on_trunk = 0
        self.dropped_vlan_not_allowed = 0
        self.dropped_tagged_on_native = 0

    # ------------------------------------------------------------------
    # Lifecycle and configuration
    # ------------------------------------------------------------------

    def start(self):
        """Replace the dumb bridge's switching function with the VLAN one."""
        if self.running:
            return
        if not self.func.registered(self.SEND_OUT_KEY):
            raise RuntimeError(
                "VLAN bridge requires the dumb bridge switchlet to be loaded first"
            )
        self.func.register(self.SWITCH_KEY, self.switch)
        self.func.register(self.CONFIGURE_KEY, self.configure_ports)
        self.func.register(self.SNAPSHOT_KEY, self.snapshot)
        self.func.register(self.STATS_KEY, self.stats)
        # Keep the canonical filter access point pointing at this switchlet
        # so a spanning tree talks to whichever switching function is live.
        self.func.register("bridge.set_port_filter", self.set_port_filter)
        self.running = True
        self.log.log("VLAN learning bridge switching function installed")

    def configure_ports(self, config):
        """Install the port table: name -> access/trunk configuration.

        Access entries look like ``{"mode": "access", "vlan": 10}``; trunk
        entries like ``{"mode": "trunk", "allowed": [10, 20]}`` (``None``
        allows every VLAN) with an optional ``"native": 10`` VLAN that
        travels the trunk untagged (the native VLAN is implicitly carried
        even when absent from the allowed set).  Unlisted ports stay access
        ports on the default VLAN.
        """
        table = {}
        for port, entry in dict(config).items():
            mode = entry.get("mode", "access")
            if mode == "trunk":
                allowed = entry.get("allowed")
                native = entry.get("native")
                table[port] = {
                    "mode": "trunk",
                    "allowed": None
                    if allowed is None
                    else set(self._valid_vid(v) for v in allowed),
                    "native": None if native is None else self._valid_vid(native),
                }
            elif mode == "access":
                table[port] = {
                    "mode": "access",
                    "vlan": self._valid_vid(entry.get("vlan", self.default_vlan)),
                }
            else:
                raise ValueError("unknown port mode: %r" % (mode,))
        self.port_config = table
        self.log.log("VLAN port table installed: %d ports" % len(table))

    @staticmethod
    def _valid_vid(vid):
        """Reject the reserved 802.1Q ids (0 and 4095) at configuration time.

        The frame codec refuses to build tags with reserved ids; failing
        here keeps the error next to the bad configuration instead of deep
        inside the forwarding path.
        """
        value = int(vid)
        if not 1 <= value <= 0xFFE:
            raise ValueError("VLAN id out of range: %r" % (vid,))
        return value

    def set_port_filter(self, predicate):
        """Install (or clear) a spanning-tree style forwarding filter."""
        self.port_filter = predicate

    # ------------------------------------------------------------------
    # The switching function
    # ------------------------------------------------------------------

    def _port_entry(self, port):
        entry = self.port_config.get(port)
        if entry is None:
            return {"mode": "access", "vlan": self.default_vlan}
        return entry

    def _table(self, vlan):
        table = self.tables.get(vlan)
        if table is None:
            table = LearningTable(self.safestd.Hashtbl, self.aging_time)
            self.tables[vlan] = table
        return table

    def switch(self, in_port, pkt_bytes):
        """Classify the frame into a VLAN, learn, then forward or flood in it."""
        self.frames_handled += 1
        entry = self._port_entry(in_port)
        vid = FrameFmt.vlan_id(pkt_bytes)
        priority = 0
        if entry["mode"] == "access":
            if vid is not None:
                # Access ports carry exactly one untagged VLAN; a tagged
                # frame here is a misconfiguration, not traffic.
                self.dropped_tagged_on_access += 1
                return
            vlan = entry["vlan"]
            inner = bytes(pkt_bytes)
        else:
            native = entry.get("native")
            if vid is None:
                if native is None:
                    self.dropped_untagged_on_trunk += 1
                    return
                # Untagged on a native-VLAN trunk: classified into the native.
                vlan = native
                inner = bytes(pkt_bytes)
            elif vid == native:
                # Tagged with the native VLAN id: the native-mismatch hazard
                # (a peer tagging what this side expects untagged) — drop and
                # count rather than double-deliver the VLAN.
                self.dropped_tagged_on_native += 1
                return
            else:
                allowed = entry["allowed"]
                if allowed is not None and vid not in allowed:
                    self.dropped_vlan_not_allowed += 1
                    return
                vlan = vid
                # Preserve the QoS marking across trunk-to-trunk forwarding.
                priority = FrameFmt.vlan_priority(pkt_bytes)
                inner = FrameFmt.strip_vlan(pkt_bytes)

        if self._allowed(in_port, None) is False:
            self.frames_suppressed += 1
            return

        now = self.safeunix.gettimeofday()
        src = FrameFmt.src_bytes(inner)
        dst = FrameFmt.dst_bytes(inner)
        table = self._table(vlan)

        # Footnote 3 of the paper still applies, per VLAN: never learn from
        # group source addresses; group destinations always flood.
        if not FrameFmt.is_group(src):
            table.learn(FrameFmt.mac_to_str(src), now, in_port)
        if FrameFmt.is_group(dst):
            self._flood(vlan, in_port, inner, priority)
            return

        out_port = table.lookup(FrameFmt.mac_to_str(dst), now)
        if out_port is None:
            self._flood(vlan, in_port, inner, priority)
            return
        if out_port == in_port:
            self.frames_filtered += 1
            return
        if not self._allowed(in_port, out_port):
            self.frames_suppressed += 1
            return
        if self._send(vlan, out_port, inner, priority):
            self.frames_forwarded += 1

    def _flood(self, vlan, in_port, inner, priority=0):
        """Send within the VLAN out of every eligible port except ``in_port``."""
        sent = 0
        for out_port in self.func.call(self.PORTS_KEY):
            if out_port == in_port:
                continue
            if not self._allowed(in_port, out_port):
                self.frames_suppressed += 1
                continue
            if self._send(vlan, out_port, inner, priority):
                sent += 1
        if sent:
            self.frames_flooded += 1

    def _send(self, vlan, out_port, inner, priority=0):
        """Emit ``inner`` on ``out_port`` if that port carries ``vlan``.

        Access ports of the VLAN send untagged; trunk ports carrying the
        VLAN re-tag (keeping the incoming priority bits), except the trunk's
        native VLAN, which egresses untagged and is implicitly carried.
        Ports in other VLANs (or trunks not allowing this one) simply do not
        participate — that is the isolation property.
        """
        entry = self._port_entry(out_port)
        if entry["mode"] == "access":
            if entry["vlan"] != vlan:
                return False
            self.func.call(self.SEND_OUT_KEY, out_port, inner)
            return True
        if entry.get("native") == vlan:
            self.func.call(self.SEND_OUT_KEY, out_port, inner)
            return True
        allowed = entry["allowed"]
        if allowed is not None and vlan not in allowed:
            return False
        self.func.call(
            self.SEND_OUT_KEY, out_port, FrameFmt.add_vlan(inner, vlan, priority)
        )
        return True

    def _allowed(self, in_port, out_port):
        if self.port_filter is None:
            return True
        return bool(self.port_filter(in_port, out_port))

    # ------------------------------------------------------------------
    # Access points
    # ------------------------------------------------------------------

    def snapshot(self):
        """Per-VLAN host-location tables: vlan -> {mac: (age, port)}."""
        now = self.safeunix.gettimeofday()
        return {vlan: table.snapshot(now) for vlan, table in self.tables.items()}

    def stats(self):
        """Forwarding, learning and VLAN-discipline counters."""
        return {
            "frames_handled": self.frames_handled,
            "frames_forwarded": self.frames_forwarded,
            "frames_flooded": self.frames_flooded,
            "frames_filtered": self.frames_filtered,
            "frames_suppressed": self.frames_suppressed,
            "dropped_tagged_on_access": self.dropped_tagged_on_access,
            "dropped_untagged_on_trunk": self.dropped_untagged_on_trunk,
            "dropped_vlan_not_allowed": self.dropped_vlan_not_allowed,
            "dropped_tagged_on_native": self.dropped_tagged_on_native,
            "vlans": sorted(self.tables),
            "addresses_learned": sum(t.learned for t in self.tables.values()),
        }


#: Source epilogue executed when this switchlet is loaded into a node.
REGISTRATION_SOURCE = """
_app = VlanLearningBridgeApp(Unixnet, Func, Log, Safeunix, Safestd)
_app.start()
Func.register("switchlet.vlan-bridge", _app)
"""

#: The classes whose source is shipped inside the VLAN-bridge switchlet.
PACKAGED_COMPONENTS = (FrameFmt, LearningTable, VlanLearningBridgeApp)
