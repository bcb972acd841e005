"""The protocol-transition control switchlet (Section 5.4, Table 1).

The control switchlet coordinates an automatic, in-service transition from an
"old" protocol (the DEC-style spanning tree) to a "new" one (IEEE 802.1D),
and falls back automatically if the new protocol misbehaves:

* it can only be loaded when the old protocol is running and the new one is
  loaded but idle;
* it arranges to receive packets addressed to the new protocol's multicast
  address (the All Bridges group);
* when the first new-protocol packet arrives it **captures the old
  protocol's state**, suspends the old protocol, starts the new one (letting
  it take over its own multicast address), and begins suppressing any
  late old-protocol packets, which it now receives on the old address;
* 30 seconds in, the new protocol is expected to be forwarding; 60 seconds in
  the control switchlet **validates** the new protocol's spanning tree
  against the state captured from the old one ("Based on local knowledge, we
  have determined that the portion of the spanning tree computed at each node
  should be identical for the old and the new protocols");
* if validation fails — or an old-protocol packet shows up after the initial
  transition period — the new protocol is stopped, the old protocol is
  restarted, and the network is considered stable: no further transition
  happens without human intervention.

Every state change is appended to :attr:`ControlApp.transition_log`, which is
what the Table 1 benchmark renders.
"""

from __future__ import annotations

from repro.switchlets.framefmt import FrameFmt


class ControlApp:
    """The transition control switchlet.

    Args:
        unixnet: the thinned ``Unixnet`` module.
        func: the thinned ``Func`` registry.
        log: the thinned ``Log`` module.
        safeunix: the thinned ``Safeunix`` module (time).
        safethread: the thinned ``Safethread`` module (timers).
        old_key / new_key: registry keys of the old and new protocol
            applications (``"stp.dec"`` and ``"stp.ieee"`` by default).
        suppression_period: Table 1's initial transition window (30 s).
        validation_delay: when the correctness tests run (60 s).
    """

    OLD_KEY = "stp.dec"
    NEW_KEY = "stp.ieee"

    SUPPRESSION_PERIOD = 30.0
    VALIDATION_DELAY = 60.0

    # Control-switchlet states (the "control" column of Table 1).
    STATE_MONITORING = "monitoring"          # waiting for the first new-protocol packet
    STATE_TRANSITIONING = "transitioning"    # new protocol started, old packets suppressed
    STATE_VALIDATING = "validating"          # suppression window over, tests pending
    STATE_TERMINATED = "terminated"          # tests passed; control's job is done
    STATE_FALLEN_BACK = "fallen-back"        # tests failed or late old packet: old restored

    def __init__(self, unixnet, func, log, safeunix, safethread,
                 old_key=OLD_KEY, new_key=NEW_KEY,
                 suppression_period=SUPPRESSION_PERIOD,
                 validation_delay=VALIDATION_DELAY):
        self.unixnet = unixnet
        self.func = func
        self.log = log
        self.safeunix = safeunix
        self.safethread = safethread
        self.old_key = old_key
        self.new_key = new_key
        self.suppression_period = float(suppression_period)
        self.validation_delay = float(validation_delay)
        self.state = self.STATE_MONITORING
        self.transition_log = []
        self.captured_old_state = None
        self.transition_started_at = None
        self.old_packets_suppressed = 0
        self.new_packets_suppressed = 0
        self.validation_result = None
        self._new_addr_iport = None
        self._old_addr_iport = None
        self._timers = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Verify preconditions and begin monitoring for the new protocol.

        Raises:
            RuntimeError: if the old protocol is not running or the new
                protocol is not loaded-and-idle (the paper's control
                switchlet performs exactly these checks).
        """
        old_app = self._old()
        new_app = self._new()
        if old_app is None or not old_app.running:
            raise RuntimeError("control switchlet requires the old protocol to be running")
        if new_app is None:
            raise RuntimeError("control switchlet requires the new protocol to be loaded")
        if new_app.running:
            raise RuntimeError("control switchlet requires the new protocol to be idle")
        # Listen on the new protocol's multicast address; the new protocol is
        # idle, so the address is free to bind.
        self._new_addr_iport = self.unixnet.bind_addr(new_app.MULTICAST_ADDR)
        self.unixnet.set_handler_in(self._new_addr_iport, self._on_new_protocol_packet)
        self._record("load/start control", "running", "loaded", "running")
        self.log.log("control switchlet monitoring for %s packets" % new_app.PROTOCOL_NAME)

    # ------------------------------------------------------------------
    # Phase 1: waiting for the new protocol to appear
    # ------------------------------------------------------------------

    def _on_new_protocol_packet(self, packet):
        if self.state == self.STATE_MONITORING:
            self._begin_transition(packet)
        elif self.state == self.STATE_FALLEN_BACK:
            # After a fallback the network is stable: new-protocol packets
            # are suppressed and no further transition occurs.
            self.new_packets_suppressed += 1
        else:
            self.new_packets_suppressed += 1

    def _begin_transition(self, trigger_packet):
        old_app = self._old()
        new_app = self._new()
        now = self.safeunix.gettimeofday()
        self.transition_started_at = now
        # Capture the old protocol's view of the tree before halting it; this
        # is the information "unavailable to the implementors of either
        # protocol" that the control switchlet exploits.
        self.captured_old_state = old_app.snapshot()
        old_app.suspend()
        self._record("recv IEEE packet", "suspended", "loaded",
                     "suspend DEC; capture DEC state")
        # Hand the All-Bridges address over to the new protocol and start it.
        self.unixnet.unbind_addr(self._new_addr_iport)
        self._new_addr_iport = None
        new_app.start(listen=True)
        # Feed the triggering packet to the new protocol so its information
        # is not lost.
        new_app.deliver_packet(trigger_packet)
        # Start listening on the old protocol's address so late old-protocol
        # packets can be suppressed (and detected after the window).
        self._old_addr_iport = self.unixnet.bind_addr(old_app.MULTICAST_ADDR)
        self.unixnet.set_handler_in(self._old_addr_iport, self._on_old_protocol_packet)
        self.state = self.STATE_TRANSITIONING
        self._record("start IEEE", "loaded", "running", "start IEEE")
        self._timers.append(
            self.safethread.delay(self.suppression_period, self._end_suppression_window)
        )
        self._timers.append(
            self.safethread.delay(self.validation_delay, self._perform_tests)
        )
        self.log.log("transition started: old suspended, new running")

    # ------------------------------------------------------------------
    # Phase 2: suppression window and validation
    # ------------------------------------------------------------------

    def _on_old_protocol_packet(self, _packet):
        if self.state == self.STATE_TRANSITIONING:
            # "Any DEC protocol packets received during an initial transition
            # period are suppressed."
            self.old_packets_suppressed += 1
            return
        if self.state in (self.STATE_VALIDATING, self.STATE_TERMINATED):
            # "If the control switchlet finds any old protocol packets after
            # the initial transition period, it falls back to the old
            # protocol assuming that a failure has occurred elsewhere."
            self._fall_back("old-protocol packet seen after the transition period")
            return
        self.old_packets_suppressed += 1

    def _end_suppression_window(self):
        if self.state != self.STATE_TRANSITIONING:
            return
        self.state = self.STATE_VALIDATING
        self._record("30 seconds", "loaded", "running/forwarding", "suppress DEC packets")

    def _perform_tests(self):
        if self.state not in (self.STATE_VALIDATING, self.STATE_TRANSITIONING):
            return
        self._record("60 seconds", "loaded", "running", "perform tests")
        new_app = self._new()
        passed, reason = self.validate(self.captured_old_state, new_app.snapshot())
        self.validation_result = (passed, reason)
        if passed:
            self.state = self.STATE_TERMINATED
            self._record("pass tests", "loaded", "running", "terminate")
            self.log.log("transition validated: %s" % reason)
        else:
            self._fall_back("validation failed: %s" % reason)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    @staticmethod
    def validate(old_state, new_state):
        """Compare the old and new protocols' computed trees.

        Based on the paper's local knowledge: the locally computed portion of
        the spanning tree (root bridge, root port, per-port roles) must be
        identical under both protocols.  Returns ``(passed, reason)``.
        """
        if old_state is None or new_state is None:
            return False, "missing state to compare"
        if old_state["root_mac"] != new_state["root_mac"]:
            return False, (
                "root bridge differs: old %s, new %s"
                % (old_state["root_mac"], new_state["root_mac"])
            )
        if old_state["root_port"] != new_state["root_port"]:
            return False, (
                "root port differs: old %r, new %r"
                % (old_state["root_port"], new_state["root_port"])
            )
        if old_state["port_roles"] != new_state["port_roles"]:
            return False, "per-port roles differ"
        return True, "root, root port and port roles all match"

    # ------------------------------------------------------------------
    # Fallback
    # ------------------------------------------------------------------

    def _fall_back(self, reason):
        if self.state == self.STATE_FALLEN_BACK:
            return
        new_app = self._new()
        old_app = self._old()
        new_app.suspend()
        # Give the old protocol its address back, then resume it.
        if self._old_addr_iport is not None:
            self.unixnet.unbind_addr(self._old_addr_iport)
            self._old_addr_iport = None
        old_app.resume(listen=True)
        # Take over the new protocol's address so its packets are suppressed
        # from now on; the network is considered stable after this.
        self._new_addr_iport = self.unixnet.bind_addr(new_app.MULTICAST_ADDR)
        self.unixnet.set_handler_in(self._new_addr_iport, self._on_new_protocol_packet)
        for handle in self._timers:
            handle.cancel()
        self._timers = []
        self.state = self.STATE_FALLEN_BACK
        self._record("fail tests or fallback", "running", "loaded",
                     "stop IEEE; start DEC; fallback: %s" % reason)
        self.log.log("fell back to the old protocol: %s" % reason)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _old(self):
        return self.func.lookup_opt(self.old_key)

    def _new(self):
        return self.func.lookup_opt(self.new_key)

    def _record(self, action, dec_state, ieee_state, control_action):
        entry = {
            "time": self.safeunix.gettimeofday(),
            "action": action,
            "dec": dec_state,
            "ieee": ieee_state,
            "control": control_action,
        }
        self.transition_log.append(entry)

    def stats(self):
        """Counters and the current control state."""
        return {
            "state": self.state,
            "old_packets_suppressed": self.old_packets_suppressed,
            "new_packets_suppressed": self.new_packets_suppressed,
            "validation_result": self.validation_result,
            "transitions_logged": len(self.transition_log),
        }


#: Registration epilogue executed when the control switchlet is loaded.
REGISTRATION_SOURCE = """
_app = ControlApp(Unixnet, Func, Log, Safeunix, Safethread)
Func.register("switchlet.control", _app)
_app.start()
"""

#: The classes shipped inside the control switchlet.
PACKAGED_COMPONENTS = (FrameFmt, ControlApp)
