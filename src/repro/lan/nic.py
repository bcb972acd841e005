"""Network interface cards.

A :class:`NetworkInterface` is the attachment point between a station (host,
bridge, repeater) and a :class:`~repro.lan.segment.Segment`.  It mirrors the
behaviour the paper depends on:

* **promiscuous mode** — "whenever an input port is bound, it is put into
  promiscuous mode", because a transparent bridge must see every frame on the
  segment, not just frames addressed to it;
* the **hardware address filter** of a NIC out of promiscuous mode: it
  passes up the NIC's own unicast address, broadcast and the multicast groups
  in its group filter.  A new NIC passes every group; a host programs its
  NIC with the groups its software listens for
  (:meth:`NetworkInterface.set_group_filter`), so a host that joined no
  group never pays for the bridges' spanning-tree multicast;
* per-interface transmit/receive counters used by the measurement tools;
* an owner-supplied receive handler, which for an active node is the node's
  demultiplexer and for a host is the host protocol stack.

Under the sharded fabric a NIC *resides* on the engine of the station that
owns it (:attr:`NetworkInterface.home_sim`): received frames are handled, and
follow-on work is scheduled, on that shard.  A segment homed on another shard
reads the residency to route the frame through the inter-shard delivery
channel (see :meth:`repro.lan.segment.Segment._refresh_delivery_runs`).
"""

from __future__ import annotations

from typing import Callable, Collection, Optional

from repro.ethernet.frame import EthernetFrame
from repro.ethernet.mac import BROADCAST, MacAddress
from repro.exceptions import InterfaceError
from repro.lan.segment import Segment
from repro.sim.engine import Simulator

FrameHandler = Callable[["NetworkInterface", EthernetFrame], None]

#: The group filter of every NIC that joined no group: one shared empty set,
#: so a fleet of such hosts holds no per-NIC set.
_NO_GROUPS: frozenset = frozenset()

_BROADCAST_OCTETS = BROADCAST.octets


def _frame_detail(frame: EthernetFrame) -> dict:
    """Lazy detail of a ``nic.tx``/``nic.rx`` record."""
    return {"frame": frame.describe()}


class NetworkInterface:
    """A simulated Ethernet NIC.

    Args:
        sim: owning simulator.
        name: interface name used in traces (e.g. ``"bridge1.eth0"``).
        mac: the interface's unicast MAC address.
    """

    # One NIC per station at population scale: slots keep the per-frame
    # counter fields in a compact layout with no per-instance __dict__.
    __slots__ = (
        "sim",
        "name",
        "mac",
        "_trace",
        "segment",
        "promiscuous",
        "_groups",
        "up",
        "_handler",
        "_inline_safe",
        "_segment_local",
        "frames_sent",
        "frames_received",
        "frames_dropped",
        "bytes_sent",
        "bytes_received",
        "link_transitions",
    )

    def __init__(self, sim: Simulator, name: str, mac: MacAddress) -> None:
        self.sim = sim
        self.name = name
        self.mac = mac
        # The trace hub never changes over a NIC's lifetime; caching it
        # saves an attribute hop on every frame sent or delivered.
        self._trace = sim.trace
        self.segment: Optional[Segment] = None
        self.promiscuous = False
        # The group filter: None passes every multicast group, else the
        # octets of the joined groups (see set_group_filter).
        self._groups: Optional[frozenset] = None
        self.up = True
        self._handler: Optional[FrameHandler] = None
        self._inline_safe = False
        self._segment_local = False
        # Statistics
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_dropped = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.link_transitions = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    @property
    def home_sim(self) -> Simulator:
        """The engine this NIC's owner schedules on (its shard residency).

        Segments group receivers by residency to decide which shard each
        delivery event runs on; for an unsharded run this is simply the one
        shared :class:`Simulator`.
        """
        return self.sim

    def attach(self, segment: Segment) -> None:
        """Attach this NIC to a segment (at most one segment per NIC)."""
        if self.segment is not None:
            raise InterfaceError(f"{self.name} is already attached to {self.segment.name}")
        segment.attach(self)
        self.segment = segment

    def detach(self) -> None:
        """Detach from the current segment."""
        if self.segment is None:
            raise InterfaceError(f"{self.name} is not attached to any segment")
        self.segment.detach(self)
        self.segment = None

    def set_handler(
        self,
        handler: Optional[FrameHandler],
        inline_safe: bool = False,
        segment_local: bool = False,
    ) -> None:
        """Install the owner's receive handler (called for every accepted frame).

        Two express-lane safety declarations qualify the handler under the
        fabric's relaxed sync mode (see :meth:`Segment._refresh_express`):

        ``inline_safe=True`` declares the handler *reactive-only*: it runs
        synchronously, touches only this NIC / its owner's local state, and
        any frames it sends go back onto the same segment.  A segment whose
        up receivers are all inline-safe (or handler-less) runs its whole
        causal chain on the inline express lane
        (:meth:`Segment._pump`) instead of the event ring.

        ``segment_local=True`` declares the handler *deferred*: from delivery
        context it only updates its owner's local state and schedules
        follow-on work through the owning engine (a CPU queue, a timer) —
        its reactions never escape the segment synchronously.  That is the
        natural shape of every station whose forwarding path rides a
        :class:`~repro.costs.cpu.CpuQueue` (hosts, active nodes, the baseline
        bridges and repeaters — the catalog protocols declare it
        automatically), and it admits the segment to the *deferred* express
        drain (:meth:`Segment._drain`): service bookkeeping runs
        batched at transmit time while deliveries stay on the event ring at
        their exact single-engine timestamps.

        Handlers that synchronously drive *other* segments from delivery
        context, or that sample wire-side counters mid-flight, must keep
        both defaults.
        """
        self._handler = handler
        self._inline_safe = bool(inline_safe) and handler is not None
        self._segment_local = bool(segment_local) and handler is not None
        segment = self.segment
        if segment is not None:
            segment._refresh_express()

    def set_promiscuous(self, enabled: bool) -> None:
        """Enable or disable promiscuous mode.

        Drops the segment's fan-out plans: a promiscuous NIC must see every
        frame, so it joins every plan (see
        :meth:`Segment._deliver <repro.lan.segment.Segment._deliver>`).
        Promiscuity is no input to express-lane eligibility, so the lane
        stays as it is.
        """
        self.promiscuous = enabled
        segment = self.segment
        if segment is not None:
            segment._plans = {}

    def set_group_filter(self, groups: Optional[Collection[MacAddress]]) -> None:
        """Program the multicast group filter.

        ``None`` passes every group, as a new NIC does; otherwise only the
        given groups pass (broadcast always does).  The filter acts on
        multicast frames only, and the segment's fan-out plans are unicast
        only, so changing it needs no segment refresh: each
        :meth:`deliver` applies the filter in force when it runs.
        """
        if groups is None:
            self._groups = None
        elif not groups:
            self._groups = _NO_GROUPS
        else:
            self._groups = frozenset(group.octets for group in groups)

    def set_up(self, up: bool) -> None:
        """Administratively enable/disable the interface.

        A downed interface neither sends nor receives; the fault subsystem's
        ``port-down``/``port-up``/``node-crash`` events and the spanning-tree
        benchmarks drive link failures through here.  Each actual state
        change emits one ``nic.link`` record (the
        :class:`~repro.measurement.convergence.ConvergenceProbe` failure
        signal) and bumps :attr:`link_transitions`.  Toggling refreshes the
        segment's express-lane eligibility (a downed receiver never runs a
        handler, so it does not hold a segment off the express lane — and a
        remote port going down can *grant* a cut segment the lane).
        """
        up = bool(up)
        if up != self.up:
            self.link_transitions += 1
            trace = self._trace
            if trace.wants("nic.link"):
                trace.emit(self.name, "nic.link", {"up": up})
        self.up = up
        segment = self.segment
        if segment is not None:
            segment._refresh_express()

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def send(self, frame: EthernetFrame) -> None:
        """Transmit ``frame`` onto the attached segment."""
        if self.segment is None:
            raise InterfaceError(f"{self.name} cannot send: not attached to a segment")
        if not self.up:
            self.frames_dropped += 1
            return
        self.frames_sent += 1
        self.bytes_sent += frame.frame_length
        trace = self._trace
        if trace.wants("nic.tx"):
            trace.emit(self.name, "nic.tx", _frame_detail, frame)
        self.segment.transmit(self, frame)

    def deliver(self, frame: EthernetFrame) -> None:
        """Called by the segment when a frame arrives at this station.

        A down NIC counts the frame in ``frames_dropped``.  An up NIC applies
        the hardware address filter (see :meth:`accepts`) and hands what
        passes to the owner's handler.  A frame the filter stops is a silent
        drop: no counter and no record.  A segment may skip the call for
        unicast frames the filter would stop, since such a call has no
        effect.
        """
        if not self.up:
            self.frames_dropped += 1
            return
        # Inlined hardware filter (see accepts(), kept as the public form).
        if not self.promiscuous:
            destination = frame.destination
            if destination != self.mac:
                octets = destination._octets
                if not octets[0] & 1:
                    return
                groups = self._groups
                if (
                    groups is not None
                    and octets not in groups
                    and octets != _BROADCAST_OCTETS
                ):
                    return
        self.frames_received += 1
        self.bytes_received += frame.frame_length
        trace = self._trace
        if trace.wants("nic.rx"):
            trace.emit(self.name, "nic.rx", _frame_detail, frame)
        if self._handler is not None:
            self._handler(self, frame)

    def accepts(self, frame: EthernetFrame) -> bool:
        """Whether the hardware filter passes this frame up.

        In promiscuous mode everything is accepted; otherwise only frames
        addressed to this NIC, to the broadcast address, or to a multicast
        group in the group filter (every group unless the owner programmed
        one with :meth:`set_group_filter`).
        """
        if self.promiscuous:
            return True
        destination = frame.destination
        if destination == self.mac:
            return True
        if not destination.is_multicast:
            return False
        groups = self._groups
        return groups is None or destination.is_broadcast or destination.octets in groups

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def statistics(self) -> dict:
        """A snapshot of the interface counters."""
        return {
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "frames_dropped": self.frames_dropped,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "link_transitions": self.link_transitions,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        attached = self.segment.name if self.segment else "detached"
        return f"NetworkInterface({self.name!r}, {self.mac}, {attached})"
