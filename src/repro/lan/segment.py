"""A shared broadcast LAN segment.

The segment models classic shared Ethernet: one transmission at a time, every
attached station sees every frame, and a frame occupies the wire for
``wire_length * 8 / bandwidth`` seconds plus a small propagation delay.
Stations that want to transmit while the medium is busy are queued in FIFO
order (an idealized, collision-free CSMA — adequate because the paper's
experiments are not collision-bound, they are bridge-CPU-bound).

**Wire service in integer nanoseconds.**  One function, :meth:`Segment._serve`,
puts a frame on the wire.  It starts at ``max(now_ns, busy_ns)``, holds the
wire for ``wire_length * 8e9 / bandwidth_bps`` ns rounded to a whole ns, and
is delivered ``propagation_delay`` later, all on the engine's integer-ns
clock, so a simulated time never depends on which code path computed it.  On
a degraded wire whose per-frame time is not a whole nanosecond, each frame is
rounded on its own: a back-to-back busy period may differ from a chain kept
in float seconds by under 0.5 ns per frame.

**Three lanes over that core.**  A lane decides only *when* service runs and
*where* each delivery goes:

* **event** (every engine mode, :meth:`Segment._service_next`) — one frame
  per service, which runs directly for a frame sent to an idle wire and as
  an event only for a frame that has to wait; the delivery is a ring event,
  or on a *cut segment* (stations on several shard engines) one event per
  contiguous same-shard run of receivers, at the nanosecond the single
  engine uses;
* **batched** (relaxed sync, :meth:`Segment._drain`) — the whole transmit
  queue is served at once: at transmit time on a shard-local segment whose
  handlers are ``segment_local`` (the *deferred* express lane), and at the
  mail barrier on a cut segment.  Deliveries stay ring events at their exact
  times, held in the in-flight queue;
* **inline** (relaxed sync, :meth:`Segment._pump`) — every up receiver is
  inert or ``inline_safe``: the service → delivery → reply chain runs in one
  loop at exact timestamps, started by a same-instant ring event and bounded
  by the run horizon and the earliest delivery still in flight.

**One continuation rule.**  Every lane leaves the same state behind: the
busy chain (the last served frame's finish), plus a pending service only
while a frame waits in the transmit queue.  A frame the event lane receives
while the wire is busy with no service pending, on any engine, stays queued
and arms its service at the end of the busy chain (:meth:`Segment._arm`):
the nanosecond a service event at the last frame's finish would have served
it, so a fault before then still takes it back.

**The in-flight queue** holds every frame that was served ahead of its
classic service event or parked past the pump's bound, as
``[pop_ns, deliver_ns, sender, frame, state]``.  ``pop_ns`` is when the
event lane would have taken the frame off the transmit queue.  A fault at
or before that instant (faults precede same-instant traffic in every mode)
finds the frame still queued: :meth:`set_link` drops it, and
:meth:`set_degrade` and :meth:`set_fault_model` put it back in the transmit
queue, so it is served again under the new wire or loss model.

**Relaxed mode.**  Under the fabric's relaxed sync (:mod:`repro.sim.relaxed`)
a cut segment is a *mailbox channel*: transmits are deferred to the window
barrier and replayed in canonical ``(time, shard, position)`` order
(:meth:`Segment._apply_relaxed_transmit`), and in-window delivery runs for
other shards are staged in the sending shard's outbox.

**Fault hooks.**  The fault subsystem (:mod:`repro.faults`) drives three
knobs, all mutated only from driver/control context — the single engine's
queue or the fabric's control barriers — so code inside a
relaxed window only ever *reads* them: :meth:`set_link` (cable cut: later
transmits drop at the sender), :meth:`set_fault_model` (a seeded
loss/corruption model judging every frame the event lane serves; an active
model vetoes the express lanes) and :meth:`set_degrade` (less bandwidth,
more delay, never beyond the compiled values, so the fabric's lookahead
stays conservative).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import groupby
from typing import TYPE_CHECKING, Deque, List, Optional, Sequence, Tuple

from repro.ethernet.frame import EthernetFrame
from repro.exceptions import TopologyError
from repro.sim.clock import NANOSECONDS_PER_SECOND, seconds_to_ns
from repro.sim.engine import Simulator
from repro.sim.relaxed import active_shard

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking only
    from repro.lan.nic import NetworkInterface

#: 100 Mb/s, the LAN speed used throughout the paper's evaluation.
DEFAULT_BANDWIDTH_BPS = 100_000_000

#: A few microseconds of propagation/repeater latency per segment.
DEFAULT_PROPAGATION_DELAY = 2e-6

#: Express-lane modes (``Segment._express``).  Kept as ints so the hot-path
#: gate stays one truthiness check.
EXPRESS_OFF = 0
EXPRESS_INLINE = 1
EXPRESS_DEFERRED = 2

_EXPRESS_MODE_NAMES = ("off", "inline", "deferred")

#: In-flight entry states (the last field): taken back by a fault, still in
#: flight, or delivered by its home leg (a cut segment's run legs still read
#: it as truthy).
_TAKEN, _FLYING, _LANDED = 0, 1, 2

#: Fan-out plan-table key of the one plan shared by every unicast
#: destination no filtering receiver owns (never a 6-octet MAC).
_FOREIGN = b""

#: Fewest filtering receivers (up, not promiscuous) for which a segment
#: plans its fan-outs.  With two, unicast between them — the traffic such
#: segments carry (host pairs, ring LANs) — leaves nothing to skip, so the
#: plain scan is kept and no frame pays a plan lookup.
_PLAN_MIN_FILTERING = 3


def _frame_detail(sender: "NetworkInterface", frame: EthernetFrame) -> dict:
    """Lazy detail of a ``segment.enqueue``/``segment.deliver`` record."""
    return {"sender": sender.name, "frame": frame.describe()}


def _drop_detail(sender: "NetworkInterface", reason: str, frame: EthernetFrame) -> dict:
    """Lazy detail of a ``segment.drop`` record."""
    return {"sender": sender.name, "reason": reason, "frame": frame.describe()}


class Segment:
    """A shared, half-duplex broadcast Ethernet segment.

    Args:
        sim: the owning simulator.
        name: segment name used in traces (e.g. ``"lan1"``).
        bandwidth_bps: wire speed in bits per second.
        propagation_delay: one-way propagation delay in seconds.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        propagation_delay: float = DEFAULT_PROPAGATION_DELAY,
    ) -> None:
        if bandwidth_bps <= 0:
            raise TopologyError("segment bandwidth must be positive")
        if propagation_delay < 0:
            raise TopologyError("propagation delay cannot be negative")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = float(bandwidth_bps)
        self.propagation_delay = float(propagation_delay)
        self._prop_ns = seconds_to_ns(self.propagation_delay)
        # Register with the owning fabric (when sharded) so the process
        # backend can rebind serialized cross-shard mail by segment name.
        registry = getattr(sim, "_segments", None)
        if registry is None:
            registry = getattr(getattr(sim, "fabric", None), "_segments", None)
        if registry is not None:
            registry[name] = self
        # The trace hub never changes over the segment's lifetime.
        self._trace = sim.trace
        # Delivery/service events are never cancelled: every engine offers a
        # fire-and-forget scheduler that skips the cancellation handle.
        self._schedule = sim.schedule_fire_ns
        self._interfaces: list["NetworkInterface"] = []
        # Attach-order snapshot iterated on delivery; rebuilding it on
        # attach/detach (rare) keeps the per-frame path copy-free.
        self._receivers: Tuple["NetworkInterface", ...] = ()
        # The wire: the end of its busy chain, the transmit queue, whether a
        # service continuation (event, armed start or running pump) is
        # pending, and the frames served but not yet delivered.
        self._busy_ns = 0
        self._pending: Deque[Tuple["NetworkInterface", EthernetFrame]] = deque()
        self._in_service = False
        self._inflight: Deque[list] = deque()
        # The token of the one service event that can move (see _arm), or
        # None while no such event is pending.
        self._armed: Optional[object] = None
        # Inter-shard delivery plan: None while every attached station lives
        # on this segment's own engine (the common, unsharded case); else a
        # list of (engine, [interfaces]) runs in attach order.
        self._delivery_runs: Optional[List[tuple]] = None
        # Express-lane eligibility, see _refresh_express: with no NIC,
        # nothing vetoes the inline lane.
        self._express = EXPRESS_INLINE
        # Multi-source drain coalescing on the deferred lane: the first
        # transmit of an instant drains directly, and any further
        # same-instant transmits arm ONE batched drain event that collects
        # the whole backlog after every same-instant sender has enqueued.
        self._last_drain_ns = -1
        self._drain_armed = False
        # Fault state (repro.faults): link status, the loss/corruption model
        # consulted per serviced frame, and the nominal wire characteristics
        # set_degrade() scales from.
        self._link_up = True
        self._fault_model = None
        self._nominal_bandwidth_bps = self.bandwidth_bps
        self._nominal_propagation_delay = self.propagation_delay
        # Statistics
        self.frames_carried = 0
        self.bytes_carried = 0
        self.cross_shard_frames = 0
        self.frames_lost = 0
        self.frames_corrupted = 0
        #: Frames serviced through a coalesced multi-source batch drain.
        self.frames_coalesced = 0
        # Per-destination fan-out plans (see _deliver): an empty table is
        # filled by the next whole-segment fan-out; None means the plain scan.
        self._plans: Optional[dict] = {}

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    @property
    def interfaces(self) -> tuple:
        """The NICs currently attached to this segment."""
        return tuple(self._interfaces)

    def attach(self, interface: "NetworkInterface") -> None:
        """Attach a NIC.  A NIC may be attached to at most one segment.

        A NIC homed on this segment's engine, joining a segment that is not
        cut, is folded into the express lane in O(1): its contribution is
        the one :meth:`_refresh_express` would read, so a new NIC can only
        keep or narrow the lane, and the fan-out plans are dropped.  Any
        other attach rescans the segment.
        """
        if interface in self._interfaces:
            raise TopologyError(
                f"interface {interface.name} is already attached to {self.name}"
            )
        self._interfaces.append(interface)
        self._receivers = tuple(self._interfaces)
        if self._delivery_runs is not None or interface.home_sim is not self.sim:
            self._refresh_delivery_runs()
            return
        self._plans = {}
        if (
            self._express
            and interface.up
            and interface._handler is not None
            and not interface._inline_safe
        ):
            self._express = (
                EXPRESS_DEFERRED if interface._segment_local else EXPRESS_OFF
            )

    def detach(self, interface: "NetworkInterface") -> None:
        """Detach a NIC (frames already queued from it still complete)."""
        if interface not in self._interfaces:
            raise TopologyError(
                f"interface {interface.name} is not attached to {self.name}"
            )
        self._interfaces.remove(interface)
        self._receivers = tuple(self._interfaces)
        self._refresh_delivery_runs()

    def _refresh_delivery_runs(self) -> None:
        """Recompute the inter-shard delivery plan from interface residency.

        Attach order is preserved: contiguous same-engine receivers share one
        delivery event, and run order equals attach order, so the sharded
        receive order (and every trace record it produces) is exactly the
        single engine's.
        """
        home = self.sim
        if all(interface.home_sim is home for interface in self._interfaces):
            self._delivery_runs = None
        else:
            self._delivery_runs = [
                (engine, list(run))
                for engine, run in groupby(self._interfaces, lambda nic: nic.home_sim)
            ]
        self._refresh_express()

    def _refresh_express(self) -> None:
        """Recompute express-lane eligibility and drop the fan-out plans.

        The full rescan: detach, every NIC ``set_up`` and ``set_handler``,
        every fault hook, and an attach that cuts the segment or joins a
        cut one call it.  Other attaches fold their NIC in O(1) (see
        :meth:`attach`), and ``set_promiscuous`` only drops the plans,
        since promiscuity is no input here.  Down interfaces never run
        handlers or send, so they never veto; an up interface homed on
        another shard vetoes both lanes.

        * **inline** (:data:`EXPRESS_INLINE`): every up interface has no
          handler (a pure counter/trace endpoint) or one its owner declared
          ``inline_safe`` via :meth:`NetworkInterface.set_handler` — which
          lets the wire-speed sweeps express-run every segment of the ring
          once the bridge ports are down, cut segments included.
        * **deferred** (:data:`EXPRESS_DEFERRED`): the segment is shard-local
          and every up handler is ``inline_safe`` or ``segment_local`` — it
          never transmits onto *other* segments synchronously from delivery
          context; reactions ride CPU queues or timers.

        A downed link or an active loss model vetoes both lanes.  Each
        refresh also replaces the fan-out plan table (see :meth:`_deliver`).
        A cut segment delivers by run, and a run never reads the table.
        """
        self._plans = {}
        model = self._fault_model
        if not self._link_up or (model is not None and model.active):
            self._express = EXPRESS_OFF
            return
        home = self.sim
        lane = EXPRESS_INLINE
        for interface in self._interfaces:
            if not interface.up:
                continue
            if interface.home_sim is not home:
                lane = EXPRESS_OFF
                break
            if interface._handler is None or interface._inline_safe:
                continue
            if not interface._segment_local:
                lane = EXPRESS_OFF
                break
            lane = EXPRESS_DEFERRED
        if lane == EXPRESS_DEFERRED and self._delivery_runs is not None:
            lane = EXPRESS_OFF
        self._express = lane

    @property
    def express_mode(self) -> str:
        """Current express-lane eligibility: ``off``, ``inline`` or ``deferred``."""
        return _EXPRESS_MODE_NAMES[self._express]

    # ------------------------------------------------------------------
    # Fault hooks (repro.faults) — driver/control context only
    # ------------------------------------------------------------------

    @property
    def link_up(self) -> bool:
        """Whether the segment's medium is currently operational."""
        return self._link_up

    def set_link(self, up: bool) -> None:
        """Fail or restore the whole segment (cable cut / splice).

        Failing the link drops everything still queued for the medium at the
        instant of failure — including in-flight frames whose classic pop is
        still ahead (counted in :attr:`frames_lost`, one ``segment.drop``
        record each, in FIFO order) — and makes every later transmit drop at
        the sender until the link is restored.  Frames already on the wire
        keep arriving: the cut happens behind them.

        Must run in driver/control context (fault timelines schedule through
        the simulator facade, which guarantees it); mid-window shard code
        only reads the flag.
        """
        up = bool(up)
        if up == self._link_up:
            return
        self._link_up = up
        trace = self._trace
        if trace.wants("segment.link"):
            trace.emit(self.name, "segment.link", {"up": up})
        if not up:
            self._requeue()
            self._drop_queued()
        self._refresh_express()

    def set_fault_model(self, model) -> None:
        """Attach (or with ``None`` detach) a per-frame loss/corruption model.

        The model is duck-typed — ``active`` plus ``judge(frame)`` returning
        ``None``/``"loss"``/``"corrupt"`` — and is consulted exactly once per
        serviced frame, in segment service order (see
        :class:`repro.faults.models.FrameLossModel` for the determinism
        argument).  In-flight frames whose classic pop is still ahead go back
        to the transmit queue and are judged when served again.  Attaching
        an active model revokes the express lane; detaching re-evaluates
        eligibility.
        """
        self._fault_model = model
        trace = self._trace
        if trace.wants("segment.fault_model"):
            trace.emit(
                self.name,
                "segment.fault_model",
                {"model": repr(model) if model is not None else "none"},
            )
        self._refresh_express()
        self._requeue()

    def set_degrade(
        self, bandwidth_scale: float = 1.0, extra_delay: float = 0.0
    ) -> None:
        """Degrade the wire: scale bandwidth down, add propagation delay.

        Both knobs move relative to the segment's *nominal* (construction
        time) characteristics, so repeated calls do not compound and the
        neutral arguments restore the segment exactly.  Bandwidth can only
        shrink and delay only grow: the partitioner derived the fabric's
        conservative lookahead from the nominal propagation delays, and a
        shorter delay on a cut segment would break that bound.  In-flight
        frames whose classic pop is still ahead go back to the transmit
        queue and are served again on the degraded wire.
        """
        if not 0.0 < bandwidth_scale <= 1.0:
            raise TopologyError(
                f"degrade bandwidth_scale {bandwidth_scale} outside (0, 1]"
            )
        if extra_delay < 0:
            raise TopologyError(f"degrade extra_delay {extra_delay} is negative")
        self.bandwidth_bps = self._nominal_bandwidth_bps * bandwidth_scale
        self.propagation_delay = self._nominal_propagation_delay + extra_delay
        self._prop_ns = seconds_to_ns(self.propagation_delay)
        trace = self._trace
        if trace.wants("segment.degrade"):
            trace.emit(
                self.name,
                "segment.degrade",
                {"bandwidth_scale": bandwidth_scale, "extra_delay": extra_delay},
            )
        self._requeue()

    def _requeue(self) -> None:
        """Un-serve the in-flight frames the event lane would still hold queued.

        Those are the suffix whose ``pop_ns`` is at or after now.  Their
        legs become no-ops, the busy chain rolls back to the first one's
        pop, the carried counters are refunded and the frames go back to the
        front of the transmit queue in FIFO order.  Their service event goes
        where the event lane would have it, at the rolled-back end of the
        busy chain; an event armed at the old chain end (see :meth:`_arm`)
        moves there with it.
        """
        inflight = self._inflight
        now_ns = self.sim.clock._now_ns
        taken = False
        while inflight and inflight[-1][0] >= now_ns:
            entry = inflight.pop()
            entry[4] = _TAKEN
            pop_ns, _, sender, frame, _ = entry
            self._busy_ns = pop_ns
            self.frames_carried -= 1
            self.bytes_carried -= frame.wire_length
            if self._delivery_runs is not None:
                self.cross_shard_frames -= 1
            self._pending.appendleft((sender, frame))
            taken = True
        if taken and (self._armed is not None or not self._in_service):
            self._arm()

    def _arm(self) -> None:
        """Schedule the event lane's next service at the end of the busy chain.

        This service event can move: arming again, as :meth:`_requeue` does
        when a fault rolls the chain back, turns the event it replaces into
        a no-op.
        """
        self._in_service = True
        token = self._armed = object()
        self._schedule_service(self._busy_ns, partial(self._fire_armed, token))

    def _fire_armed(self, token: object) -> None:
        """Run the armed service event unless it was moved."""
        if token is self._armed:
            self._armed = None
            self._service_next()

    def _drop_queued(self) -> None:
        """Count every frame left in the transmit queue as lost to link-down."""
        pending = self._pending
        while pending:
            sender, frame = pending.popleft()
            self._count_drop(sender, frame, "link-down")

    def _emit_drop(self, trace, sender: "NetworkInterface",
                   frame: EthernetFrame, reason: str) -> None:
        """Emit one ``segment.drop`` record onto ``trace`` (no counting)."""
        if trace.wants("segment.drop"):
            trace.emit(self.name, "segment.drop", _drop_detail, sender, reason, frame)

    def _count_drop(self, sender: "NetworkInterface", frame: EthernetFrame,
                    reason: str) -> None:
        """Count one lost frame and emit its ``segment.drop`` record (home stream)."""
        self.frames_lost += 1
        self._emit_drop(self._trace, sender, frame, reason)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def serialization_delay(self, frame: EthernetFrame) -> float:
        """Time the frame occupies the wire, in seconds."""
        return frame.wire_length * 8.0 / self.bandwidth_bps

    def transmit(self, sender: "NetworkInterface", frame: EthernetFrame) -> None:
        """Queue ``frame`` from ``sender`` for transmission on this segment.

        Delivery to every other attached NIC happens after the medium becomes
        free, the frame serializes, and the propagation delay elapses.
        """
        if sender.segment is not self:
            raise TopologyError(
                f"interface {sender.name} transmitted on {self.name} "
                "without being attached"
            )
        if not self._link_up:
            # No carrier: the frame is lost at the sender.  The drop record
            # belongs to the sending context's stream (mirroring the enqueue
            # record below); on a cut segment under relaxed sync the counter
            # increment is routed through the outbox — a window on another
            # shard must not mutate this segment.
            if self._delivery_runs is not None and self.sim.relaxed:
                caller = active_shard()
                if caller is not None:
                    self._emit_drop(caller.trace, sender, frame, "link-down")
                    caller.outbox.append(("drop", caller.clock._now_ns, self))
                    return
            self._count_drop(sender, frame, "link-down")
            return
        if self._delivery_runs is not None and not self._express:
            # Cut segment: inside a window the enqueue record belongs to the
            # *sending* shard's stream — the transmit is the sender's action
            # at the sender's time — which lets the record carry the exact
            # send-time stamp even though the segment state update is
            # deferred to the window barrier.
            if self.sim.relaxed:
                caller = active_shard()
                if caller is not None:
                    # Inside a relaxed window this segment's state must not
                    # be touched (it may belong to another shard, whose
                    # window runs before or after this one in the round,
                    # and strict FIFO order across shards is only defined
                    # at the barrier).  Defer the transmit — home-shard
                    # senders included, so same-nanosecond transmits from
                    # different shards are FIFO'd by the one canonical
                    # mailbox merge.  (Express-eligible cut segments are
                    # exempt: their only live senders are home-shard
                    # stations, so the home shard's windows own the state
                    # outright.)
                    trace = caller.trace
                    if trace.wants("segment.enqueue"):
                        trace.emit(
                            self.name, "segment.enqueue", _frame_detail, sender, frame
                        )
                    caller.outbox.append(
                        ("tx", caller.clock._now_ns, self, sender, frame)
                    )
                    return
        self._pending.append((sender, frame))
        trace = self._trace
        if trace.wants("segment.enqueue"):
            trace.emit(self.name, "segment.enqueue", _frame_detail, sender, frame)
        if not self._in_service:
            self._service_next()

    def _apply_relaxed_transmit(
        self, when_ns: int, sender: "NetworkInterface", frame: EthernetFrame
    ) -> None:
        """Replay a mailboxed transmit at its recorded time (window barrier).

        Runs between windows: the home shard's clock is set to the transmit
        time so the service arithmetic and everything scheduled downstream
        carry exactly the timestamps the single engine produces.  (The
        enqueue record was already emitted at send time, on the sending
        shard's stream.)
        """
        clock = self.sim.clock
        clock._now_ns = when_ns
        clock._now_s = when_ns / NANOSECONDS_PER_SECOND
        self._pending.append((sender, frame))
        if not self._in_service:
            self._service_next()

    # ------------------------------------------------------------------
    # Wire service: one core, three lanes
    # ------------------------------------------------------------------

    def _serve(self, now_ns: int, frame: EthernetFrame) -> tuple:
        """Put ``frame`` on the wire at ``now_ns``: the one wire-service function.

        The frame starts when the wire frees, ``max(now_ns, busy)``, and the
        busy chain moves to its finish.  Returns ``(pop_ns, finish_ns,
        deliver_ns)``.  ``pop_ns`` is when the event lane takes the frame off
        the transmit queue: the end of the busy chain it waited for, else
        ``now_ns - 1``, because a fault at ``now_ns`` ran before this
        transmit (faults precede same-instant traffic).
        """
        busy = self._busy_ns
        if now_ns >= busy:
            start = now_ns
            pop_ns = now_ns - 1
        else:
            start = pop_ns = busy
        finish_ns = start + round(frame.wire_length * 8e9 / self.bandwidth_bps)
        self._busy_ns = finish_ns
        self.frames_carried += 1
        self.bytes_carried += frame.wire_length
        return pop_ns, finish_ns, finish_ns + self._prop_ns

    def _service_next(self) -> None:
        """The service event: serve the transmit queue by the segment's lane.

        Also runs directly when a frame is queued with no service pending.
        Under relaxed sync a shard window picks an express lane by
        eligibility: the inline pump (first armed as a same-instant ring
        event, so every frame a handler sends at this instant is queued
        before the chain runs), or the batched drain (directly for the first
        transmit of an instant, through one armed coalesced drain for the
        rest).  A barrier serves a cut segment batched unless a loss model is
        active.

        Everything else takes the event lane, here: one frame now, with its
        delivery as an event, and the next service as an event at the
        frame's finish only when another frame is already queued.  With
        none, the wire keeps just its busy chain, and a frame sent before
        that finish finds the wire busy with no service pending (as the
        batched lanes leave it too): it stays queued and arms its service at
        the end of the busy chain, so a fault before then still takes it
        back.  An active loss model judges the frame first: a lost or
        corrupted frame occupies the wire exactly as a delivered one but
        reaches no receiver.
        """
        pending = self._pending
        if not pending:
            self._in_service = False
            return
        if not self._link_up:
            # Frames replayed into a dead segment: all of them are lost.
            self._drop_queued()
            self._in_service = False
            return
        sim = self.sim
        if sim.relaxed:
            lane = self._express
            if active_shard() is None:
                model = self._fault_model
                if self._delivery_runs is not None and (
                    model is None or not model.active
                ):
                    self._in_service = False
                    self._drain()
                    return
            elif lane == EXPRESS_INLINE:
                if self._in_service:
                    self._pump()
                else:
                    self._in_service = True
                    sim._queue.push_fire(sim.clock._now_ns, self._service_next)
                return
            elif lane:
                self._in_service = False
                now_ns = sim.clock._now_ns
                if now_ns != self._last_drain_ns:
                    self._last_drain_ns = now_ns
                    self._drain()
                elif not self._drain_armed:
                    self._drain_armed = True
                    sim._queue.push_fire(now_ns, self._drain_coalesced)
                return
        now_ns = sim.clock._now_ns
        if self._busy_ns > now_ns:
            self._arm()
            return
        sender, frame = pending.popleft()
        pop_ns, finish_ns, deliver_ns = self._serve(now_ns, frame)
        model = self._fault_model
        verdict = None if model is None or not model.active else model.judge(frame)
        if verdict is None:
            if self._delivery_runs is None:
                self._schedule(deliver_ns, partial(self._deliver, sender, frame))
            else:
                self._schedule_runs(sender, frame, pop_ns, deliver_ns)
        elif verdict == "corrupt":
            self.frames_corrupted += 1
            self._emit_drop(self._trace, sender, frame, "corrupt")
        else:
            self._count_drop(sender, frame, "loss")
        # The next service is an event only while a frame waits for it; an
        # idle wire keeps just its busy chain, and a frame sent before
        # finish_ns arms its service there.
        self._in_service = bool(pending)
        if pending:
            self._schedule_service(finish_ns)

    def _schedule_service(self, when_ns: int, service=None) -> None:
        """Schedule the next service event at ``when_ns``.

        ``service`` is the event's callback, :meth:`_service_next` unless
        given.  A cut segment served at a relaxed barrier puts it on the
        *control ring*: barrier work is replicated in every engine replica
        (the process backend runs one per worker plus the parent), so
        cut-segment service state only stays in lockstep if its continuation
        also fires at a replicated barrier.
        """
        sim = self.sim
        service = service or self._service_next
        if self._delivery_runs is not None and sim.relaxed and active_shard() is None:
            sim.fabric._control.push_fire(when_ns, service)
        else:
            self._schedule(when_ns, service)

    def _schedule_runs(self, sender: "NetworkInterface", frame: EthernetFrame,
                       pop_ns: int, deliver_ns: int) -> None:
        """Schedule an event-lane frame's delivery on a cut segment, per run.

        Outside any dispatch (a transmit made while the fabric is idle) each
        run is scheduled through its owning engine, the first run emitting
        the record.  At a relaxed barrier the legs are parked in flight.
        Inside a relaxed window the record and the home runs go straight
        onto the home ring and runs for other shards are staged in the
        outbox.
        """
        self.cross_shard_frames += 1
        sim = self.sim
        runs = self._delivery_runs
        if not sim.relaxed:
            for index, (engine, run) in enumerate(runs):
                deliver_run = partial(self._deliver, sender, frame, run, not index)
                engine.schedule_fire_ns(deliver_ns, deliver_run)
            return
        caller = active_shard()
        if caller is None:
            self._park(sender, frame, pop_ns, deliver_ns, True)
            return
        home_push = sim._queue.push_fire
        home_push(deliver_ns, partial(self._deliver, sender, frame, (), True))
        for engine, run in runs:
            deliver_run = partial(self._deliver, sender, frame, run, False)
            if engine is sim:
                home_push(deliver_ns, deliver_run)
            else:
                caller.outbox.append(("push", deliver_ns, engine, deliver_run))

    def _drain(self) -> None:
        """The batched lane: serve the whole transmit queue now.

        Wire service is pure arithmetic, so nothing forces it to wait for
        its own service event.  Every queued frame is served in one pass
        and parked in flight with its delivery at the exact nanosecond the
        event lane would use, so handlers still run in shard time order.  On
        a shard-local segment (the deferred express lane, in a window) one
        home event delivers each frame; on a cut segment (at the mail
        barrier, where every cut transmit arrives) each frame gets a home
        record leg plus one leg per receiver run.
        """
        now_ns = self.sim.clock._now_ns
        pending = self._pending
        legs = self._delivery_runs is not None
        serve = self._serve
        park = self._park
        while pending:
            sender, frame = pending.popleft()
            pop_ns, _, deliver_ns = serve(now_ns, frame)
            park(sender, frame, pop_ns, deliver_ns, legs)
            if legs:
                self.cross_shard_frames += 1

    def _drain_coalesced(self) -> None:
        """Run the armed multi-source batch drain (same-instant queue event).

        Fires on the home shard at the arming instant, *after* every
        same-instant transmit scheduled before it has enqueued its frame —
        the event queue orders equal times by sequence, so same-instant
        events are FIFO in push order — and the whole backlog is served in
        one :meth:`_drain`.  If the segment left the deferred lane in
        between (a fault or port flip), :meth:`_service_next` picks again.
        """
        self._drain_armed = False
        if not self._pending or self._in_service:
            return
        if self._express == EXPRESS_DEFERRED and active_shard() is not None:
            self.frames_coalesced += len(self._pending)
            self._drain()
        else:
            self._service_next()

    def _park(self, sender: "NetworkInterface", frame: EthernetFrame,
              pop_ns: int, deliver_ns: int, legs: bool) -> None:
        """Hold a served frame in the in-flight queue until its delivery.

        Without ``legs`` one home ring event delivers it.  With ``legs`` — a
        cut segment at a relaxed barrier, where every ring may be pushed
        directly — a home leg emits the record and one leg per receiver run
        delivers on its own shard.
        """
        entry = [pop_ns, deliver_ns, sender, frame, _FLYING]
        self._inflight.append(entry)
        sim = self.sim
        if not legs:
            sim._queue.push_fire(deliver_ns, partial(self._land, entry))
            return
        sim._relaxed_push_fire(deliver_ns, partial(self._land, entry, ()))
        for engine, run in self._delivery_runs:
            engine._relaxed_push_fire(deliver_ns, partial(self._land, entry, run))

    def _land(self, entry: list, run: Optional[Sequence] = None) -> None:
        """Fire one delivery of a parked frame at its exact ring time.

        ``run is None`` delivers the whole frame from the home shard.  A
        cut segment's frame has legs instead: the home leg (an empty
        ``run``) emits the record, and each receiver run's leg delivers on
        its own shard.  A home delivery retires the entry; run legs only
        read its state, which becomes "taken" only at barriers, so no leg
        depends on the order of the windows within a round.
        """
        sender, frame = entry[2], entry[3]
        if run:
            if entry[4]:
                self._deliver(sender, frame, run, False)
        elif entry[4] == _FLYING:
            entry[4] = _LANDED
            self._prune()
            if run is None:
                self._deliver_home(sender, frame)
            else:
                self._deliver(sender, frame, run, True)

    def _prune(self) -> None:
        """Drop delivered entries from the head of the in-flight queue."""
        inflight = self._inflight
        while inflight and inflight[0][4] != _FLYING:
            inflight.popleft()

    def _pump(self) -> None:
        """The inline lane: run this segment's causal chain in one loop.

        Fuses every service -> delivery -> (inline-safe handler reply) step
        into one loop, advancing the shard's private clock to each step's
        exact single-engine timestamp instead of paying a queue round-trip
        per event.  This is only sound under the relaxed canonical-merge
        contract: the emitted records interleave with other segments'
        streams out of execution order, and the canonical merge re-sorts
        them.

        Frames queued at entry were sent at or before now; frames a
        delivery queues arrive at that delivery's instant and are not
        served earlier.  The loop stays below the run horizon and below the
        earliest delivery still in flight, whose ring event must run first:
        its replies queue ahead of any later delivery's.  A delivery past
        that bound is parked in flight, and a service event is left where
        the single engine would have one.
        """
        shard = self.sim
        clock = shard.clock
        entry_ns = clock._now_ns
        entry_s = clock._now_s
        limit = shard._until_ns
        for held in self._inflight:
            if held[4] == _FLYING and held[1] <= limit:
                limit = held[1] - 1
        pending = self._pending
        runs = self._delivery_runs
        serve = self._serve
        deliver = self._deliver
        # Batch-hoisted trace gate: one wants() check per pump run instead of
        # one per frame (the gate is run configuration, immutable mid-run).
        record = self._trace.wants("segment.deliver")
        s_ns = entry_ns
        backlog = len(pending)
        arrivals: Deque[int] = deque()
        while pending and s_ns <= limit:
            if backlog:
                backlog -= 1
            else:
                arrival_ns = arrivals.popleft()
                if arrival_ns > s_ns:
                    s_ns = arrival_ns
            sender, frame = pending.popleft()
            pop_ns, finish_ns, deliver_ns = serve(s_ns, frame)
            if runs is not None:
                self.cross_shard_frames += 1
            if deliver_ns > limit:
                self._park(sender, frame, pop_ns, deliver_ns, False)
            else:
                clock._now_ns = deliver_ns
                clock._now_s = deliver_ns / NANOSECONDS_PER_SECOND
                if deliver_ns > shard.cursor_ns:
                    shard.cursor_ns = deliver_ns
                before = len(pending)
                if runs is None:
                    deliver(sender, frame, None, record)
                else:
                    self._deliver_home(sender, frame)
                for _ in range(len(pending) - before):
                    arrivals.append(deliver_ns)
            s_ns = finish_ns
        if pending:
            shard._queue.push_fire(s_ns, self._service_next)
        else:
            self._in_service = False
        clock._now_ns = entry_ns
        clock._now_s = entry_s

    def _deliver_home(self, sender: "NetworkInterface", frame: EthernetFrame) -> None:
        """Deliver a frame now, from the segment's home shard.

        On a cut segment (the inline lane admits one only when every remote
        interface is down) the home runs are delivered inline and the
        remote runs — pure drop counting — execute on their own shards:
        staged via the outbox inside a window, or scheduled directly from
        barrier contexts (a parked delivery can fire after a lane switch).
        """
        runs = self._delivery_runs
        if runs is None:
            self._deliver(sender, frame)
            return
        shard = self.sim
        caller = active_shard() if shard.relaxed else None
        when_ns = shard.clock._now_ns
        self._deliver(sender, frame, (), True)
        for engine, run in runs:
            if engine is shard:
                self._deliver(sender, frame, run, False)
            else:
                deliver_run = partial(self._deliver, sender, frame, run, False)
                if caller is not None:
                    caller.outbox.append(("push", when_ns, engine, deliver_run))
                else:
                    engine.schedule_fire_ns(when_ns, deliver_run)

    def _deliver(
        self,
        sender: "NetworkInterface",
        frame: EthernetFrame,
        run: Optional[Sequence["NetworkInterface"]] = None,
        record: bool = True,
    ) -> None:
        """Deliver ``frame`` to every receiver but its sender: the one receiver loop.

        Without ``run`` the frame goes to the whole segment, in the attach
        order of the receiver snapshot taken now (attach/detach during the
        fan-out rebuild the snapshot without disturbing this delivery).
        With ``run`` it goes to that same-shard delivery run only,
        snapshotted when the frame was scheduled: an interface that detaches
        mid-flight is skipped, one that attaches mid-flight joins from the
        next frame on.  ``record`` says whether this call emits the frame's
        ``segment.deliver`` record; a cut segment emits it once per frame,
        not once per run, through an empty ``run``.

        A whole-segment delivery on a segment with a plan table sends a
        unicast frame to its destination's plan only: the receivers whose
        :meth:`NetworkInterface.deliver` can have an effect (see
        :meth:`_build_plans`).  The NICs it skips are the ones whose hardware
        filter would drop the frame without counting it.  Multicast and
        broadcast frames take the plain scan, and each NIC's ``deliver()``
        applies its own group filter.  Every
        hook that can change a plan replaces the table.  A handler that does
        so mid-fan-out, for example by downing a later NIC or making it
        promiscuous, is caught when its call returns, and the rest of the
        fan-out falls back to the plain scan from the next receiver.  Every
        effective ``deliver()`` therefore runs in the plain scan's order.
        """
        if record:
            trace = self._trace
            if trace.wants("segment.deliver"):
                trace.emit(self.name, "segment.deliver", _frame_detail, sender, frame)
        if run is not None:
            for interface in run:
                if interface is not sender and interface.segment is self:
                    interface.deliver(frame)
            return
        receivers = self._receivers
        plans = self._plans
        if plans is not None and not plans:
            plans = self._build_plans(plans)
        if plans is not None:
            octets = frame.destination._octets
            plan = plans.get(octets)
            if plan is None and not octets[0] & 1:
                plan = plans[_FOREIGN]
            if plan is not None:
                for interface in plan:
                    if interface is not sender:
                        interface.deliver(frame)
                        if self._plans is not plans:
                            receivers = receivers[receivers.index(interface) + 1:]
                            break
                else:
                    return
        for interface in receivers:
            if interface is not sender:
                interface.deliver(frame)

    def _build_plans(self, plans: dict) -> Optional[dict]:
        """Fill an empty plan table from the receivers, or turn planning off.

        A plan keeps attach order and holds every receiver whose
        ``deliver()`` can act on a frame to its destination: down NICs (they
        count a drop), promiscuous NICs and the up NICs owning that address.
        Only the unicast addresses of filtering receivers get an entry;
        every other unicast destination shares the plan under
        :data:`_FOREIGN`, so the table never outgrows the NIC count.  With
        fewer than :data:`_PLAN_MIN_FILTERING` filtering receivers the
        segment keeps the plain scan until the next refresh.
        """
        receivers = self._receivers
        shared: List[int] = []
        owners: dict = {}
        for index, interface in enumerate(receivers):
            if not interface.up or interface.promiscuous:
                shared.append(index)
                continue
            octets = interface.mac._octets
            if not octets[0] & 1:
                owners.setdefault(octets, []).append(index)
        if len(receivers) - len(shared) < _PLAN_MIN_FILTERING:
            self._plans = None
            return None
        for octets, indices in owners.items():
            plans[octets] = tuple(receivers[i] for i in sorted(shared + indices))
        plans[_FOREIGN] = tuple(receivers[i] for i in shared)
        return plans


    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def busy_until(self) -> float:
        """End of the wire's busy chain, in seconds (the last frame's finish)."""
        return self._busy_ns / NANOSECONDS_PER_SECOND

    def utilization(self, elapsed_seconds: Optional[float] = None) -> float:
        """Fraction of wire capacity used since time zero (or over ``elapsed_seconds``)."""
        elapsed = self.sim.now if elapsed_seconds is None else elapsed_seconds
        if elapsed <= 0:
            return 0.0
        bits = self.bytes_carried * 8.0
        return min(1.0, bits / (self.bandwidth_bps * elapsed))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Segment({self.name!r}, {self.bandwidth_bps/1e6:.0f} Mb/s, "
            f"{len(self._interfaces)} stations)"
        )
