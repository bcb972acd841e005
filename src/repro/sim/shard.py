"""The per-shard engine of the sharded event fabric.

:class:`EngineShard` is one shard of a
:class:`~repro.sim.fabric.ShardedSimulator`.  It is the single engine's
:class:`~repro.sim.engine.EngineCore` — the same
:class:`~repro.sim.events.EventQueue`, the same six scheduling methods and
the same drain loop — plus its own progress cursor, its own trace recorder
(a :class:`~repro.sim.trace.TraceRecorder` that stamps the fabric's merge
keys) and the fabric's cross-shard bookkeeping, so every existing
component — segments, NICs, hosts, active nodes, CPU queues, timers — runs
on a shard unchanged.

Three shared pieces of state make the fabric *bit-deterministic* relative to
the single engine when it runs in strict mode:

* one **event-sequence counter** shared by every shard queue and the
  control ring, so ``(time_ns, sequence)`` stays a global total order exactly
  as in the single engine's queue;
* one **clock**, advanced by the coordinator strictly in that global order,
  so a component called synchronously across a shard boundary (a NIC sending
  onto a segment homed on another shard) reads the same timestamps it would
  under the single engine;
* one **trace emission counter**, stamped onto every record
  (:attr:`~repro.sim.trace.TraceRecord.seq`), which is the deterministic
  merge key that interleaves per-shard trace streams back into the exact
  single-engine emission order.

**Emission-seq ordering invariant.**  Because the emission counter is shared
and monotone, every *per-shard* stream is seq-ascending in both execution
modes.  Strict mode additionally makes the seq a global emission order (the
``FabricTrace`` merge key).  Relaxed mode (:mod:`repro.sim.relaxed`) gives
that up — shards execute windows out of global order, so only the per-shard
monotonicity survives — and the canonical merge key becomes ``(time,
shard_id, position-in-stream)``; :meth:`EngineShard._run_window` runs the
shared drain loop against a **private per-shard clock**, so shards can sit
at different simulated times inside one lookahead window.

Strict mode keeps its own loop, :meth:`EngineShard._run_batch`, over the
same heap: it re-reads the fabric's batch limit before every event, which
makes it the exact-order reference that the scenario fuzzer compares the
relaxed mode against.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop
from typing import Optional

from repro.sim import relaxed as _relaxed
from repro.sim.clock import Clock, NANOSECONDS_PER_SECOND
from repro.sim.engine import NO_BUDGET, EngineCore
from repro.sim.events import EventQueue
from repro.sim.random_source import RandomSource
from repro.sim.trace import TraceRecorder


class EngineShard(EngineCore):
    """One shard of the fabric: the engine core on the fabric's counter.

    Components constructed "on" a shard use it exactly as they would use a
    :class:`~repro.sim.engine.Simulator`; the coordinating
    :class:`~repro.sim.fabric.ShardedSimulator` drives every shard's queue in
    the global ``(time_ns, sequence)`` order.  The scheduling methods are
    the core's; a push made while another shard runs a strict batch is
    reported through :meth:`ShardedSimulator._note_cross_push`.

    Attributes:
        index: the shard's position in the fabric.
        cursor_ns: the shard's own progress cursor — the firing time of the
            last event this shard dispatched.  Always ``<=`` the fabric
            clock; per-shard lag is what the conservative synchronizer
            reasons about.
        cross_pushes: events other shards (or the facade) scheduled into this
            shard's queue — cross-shard frame handoffs land here.
    """

    def __init__(
        self,
        fabric,
        index: int,
        clock: Clock,
        random: RandomSource,
        counter,
        trace: TraceRecorder,
    ) -> None:
        self.fabric = fabric
        self.index = index
        self.clock = clock
        self.random = random
        self.trace = trace
        self._queue = EventQueue(counter)
        self._dispatched = 0
        self.cursor_ns = 0
        self.cross_pushes = 0
        # Relaxed-mode state: the shard's private clock (swapped in for the
        # duration of a relaxed dispatch so shards can sit at different
        # simulated times), its cross-shard outbox (single-writer mailbox,
        # flushed at window barriers), the active run's horizon (read by the
        # segment express lane) and the mode flag components test.
        self._own_clock = Clock()
        self.outbox: list = []
        self._until_ns = 0
        self.relaxed = False

    def auto_station_id(self, base: int) -> int:
        """Allocate the next automatic station id (fabric-wide namespace).

        Delegates to the fabric so stations on different shards never collide
        and allocation order matches the single engine's build sequence.
        """
        return self.fabric.auto_station_id(base)

    # ------------------------------------------------------------------
    # Dispatch (driven by the coordinator)
    # ------------------------------------------------------------------

    def _run_batch(self, until_ns: int, budget: int) -> int:
        """Run this shard's events while they stay globally minimal.

        The coordinator sets ``fabric._batch_limit`` to the smallest pending
        key of every *other* shard before calling; cross-shard pushes made by
        the callbacks running here shrink that limit live, so it is re-read
        before every event and the batch never runs past an event another
        shard must fire first.  This keeps the whole fabric's dispatch order
        exactly the single engine's ``(time_ns, sequence)`` order.
        """
        fabric = self.fabric
        clock = self.clock
        queue = self._queue
        heap = queue._heap
        n = 0
        try:
            while heap:
                time_ns, sequence, callback, event = heap[0]
                if event is not None and event.cancelled:
                    heappop(heap)
                    queue.cancelled_discarded += 1
                    queue._dead_in_heap -= 1
                    continue
                if time_ns > until_ns or n >= budget:
                    break
                limit = fabric._batch_limit
                if limit is not None and (
                    time_ns > limit[0] or (time_ns == limit[0] and sequence > limit[1])
                ):
                    break
                heappop(heap)
                queue._live -= 1
                if event is not None:
                    event._queue = None
                if time_ns > clock._now_ns:
                    clock._now_ns = time_ns
                    clock._now_s = time_ns / NANOSECONDS_PER_SECOND
                self.cursor_ns = time_ns
                n += 1
                callback()
        finally:
            self._dispatched += n
        return n

    # ------------------------------------------------------------------
    # Relaxed (canonical-merge) execution — see repro.sim.relaxed
    # ------------------------------------------------------------------

    def _enter_relaxed(self, shared_clock: Clock, until_ns: int) -> None:
        """Swap in the shard's private clock for a relaxed dispatch."""
        clock = self._own_clock
        clock._now_ns = shared_clock._now_ns
        clock._now_s = shared_clock._now_s
        self.clock = clock
        self.trace._clock = clock
        self._until_ns = until_ns
        self.relaxed = True

    def _exit_relaxed(self, shared_clock: Clock) -> None:
        """Restore the fabric-shared clock after a relaxed dispatch."""
        self.clock = shared_clock
        self.trace._clock = shared_clock
        self.relaxed = False

    def _relaxed_push_fire(self, when_ns: int, callback) -> None:
        """Barrier-context fire-and-forget push onto this shard's queue."""
        self._queue.push_fire(when_ns, callback)

    def _run_window(
        self,
        window_end_ns: int,
        budget: Optional[int] = None,
        extend: Optional[tuple] = None,
    ) -> int:
        """Run every pending event with ``time_ns <= window_end_ns``.

        The relaxed counterpart of :meth:`_run_batch`: no batch-limit
        comparisons and no live cross-push bookkeeping — within a
        conservative window this shard's events cannot interact with any
        other shard except through the outbox, so the window is the
        engine's plain drain loop against the shard's private clock.  The
        drain sets that clock to each event's time, because barrier-flushed
        mailbox entries may legitimately schedule below the shard's furthest
        point; record timestamps stay exact either way and the canonical
        merge re-sorts the streams by time.

        ``extend`` — ``(other_cap, lookahead_ns, control_queue,
        pump_bound_ns)`` — lets a *sole eligible* shard grow its own window
        in place instead of bouncing through the executor's barrier loop
        once per window (see :meth:`_extend_window`).
        """
        _relaxed._ACTIVE = self
        try:
            n = self._drain(
                window_end_ns,
                NO_BUDGET if budget is None else budget,
                None if extend is None else partial(self._extend_window, *extend),
            )
        finally:
            _relaxed._ACTIVE = None
        # Within one drain event times never decrease, and callbacks leave
        # the clock where the drain set it, so it holds the last event's time.
        if n and self.clock._now_ns > self.cursor_ns:
            self.cursor_ns = self.clock._now_ns
        return n

    def _extend_window(
        self, other_cap, lookahead_ns: int, control: EventQueue, pump_bound_ns: int,
        time_ns: int,
    ) -> Optional[int]:
        """The sole leader's next window end once its drain reaches ``time_ns``.

        While this shard has produced no mail the other shards' tops are
        provably static, so the bound is re-derived exactly as the executor
        would — ``min(other_cap, t + L) + L - 1``, clipped to the pump bound.
        Returns ``None`` (stop) the moment mail appears, the runner-up shard
        becomes reachable or control work is due: the executor's loop takes
        over with its full rescan.
        """
        if self.outbox or (other_cap is not None and time_ns >= other_cap):
            return None
        # Raw peek: a cancelled control head only makes the time look
        # earlier, which stops the extension early — the executor's rescan
        # then handles it; never unsound.
        heap = control._heap
        if heap and heap[0][0] <= time_ns:
            return None
        bound = time_ns + lookahead_ns
        if other_cap is not None and other_cap < bound:
            bound = other_cap
        bound += lookahead_ns - 1
        if bound > pump_bound_ns:
            bound = pump_bound_ns
        return bound if time_ns <= bound else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EngineShard(index={self.index}, pending={len(self._queue)}, "
            f"dispatched={self._dispatched}, cursor={self.cursor_ns}ns)"
        )
