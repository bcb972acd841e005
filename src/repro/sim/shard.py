"""The per-shard scheduling core of the sharded event fabric.

:class:`EngineShard` is one shard of a
:class:`~repro.sim.fabric.ShardedSimulator`: it owns its own event ring
(:class:`ShardQueue`), its own progress cursor and its own trace recorder
(a :class:`~repro.sim.trace.TraceRecorder` that stamps the fabric's merge
keys), and it duck-types the :class:`~repro.sim.engine.Simulator`
scheduling API (``now``, ``schedule``, ``schedule_at``, ``schedule_at_ns``,
``call_soon``, ``schedule_fire_ns``, ``schedule_fire_after``, ``trace``,
``random``, ``clock``) so every existing component — segments, NICs, hosts,
active nodes, CPU queues, timers — runs on a shard unchanged.

Three shared pieces of state make the fabric *bit-deterministic* relative to
the single engine when it runs in strict mode:

* one **event-sequence counter** shared by every shard queue, so
  ``(time_ns, sequence)`` stays a global total order exactly as in the single
  :class:`~repro.sim.engine.EventQueue`;
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
shard_id, position-in-stream)``; :meth:`EngineShard._run_window` is the
relaxed drain loop, which swaps in a **private per-shard clock** so shards
can sit at different simulated times inside one lookahead window.

The queue is a *bucketed event ring* rather than one binary heap: events at
the same nanosecond live in one FIFO bucket (append order equals sequence
order because the counter is shared and monotone), so pushes are O(1) list
appends and the small time-heap is touched once per distinct timestamp.
Workloads in this simulator cluster heavily on identical timestamps
(synchronized segments, zero-cost CPU batches), which is what amortizes heap
traffic on the fabric's hot path.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.sim.clock import Clock, NANOSECONDS_PER_SECOND, seconds_to_ns
from repro.sim.events import Event, validate_schedule_time
from repro.sim.random_source import RandomSource
from repro.sim.relaxed import _ACTIVE
from repro.sim.trace import TraceRecorder


#: Upper bound on recycled bucket lists kept per :class:`ShardQueue` — a
#: backstop so a momentary burst of distinct timestamps cannot pin an
#: unbounded pile of empty lists for the rest of a long run.
_BUCKET_FREE_CAP = 1024


class ShardQueue:
    """A bucketed event ring: FIFO buckets per timestamp plus a time heap.

    Events in one bucket fire in append order, which equals sequence order
    because every shard queue draws from the fabric's shared counter.  The
    heap only orders *distinct* timestamps, so scheduling N same-time events
    costs N list appends plus one heap push.

    Bucket entries are ``(sequence, callback, event_or_None)`` triples: the
    cancellable scheduling APIs attach an :class:`Event` handle, while the
    fire-and-forget path (``schedule_fire_ns``, used by the frame hot path for
    deliveries that are never cancelled) skips the handle allocation
    entirely.

    Cancelled events stay in their bucket (keeping :meth:`Event.cancel` O(1),
    as in the single-engine queue) and are discarded when they reach the
    bucket head; :attr:`cancelled_discarded` counts them.

    Drained bucket lists are recycled through a bounded free list
    (:attr:`_free`): a steady-state run churns through one bucket per
    distinct timestamp, and reusing the list objects removes that
    allocation from the scheduling hot path.  Recycling touches only
    *empty* lists, so event ordering and contents are untouched — the
    bit-identity suites hold verbatim.
    """

    __slots__ = (
        "_counter",
        "_buckets",
        "_times",
        "_free",
        "_live",
        "_dead",
        "cancelled_discarded",
    )

    def __init__(self, counter) -> None:
        self._counter = counter
        self._buckets: dict = {}
        self._times: list = []
        self._free: list = []
        self._live = 0
        self._dead = 0
        self.cancelled_discarded = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time_ns: int, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` at ``time_ns`` and return a cancellable event."""
        event = Event(time_ns, next(self._counter), callback, label, False, self)
        entry = (event.sequence, callback, event)
        bucket = self._buckets.get(time_ns)
        if bucket is None:
            free = self._free
            self._buckets[time_ns] = bucket = free.pop() if free else []
            bucket.append(entry)
            heapq.heappush(self._times, time_ns)
        else:
            bucket.append(entry)
        self._live += 1
        return event

    def push_fire(self, time_ns: int, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` with no cancellation handle; returns its sequence."""
        sequence = next(self._counter)
        entry = (sequence, callback, None)
        bucket = self._buckets.get(time_ns)
        if bucket is None:
            free = self._free
            self._buckets[time_ns] = bucket = free.pop() if free else []
            bucket.append(entry)
            heapq.heappush(self._times, time_ns)
        else:
            bucket.append(entry)
        self._live += 1
        return sequence

    def _note_cancelled(self) -> None:
        self._live -= 1
        self._dead += 1

    def top_key(self) -> Optional[tuple]:
        """``(time_ns, sequence)`` of the earliest live event, or ``None``.

        Skips (and physically discards) cancelled events at bucket heads and
        drops drained buckets on the way.
        """
        times = self._times
        buckets = self._buckets
        while times:
            t = times[0]
            bucket = buckets[t]
            # Skip cancelled heads by index, then drop them in one slice —
            # a bucket of k dead same-time timers costs O(k), not O(k^2).
            index = 0
            size = len(bucket)
            while index < size:
                entry = bucket[index]
                event = entry[2]
                if event is None or not event.cancelled:
                    break
                index += 1
            if index:
                del bucket[:index]
                self.cancelled_discarded += index
                self._dead -= index
            if bucket:
                entry = bucket[0]
                return (t, entry[0])
            heapq.heappop(times)
            del buckets[t]
            free = self._free
            if len(free) < _BUCKET_FREE_CAP:
                free.append(bucket)
        return None

    def peek_time_ns(self) -> Optional[int]:
        """Firing time of the earliest live event, if any."""
        key = self.top_key()
        return None if key is None else key[0]

    def pop(self) -> Optional[tuple]:
        """Pop the earliest live ``(sequence, callback, event)`` entry."""
        key = self.top_key()
        if key is None:
            return None
        bucket = self._buckets[key[0]]
        entry = bucket.pop(0)
        self._live -= 1
        if entry[2] is not None:
            entry[2]._queue = None
        return entry

    def clear(self) -> None:
        """Drop every pending event."""
        for bucket in self._buckets.values():
            for entry in bucket:
                if entry[2] is not None:
                    entry[2]._queue = None
        self._buckets.clear()
        self._times.clear()
        self._live = 0
        self._dead = 0


class EngineShard:
    """One shard of the fabric: a Simulator-compatible scheduling core.

    Components constructed "on" a shard use it exactly as they would use a
    :class:`~repro.sim.engine.Simulator`; the coordinating
    :class:`~repro.sim.fabric.ShardedSimulator` drives every shard's ring in
    the global ``(time_ns, sequence)`` order.

    Attributes:
        index: the shard's position in the fabric.
        cursor_ns: the shard's own progress cursor — the firing time of the
            last event this shard dispatched.  Always ``<=`` the fabric
            clock; per-shard lag is what the conservative synchronizer
            reasons about.
        cross_pushes: events other shards (or the facade) scheduled into this
            shard's ring — cross-shard frame handoffs land here.
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
        self._queue = ShardQueue(counter)
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
        # Hot-path aliases into the queue (its containers are mutated in
        # place, never reassigned, so the aliases stay valid across clear()).
        self._q_buckets = self._queue._buckets
        self._q_times = self._queue._times
        self._q_next_seq = counter.__next__

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds (the fabric-wide clock)."""
        return self.clock._now_s

    @property
    def now_ns(self) -> int:
        """Current simulated time in nanoseconds (the fabric-wide clock)."""
        return self.clock._now_ns

    @property
    def pending_events(self) -> int:
        """Live events waiting in this shard's ring (O(1))."""
        return len(self._queue)

    def auto_station_id(self, base: int) -> int:
        """Allocate the next automatic station id (fabric-wide namespace).

        Delegates to the fabric so stations on different shards never collide
        and allocation order matches the single engine's build sequence.
        """
        return self.fabric.auto_station_id(base)

    @property
    def events_dispatched(self) -> int:
        """Events this shard has dispatched."""
        return self._dispatched

    # ------------------------------------------------------------------
    # Scheduling (Simulator-compatible)
    # ------------------------------------------------------------------

    def schedule_at_ns(
        self, when_ns: int, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute time ``when_ns`` on this shard."""
        clock_now = self.clock._now_ns
        if when_ns < clock_now:
            validate_schedule_time(clock_now, when_ns)
        event = self._queue.push(when_ns, callback, label)
        fabric = self.fabric
        if fabric._active is not None and fabric._active is not self:
            fabric._note_cross_push(self, when_ns, event.sequence)
        return event

    def schedule(
        self, delay_seconds: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` to run ``delay_seconds`` from now.

        Inlined push: this is the fabric's hottest scheduling entry point
        (CPU queues and timers), so it pays neither the ``schedule_at_ns``
        nor the ``ShardQueue.push`` call.
        """
        when_ns = self.clock._now_ns + round(delay_seconds * NANOSECONDS_PER_SECOND)
        if when_ns < self.clock._now_ns:
            validate_schedule_time(self.clock._now_ns, when_ns)
        queue = self._queue
        event = Event(when_ns, self._q_next_seq(), callback, label, False, queue)
        buckets = self._q_buckets
        bucket = buckets.get(when_ns)
        if bucket is None:
            free = queue._free
            buckets[when_ns] = bucket = free.pop() if free else []
            bucket.append((event.sequence, callback, event))
            heapq.heappush(self._q_times, when_ns)
        else:
            bucket.append((event.sequence, callback, event))
        queue._live += 1
        fabric = self.fabric
        if fabric._active is not None and fabric._active is not self:
            fabric._note_cross_push(self, when_ns, event.sequence)
        return event

    def schedule_at(
        self, when_seconds: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute simulated time ``when_seconds``.

        Inlined push, exactly as :meth:`schedule` (segments schedule every
        frame's delivery and service completion through here).
        """
        when_ns = round(when_seconds * NANOSECONDS_PER_SECOND)
        clock_now = self.clock._now_ns
        if when_ns < clock_now:
            validate_schedule_time(clock_now, when_ns)
        queue = self._queue
        event = Event(when_ns, self._q_next_seq(), callback, label, False, queue)
        buckets = self._q_buckets
        bucket = buckets.get(when_ns)
        if bucket is None:
            free = queue._free
            buckets[when_ns] = bucket = free.pop() if free else []
            bucket.append((event.sequence, callback, event))
            heapq.heappush(self._q_times, when_ns)
        else:
            bucket.append((event.sequence, callback, event))
        queue._live += 1
        fabric = self.fabric
        if fabric._active is not None and fabric._active is not self:
            fabric._note_cross_push(self, when_ns, event.sequence)
        return event

    def schedule_fire_ns(self, when_ns: int, callback: Callable[[], None]) -> None:
        """Schedule a fire-and-forget callback at ``when_ns`` (nanoseconds).

        Identical ordering semantics to :meth:`schedule_at_ns`, but no
        cancellation handle is allocated.  The frame hot path — segment
        delivery and service-completion events, which are never cancelled —
        runs through here, so the fabric skips one object allocation per
        event.
        """
        clock_now = self.clock._now_ns
        if when_ns < clock_now:
            validate_schedule_time(clock_now, when_ns)
        queue = self._queue
        sequence = self._q_next_seq()
        buckets = self._q_buckets
        bucket = buckets.get(when_ns)
        if bucket is None:
            free = queue._free
            buckets[when_ns] = bucket = free.pop() if free else []
            bucket.append((sequence, callback, None))
            heapq.heappush(self._q_times, when_ns)
        else:
            bucket.append((sequence, callback, None))
        queue._live += 1
        fabric = self.fabric
        if fabric._active is not None and fabric._active is not self:
            fabric._note_cross_push(self, when_ns, sequence)

    def schedule_fire_after(
        self, delay_seconds: float, callback: Callable[[], None]
    ) -> None:
        """Schedule a fire-and-forget callback ``delay_seconds`` from now.

        The handle-free form of :meth:`schedule` (same arithmetic), with
        :meth:`schedule_fire_ns`'s past-time check and cross-push bookkeeping;
        CPU-queue service completions run through here.
        """
        clock_now = self.clock._now_ns
        when_ns = clock_now + round(delay_seconds * NANOSECONDS_PER_SECOND)
        if when_ns < clock_now:
            validate_schedule_time(clock_now, when_ns)
        sequence = self._queue.push_fire(when_ns, callback)
        fabric = self.fabric
        if fabric._active is not None and fabric._active is not self:
            fabric._note_cross_push(self, when_ns, sequence)

    def call_soon(self, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` at the current time (after pending work)."""
        event = self._queue.push(self.clock._now_ns, callback, label)
        fabric = self.fabric
        if fabric._active is not None and fabric._active is not self:
            fabric._note_cross_push(self, event.time_ns, event.sequence)
        return event

    # ------------------------------------------------------------------
    # Dispatch (driven by the coordinator)
    # ------------------------------------------------------------------

    def _run_batch(self, until_ns: int, budget: Optional[int]) -> int:
        """Run this shard's events while they stay globally minimal.

        The coordinator sets ``fabric._batch_limit`` to the smallest pending
        key of every *other* shard before calling; cross-shard pushes made by
        the callbacks running here shrink that limit live, so the batch never
        runs past an event another shard must fire first.  This keeps the
        whole fabric's dispatch order exactly the single engine's
        ``(time_ns, sequence)`` order.
        """
        fabric = self.fabric
        clock = self.clock
        queue = self._queue
        times = queue._times
        buckets = queue._buckets
        n = 0
        blocked = False
        while times and not blocked:
            t = times[0]
            bucket = buckets[t]
            if not bucket:
                heapq.heappop(times)
                del buckets[t]
                free = queue._free
                if len(free) < _BUCKET_FREE_CAP:
                    free.append(bucket)
                continue
            if t > until_ns:
                break
            # Consume the bucket by index (no per-event list shifting); a
            # callback may append same-time events to this very bucket, and
            # cross-shard pushes may shrink the batch limit mid-bucket, so
            # both are re-read every iteration.  The clock advances with the
            # first event actually executed (never on a blocked bucket).
            index = 0
            before = n
            while index < len(bucket):
                sequence, callback, event = bucket[index]
                if event is not None and event.cancelled:
                    index += 1
                    queue.cancelled_discarded += 1
                    queue._dead -= 1
                    continue
                limit = fabric._batch_limit
                if limit is not None and (
                    t > limit[0] or (t == limit[0] and sequence > limit[1])
                ):
                    blocked = True
                    break
                if budget is not None and n >= budget:
                    blocked = True
                    break
                index += 1
                if event is not None:
                    event._queue = None
                if t > clock._now_ns:
                    clock._now_ns = t
                    clock._now_s = t / NANOSECONDS_PER_SECOND
                callback()
                n += 1
            if n > before:
                # Settle per-bucket bookkeeping once, not per event (live
                # counts are only read between runs, never by callbacks).
                queue._live -= n - before
                self.cursor_ns = t
            if index:
                if index == len(bucket):
                    bucket.clear()
                else:
                    del bucket[:index]
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
        """Barrier-context fire-and-forget push onto this shard's ring."""
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
        other shard except through the outbox, so the loop is a plain
        time-ordered drain of the bucketed ring against the shard's private
        clock.  The clock is set (not merely advanced) per bucket, because
        barrier-flushed mailbox entries may legitimately schedule below the
        shard's furthest point; record timestamps stay exact either way and
        the canonical merge re-sorts the streams by time.

        ``extend`` — ``(other_cap, lookahead_ns, control_queue,
        pump_bound_ns)`` — lets a *sole eligible* shard grow its own window
        in place instead of bouncing through the executor's barrier loop
        once per window.  While this shard has produced no mail the other
        shards' tops are provably static, so on reaching the window end the
        drain re-derives the next conservative bound exactly as the executor
        would — ``min(other_cap, t + L) + L - 1``, clipped to the pump
        bound — and keeps going.  It stops the moment mail appears, the
        runner-up shard becomes reachable, or control work is due: the
        executor's loop takes over with its full rescan.
        """
        _ACTIVE.shard = self
        queue = self._queue
        times = queue._times
        buckets = queue._buckets
        clock = self.clock
        if extend is not None:
            other_cap, ext_lookahead, control_queue, pump_bound = extend
        n = 0
        try:
            while times:
                t = times[0]
                bucket = buckets[t]
                if not bucket:
                    heapq.heappop(times)
                    del buckets[t]
                    free = queue._free
                    if len(free) < _BUCKET_FREE_CAP:
                        free.append(bucket)
                    continue
                if t > window_end_ns:
                    if extend is None or self.outbox:
                        break
                    if other_cap is not None and t >= other_cap:
                        break
                    # Raw peek: a cancelled control head only makes the time
                    # look earlier, which breaks the extension early — the
                    # executor's rescan then handles it; never unsound.
                    control_times = control_queue._times
                    if control_times and control_times[0] <= t:
                        break
                    bound = t + ext_lookahead
                    if other_cap is not None and other_cap < bound:
                        bound = other_cap
                    bound += ext_lookahead - 1
                    if bound > pump_bound:
                        bound = pump_bound
                    if t > bound:
                        break
                    window_end_ns = bound
                clock._now_ns = t
                clock._now_s = t / NANOSECONDS_PER_SECOND
                index = 0
                before = n
                while index < len(bucket):
                    sequence, callback, event = bucket[index]
                    index += 1
                    if event is not None:
                        if event.cancelled:
                            queue.cancelled_discarded += 1
                            queue._dead -= 1
                            continue
                        event._queue = None
                    callback()
                    n += 1
                    if budget is not None and n >= budget:
                        break
                if n > before:
                    queue._live -= n - before
                    if t > self.cursor_ns:
                        self.cursor_ns = t
                if index == len(bucket):
                    bucket.clear()
                else:
                    del bucket[:index]
                if budget is not None and n >= budget:
                    break
        finally:
            _ACTIVE.shard = None
        self._dispatched += n
        return n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EngineShard(index={self.index}, pending={len(self._queue)}, "
            f"dispatched={self._dispatched}, cursor={self.cursor_ns}ns)"
        )
