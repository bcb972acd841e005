"""The discrete-event engine core and the single-engine simulator.

:class:`EngineCore` is what every engine shares: the
:class:`~repro.sim.events.EventQueue`, the clock, the scheduling API that the
rest of the library uses and the one loop that drains the queue.

* :meth:`EngineCore.schedule` / :meth:`EngineCore.schedule_at` /
  :meth:`EngineCore.schedule_at_ns` / :meth:`EngineCore.call_soon` —
  one-shot, cancellable events,
* :meth:`EngineCore.schedule_fire_ns` / :meth:`EngineCore.schedule_fire_after`
  — the handle-free lane for work that is never cancelled,
* :meth:`EngineCore._drain` — dispatch events in ``(time_ns, sequence)``
  order up to a horizon and a budget.

:class:`Simulator` is the single engine: it adds
:meth:`Simulator.run` / :meth:`Simulator.run_until` / :meth:`Simulator.step`
on top of the drain, and :attr:`Simulator.trace` — a
:class:`~repro.sim.trace.TraceRecorder` every component can append
measurement records to.  A single simulator instance is shared by every
host, LAN segment and active node in an experiment; the
:class:`~repro.lan.topology.NetworkBuilder` wires that up.

For topologies too large for one engine, each shard of a
:class:`repro.sim.fabric.ShardedSimulator` is an
:class:`~repro.sim.shard.EngineShard`, the same core run through relaxed
lookahead windows.  The single engine runs events in the exact global
order, and it is the reference a fabric run is checked against: in the
canonical order (:meth:`~repro.sim.trace.TraceRecorder.canonical_records`)
a fabric's records equal this engine's (see :mod:`repro.sim.fabric`).
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Callable, Optional, Sequence

from repro.exceptions import SimulationError
from repro.sim import relaxed as _relaxed
from repro.sim.clock import Clock, NANOSECONDS_PER_SECOND, seconds_to_ns
from repro.sim.events import Event, EventQueue, validate_schedule_time
from repro.sim.random_source import RandomSource
from repro.sim.trace import ListSink, TraceRecorder

#: "No horizon" for a drain (far beyond any event time).
NO_BOUND_NS = sys.maxsize
#: "No budget" for a drain.
NO_BUDGET = sys.maxsize
#: Events a telemetry-on drain dispatches between two samples of the queue
#: depth (``engine_queue_high_water``).
TELEMETRY_SLICE = 64


class EngineCore:
    """The event core every engine shares: queue, scheduling and drain.

    A subclass sets ``clock``, ``_queue`` (an
    :class:`~repro.sim.events.EventQueue`) and ``_dispatched``.

    The six scheduling methods push straight onto the queue's heap: they
    are the hottest scheduling entry points (timers, CPU queues, wire
    service).  On a fabric shard, :attr:`fabric` is set, and a push made
    from inside another shard's relaxed window raises
    :class:`~repro.exceptions.SimulationError` (see
    :meth:`~repro.sim.shard.EngineShard._check_home`): the pushing shard's
    clock is not this shard's, so the event would fire at the wrong time.
    """

    #: Whether this engine is a fabric shard inside a relaxed dispatch.
    #: Always ``False`` for the single engine; :class:`~repro.sim.shard.
    #: EngineShard` sets its instance attribute for the length of a dispatch.
    #: Components (the LAN segment in particular) branch on this to pick
    #: between the classic event path and the relaxed express/mailbox paths.
    relaxed = False

    #: The :class:`~repro.sim.fabric.ShardedSimulator` this engine is a shard
    #: of; ``None`` for the single engine, which costs its scheduling
    #: methods one attribute test each (the cross-shard check).
    fabric = None

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock._now_s

    @property
    def now_ns(self) -> int:
        """Current simulated time in nanoseconds."""
        return self.clock._now_ns

    @property
    def events_dispatched(self) -> int:
        """Total number of events that have fired since construction/reset."""
        return self._dispatched

    @property
    def pending_events(self) -> int:
        """Number of events still waiting to fire (O(1))."""
        return len(self._queue)

    @property
    def cancelled_events_discarded(self) -> int:
        """Cancelled events the queue has physically dropped so far."""
        return self._queue.cancelled_discarded

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self, delay_seconds: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` to run ``delay_seconds`` from now.

        Args:
            delay_seconds: non-negative delay in seconds.
            callback: zero-argument callable.
            label: human-readable label recorded on the event.

        Returns:
            The scheduled :class:`Event`, which can be cancelled.

        Raises:
            SchedulingError: if ``delay_seconds`` is negative.
        """
        now_ns = self.clock._now_ns
        when_ns = now_ns + round(delay_seconds * NANOSECONDS_PER_SECOND)
        if when_ns < now_ns:
            validate_schedule_time(now_ns, when_ns)
        if self.fabric is not None and _relaxed._ACTIVE is not self:
            self._check_home()
        queue = self._queue
        sequence = next(queue._counter)
        event = Event(when_ns, sequence, callback, label, False, queue)
        heappush(queue._heap, (when_ns, sequence, callback, event))
        queue._live += 1
        return event

    def schedule_at(
        self, when_seconds: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute simulated time ``when_seconds``."""
        return self.schedule_at_ns(seconds_to_ns(when_seconds), callback, label)

    def schedule_at_ns(
        self, when_ns: int, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute time ``when_ns`` (nanoseconds)."""
        now_ns = self.clock._now_ns
        if when_ns < now_ns:
            validate_schedule_time(now_ns, when_ns)
        if self.fabric is not None and _relaxed._ACTIVE is not self:
            self._check_home()
        queue = self._queue
        sequence = next(queue._counter)
        event = Event(when_ns, sequence, callback, label, False, queue)
        heappush(queue._heap, (when_ns, sequence, callback, event))
        queue._live += 1
        return event

    def call_soon(self, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` at the current simulated time (after pending work)."""
        return self.schedule_at_ns(self.clock._now_ns, callback, label)

    def schedule_fire_ns(self, when_ns: int, callback: Callable[[], None]) -> None:
        """Schedule a fire-and-forget callback at ``when_ns`` (nanoseconds).

        Identical ordering to :meth:`schedule_at_ns`, but no cancellation
        handle is allocated.  Segment wire service and delivery, which are
        never cancelled, run through here.
        """
        now_ns = self.clock._now_ns
        if when_ns < now_ns:
            validate_schedule_time(now_ns, when_ns)
        if self.fabric is not None and _relaxed._ACTIVE is not self:
            self._check_home()
        queue = self._queue
        sequence = next(queue._counter)
        heappush(queue._heap, (when_ns, sequence, callback, None))
        queue._live += 1

    def schedule_fire_after(
        self, delay_seconds: float, callback: Callable[[], None]
    ) -> None:
        """Schedule a fire-and-forget callback ``delay_seconds`` from now.

        The handle-free form of :meth:`schedule`, with the same arithmetic;
        CPU-queue service completions run through here.
        """
        now_ns = self.clock._now_ns
        when_ns = now_ns + round(delay_seconds * NANOSECONDS_PER_SECOND)
        if when_ns < now_ns:
            validate_schedule_time(now_ns, when_ns)
        if self.fabric is not None and _relaxed._ACTIVE is not self:
            self._check_home()
        queue = self._queue
        sequence = next(queue._counter)
        heappush(queue._heap, (when_ns, sequence, callback, None))
        queue._live += 1

    # ------------------------------------------------------------------
    # The drain loop
    # ------------------------------------------------------------------

    def _drain(self, until_ns: int, budget: int, extend=None) -> int:
        """Dispatch live events with ``time_ns <= until_ns``, at most ``budget``.

        The one drain loop: it serves :meth:`Simulator.run`,
        :meth:`Simulator.run_until` and :meth:`Simulator.step`, and a fabric
        shard's relaxed windows.  Events fire in ``(time_ns, sequence)``
        order.  Cancelled entries at the top are discarded before the
        horizon is checked, so a drain never leaves a dead entry on top.
        The loop stops at the first live event past the horizon or once
        ``budget`` events have run; then the top is live and due.

        The clock is *set* to each event's time, not only advanced: a
        relaxed shard may run an event below its private clock's last
        value (see :meth:`~repro.sim.shard.EngineShard._run_window`).  On
        the single engine no event is ever behind the clock, so the two
        are the same.

        ``extend`` (relaxed shards only) is ``None`` or a callable that,
        given the first live time past the horizon, returns a new horizon
        or ``None`` to stop.
        """
        queue = self._queue
        # Compaction and clear() rebuild the heap list in place, so this
        # alias stays valid while callbacks run.
        heap = queue._heap
        clock = self.clock
        n = 0
        try:
            while heap:
                time_ns, _sequence, callback, event = heap[0]
                if event is not None and event.cancelled:
                    heappop(heap)
                    queue.cancelled_discarded += 1
                    queue._dead_in_heap -= 1
                    continue
                if time_ns > until_ns:
                    if extend is None:
                        break
                    until_ns = extend(time_ns)
                    if until_ns is None:
                        break
                if n >= budget:
                    break
                heappop(heap)
                queue._live -= 1
                if event is not None:
                    event._queue = None
                if time_ns != clock._now_ns:
                    clock._now_ns = time_ns
                    clock._now_s = time_ns / NANOSECONDS_PER_SECOND
                n += 1
                callback()
        finally:
            self._dispatched += n
        return n


class Simulator(EngineCore):
    """A deterministic discrete-event simulator.

    Args:
        seed: seed for the simulator-owned :class:`RandomSource`.  Two
            simulators constructed with the same seed and driven by the same
            code produce identical event sequences and traces.
        trace_sinks: ``None`` for the default trace store (a fresh
            :class:`~repro.sim.trace.ListSink`), or a one-element list
            holding the store to write instead (e.g. a bounded
            :class:`~repro.sim.trace.RingBufferSink` for very long runs),
            which no other simulator holds.  Anything else raises
            :class:`TypeError`.
    """

    #: Telemetry state (:class:`repro.telemetry.Telemetry`), or ``None`` when
    #: telemetry is off — the only thing the hot paths ever test.  A class
    #: attribute so the default-off case costs nothing per instance.
    _telemetry = None

    def __init__(
        self, seed: int = 0, trace_sinks: Optional[Sequence[ListSink]] = None
    ) -> None:
        self.clock = Clock()
        self.random = RandomSource(seed)
        self.trace = TraceRecorder(self.clock, trace_sinks)
        self._queue = EventQueue()
        self._running = False
        self._dispatched = 0
        self._auto_station_ids: dict = {}

    def auto_station_id(self, base: int) -> int:
        """Allocate the next automatic station id in the ``base`` namespace.

        Station classes (active nodes, baseline repeaters/bridges) draw their
        auto-assigned interface MAC ids from here, one counter per namespace
        base **per engine**, so two simulations built in the same process
        allocate identical addresses — runs stay bit-for-bit reproducible.
        """
        next_id = self._auto_station_ids.get(base, base)
        self._auto_station_ids[base] = next_id + 1
        return next_id

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Dispatch a single event.

        Returns:
            ``True`` if an event was dispatched, ``False`` if the queue was
            empty.
        """
        return self._drain(NO_BOUND_NS, 1) == 1

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` is reached).

        Returns:
            The number of events dispatched by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() called re-entrantly")
        return self._run(NO_BOUND_NS, max_events)

    def run_until(self, until_seconds: float, max_events: Optional[int] = None) -> int:
        """Run events with firing times ``<= until_seconds``.

        Once no event at or before ``until_seconds`` is pending, the clock is
        advanced to ``until_seconds`` even if the queue drained earlier, so
        that back-to-back ``run_until`` calls see a monotonically advancing
        clock.  When ``max_events`` stops the run first, the clock stays at
        the last dispatched event and the rest fire at their own times.

        Returns:
            The number of events dispatched by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run_until() called re-entrantly")
        until_ns = seconds_to_ns(until_seconds)
        clock = self.clock
        if until_ns < clock._now_ns:
            raise SimulationError(
                f"run_until({until_seconds}s) is earlier than the current "
                f"time {clock.now}s"
            )
        dispatched = self._run(until_ns, max_events)
        # A drain leaves a live top, so a top at or before the horizon means
        # the budget stopped the run with that event still due.
        heap = self._queue._heap
        if clock._now_ns < until_ns and not (heap and heap[0][0] <= until_ns):
            clock.advance_to_ns(until_ns)
        return dispatched

    def run_for(self, duration_seconds: float, max_events: Optional[int] = None) -> int:
        """Run for ``duration_seconds`` of simulated time starting from now."""
        return self.run_until(self.now + duration_seconds, max_events=max_events)

    def _run(self, until_ns: int, max_events: Optional[int]) -> int:
        """Drain up to ``until_ns``, under telemetry when it is on."""
        budget = NO_BUDGET if max_events is None else max_events
        self._running = True
        try:
            if self._telemetry is None:
                return self._drain(until_ns, budget)
            return self._drain_with_telemetry(until_ns, budget)
        finally:
            self._running = False

    def _drain_with_telemetry(self, until_ns: int, budget: int) -> int:
        """Run the drain in slices under this engine's telemetry.

        It adds one wall span per call and a garbage-collection watch over
        that span, and samples the queue depth before the first slice and
        after every slice of :data:`TELEMETRY_SLICE` events.
        Slicing a drain by budget never changes which events run, or in what
        order.  The wall clock is read through :mod:`repro.telemetry.spans`,
        so the overhead test can prove the off path never reaches it.
        """
        from repro.telemetry import spans

        telemetry = self._telemetry
        start = spans.perf_counter()
        gc_watch = spans.GcWatch(telemetry.profiler)
        high_water = len(self._queue)
        dispatched = 0
        try:
            while True:
                size = min(TELEMETRY_SLICE, budget - dispatched)
                ran = self._drain(until_ns, size)
                dispatched += ran
                pending = len(self._queue)
                if pending > high_water:
                    high_water = pending
                if ran < size or dispatched >= budget:
                    break
        finally:
            gc_watch.close()
            elapsed = spans.perf_counter() - start
            telemetry.registry.gauge("engine_queue_high_water").set_max(high_water)
            telemetry.profiler.add("compute", elapsed)
            telemetry.profiler.add_total(elapsed)
        return dispatched

    def enable_telemetry(self):
        """Attach telemetry state to this engine (idempotent).

        Returns the :class:`repro.telemetry.Telemetry` instance.  Metrics
        are deterministic functions of the event stream and wall spans are
        out-of-band, so enabling this never changes a simulation outcome.
        """
        if self._telemetry is None:
            from repro.telemetry import Telemetry

            self._telemetry = Telemetry()
        return self._telemetry

    def reset(self) -> None:
        """Discard all pending events and rewind the clock to zero.

        Also rewinds the automatic station-id namespaces, so a topology
        rebuilt on a reset simulator allocates the same addresses as on a
        fresh one.
        """
        self._queue.clear()
        self.clock.reset()
        self.trace.clear()
        self._dispatched = 0
        self._auto_station_ids.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.6f}s, pending={self.pending_events}, "
            f"dispatched={self._dispatched})"
        )
