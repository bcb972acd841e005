"""The discrete-event simulator.

:class:`Simulator` ties the :class:`~repro.sim.clock.Clock` and the
:class:`~repro.sim.events.EventQueue` together and provides the scheduling
API that the rest of the library uses:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` — one-shot,
  cancellable events,
* :meth:`Simulator.schedule_fire` / :meth:`Simulator.schedule_fire_after` —
  the handle-free lane for work that is never cancelled,
* :meth:`Simulator.run` / :meth:`Simulator.run_until` / :meth:`Simulator.step`
  — drive the simulation,
* :attr:`Simulator.trace` — a :class:`~repro.sim.trace.TraceRecorder` every
  component can append measurement records to.

A single simulator instance is shared by every host, LAN segment and active
node in an experiment; the :class:`~repro.lan.topology.NetworkBuilder` wires
that up.

For topologies too large for one engine, the same scheduling surface is
provided per shard by :class:`repro.sim.shard.EngineShard` under the
:class:`repro.sim.fabric.ShardedSimulator` coordinator — sharded runs are
bit-identical to this single engine (see :mod:`repro.sim.fabric`).
"""

from __future__ import annotations

import sys
from heapq import heappop
from typing import Callable, Iterable, Optional

from repro.exceptions import SimulationError
from repro.sim.clock import Clock, NANOSECONDS_PER_SECOND, seconds_to_ns
from repro.sim.events import Event, EventQueue, validate_schedule_time
from repro.sim.random_source import RandomSource
from repro.sim.trace import TraceRecorder, TraceSink


class Simulator:
    """A deterministic discrete-event simulator.

    Args:
        seed: seed for the simulator-owned :class:`RandomSource`.  Two
            simulators constructed with the same seed and driven by the same
            code produce identical event sequences and traces.
        trace_sinks: optional trace sinks to install instead of the default
            :class:`~repro.sim.trace.ListSink` (e.g. a bounded
            :class:`~repro.sim.trace.RingBufferSink` for very long runs).
    """

    #: Whether this engine is executing under the fabric's relaxed sync mode.
    #: Always ``False`` for the single engine; :class:`~repro.sim.shard.
    #: EngineShard` toggles its instance attribute during relaxed dispatches.
    #: Components (the LAN segment in particular) branch on this to pick
    #: between the classic event path and the relaxed express/mailbox paths.
    relaxed = False

    #: Telemetry state (:class:`repro.telemetry.Telemetry`), or ``None`` when
    #: telemetry is off — the only thing the hot paths ever test.  A class
    #: attribute so the default-off case costs nothing per instance.
    _telemetry = None

    def __init__(
        self, seed: int = 0, trace_sinks: Optional[Iterable[TraceSink]] = None
    ) -> None:
        self.clock = Clock()
        self.random = RandomSource(seed)
        self.trace = TraceRecorder(self.clock, sinks=trace_sinks)
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
    # Time
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    @property
    def now_ns(self) -> int:
        """Current simulated time in nanoseconds."""
        return self.clock.now_ns

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
        when_ns = self.clock.now_ns + seconds_to_ns(delay_seconds)
        return self.schedule_at_ns(when_ns, callback, label)

    def schedule_at(
        self, when_seconds: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute simulated time ``when_seconds``."""
        return self.schedule_at_ns(seconds_to_ns(when_seconds), callback, label)

    def schedule_at_ns(
        self, when_ns: int, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute time ``when_ns`` (nanoseconds)."""
        if when_ns < self.clock._now_ns:
            # Delegate to the queue for the canonical error message.
            self._queue.validate_schedule_time(self.clock.now_ns, when_ns)
        return self._queue.push(when_ns, callback, label)

    def call_soon(self, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` at the current simulated time (after pending work)."""
        return self._queue.push(self.clock.now_ns, callback, label)

    def schedule_fire(self, when_seconds: float, callback: Callable[[], None]) -> None:
        """Schedule a fire-and-forget callback at ``when_seconds``.

        Identical ordering to :meth:`schedule_at`, but no cancellation handle
        is allocated.  Segment wire service and delivery, which are never
        cancelled, run through here.
        """
        when_ns = round(when_seconds * NANOSECONDS_PER_SECOND)
        now_ns = self.clock._now_ns
        if when_ns < now_ns:
            validate_schedule_time(now_ns, when_ns)
        self._queue.push_fire(when_ns, callback)

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
        self._queue.push_fire(when_ns, callback)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Dispatch a single event.

        Returns:
            ``True`` if an event was dispatched, ``False`` if the queue was
            empty.
        """
        entry = self._queue.pop_entry()
        if entry is None:
            return False
        # Inlined clock advance: schedule-time validation guarantees event
        # times are never behind the clock, and the heap pops in time order.
        clock = self.clock
        time_ns = entry[0]
        if time_ns > clock._now_ns:
            clock._now_ns = time_ns
            clock._now_s = time_ns / NANOSECONDS_PER_SECOND
        self._dispatched += 1
        entry[2]()
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` is reached).

        Returns:
            The number of events dispatched by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() called re-entrantly")
        if self._telemetry is not None:
            return self._run_instrumented(None, max_events)
        # The dispatch loop pops heap entries inline (see :meth:`step` for
        # the one-event form): this is every single-engine run's hottest code.
        queue = self._queue
        # Compaction and clear() rebuild the heap list in place, so this
        # alias stays valid while callbacks run.
        heap = queue._heap
        clock = self.clock
        budget = sys.maxsize if max_events is None else max_events
        dispatched = 0
        self._running = True
        try:
            while queue._live and dispatched < budget:
                time_ns, _sequence, callback, event = heappop(heap)
                if event is not None:
                    if event.cancelled:
                        queue.cancelled_discarded += 1
                        queue._dead_in_heap -= 1
                        continue
                    event._queue = None
                queue._live -= 1
                if time_ns > clock._now_ns:
                    clock._now_ns = time_ns
                    clock._now_s = time_ns / NANOSECONDS_PER_SECOND
                self._dispatched += 1
                dispatched += 1
                callback()
        finally:
            self._running = False
        return dispatched

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
        if until_ns < self.clock.now_ns:
            raise SimulationError(
                f"run_until({until_seconds}s) is earlier than the current "
                f"time {self.clock.now}s"
            )
        if self._telemetry is not None:
            return self._run_instrumented(until_ns, max_events)
        queue = self._queue
        # Compaction and clear() rebuild the heap list in place, so this
        # alias stays valid while callbacks run.
        heap = queue._heap
        clock = self.clock
        budget = sys.maxsize if max_events is None else max_events
        dispatched = 0
        self._running = True
        try:
            while heap:
                time_ns, _sequence, callback, event = heap[0]
                if event is not None and event.cancelled:
                    heappop(heap)
                    queue.cancelled_discarded += 1
                    queue._dead_in_heap -= 1
                    continue
                if time_ns > until_ns:
                    break
                if dispatched >= budget:
                    # An event is due before the horizon: the clock stays at
                    # the last dispatched event.
                    return dispatched
                heappop(heap)
                queue._live -= 1
                if event is not None:
                    event._queue = None
                if time_ns > clock._now_ns:
                    clock._now_ns = time_ns
                    clock._now_s = time_ns / NANOSECONDS_PER_SECOND
                self._dispatched += 1
                dispatched += 1
                callback()
            if clock._now_ns < until_ns:
                clock.advance_to_ns(until_ns)
        finally:
            self._running = False
        return dispatched

    def run_for(self, duration_seconds: float, max_events: Optional[int] = None) -> int:
        """Run for ``duration_seconds`` of simulated time starting from now."""
        return self.run_until(self.now + duration_seconds, max_events=max_events)

    def _run_instrumented(self, until_ns: Optional[int], max_events: Optional[int]) -> int:
        """The telemetry-on twin of :meth:`run`/:meth:`run_until`.

        A deliberate duplicate of the dispatch loops: the default-off path
        keeps its inline drain with zero extra work per event, and this
        loop adds queue high-water tracking, dispatch counting, one wall
        span per call and a garbage-collection watch over that span.  It
        dispatches through :meth:`step`, which takes both heap entry kinds
        (with and without an :class:`Event` handle).  The
        wall clock is read through :mod:`repro.telemetry.spans` so the
        overhead test can prove the off path never reaches it.
        """
        from repro.telemetry import spans

        telemetry = self._telemetry
        start = spans.perf_counter()
        gc_watch = spans.GcWatch(telemetry.profiler)
        self._running = True
        dispatched = 0
        queue = self._queue
        high_water = len(queue)
        try:
            while True:
                next_time = queue.peek_time_ns()
                if next_time is None or (until_ns is not None and next_time > until_ns):
                    if until_ns is not None and self.clock.now_ns < until_ns:
                        self.clock.advance_to_ns(until_ns)
                    break
                if max_events is not None and dispatched >= max_events:
                    break
                self.step()
                dispatched += 1
                pending = len(queue)
                if pending > high_water:
                    high_water = pending
        finally:
            self._running = False
            gc_watch.close()
            elapsed = spans.perf_counter() - start
            registry = telemetry.registry
            registry.counter("engine_events_dispatched").inc(dispatched)
            registry.gauge("engine_queue_high_water").set_max(high_water)
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

            self._telemetry = Telemetry(shards=1)
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
