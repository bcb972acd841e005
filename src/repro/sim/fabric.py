"""The sharded event fabric: partitioned simulators under relaxed windows.

A :class:`ShardedSimulator` coordinates several
:class:`~repro.sim.shard.EngineShard` engines.  Every component of a
scenario (segment, host, device) is *placed* on one shard and schedules onto
that shard's event queue; the only cross-shard coupling is frame handoff on a
LAN segment whose stations live on different shards (see
:meth:`~repro.lan.segment.Segment` — the inter-shard delivery channel).

**Execution model.**  A fabric dispatches relaxed lookahead windows only
(see :mod:`repro.sim.relaxed`): each shard runs every event below its
conservative bound on a private clock, cross-shard work waits in outboxes
until the window barrier, and facade-scheduled work (measurement drivers,
fault timelines) runs at control barriers with every shard clock
synchronized.  The lookahead derived from inter-shard
:attr:`Segment.propagation_delay` (recorded as
:attr:`ShardedSimulator.lookahead_ns`) guarantees cross-shard handoffs land
strictly in the receiving shard's future, which is what makes windows
non-trivial and the fabric deadlock-free.  Inside a window a shard may
schedule only onto its own queue; a push onto another shard raises
:class:`~repro.exceptions.SimulationError`.

**Correctness contract (canonical equivalence).**  The single
:class:`~repro.sim.engine.Simulator` is the exact-order reference.  A
fabric gives the global emission order up, so both engines put their
records in one canonical order, keyed ``(time, source, category)`` with
ties in stream order (:meth:`FabricTrace.canonical_records`,
:meth:`~repro.sim.trace.TraceRecorder.canonical_records`).  A fabric run's
canonical records, all live counters and every component statistic equal
the single engine's.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.exceptions import FabricBackendError, SimulationError
from repro.sim.clock import Clock, seconds_to_ns
from repro.sim.engine import NO_BOUND_NS
from repro.sim.events import Event, EventQueue, validate_schedule_time
from repro.sim.random_source import RandomSource
from repro.sim.relaxed import BACKENDS, RelaxedExecutor, active_shard
from repro.sim.shard import EngineShard
from repro.sim.trace import CountingSink, ListSink, TraceRecord, TraceRecorder


class FabricTrace:
    """The fabric-wide trace view: shared counters, merged record streams.

    Quacks like a :class:`~repro.sim.trace.TraceRecorder` for every existing
    consumer: ``CounterWindow`` reads the live shared :attr:`counters`,
    analysis code iterates / filters the merged stream, and gating calls
    (``disable_category`` et al.) fan out to every shard recorder so hot-path
    producers keep their one-set-lookup ``wants()`` check.

    Each shard recorder writes into its own store.  Every query returns
    records in the canonical order (:meth:`canonical_records`): it selects
    rows in each store, sorts the selection's merge keys and builds views
    only for the rows it returns.
    """

    def __init__(self, recorders: List[TraceRecorder], counters: CountingSink) -> None:
        self._recorders = recorders
        self._counters_sink = counters
        self._enabled = True
        self._disabled_categories: set = set()
        # Deferred-result hooks installed by a process-backed fabric: fetch
        # pulls pending worker record suffixes in before a query, discard
        # drops them (clear/reset).  ``None`` on every in-process fabric.
        self._pending_fetch: Optional[Callable[[], None]] = None
        self._pending_discard: Optional[Callable[[], None]] = None
        for recorder in recorders:
            recorder._fold = self.fold

    def _stores(self) -> List[ListSink]:
        """The stores the shard recorders write, in shard order."""
        return [recorder.store for recorder in self._recorders]

    @property
    def counters(self) -> CountingSink:
        """The live fabric-wide counters, folded up to date.

        Shard recorders count nothing per record; any read through this
        property (or through a recorder's ``counters``) folds every store's
        outstanding rows in first, so consumers such as ``CounterWindow``
        always see exact totals.
        """
        self.fold()
        return self._counters_sink

    def fold(self) -> None:
        """Fold every shard store's uncounted rows into the shared table."""
        if self._pending_fetch is not None:
            self._pending_fetch()
        for store in self._stores():
            store.fold()

    def recount(self) -> None:
        """Rebuild the shared counters from every retained row on next read."""
        self._counters_sink.clear()
        for store in self._stores():
            store.recount()

    # ------------------------------------------------------------------
    # Gating (fans out so producers on any shard see the same state)
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether records are currently being captured."""
        return self._enabled

    def disable(self) -> None:
        """Stop capturing records on every shard."""
        self._enabled = False
        for recorder in self._recorders:
            recorder.disable()

    def enable(self) -> None:
        """Resume capturing records on every shard."""
        self._enabled = True
        for recorder in self._recorders:
            recorder.enable()

    def disable_category(self, category: str) -> None:
        """Suppress one category fabric-wide."""
        self._disabled_categories.add(category)
        for recorder in self._recorders:
            recorder.disable_category(category)

    def enable_category(self, category: str) -> None:
        """Re-enable a previously disabled category fabric-wide."""
        self._disabled_categories.discard(category)
        for recorder in self._recorders:
            recorder.enable_category(category)

    @property
    def disabled_categories(self) -> frozenset:
        """The categories currently gated off."""
        return frozenset(self._disabled_categories)

    def wants(self, category: str) -> bool:
        """Whether a record in ``category`` would currently be captured."""
        return self._enabled and category not in self._disabled_categories

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def emit(self, source, category, detail=None, *args) -> None:
        """Emit a record into the fabric (routed via shard 0's recorder)."""
        self._recorders[0].emit(source, category, detail, *args)

    def record(self, source, category, **detail) -> None:
        """Back-compat eager form of :meth:`emit`."""
        self.emit(source, category, detail if detail else None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _keys(self, category=None, source=None, since=None, until=None):
        """Sorted canonical keys ``(time, source, category, shard, row)``.

        Within one shard a row number orders rows exactly as their position
        in that shard's stream does.
        """
        if self._pending_fetch is not None:
            self._pending_fetch()
        keys: list = []
        for index, store in enumerate(self._stores()):
            rows = store.select(category, source, since, until)
            keys.extend(store.canonical_keys(rows, repeat(index)))
        keys.sort()
        return keys

    def _views(self, keys) -> List[TraceRecord]:
        recorders = self._recorders
        return [recorders[key[3]].store.view(key[4]) for key in keys]

    def canonical_records(self, category=None, source=None) -> List[TraceRecord]:
        """The retained records matching the criteria, in the canonical order.

        The canonical key is ``(time, source, category)``, the single
        engine's (:meth:`~repro.sim.trace.TraceRecorder.canonical_records`);
        ties keep stream order, shard first and then the record's position
        in its shard's stream.  Within one source the stream order is causal
        and fully preserved; *across* sources two same-instant records carry
        no causal order (their state effects commute — which is precisely
        the freedom relaxed windows exploit), so the tie falls back to the
        source name rather than to an execution accident.  The category
        orders a segment's same-instant records that two shards wrote (a
        cut segment's ``segment.enqueue`` is written on the sender's shard,
        its ``segment.drop`` on the home shard).

        This order is the fabric's correctness contract: a fabric run's
        canonical records are identical to the single engine's, which the
        test suite proves catalog-wide.  Rows are selected on ``category``
        and ``source`` before the merge.
        """
        return self._views(self._keys(category, source))

    def __len__(self) -> int:
        """Total records captured (live, O(pairs))."""
        return self.counters.total

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.canonical_records())

    def filter(self, category=None, source=None, since=None, until=None):
        """Records matching every provided criterion, in canonical order."""
        return self._views(self._keys(category, source, since, until))

    def count(self, category=None, source=None) -> int:
        """Number of records captured matching the criteria (live)."""
        return self.counters.count(category=category, source=source)

    def last(self, category=None, source=None) -> Optional[TraceRecord]:
        """The last retained record matching the criteria in canonical order."""
        keys = self._keys(category, source)
        return self._views(keys[-1:])[0] if keys else None

    def clear(self) -> None:
        """Drop all captured records and reset the live counters."""
        if self._pending_discard is not None:
            self._pending_discard()
        for recorder in self._recorders:
            recorder.clear()


class ShardedSimulator:
    """A deterministic discrete-event fabric of cooperating shard engines.

    Drop-in compatible with :class:`~repro.sim.engine.Simulator` for
    experiment drivers (``run_until`` / ``run`` / ``step``, ``now``,
    ``schedule*``, ``trace``), while components are constructed on individual
    shards via :meth:`sim_for`.  Each shard keeps its records in its own
    :class:`~repro.sim.trace.ListSink`, merged on query.

    Args:
        seed: seed for the fabric-wide :class:`RandomSource`.
        shards: number of shard engines.
        placement: component name -> shard index used by :meth:`sim_for`
            (the scenario compiler passes the partitioner's assignment).
            Unknown names fall back to shard 0.
        lookahead_ns: minimum cross-shard handoff latency (derived by the
            partitioner from inter-shard segments' minimum-frame wire time
            plus propagation delay); validated positive by the partitioner,
            and the conservative window length.
        backend: window execution backend — ``"thread"`` (default) runs
            windows in-process, one after another on the calling thread;
            ``"process"`` forks one worker process per shard for wall-clock
            multi-core speedup (see :mod:`repro.sim.procpool`; one measured
            dispatch per run, then ``reset()``).
    """

    BACKENDS = BACKENDS

    #: Always ``True``: a fabric dispatches relaxed windows only.  Components
    #: built directly against the facade (segments included) consult this
    #: exactly like :attr:`Simulator.relaxed`; their callbacks run at control
    #: barriers, where the classic paths are safe.
    relaxed = True

    #: Telemetry state (:class:`repro.telemetry.Telemetry`), or ``None`` when
    #: telemetry is off — mirrors :attr:`Simulator._telemetry`.
    _telemetry = None

    def __init__(
        self,
        seed: int = 0,
        shards: int = 2,
        placement: Optional[Mapping[str, int]] = None,
        lookahead_ns: Optional[int] = None,
        backend: str = "thread",
    ) -> None:
        if shards < 1:
            raise SimulationError("a sharded simulator needs at least one shard")
        self.clock = Clock()
        self.random = RandomSource(seed)
        counters_sink = CountingSink()
        recorders = [
            TraceRecorder(self.clock, counters=counters_sink, shard=index)
            for index in range(shards)
        ]
        self._shards: List[EngineShard] = [
            EngineShard(self, index, self.clock, self.random, recorder)
            for index, recorder in enumerate(recorders)
        ]
        self.trace = FabricTrace(recorders, counters_sink)
        self._placement: Dict[str, int] = dict(placement or {})
        self.lookahead_ns = lookahead_ns
        self._running = False
        self._auto_station_ids: Dict[int, int] = {}
        # The control ring: facade-scheduled work (measurement drivers,
        # experiment scripts) runs here at window barriers with every shard
        # clock synchronized — such callbacks may touch components on any
        # shard, which mid-window shard rings must never do.
        self._control = EventQueue()
        self._control_dispatched = 0
        self._relaxed = RelaxedExecutor(self)
        # The executor that ran the last dispatch: ``_relaxed``, or the
        # ProcessExecutor of a process-backed one.
        self._executor = self._relaxed
        # Segment registry: name -> Segment, filled by Segment.__init__ so
        # the process backend can rebind serialized mail symbolically.
        self._segments: Dict[str, object] = {}
        self._backend = "thread"
        # Process-backend bookkeeping: the pending (unfetched) executor of
        # the last process dispatch, and the "one measured dispatch consumed"
        # latch that only reset() clears.
        self._proc_pending = None
        self._proc_stale = False
        self.trace._pending_fetch = self._proc_fetch
        self.trace._pending_discard = self._proc_discard
        if backend != "thread":
            self.set_backend(backend)

    def auto_station_id(self, base: int) -> int:
        """Allocate the next automatic station id in the ``base`` namespace.

        One fabric-wide counter per namespace, mirroring
        :meth:`Simulator.auto_station_id` — components built in the same
        order draw the same ids whether the run is sharded or not.
        """
        next_id = self._auto_station_ids.get(base, base)
        self._auto_station_ids[base] = next_id + 1
        return next_id

    # ------------------------------------------------------------------
    # Execution backend
    # ------------------------------------------------------------------

    def set_backend(self, backend: str) -> None:
        """Select the relaxed-window execution backend (see :data:`BACKENDS`).

        ``"thread"`` (default) runs windows in-process; ``"process"`` forks
        one worker process per shard at dispatch time for wall-clock speedup.
        Backends may be switched freely while the fabric is idle — the usual
        pattern is an in-process warm-up phase followed by one process-backed
        measured dispatch.
        """
        if backend not in BACKENDS:
            raise SimulationError(
                f"unknown relaxed backend {backend!r}; expected one of {BACKENDS}"
            )
        if self._running:
            raise SimulationError("cannot switch backends during a run")
        self._backend = backend

    @property
    def relaxed_backend(self) -> str:
        """The relaxed-window execution backend: ``"thread"`` or ``"process"``."""
        return self._backend

    def _proc_fetch(self) -> None:
        """Pull any pending process-backend worker results in (trace hook)."""
        pending = self._proc_pending
        if pending is not None:
            pending.fetch_traces()

    def _proc_discard(self) -> None:
        """Drop any pending process-backend worker results (clear/reset hook)."""
        pending = self._proc_pending
        if pending is not None:
            pending.discard()

    @property
    def relaxed_stats(self) -> dict:
        """Window/mailbox counters from the last relaxed dispatch."""
        return {
            "windows": self._executor.windows,
            "mail_flushed": self._executor.mail_flushed,
        }

    def enable_telemetry(self):
        """Attach fabric-wide telemetry state (idempotent; returns it).

        One :class:`repro.telemetry.Telemetry` aggregate covers every shard.
        Process-backend workers inherit the enabled state through the
        dispatch fork and send their own registries home in the
        end-of-dispatch sync.  Metrics are deterministic functions of the
        event stream and wall spans are out-of-band, so enabling this never
        changes a simulation outcome.
        """
        if self._telemetry is None:
            from repro.telemetry import Telemetry

            self._telemetry = Telemetry()
        return self._telemetry

    # ------------------------------------------------------------------
    # Shards and placement
    # ------------------------------------------------------------------

    @property
    def shards(self) -> Tuple[EngineShard, ...]:
        """The shard engines, in index order."""
        return tuple(self._shards)

    @property
    def n_shards(self) -> int:
        """Number of shards in the fabric."""
        return len(self._shards)

    def sim_for(self, name: str) -> EngineShard:
        """The shard engine the named component is placed on.

        Names missing from the placement map land on shard 0 (the fabric's
        control shard, which also hosts facade-scheduled work such as
        measurement drivers).
        """
        return self._shards[self._placement.get(name, 0)]

    def shard_stats(self) -> List[dict]:
        """Per-shard progress/load counters (diagnostics and benchmarks)."""
        self._proc_fetch()
        return [
            {
                "shard": shard.index,
                "events_dispatched": shard.events_dispatched,
                "pending_events": shard.pending_events,
                "cursor_ns": shard.cursor_ns,
                "cancelled_discarded": shard._queue.cancelled_discarded,
                "records": len(shard.trace.store),
            }
            for shard in self._shards
        ]

    # ------------------------------------------------------------------
    # Time (Simulator-compatible)
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds.

        A fabric has no single global present mid-run: each shard sits at
        its own point inside the lookahead window.  The facade answers with
        *the asking context's* time — the executing shard's private clock
        when called from inside a window (e.g. a measurement callback fired
        by a component), the shared clock otherwise (drivers between runs,
        control barriers).
        """
        shard = active_shard()
        if shard is not None:
            return shard.clock._now_s
        return self.clock._now_s

    @property
    def now_ns(self) -> int:
        """Current simulated time in nanoseconds (see :attr:`now`)."""
        shard = active_shard()
        if shard is not None:
            return shard.clock._now_ns
        return self.clock._now_ns

    @property
    def events_dispatched(self) -> int:
        """Total events dispatched across all shards and the control ring."""
        return (
            sum(shard._dispatched for shard in self._shards)
            + self._control_dispatched
        )

    @property
    def pending_events(self) -> int:
        """Live events waiting across all shards and the control ring."""
        return sum(len(shard._queue) for shard in self._shards) + len(
            self._control
        )

    @property
    def cancelled_events_discarded(self) -> int:
        """Cancelled events physically dropped across all event rings."""
        return (
            sum(shard._queue.cancelled_discarded for shard in self._shards)
            + self._control.cancelled_discarded
        )

    # ------------------------------------------------------------------
    # Scheduling (facade)
    #
    # Facade work lands on the control ring and runs at window barriers
    # with every shard clock synchronized, because a driver callback may
    # synchronously touch components on any shard — which a mid-window
    # shard event must never do.
    # ------------------------------------------------------------------

    def _control_time(self, when_ns: int) -> int:
        """``when_ns``, checked against the shared clock for the control ring."""
        now_ns = self.clock._now_ns
        if when_ns < now_ns:
            validate_schedule_time(now_ns, when_ns)
        return when_ns

    def schedule(self, delay_seconds, callback, label: str = "") -> Event:
        """Schedule ``callback`` after ``delay_seconds`` (facade)."""
        return self._control.push(
            self._control_time(self.clock._now_ns + seconds_to_ns(delay_seconds)),
            callback,
            label,
        )

    def schedule_at(self, when_seconds, callback, label: str = "") -> Event:
        """Schedule ``callback`` at an absolute time (facade)."""
        return self._control.push(
            self._control_time(seconds_to_ns(when_seconds)), callback, label
        )

    def schedule_at_ns(self, when_ns, callback, label: str = "") -> Event:
        """Schedule ``callback`` at ``when_ns`` (facade)."""
        return self._control.push(self._control_time(when_ns), callback, label)

    def call_soon(self, callback, label: str = "") -> Event:
        """Schedule ``callback`` at the current time (facade)."""
        return self._control.push(self.clock._now_ns, callback, label)

    def schedule_fire_ns(self, when_ns, callback) -> None:
        """Fire-and-forget scheduling at an absolute time in ns (facade).

        Components constructed directly against the facade (e.g. a monitoring
        NIC built with ``run.sim``) resolve here.
        """
        self._control.push_fire(self._control_time(when_ns), callback)

    def schedule_fire_after(self, delay_seconds, callback) -> None:
        """Fire-and-forget scheduling ``delay_seconds`` from now (facade)."""
        self._control.push_fire(
            self._control_time(self.clock._now_ns + seconds_to_ns(delay_seconds)),
            callback,
        )

    def _relaxed_push_fire(self, when_ns: int, callback) -> None:
        """Barrier-context push targeting the facade: the control ring.

        A facade-homed component (a monitoring NIC built against ``run.sim``)
        receiving cut-segment deliveries gets its work at a control barrier,
        where every shard clock is synchronized — the facade has no ring of
        its own.
        """
        self._control.push_fire(when_ns, callback)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _dispatch(self, until_ns: int, max_events: Optional[int] = None) -> int:
        """Dispatch events up to ``until_ns`` through relaxed windows.

        The :class:`RelaxedExecutor` runs the conservative window loop (or,
        with ``backend="process"``, a fresh
        :class:`~repro.sim.procpool.ProcessExecutor` does).
        """
        if self._proc_stale:
            self._proc_fetch()
            raise FabricBackendError(
                "this fabric already ran a process-backed dispatch: worker "
                "processes advanced the component state, so the parent copy "
                "is stale; call reset() (and rebuild the scenario state) "
                "before dispatching again"
            )
        if self._backend == "process":
            from repro.sim.procpool import ProcessExecutor

            self._executor = ProcessExecutor(self)
        else:
            self._executor = self._relaxed
        return self._executor.dispatch(until_ns, max_events)

    def step(self) -> bool:
        """Dispatch the single globally earliest event, if any."""
        return self._dispatch(NO_BOUND_NS, max_events=1) == 1

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until every shard ring drains (or ``max_events`` is reached)."""
        if self._running:
            raise SimulationError("Simulator.run() called re-entrantly")
        self._running = True
        try:
            return self._dispatch(NO_BOUND_NS, max_events)
        finally:
            self._running = False

    def run_until(self, until_seconds: float, max_events: Optional[int] = None) -> int:
        """Run events with firing times ``<= until_seconds``.

        As with the single engine, the clock is advanced to ``until_seconds``
        at the end even if the rings drained earlier, unless ``max_events``
        stopped the run with events at or before ``until_seconds`` pending.
        """
        if self._running:
            raise SimulationError("Simulator.run_until() called re-entrantly")
        until_ns = seconds_to_ns(until_seconds)
        if until_ns < self.clock.now_ns:
            raise SimulationError(
                f"run_until({until_seconds}s) is earlier than the current "
                f"time {self.clock.now}s"
            )
        self._running = True
        try:
            dispatched = self._dispatch(until_ns, max_events)
            # Only a budget can stop a dispatch short of the horizon.
            if self.clock.now_ns < until_ns and (
                max_events is None or not self._pending_by(until_ns)
            ):
                self.clock.advance_to_ns(until_ns)
        finally:
            self._running = False
        return dispatched

    def run_for(self, duration_seconds: float, max_events: Optional[int] = None) -> int:
        """Run for ``duration_seconds`` of simulated time starting from now."""
        return self.run_until(self.now + duration_seconds, max_events=max_events)

    def _pending_by(self, until_ns: int) -> bool:
        """Whether any ring holds a live event at or before ``until_ns``."""
        for queue in (*(shard._queue for shard in self._shards), self._control):
            key = queue.top_key()
            if key is not None and key[0] <= until_ns:
                return True
        return False

    def reset(self) -> None:
        """Discard all pending events, traces and rewind the clock to zero.

        Station-id namespaces rewind too, mirroring :meth:`Simulator.reset`.

        Also the only way to unlatch a fabric after a process-backed
        dispatch: pending worker results are discarded unfetched and the
        staleness latch clears.
        """
        self._proc_discard()
        self._proc_stale = False
        for shard in self._shards:
            shard._queue.clear()
            shard._dispatched = 0
            shard.cursor_ns = 0
            shard.outbox.clear()
            shard._own_clock.reset()
        self._control.clear()
        self._control_dispatched = 0
        self.clock.reset()
        self.trace.clear()
        self._auto_station_ids.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedSimulator(shards={len(self._shards)}, now={self.now:.6f}s, "
            f"pending={self.pending_events}, dispatched={self.events_dispatched})"
        )
