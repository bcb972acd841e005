"""The sharded event fabric: partitioned simulators under conservative sync.

A :class:`ShardedSimulator` coordinates several
:class:`~repro.sim.shard.EngineShard` engines.  Every component of a
scenario (segment, host, device) is *placed* on one shard and schedules onto
that shard's event queue; the only cross-shard coupling is frame handoff on a
LAN segment whose stations live on different shards (see
:meth:`~repro.lan.segment.Segment` — the inter-shard delivery channel).

**Synchronization model.**  Shards advance under a conservative protocol:
the coordinator repeatedly picks the shard holding the globally earliest
pending event and lets it run a *batch* — every event strictly below the
earliest pending key of any other shard (the batch limit).  Cross-shard
pushes made while a batch runs shrink the limit live, so no shard ever runs
past an event another shard must fire first.  This next-event bound is at
least as tight as the classic clock-plus-lookahead bound — the lookahead
derived from inter-shard :attr:`Segment.propagation_delay` (recorded as
:attr:`ShardedSimulator.lookahead_ns`) guarantees cross-shard handoffs land
strictly in the shard's future, which is what makes batches non-trivial and
the fabric deadlock-free.

**Determinism guarantee (strict mode).**  Every shard holds the single
engine's :class:`~repro.sim.events.EventQueue`, all of them on one
event-sequence counter, and the coordinator dispatches in the exact global
``(time_ns, sequence)`` order, so a sharded run executes the very same
callback sequence as the single :class:`~repro.sim.engine.Simulator` — every
trace record, counter and component statistic is bit-identical.  Per-shard
trace streams carry a shared emission sequence (:attr:`TraceRecord.seq`);
:class:`FabricTrace` merges them back into single-engine emission order by
that key, deterministically.

**Relaxed mode (canonical-merge equivalence).**  With ``sync="relaxed"`` the
fabric instead advances each shard independently through conservative
lookahead windows (see :mod:`repro.sim.relaxed` for the model and
:meth:`FabricTrace.canonical_records` for the merge): the global emission
order is given up, and correctness is redefined as *canonical-merge
equivalence* — per-shard streams merged by the canonical ``(time, shard_id,
source, shard_seq)`` key must be identical to the strict engine's, as must
all counters and component statistics.  Strict stays the default; relaxed is
the throughput mode for large fan-out topologies.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.exceptions import FabricBackendError, SimulationError
from repro.sim.clock import Clock, seconds_to_ns
from repro.sim.engine import NO_BOUND_NS, NO_BUDGET, drain_with_telemetry
from repro.sim.events import Event, EventQueue, validate_schedule_time
from repro.sim.random_source import RandomSource
from repro.sim.relaxed import BACKENDS, RelaxedExecutor, SYNC_MODES, active_shard
from repro.sim.shard import EngineShard
from repro.sim.trace import CountingSink, ListSink, TraceRecord, TraceRecorder, TraceSink


class FabricTrace:
    """The fabric-wide trace view: shared counters, merged record streams.

    Quacks like a :class:`~repro.sim.trace.TraceRecorder` for every existing
    consumer: ``CounterWindow`` reads the live shared :attr:`counters`,
    analysis code iterates / filters the merged stream, and gating calls
    (``disable_category`` et al.) fan out to every shard recorder so hot-path
    producers keep their one-set-lookup ``wants()`` check.

    Each shard recorder writes into its own store, or every recorder into
    one shared store (the fabric's ``trace_sinks``); either way a row
    carries its emitting shard and its emission ``seq``.  Queries select
    rows in each store, sort the selection's merge keys and build views
    only for the rows they return.
    """

    def __init__(
        self,
        recorders: List[TraceRecorder],
        counters: CountingSink,
        shared_sinks: List[TraceSink],
    ) -> None:
        self._recorders = recorders
        self._counters_sink = counters
        self._shared_sinks = shared_sinks
        self._enabled = True
        self._disabled_categories: set = set()
        # Canonical-merge view: set by the fabric when it runs relaxed, where
        # the global emission seq is no longer an execution order.
        self._canonical = False
        # Deferred-result hooks installed by a process-backed fabric: fetch
        # pulls pending worker record suffixes in before a query, discard
        # drops them (clear/reset).  ``None`` on every in-process fabric.
        self._pending_fetch: Optional[Callable[[], None]] = None
        self._pending_discard: Optional[Callable[[], None]] = None
        for recorder in recorders:
            recorder._fold_all = self.fold

    def _stores(self) -> List[ListSink]:
        """The distinct stores the shard recorders write, in shard order."""
        return list(
            dict.fromkeys(r.store for r in self._recorders if r.store is not None)
        )

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
    # Recording and listeners
    # ------------------------------------------------------------------

    def emit(self, source, category, detail=None, *args) -> Optional[TraceRecord]:
        """Emit a record into the fabric (routed via shard 0's recorder)."""
        return self._recorders[0].emit(source, category, detail, *args)

    def record(self, source, category, **detail) -> Optional[TraceRecord]:
        """Back-compat eager form of :meth:`emit`."""
        return self.emit(source, category, detail if detail else None)

    def add_listener(self, listener: Callable[[TraceRecord], None]) -> None:
        """Register a callback invoked for every new record, fabric-wide."""
        for recorder in self._recorders:
            recorder.add_listener(listener)

    def remove_listener(self, listener: Callable[[TraceRecord], None]) -> None:
        """Unregister a listener."""
        for recorder in self._recorders:
            recorder.remove_listener(listener)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _keys(self, canonical: bool, category=None, source=None, since=None, until=None):
        """Sorted merge keys of the matching rows: shard second, row last.

        Strict keys are ``(seq, shard, row)``.  Canonical keys are ``(time,
        shard, source, row)``: within one shard a row number orders rows
        exactly as their position in that shard's stream does, whether the
        shard has a store of its own or shares one.
        """
        if self._pending_fetch is not None:
            self._pending_fetch()
        keys: list = []
        for store in self._stores():
            rows = store.select(category, source, since, until)
            shards = store.column("shard", rows)
            if canonical:
                keys.extend(
                    zip(store.column("time", rows), shards, store.column("source", rows), rows)
                )
            else:
                keys.extend(zip(store.column("seq", rows), shards, rows))
        keys.sort()
        return keys

    def _views(self, keys) -> List[TraceRecord]:
        stores = [recorder.store for recorder in self._recorders]
        return [stores[key[1]].view(key[-1]) for key in keys]

    def merged_records(self) -> List[TraceRecord]:
        """Every retained record, in the fabric's defined merge order.

        Under strict sync the merge key is the shared emission ``seq``, so
        the result is bit-identical to the single engine's record list.
        Under relaxed sync the defined order is the canonical merge
        (:meth:`canonical_records`).
        """
        return self._views(self._keys(self._canonical))

    def canonical_records(self, category=None, source=None) -> List[TraceRecord]:
        """The retained records matching the criteria, in the canonical order.

        The canonical merge key is ``(time, shard_id, source, shard_seq)``,
        where ``shard_seq`` is the record's position in its shard's stream —
        stable under both the strict shared counter and relaxed out-of-order
        windows.  Within one source the stream order is causal and fully
        preserved; *across* sources the key only orders records that differ
        in time or shard, because two same-instant records of independent
        sources carry no causal order (their state effects commute — which
        is precisely the freedom relaxed windows exploit), so the tie falls
        back to the source name rather than to an execution accident.

        This order is the relaxed mode's correctness contract: it is
        computable from any fabric run (strict or relaxed, per-shard or
        shared stores), and a relaxed run's canonical records are identical
        to the strict engine's — proven catalog-wide by the test suite.
        Rows are selected on ``category`` and ``source`` before the merge.
        """
        return self._views(self._keys(True, category, source))

    def __len__(self) -> int:
        """Total records captured (live, O(pairs))."""
        return self.counters.total

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.merged_records())

    def filter(self, category=None, source=None, since=None, until=None):
        """Records matching every provided criterion, in merge order."""
        return self._views(self._keys(self._canonical, category, source, since, until))

    def count(self, category=None, source=None) -> int:
        """Number of records captured matching the criteria (live)."""
        return self.counters.count(category=category, source=source)

    def last(self, category=None, source=None) -> Optional[TraceRecord]:
        """The most recent retained record matching the criteria, if any."""
        keys = self._keys(self._canonical, category, source)
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
    shards via :meth:`sim_for`.

    Args:
        seed: seed for the fabric-wide :class:`RandomSource`.
        shards: number of shard engines.
        trace_sinks: optional sinks shared by every shard (e.g. one bounded
            :class:`~repro.sim.trace.RingBufferSink`); ``None`` gives each
            shard its own :class:`~repro.sim.trace.ListSink`, merged on query.
        placement: component name -> shard index used by :meth:`sim_for`
            (the scenario compiler passes the partitioner's assignment).
            Unknown names fall back to shard 0.
        lookahead_ns: minimum cross-shard handoff latency (derived by the
            partitioner from inter-shard segments' minimum-frame wire time
            plus propagation delay); recorded for introspection, validated
            positive by the partitioner, and the conservative window length
            in relaxed mode.
        sync: ``"strict"`` (default) dispatches in the exact global
            ``(time_ns, sequence)`` order — bit-identical to the single
            engine; ``"relaxed"`` advances shards through lookahead windows
            under the canonical-merge contract (see
            :mod:`repro.sim.relaxed`).
        backend: relaxed-window execution backend — ``"thread"`` (default)
            runs windows in-process, one after another on the calling
            thread; ``"process"`` forks one worker process per shard for
            wall-clock multi-core speedup (see :mod:`repro.sim.procpool`;
            one measured dispatch per run, then ``reset()``).  Ignored
            under strict sync.
    """

    SYNC_MODES = SYNC_MODES
    BACKENDS = BACKENDS

    #: Telemetry state (:class:`repro.telemetry.Telemetry`), or ``None`` when
    #: telemetry is off — mirrors :attr:`Simulator._telemetry`.
    _telemetry = None

    def __init__(
        self,
        seed: int = 0,
        shards: int = 2,
        trace_sinks: Optional[Iterable[TraceSink]] = None,
        placement: Optional[Mapping[str, int]] = None,
        lookahead_ns: Optional[int] = None,
        sync: str = "strict",
        backend: str = "thread",
    ) -> None:
        if shards < 1:
            raise SimulationError("a sharded simulator needs at least one shard")
        self.clock = Clock()
        self.random = RandomSource(seed)
        self._event_counter = itertools.count()
        self._emit_counter = itertools.count()
        counters_sink = CountingSink()
        shared_sinks = list(trace_sinks) if trace_sinks is not None else None
        recorders = [
            TraceRecorder(
                self.clock,
                shared_sinks,
                seq=self._emit_counter,
                counters=counters_sink,
                shard=index,
            )
            for index in range(shards)
        ]
        self._shards: List[EngineShard] = [
            EngineShard(self, index, self.clock, self.random, self._event_counter, rec)
            for index, rec in enumerate(recorders)
        ]
        self.trace = FabricTrace(recorders, counters_sink, shared_sinks or [])
        self._placement: Dict[str, int] = dict(placement or {})
        self.lookahead_ns = lookahead_ns
        self._active: Optional[EngineShard] = None
        self._batch_limit: Optional[tuple] = None
        self._tops: List[Optional[tuple]] = [None] * shards
        self._running = False
        self._auto_station_ids: Dict[int, int] = {}
        self._sync = "strict"
        # The control ring: under relaxed sync, facade-scheduled work
        # (measurement drivers, experiment scripts) runs here at window
        # barriers with every shard clock synchronized — such callbacks may
        # touch components on any shard, which mid-window shard rings must
        # never do.  Under strict sync the facade schedules on shard 0.
        self._control = EventQueue(self._event_counter)
        self._control_dispatched = 0
        self._relaxed = RelaxedExecutor(self)
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
        if sync != "strict":
            self.set_sync(sync)

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
    # Synchronization mode
    # ------------------------------------------------------------------

    @property
    def sync(self) -> str:
        """The active synchronization mode: ``"strict"`` or ``"relaxed"``."""
        return self._sync

    @property
    def relaxed(self) -> bool:
        """Whether relaxed sync is active (Simulator-compatible attribute).

        Components built directly against the facade (segments included)
        consult this exactly like :attr:`Simulator.relaxed`; their callbacks
        run at control barriers, where the classic paths are safe.
        """
        return self._sync == "relaxed"

    def set_sync(self, sync: str, backend: Optional[str] = None) -> None:
        """Switch the execution mode between runs.

        Modes may be switched freely while the fabric is idle — a common
        pattern is a strict warm-up followed by a relaxed measurement phase.
        Relaxed mode requires the default per-shard stores (caller
        sinks observe records in execution order, which relaxed mode does not
        define), so it refuses fabrics built with ``trace_sinks``.

        Pending facade work across a switch: relaxed -> strict migrates the
        control ring onto shard 0 (order-preserving).  The reverse cannot be
        migrated — facade events scheduled under strict sync are
        indistinguishable from component events on shard 0's ring — so such
        events still fire inside shard 0's windows after a switch.  Schedule
        driver callbacks *after* switching to relaxed (the usual phase
        pattern drains between phases anyway); a leftover strict-scheduled
        driver callback that touches other shards' components would read
        their mid-window private clocks.
        """
        if sync not in self.SYNC_MODES:
            raise SimulationError(
                f"unknown sync mode {sync!r}; expected one of {self.SYNC_MODES}"
            )
        if self._running:
            raise SimulationError("cannot switch sync modes during a run")
        if sync == "relaxed" and self.trace._shared_sinks:
            raise SimulationError(
                "relaxed sync requires the default per-shard trace stores; "
                "this fabric was built with shared trace_sinks"
            )
        if sync == "strict" and self._sync == "relaxed" and self._control:
            self._migrate_control_to_shard0()
        self._sync = sync
        self.trace._canonical = sync == "relaxed"
        if backend is not None:
            self.set_backend(backend)

    def set_backend(self, backend: str) -> None:
        """Select the relaxed-window execution backend (see :data:`BACKENDS`).

        ``"thread"`` (default) runs windows in-process; ``"process"`` forks
        one worker process per shard at dispatch time for wall-clock speedup.
        Like :meth:`set_sync`, backends may be switched freely while the
        fabric is idle — the usual pattern is an in-process warm-up phase
        followed by one process-backed measured dispatch.
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

    def _migrate_control_to_shard0(self) -> None:
        """Move pending control-ring events onto shard 0 (relaxed -> strict).

        Entries keep their original shared-counter sequence numbers, so
        pushing them onto shard 0's heap keeps the global order.
        """
        control = self._control
        target = self._shards[0]._queue
        for entry in control._heap:
            if entry[3] is not None:
                entry[3]._queue = target
            heapq.heappush(target._heap, entry)
        target._live += control._live
        target._dead_in_heap += control._dead_in_heap
        control._heap.clear()
        control._live = 0
        control._dead_in_heap = 0

    @property
    def relaxed_stats(self) -> dict:
        """Window/mailbox counters from the last relaxed dispatch."""
        return {
            "windows": self._relaxed.windows,
            "mail_flushed": self._relaxed.mail_flushed,
        }

    def enable_telemetry(self):
        """Attach fabric-wide telemetry state (idempotent; returns it).

        One :class:`repro.telemetry.Telemetry` aggregate covers every shard.
        Process-backend workers inherit the enabled state through the
        dispatch fork and ship their own registries home with the trace
        suffixes.  Metrics are deterministic functions of the event stream
        and wall spans are out-of-band, so enabling this never changes a
        simulation outcome.
        """
        if self._telemetry is None:
            from repro.telemetry import Telemetry

            self._telemetry = Telemetry(shards=len(self._shards))
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

    @property
    def counters(self) -> CountingSink:
        """The live fabric-wide trace counters (synced on read)."""
        return self.trace.counters

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
                "cross_pushes": shard.cross_pushes,
                "cancelled_discarded": shard._queue.cancelled_discarded,
                "records": (
                    None if self.trace._shared_sinks else len(shard.trace.store)
                ),
            }
            for shard in self._shards
        ]

    # ------------------------------------------------------------------
    # Time (Simulator-compatible)
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds.

        Relaxed sync has no single global present mid-run: each shard sits
        at its own point inside the lookahead window.  The facade answers
        with *the asking context's* time — the executing shard's private
        clock when called from inside a window (e.g. a measurement callback
        fired by a component), the shared clock otherwise (drivers between
        runs, control barriers).  Under strict sync the shared clock is the
        global present and is always used.
        """
        if self._sync == "relaxed":
            shard = active_shard()
            if shard is not None:
                return shard.clock._now_s
        return self.clock._now_s

    @property
    def now_ns(self) -> int:
        """Current simulated time in nanoseconds (see :attr:`now`)."""
        if self._sync == "relaxed":
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
    # Strict sync: facade work lands on shard 0 and participates in the
    # exact global order.  Relaxed sync: facade work lands on the control
    # ring and runs at window barriers with every shard clock synchronized,
    # because a driver callback may synchronously touch components on any
    # shard — which a mid-window shard event must never do.
    # ------------------------------------------------------------------

    def _control_time(self, when_ns: int) -> int:
        """``when_ns``, checked against the shared clock for the control ring."""
        now_ns = self.clock._now_ns
        if when_ns < now_ns:
            validate_schedule_time(now_ns, when_ns)
        return when_ns

    def schedule(self, delay_seconds, callback, label: str = "") -> Event:
        """Schedule ``callback`` after ``delay_seconds`` (facade)."""
        if self._sync == "relaxed":
            return self._control.push(
                self._control_time(self.clock._now_ns + seconds_to_ns(delay_seconds)),
                callback,
                label,
            )
        return self._shards[0].schedule(delay_seconds, callback, label)

    def schedule_at(self, when_seconds, callback, label: str = "") -> Event:
        """Schedule ``callback`` at an absolute time (facade)."""
        if self._sync == "relaxed":
            return self._control.push(
                self._control_time(seconds_to_ns(when_seconds)), callback, label
            )
        return self._shards[0].schedule_at(when_seconds, callback, label)

    def schedule_at_ns(self, when_ns, callback, label: str = "") -> Event:
        """Schedule ``callback`` at ``when_ns`` (facade)."""
        if self._sync == "relaxed":
            return self._control.push(self._control_time(when_ns), callback, label)
        return self._shards[0].schedule_at_ns(when_ns, callback, label)

    def call_soon(self, callback, label: str = "") -> Event:
        """Schedule ``callback`` at the current time (facade)."""
        if self._sync == "relaxed":
            return self._control.push(self.clock._now_ns, callback, label)
        return self._shards[0].call_soon(callback, label)

    def schedule_fire_ns(self, when_ns, callback) -> None:
        """Fire-and-forget scheduling at an absolute time in ns (facade).

        Components constructed directly against the facade (e.g. a monitoring
        NIC built with ``run.sim``) resolve here.
        """
        if self._sync == "relaxed":
            self._control.push_fire(self._control_time(when_ns), callback)
            return
        self._shards[0].schedule_fire_ns(when_ns, callback)

    def schedule_fire_after(self, delay_seconds, callback) -> None:
        """Fire-and-forget scheduling ``delay_seconds`` from now (facade)."""
        if self._sync == "relaxed":
            self._control.push_fire(
                self._control_time(self.clock._now_ns + seconds_to_ns(delay_seconds)),
                callback,
            )
            return
        self._shards[0].schedule_fire_after(delay_seconds, callback)

    def _relaxed_push_fire(self, when_ns: int, callback) -> None:
        """Barrier-context push targeting the facade: the control ring.

        A facade-homed component (a monitoring NIC built against ``run.sim``)
        receiving cut-segment deliveries under relaxed sync gets its work at
        a control barrier, where every shard clock is synchronized — the
        facade has no ring of its own.
        """
        self._control.push_fire(when_ns, callback)

    # ------------------------------------------------------------------
    # Cross-shard bookkeeping
    # ------------------------------------------------------------------

    def _note_cross_push(self, shard: EngineShard, time_ns: int, sequence: int) -> None:
        """A batch on another shard scheduled into ``shard``'s ring.

        Refreshes the cached top key and shrinks the live batch limit so the
        running batch stops before overtaking the new event.
        """
        shard.cross_pushes += 1
        key = (time_ns, sequence)
        index = shard.index
        top = self._tops[index]
        if top is None or key < top:
            self._tops[index] = key
        limit = self._batch_limit
        if limit is None or key < limit:
            self._batch_limit = key

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _dispatch(self, until_ns: int, max_events: Optional[int] = None) -> int:
        """Dispatch events up to ``until_ns`` under the active sync mode.

        Strict mode runs :meth:`_run_strict`, wrapped by the engine's
        telemetry drain when telemetry is on; relaxed mode hands the run to
        the :class:`RelaxedExecutor`'s
        conservative window loop (or, with ``backend="process"``, to a
        fresh :class:`~repro.sim.procpool.ProcessExecutor`).
        """
        if self._proc_stale:
            self._proc_fetch()
            raise FabricBackendError(
                "this fabric already ran a process-backed dispatch: worker "
                "processes advanced the component state, so the parent copy "
                "is stale; call reset() (and rebuild the scenario state) "
                "before dispatching again"
            )
        if self._sync == "relaxed":
            if self._backend == "process":
                from repro.sim.procpool import ProcessExecutor

                return ProcessExecutor(self).dispatch(until_ns, max_events)
            return self._relaxed.dispatch(until_ns, max_events)
        budget = NO_BUDGET if max_events is None else max_events
        if self._telemetry is None:
            return self._run_strict(until_ns, budget)
        return drain_with_telemetry(self, self._run_strict, until_ns, budget)

    def _run_strict(self, until_ns: int, budget: int) -> int:
        """Dispatch in the exact global ``(time, sequence)`` order.

        Repeatedly lets the shard holding the globally earliest event run a
        batch below the batch limit (the smallest key any other shard holds).
        """
        shards = self._shards
        tops = self._tops
        for shard in shards:
            tops[shard.index] = shard._queue.top_key()
        dispatched = 0
        while dispatched < budget:
            # One pass finds both the globally minimal shard and the batch
            # limit (the smallest key any *other* shard holds).
            best = None
            best_key = None
            limit = None
            for index, key in enumerate(tops):
                if key is None:
                    continue
                if best_key is None or key < best_key:
                    limit = best_key
                    best_key = key
                    best = shards[index]
                elif limit is None or key < limit:
                    limit = key
            if best is None or best_key[0] > until_ns:
                break
            best_index = best.index
            self._batch_limit = limit
            self._active = best
            ran = best._run_batch(until_ns, budget - dispatched)
            self._active = None
            dispatched += ran
            fresh = best._queue.top_key()
            if ran == 0 and fresh == best_key:
                # The batch was eligible to run its top event but did not —
                # the caches can only be stale *smaller*, so this means no
                # further progress is possible.  Guard against a silent spin.
                raise SimulationError(
                    "sharded dispatch made no progress; shard "
                    f"{best_index} top={fresh!r} limit={limit!r}"
                )
            tops[best_index] = fresh
        return dispatched

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
            shard.cross_pushes = 0
            shard.outbox.clear()
            shard._own_clock.reset()
        self._control.clear()
        self._control_dispatched = 0
        self._tops = [None] * len(self._shards)
        self.clock.reset()
        self.trace.clear()
        self._auto_station_ids.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedSimulator(shards={len(self._shards)}, now={self.now:.6f}s, "
            f"pending={self.pending_events}, dispatched={self.events_dispatched})"
        )
