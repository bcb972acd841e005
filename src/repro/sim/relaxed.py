"""Relaxed execution of the sharded fabric: canonical-merge mode.

The strict :class:`~repro.sim.fabric.ShardedSimulator` dispatches in the
exact global ``(time_ns, sequence)`` order, which makes sharded runs
bit-identical to the single engine — at the price of a coordinator pass and a
batch-limit comparison on every event.  *Relaxed* mode trades that total
order for throughput while keeping a provable correctness contract:

**Execution model (conservative windows, per-shard bounds).**  Let ``T`` be
the globally earliest pending event time and ``L`` the fabric lookahead (the
minimum cross-shard handoff latency — minimum-frame wire service plus
propagation delay over cut segments, computed by the partitioner).
Every event in the window ``[T, T + L)`` can be dispatched without
inter-shard coordination: a cross-shard effect of an event at time ``t``
materializes no earlier than ``t + L`` — the classic Chandy–Misra–Bryant
clock-plus-lookahead bound.  The executor sharpens that global window into a
*per-shard* bound.  For every shard the earliest time anything can reach it
is ``min`` over the other shards of their earliest possible activity plus
``L``; for a shard that is not the sole earliest this collapses to the
classic ``T + L - 1``, while the sole earliest shard may run to
``min(T2, T + L) + L - 1`` (``T2`` the earliest top among the *other*
shards) — the feedback chain through any other shard needs at least one
lookahead hop to wake it and a second to reach back.  The ``min`` with
``T + L`` is what keeps the bound conservative across barriers: an idle
shard can be woken by this window's mail at ``T + L`` and respond one hop
later, so the leader must never outrun ``T + 2L - 1``.  Shards whose next
event lies beyond their bound are skipped outright — control-heavy
topologies (e.g. ``ring/failover``) concentrate events on one shard at a
time, and skipping turns each barrier round from ``n`` ring drains into one.
After the eligible shards drain their rings (sequentially, or on one worker
thread per shard) the executor flushes the cross-shard *mailboxes* at the
barrier.  When the shards share no cut segment (``lookahead_ns is None``)
the window is the whole run horizon and every shard free-runs.

**Mailboxes.**  During a window a shard never touches another shard's state.
Cross-shard interactions — a station transmitting on a cut segment homed
elsewhere, and a cut segment scheduling its per-shard delivery runs — are
appended to the *sending* shard's outbox (single-writer, so no locks).  At
the window barrier the coordinator merges all outboxes in the canonical
``(time_ns, sender_shard, position)`` order and applies them: transmits
replay through the segment at their recorded times, event pushes land on the
target rings.  Thread interleaving therefore cannot influence any simulation
state: relaxed runs are deterministic with and without worker threads.

**Correctness contract (canonical-merge equivalence).**  Relaxed mode does
not preserve the global emission order of trace records.  Instead, per-shard
trace streams are merged by the canonical key ``(time, shard_id, source,
shard_seq)`` — see :meth:`~repro.sim.fabric.FabricTrace.canonical_records`
for why same-instant ties of independent sources fall back to the source
name — and the contract is that the canonically merged records, all live
counters and every component statistic are identical to the strict
engine's.  The test suite proves this catalog-wide at ``shards=1,2,4``.

**Worker threads.**  ``workers > 0`` dispatches each window's shards on a
persistent thread pool.  On a free-threaded CPython build this parallelizes
the windows across cores; on a GIL build threads only add synchronization
overhead, so the benchmarked pick (see ``bench_sharded_fabric.py``) is the
sequential executor, whose win comes from the lean per-shard window loop and
the segment express lanes (:meth:`~repro.lan.segment.Segment._express_pump`).
Either way the mailbox discipline keeps results identical.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.exceptions import SimulationError
from repro.sim.clock import NANOSECONDS_PER_SECOND

#: The fabric's synchronization modes — the single source of truth consumed
#: by :class:`~repro.sim.fabric.ShardedSimulator` and the scenario layer's
#: :class:`~repro.scenario.spec.PartitionSpec`.
SYNC_MODES = ("strict", "relaxed")

#: Relaxed-window execution backends.  ``"thread"`` runs windows in-process
#: (sequentially or on a worker-thread pool — see :class:`RelaxedExecutor`);
#: ``"process"`` runs one worker process per shard for wall-clock multi-core
#: speedup (see :mod:`repro.sim.procpool`).  Ignored under strict sync.
BACKENDS = ("thread", "process")

#: Thread-local "which shard is executing on this thread" marker.  Set by
#: :meth:`EngineShard._run_window` for the duration of a relaxed window; the
#: segment layer reads it to route cross-shard interactions into the correct
#: outbox (and to recognize the window context at all — outside a relaxed
#: window the classic direct paths are single-threaded and safe).
_ACTIVE = threading.local()


def active_shard():
    """The shard whose relaxed window is executing on this thread, if any."""
    return getattr(_ACTIVE, "shard", None)


class RelaxedExecutor:
    """Drives a :class:`ShardedSimulator`'s shards through relaxed windows.

    Args:
        fabric: the owning :class:`~repro.sim.fabric.ShardedSimulator`.
        workers: worker threads for window execution; ``0`` (the default)
            runs every window inline on the calling thread.
    """

    def __init__(self, fabric, workers: int = 0) -> None:
        if workers < 0:
            raise SimulationError("relaxed workers cannot be negative")
        self.fabric = fabric
        self.workers = workers
        self._pool: Optional[ThreadPoolExecutor] = None
        #: Windows executed by the last dispatch (diagnostics/benchmarks).
        self.windows = 0
        #: Mailbox entries flushed by the last dispatch.
        self.mail_flushed = 0
        #: Telemetry state while a telemetry-on dispatch is in flight
        #: (consulted by :meth:`_flush_mail`); ``None`` otherwise.
        self._tele = None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def dispatch(self, until_ns: int, max_events: Optional[int] = None) -> int:
        """Run every pending event with ``time_ns <= until_ns`` (relaxed).

        With ``max_events`` the executor degrades to sequential windows so
        the budget is consumed in canonical shard order; budgeted stepping is
        a debugging affordance, not the hot path.
        """
        fabric = self.fabric
        shards = fabric._shards
        lookahead = fabric.lookahead_ns
        shared_clock = fabric.clock
        self._ensure_pool()
        for shard in shards:
            shard._enter_relaxed(shared_clock, until_ns)
        self.windows = 0
        self.mail_flushed = 0
        control = fabric._control
        control_times = control._times
        dispatched = 0
        last_pump = None
        # Cached shard tops.  During a window only three queues can change:
        # the running shard's own ring (direct scheduling), the control ring
        # (facade scheduling), and the outboxes (cut-segment mail, applied at
        # the barrier flush) — so after a flush-free fast-path round only the
        # leader's cached top needs refreshing; everything else is refreshed
        # wholesale after a mail flush or control barrier.  The peek reads
        # the raw bucket heap instead of ``top_key``: a head made entirely of
        # cancelled events can only make a top look *earlier* than it really
        # is, and an earlier top merely tightens the window bounds — still
        # sound — while the granted drain physically discards the dead
        # entries, so progress is guaranteed.
        n_shards = len(shards)
        shard_range = range(n_shards)
        tops = [None] * n_shards
        refresh_all = True
        # Telemetry is guarded per window *round*, never per event: with it
        # off, this dispatch performs no perf_counter calls at all; with it
        # on, each round pays a handful of checks plus one queue-depth scan.
        telemetry = fabric._telemetry
        timer = None
        if telemetry is not None:
            from repro.telemetry.spans import GcWatch, PhaseTimer

            registry = telemetry.registry
            timer = PhaseTimer()
            gc_watch = GcWatch(telemetry.profiler)
            win_hist = registry.histogram("window_events")
            sole_counter = registry.counter("fabric_sole_leader_extensions_total")
            barrier_counter = registry.counter("fabric_control_barriers_total")
            queue_high = 0
            self._tele = telemetry
        try:
            while True:
                if refresh_all:
                    for index in shard_range:
                        st = shards[index]._queue._times
                        tops[index] = st[0] if st else None
                    refresh_all = False
                # One pass over the cached tops yields everything the window
                # plan needs: the global minimum ``t_min``, the runner-up
                # ``t_second`` among the *other* shards, whether the minimum
                # is tied, and which shard leads.
                t_min = None
                t_second = None
                leader_index = -1
                tied = False
                for index in shard_range:
                    top = tops[index]
                    if top is None:
                        continue
                    if t_min is None or top < t_min:
                        t_second = t_min
                        t_min = top
                        leader_index = index
                        tied = False
                    elif top == t_min:
                        tied = True
                        t_second = top
                    elif t_second is None or top < t_second:
                        t_second = top
                # Raw control peek: a stale (all-cancelled) head triggers a
                # no-op barrier whose ``_run_control`` discards the dead
                # entries — one wasted round, never a wrong one.
                control_t = control_times[0] if control_times else None
                budget = None if max_events is None else max_events - dispatched
                if budget is not None and budget <= 0:
                    break
                if timer is not None:
                    pending = 0
                    for shard in shards:
                        pending += len(shard._queue)
                    if pending > queue_high:
                        queue_high = pending
                if control_t is not None and control_t <= until_ns and (
                    t_min is None or control_t <= t_min
                ):
                    # No shard event strictly before the next control event:
                    # run the control barrier.  Every shard clock is set to
                    # the control time first, because driver callbacks may
                    # synchronously touch components on any shard.
                    if timer is not None:
                        timer.lap("plan")
                    dispatched += self._run_control(control_t, budget)
                    # Barrier callbacks use the direct (non-outbox) paths, so
                    # mail is rare here; skip the flush when every box is
                    # empty.  The full top refresh stays: control callbacks
                    # schedule straight onto their components' home rings.
                    for shard in shards:
                        if shard.outbox:
                            self._flush_mail(shards)
                            break
                    if timer is not None:
                        barrier_counter.inc()
                        timer.lap("barrier")
                    refresh_all = True
                    continue
                if t_min is None or t_min > until_ns:
                    break
                # Express pumps may legally run past the window end (their
                # chains are segment-local) but never past the run horizon
                # or a pending control event, whose callback may observe or
                # mutate anything.
                pump_bound = until_ns
                if control_t is not None and control_t - 1 < pump_bound:
                    pump_bound = control_t - 1
                if pump_bound != last_pump:
                    last_pump = pump_bound
                    for shard in shards:
                        shard._until_ns = pump_bound
                self.windows += 1
                if lookahead is not None:
                    base_bound = t_min + lookahead - 1
                    if base_bound > pump_bound:
                        base_bound = pump_bound
                    if (
                        budget is None
                        and not tied
                        and (t_second is None or t_second > base_bound)
                    ):
                        # Fast path: the leader is the sole eligible shard —
                        # every other top (the earliest is ``t_second``) lies
                        # beyond the classic window (control-heavy topologies
                        # live here).  While the leader generates no mail the
                        # other shards' tops are provably static, so the
                        # drain extends its own window in place (see
                        # ``extend`` in :meth:`EngineShard._run_window`) —
                        # no rescan, no plan, no flush per window.  The
                        # leader's first bound adds the feedback protection:
                        # no other shard can act before ``min(its own top,
                        # t_min + L)`` — an idle shard must first be woken by
                        # the leader's mail — and its reaction needs one more
                        # lookahead hop to reach back.
                        other = t_min + lookahead
                        if t_second is not None and t_second < other:
                            other = t_second
                        lead_bound = other + lookahead - 1
                        if lead_bound > pump_bound:
                            lead_bound = pump_bound
                        leader = shards[leader_index]
                        if timer is not None:
                            timer.lap("plan")
                            round_base = dispatched
                        dispatched += leader._run_window(
                            lead_bound,
                            None,
                            (t_second, lookahead, control, pump_bound),
                        )
                        if timer is not None:
                            wall = timer.lap("compute")
                            sole_counter.inc()
                            win_hist.observe(dispatched - round_base)
                            telemetry.flight.record(
                                leader_index, "win", (t_min, lead_bound), wall
                            )
                        if leader.outbox:
                            self._flush_mail(shards)
                            refresh_all = True
                            if timer is not None:
                                timer.lap("barrier")
                        else:
                            st = leader._queue._times
                            tops[leader_index] = st[0] if st else None
                        continue
                    if tied:
                        # Two shards share the earliest top: nobody outruns
                        # the classic global window.
                        lead_bound = base_bound
                    else:
                        # Sole leader with a reachable runner-up: same
                        # feedback-protected bound as the fast path.
                        other = t_min + lookahead
                        if t_second is not None and t_second < other:
                            other = t_second
                        lead_bound = other + lookahead - 1
                        if lead_bound > pump_bound:
                            lead_bound = pump_bound
                    if self._pool is None and budget is None:
                        # Sequential slow path, inlined: run each eligible
                        # shard as the scan finds it and refresh its cached
                        # top in the same breath — no plan list at all.
                        if timer is not None:
                            timer.lap("plan")
                            round_base = dispatched
                        for index in shard_range:
                            top = tops[index]
                            if top is None:
                                continue
                            bound = (
                                lead_bound
                                if index == leader_index
                                else base_bound
                            )
                            if top > bound:
                                # Nothing inside this shard's bound; skip the
                                # ring drain (and its clock churn) entirely.
                                continue
                            shard = shards[index]
                            dispatched += shard._run_window(bound)
                            st = shard._queue._times
                            tops[index] = st[0] if st else None
                        if timer is not None:
                            wall = timer.lap("compute")
                            win_hist.observe(dispatched - round_base)
                            telemetry.flight.record(
                                leader_index, "win", (t_min, lead_bound), wall
                            )
                        for shard in shards:
                            if shard.outbox:
                                self._flush_mail(shards)
                                refresh_all = True
                                break
                        if timer is not None:
                            timer.lap("barrier")
                        continue
                    plan = []
                    for index in shard_range:
                        top = tops[index]
                        if top is None:
                            continue
                        bound = lead_bound if index == leader_index else base_bound
                        if top > bound:
                            continue
                        plan.append((shards[index], bound))
                else:
                    plan = [
                        (shard, pump_bound)
                        for shard in shards
                        if shard._queue._times
                    ]
                if timer is not None:
                    timer.lap("plan")
                    round_base = dispatched
                if self._pool is not None and budget is None:
                    dispatched += self._run_window_threaded(plan)
                else:
                    for shard, bound in plan:
                        remaining = (
                            None if budget is None else budget - dispatched
                        )
                        if remaining is not None and remaining <= 0:
                            break
                        dispatched += shard._run_window(bound, remaining)
                if timer is not None:
                    wall = timer.lap("compute")
                    win_hist.observe(dispatched - round_base)
                    telemetry.flight.record(
                        max(leader_index, 0), "win", (t_min, pump_bound), wall
                    )
                # Only the planned shards' rings changed unless they mailed:
                # refresh just those tops and skip the flush (and the full
                # rescan it forces) on mail-free rounds.
                mailed = False
                for shard in shards:
                    if shard.outbox:
                        mailed = True
                        break
                if mailed:
                    self._flush_mail(shards)
                    refresh_all = True
                else:
                    for shard, _ in plan:
                        st = shard._queue._times
                        tops[shard.index] = st[0] if st else None
                if timer is not None:
                    timer.lap("barrier")
                if max_events is not None and dispatched >= max_events:
                    break
        finally:
            top_ns = shared_clock._now_ns
            for shard in shards:
                if shard.cursor_ns > top_ns:
                    top_ns = shard.cursor_ns
                shard._exit_relaxed(shared_clock)
            if top_ns > shared_clock._now_ns:
                shared_clock._now_ns = top_ns
                shared_clock._now_s = top_ns / NANOSECONDS_PER_SECOND
            if timer is not None:
                self._tele = None
                gc_watch.close()
                timer.finish(telemetry.profiler)
                telemetry.profiler.windows += self.windows
                registry.counter("fabric_windows_total").inc(self.windows)
                registry.counter("engine_events_dispatched").inc(dispatched)
                registry.gauge("engine_queue_high_water").set_max(queue_high)
        return dispatched

    def _run_control(self, time_ns: int, budget: Optional[int]) -> int:
        """Run every control-ring event at ``time_ns`` (a global barrier).

        All shard clocks (and the shared clock) are synchronized to the
        control time so a driver callback sees a globally consistent present
        no matter which shard's components it drives — exactly the view the
        strict engine would give it.
        """
        fabric = self.fabric
        control = fabric._control
        seconds = time_ns / NANOSECONDS_PER_SECOND
        for shard in fabric._shards:
            clock = shard.clock
            clock._now_ns = time_ns
            clock._now_s = seconds
            if time_ns > shard.cursor_ns:
                shard.cursor_ns = time_ns
        shared = fabric.clock
        shared._now_ns = time_ns
        shared._now_s = seconds
        n = 0
        while True:
            if budget is not None and n >= budget:
                break
            key = control.top_key()
            if key is None or key[0] != time_ns:
                break
            entry = control.pop()
            entry[1]()
            n += 1
        fabric._control_dispatched += n
        return n

    def _run_window_threaded(self, plan) -> int:
        pool = self._pool
        futures = [pool.submit(shard._run_window, bound) for shard, bound in plan]
        return sum(future.result() for future in futures)

    # ------------------------------------------------------------------
    # Barrier: canonical mailbox flush
    # ------------------------------------------------------------------

    def _flush_mail(self, shards) -> int:
        """Apply every outbox entry in ``(time, sender shard, position)`` order.

        Entry shapes (appended by the segment layer during windows):

        * ``("push", when_ns, target_shard, callback)`` — schedule a
          fire-and-forget event on another shard's ring (cut-segment
          delivery runs);
        * ``("tx", when_ns, segment, sender_nic, frame)`` — a transmit on a
          cut segment, replayed through
          :meth:`Segment._apply_relaxed_transmit` at its recorded time;
        * ``("drop", when_ns, segment)`` — one sender-side frame loss on a
          failed cut segment (``frames_lost`` bookkeeping deferred to the
          barrier; the drop record was already emitted on the sender's
          stream at send time).

        The sort key makes the merge independent of thread scheduling, which
        is what keeps threaded relaxed runs deterministic.
        """
        entries = None
        single = None
        single_index = -1
        for shard in shards:
            outbox = shard.outbox
            if not outbox:
                continue
            if entries is None and single is None and len(outbox) == 1:
                # The overwhelmingly common flush carries exactly one entry
                # (one frame crossed one cut): no decoration, no sort.
                single = outbox[0]
                single_index = shard.index
                outbox.clear()
                continue
            if entries is None:
                entries = []
                if single is not None:
                    # A second box turned up; fall back to the sorted merge.
                    entries.append((single[1], single_index, 0, single))
                    single = None
            index = shard.index
            entries.extend(
                (entry[1], index, position, entry)
                for position, entry in enumerate(outbox)
            )
            outbox.clear()
        if single is not None:
            kind = single[0]
            when_ns = single[1]
            if kind == "push":
                single[2]._relaxed_push_fire(when_ns, single[3])
            elif kind == "drop":
                single[2].frames_lost += 1
            else:
                single[2]._apply_relaxed_transmit(when_ns, single[3], single[4])
            self.mail_flushed += 1
            if self._tele is not None:
                self._count_mail((single,))
            return 1
        if not entries:
            return 0
        # No sort key: ``(when, shard index, position)`` is unique, so the
        # trailing entry payload is never compared.
        entries.sort()
        for when_ns, _, _, entry in entries:
            kind = entry[0]
            if kind == "push":
                # The target may be an EngineShard ring or the fabric facade
                # itself (a facade-homed monitoring NIC on a cut segment);
                # _relaxed_push_fire resolves to the right ring.
                entry[2]._relaxed_push_fire(when_ns, entry[3])
            elif kind == "drop":
                entry[2].frames_lost += 1
            else:
                entry[2]._apply_relaxed_transmit(when_ns, entry[3], entry[4])
        self.mail_flushed += len(entries)
        if self._tele is not None:
            self._count_mail(item[3] for item in entries)
        return len(entries)

    def _count_mail(self, raw_entries) -> None:
        """Fold flushed mailbox entries into the telemetry registry.

        Only ``tx`` entries carry an identifiable frame; ``push`` entries
        (pre-bound delivery runs) and ``drop`` markers count toward the
        entry total alone.
        """
        registry = self._tele.registry
        n = 0
        for entry in raw_entries:
            n += 1
            if entry[0] == "tx":
                segment = entry[2]
                registry.counter(
                    "fabric_mail_frames_total", segment=segment.name
                ).inc()
                registry.counter(
                    "fabric_mail_bytes_total", segment=segment.name
                ).inc(entry[4].wire_length)
        registry.counter("fabric_mail_entries_total").inc(n)

    # ------------------------------------------------------------------
    # Worker pool lifecycle
    # ------------------------------------------------------------------

    def set_workers(self, workers: int) -> None:
        """Resize the worker pool (``0`` returns to sequential windows)."""
        if workers < 0:
            raise SimulationError("relaxed workers cannot be negative")
        if workers == self.workers and (workers == 0) == (self._pool is None):
            return
        self.close()
        self.workers = workers

    def _ensure_pool(self) -> None:
        if self.workers > 0 and self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="relaxed-shard"
            )

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass
