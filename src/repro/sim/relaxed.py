"""Relaxed execution: how the sharded fabric runs its shards.

The single :class:`~repro.sim.engine.Simulator` runs every event in the
exact global ``(time_ns, sequence)`` order.  A
:class:`~repro.sim.fabric.ShardedSimulator` gives that total order up and
runs each shard through conservative lookahead windows instead, under a
checkable correctness contract (below) against the single engine:

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
shards, see :func:`sole_leader_bound`) — the feedback chain through any
other shard needs at least one lookahead hop to wake it and a second to
reach back.  The ``min`` with ``T + L`` is what keeps the bound
conservative across barriers: an idle shard can be woken by this window's
mail at ``T + L`` and respond one hop later, so the leader must never
outrun ``T + 2L - 1``.  Shards whose next event lies beyond their bound are
skipped outright — control-heavy topologies (e.g. ``ring/failover``)
concentrate events on one shard at a time, and skipping turns each barrier
round from ``n`` queue drains into one.  Then the executor flushes the
cross-shard *mailboxes* at the barrier.  When the shards share no cut
segment (``lookahead_ns is None``) the window is the whole run horizon and
every shard free-runs.

**One planner, five steps.**  :meth:`RelaxedExecutor.dispatch` is the only
window planner.  It asks its executor for five steps: enter the dispatch,
read the shard tops, run a control barrier, run a round of planned windows,
and leave the dispatch.  :class:`RelaxedExecutor` runs them in-process,
draining a round's windows one after another on the calling thread; the
process backend (:class:`~repro.sim.procpool.ProcessExecutor`) overrides
them with its worker processes, which run a round's windows in parallel in
wall time.  Both backends therefore run the same plan.

**Mailboxes.**  During a window a shard never touches another shard's state.
Cross-shard interactions — a station transmitting on a cut segment homed
elsewhere, and a cut segment scheduling its per-shard delivery runs — are
appended to the *sending* shard's outbox.  At the window barrier the
coordinator merges all outboxes in the canonical ``(time_ns, sender_shard,
position)`` order and applies them: transmits replay through the segment at
their recorded times, event pushes land on the target queues.  The order in
which a round's shards ran therefore cannot influence any simulation state,
and the process backend, whose replicas decode the round's serialized mail
into the same outboxes, applies it with the same merge.

**Correctness contract (canonical equivalence).**  A relaxed run does not
preserve the global emission order of trace records.  Both engines put
their records in one canonical order instead, keyed ``(time, source,
category)`` with ties in stream order (see
:meth:`~repro.sim.trace.TraceRecorder.canonical_records` and
:meth:`~repro.sim.fabric.FabricTrace.canonical_records`), and the contract
is that a relaxed run's canonical records, all live counters and every
component statistic are identical to the single engine's.  The test suite
proves this at ``shards=1,2,4`` for every catalog entry not flagged
``tie_prone`` (topologies with same-instant multi-sender wire ties).
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.clock import NANOSECONDS_PER_SECOND

#: Relaxed-window execution backends.  ``"thread"`` runs windows in-process,
#: one after another on the calling thread (see :class:`RelaxedExecutor`);
#: ``"process"`` runs one worker process per shard for wall-clock multi-core
#: speedup (see :mod:`repro.sim.procpool`).
BACKENDS = ("thread", "process")

#: The shard whose relaxed window is executing, or ``None``.  Set by
#: :meth:`EngineShard._run_window` for the duration of a window; the segment
#: layer reads it to route cross-shard interactions into the correct outbox
#: (and to recognize the window context at all — outside a relaxed window
#: the classic direct paths are safe), and the scheduling methods read it to
#: refuse a push onto another shard.  Each process-backend worker is a
#: process of its own, with its own copy.
_ACTIVE = None


def active_shard():
    """The shard whose relaxed window is executing, if any."""
    return _ACTIVE


def sole_leader_bound(
    t_min: int, t_second: Optional[int], lookahead_ns: int, pump_bound_ns: int
) -> int:
    """The sole leader's window end: ``min(t_second, t_min + L) + L - 1``.

    No other shard can act before ``min(its own top, t_min + L)`` — an idle
    shard must first be woken by the leader's mail — and its reaction needs
    one more lookahead hop to reach back.  ``t_second`` is the earliest top
    among the other shards (``None`` when they are all idle).  The bound is
    clipped to the pump bound.
    """
    other = t_min + lookahead_ns
    if t_second is not None and t_second < other:
        other = t_second
    bound = other + lookahead_ns - 1
    return pump_bound_ns if bound > pump_bound_ns else bound


class RelaxedExecutor:
    """Plans a :class:`ShardedSimulator`'s relaxed windows and runs them in-process.

    :meth:`dispatch` is the window planner; the five steps it calls
    (:meth:`_enter`, :meth:`_read_tops`, :meth:`_run_barrier`,
    :meth:`_run_round` and :meth:`_leave`) run on the calling thread here,
    and :class:`~repro.sim.procpool.ProcessExecutor` overrides them.

    Args:
        fabric: the owning :class:`~repro.sim.fabric.ShardedSimulator`.
    """

    def __init__(self, fabric) -> None:
        self.fabric = fabric
        #: Windows executed by the last dispatch (diagnostics/benchmarks).
        self.windows = 0
        #: Mailbox entries flushed by the last dispatch.
        self.mail_flushed = 0
        #: The planner's cached shard tops (``None`` for an idle shard),
        #: written by the tops and round steps.
        self._tops: List[Optional[int]] = []
        #: Telemetry state and phase timer while a telemetry-on dispatch is
        #: in flight (:meth:`_flush_mail` consults the former); ``None``
        #: otherwise.
        self._tele = None
        self._timer = None

    # ------------------------------------------------------------------
    # The planner
    # ------------------------------------------------------------------

    def dispatch(self, until_ns: int, max_events: Optional[int] = None) -> int:
        """Run every pending event with ``time_ns <= until_ns`` (relaxed).

        With ``max_events`` a round drains the leader (the shard holding
        the earliest event) first, then the other eligible shards in index
        order, until the budget is spent, so ``step()`` fires the globally
        earliest event; the sole-leader fast path is off.  Budgeted
        stepping is a debugging affordance, not the hot path.
        """
        if not self._enter(until_ns, max_events):
            return 0
        fabric = self.fabric
        shards = fabric._shards
        lookahead = fabric.lookahead_ns
        control = fabric._control
        control_heap = control._heap
        # Bound once per dispatch: an office-scale run plans tens of
        # thousands of rounds.
        read_tops = self._read_tops
        run_barrier = self._run_barrier
        run_round = self._run_round
        n_shards = len(shards)
        shard_range = range(n_shards)
        # Cached shard tops.  During a window only three queues can change:
        # the running shard's own queue (direct scheduling), the control ring
        # (facade scheduling), and the outboxes (cut-segment mail, applied at
        # the barrier flush) — so the round step refreshes the tops of the
        # shards it ran, and every top after a mail flush; a control barrier
        # refreshes them all.  A top is the raw heap top, not ``top_key``: a
        # cancelled head can only make a top look *earlier* than it really
        # is, and an earlier top merely tightens the window bounds — still
        # sound — while the granted drain physically discards the dead
        # entries, so progress is guaranteed.
        tops = self._tops = [None] * n_shards
        refresh_all = True
        # Telemetry is guarded per window *round*, never per event: with it
        # off, this dispatch performs no perf_counter calls at all.
        timer = self._timer
        if timer is not None:
            registry = self._tele.registry
            sole_counter = registry.counter("fabric_sole_leader_extensions_total")
            barrier_counter = registry.counter("fabric_control_barriers_total")
        dispatched = 0
        last_pump = until_ns
        done = False
        try:
            while True:
                if max_events is not None:
                    # A budgeted round picks its leader from live tops: a
                    # cancelled head would make a later shard look earliest.
                    for shard in shards:
                        shard._queue._compact_top()
                    refresh_all = True
                if refresh_all:
                    read_tops()
                    refresh_all = False
                # One pass over the cached tops yields everything the window
                # bounds need: the global minimum ``t_min``, the runner-up
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
                # no-op barrier, which discards the dead entries — one wasted
                # round, never a wrong one.
                control_t = control_heap[0][0] if control_heap else None
                budget = None
                if max_events is not None:
                    budget = max_events - dispatched
                    if budget <= 0:
                        break
                if control_t is not None and control_t <= until_ns and (
                    t_min is None or control_t <= t_min
                ):
                    # No shard event strictly before the next control event:
                    # run the control barrier.
                    if timer is not None:
                        timer.lap("plan")
                    dispatched += run_barrier(control_t, budget)
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
                extend = None
                plan = []
                if lookahead is None:
                    # Whole-horizon round: the shards share no cut segment,
                    # so every shard with work drains to the pump bound —
                    # also one whose cached top lies past it, whose drain
                    # then discards its cancelled heads.
                    lead_bound = base_bound = pump_bound
                else:
                    base_bound = t_min + lookahead - 1
                    if base_bound > pump_bound:
                        base_bound = pump_bound
                    # Two shards sharing the earliest top outrun nobody.
                    lead_bound = base_bound if tied else sole_leader_bound(
                        t_min, t_second, lookahead, pump_bound
                    )
                    if not tied and budget is None and (
                        t_second is None or t_second > base_bound
                    ):
                        # Fast path: the leader is the sole eligible shard —
                        # every other top (the earliest is ``t_second``) lies
                        # beyond the classic window (control-heavy topologies
                        # live here).  While the leader generates no mail the
                        # other shards' tops are provably static, so its
                        # drain extends its own window in place (see
                        # :meth:`EngineShard._extend_window`) — no rescan and
                        # no flush per window.
                        extend = (t_second, lookahead, control, pump_bound)
                        plan.append((leader_index, lead_bound))
                        if timer is not None:
                            sole_counter.inc()
                if extend is None:
                    # The round: every eligible shard in index order (a
                    # budgeted round takes the leader first).
                    order = shard_range
                    if budget is not None and leader_index > 0:
                        order = [leader_index, *range(leader_index)]
                        order.extend(range(leader_index + 1, n_shards))
                    for index in order:
                        top = tops[index]
                        if top is None:
                            continue
                        bound = lead_bound if index == leader_index else base_bound
                        # Nothing inside this shard's bound: skip the drain
                        # (and its clock churn) entirely.
                        if lookahead is None or top <= bound:
                            plan.append((index, bound))
                if timer is not None:
                    timer.lap("plan")
                dispatched += run_round(plan, t_min, pump_bound, extend, budget)
            done = True
        finally:
            self._leave(done)
        return dispatched

    # ------------------------------------------------------------------
    # The in-process steps
    # ------------------------------------------------------------------

    def _enter(self, until_ns: int, max_events: Optional[int]) -> bool:
        """Step: swap every shard's private clock in for the dispatch.

        Returns whether the dispatch runs; in-process it always does.
        """
        fabric = self.fabric
        for shard in fabric._shards:
            shard._enter_relaxed(fabric.clock, until_ns)
        self.windows = 0
        self.mail_flushed = 0
        self._open_telemetry()
        return True

    def _read_tops(self) -> None:
        """Step: read every shard's raw heap top into the planner's cache."""
        tops = self._tops
        for index, shard in enumerate(self.fabric._shards):
            heap = shard._queue._heap
            tops[index] = heap[0][0] if heap else None

    def _run_barrier(self, time_ns: int, budget: Optional[int]) -> int:
        """Step: run every control-ring event at ``time_ns`` (a global barrier).

        All shard clocks (and the shared clock) are synchronized to the
        control time first, because a driver callback may synchronously
        touch components on any shard: it sees a globally consistent
        present, exactly the view the single engine would give it.
        Barrier callbacks use the direct (non-outbox) paths, so mail is
        rare here; the flush is skipped when every box is empty.
        """
        fabric = self.fabric
        control = fabric._control
        shards = fabric._shards
        seconds = time_ns / NANOSECONDS_PER_SECOND
        for shard in shards:
            clock = shard.clock
            clock._now_ns = time_ns
            clock._now_s = seconds
            if time_ns > shard.cursor_ns:
                shard.cursor_ns = time_ns
        shared = fabric.clock
        shared._now_ns = time_ns
        shared._now_s = seconds
        n = 0
        while budget is None or n < budget:
            key = control.top_key()
            if key is None or key[0] != time_ns:
                break
            control.pop_entry()[2]()
            n += 1
        fabric._control_dispatched += n
        for shard in shards:
            if shard.outbox:
                self._flush_mail(shards)
                break
        return n

    def _run_round(
        self,
        plan: list,
        t_min: int,
        pump_bound: int,
        extend: Optional[tuple],
        budget: Optional[int],
    ) -> int:
        """Step: drain each planned ``(shard index, bound)`` window in turn.

        ``t_min`` is the round's earliest top (the process backend records
        it in its post-mortem windows), ``extend`` the sole leader's window
        extension (see :meth:`EngineShard._run_window`), ``budget`` the
        events a budgeted round may still run.  Refreshes the drained
        shards' tops, then flushes any mail the round produced.  With
        telemetry on, each window is observed as a process-backend worker
        observes it: its events into ``window_events{shard}`` and the
        shard's queue length after it into ``engine_queue_high_water{shard}``.
        """
        shards = self.fabric._shards
        tops = self._tops
        timer = self._timer
        ran = 0
        mailed = False
        for index, bound in plan:
            shard = shards[index]
            if budget is None:
                n = shard._run_window(bound, None, extend)
            elif ran < budget:
                n = shard._run_window(bound, budget - ran)
            else:
                break
            ran += n
            if timer is not None:
                registry = self._tele.registry
                registry.histogram("window_events", shard=index).observe(n)
                registry.gauge("engine_queue_high_water", shard=index).set_max(
                    len(shard._queue)
                )
            heap = shard._queue._heap
            tops[index] = heap[0][0] if heap else None
            if shard.outbox:
                mailed = True
        if timer is not None:
            timer.lap("compute")
        # A mail-free round skips the flush and the full rescan it forces:
        # only the drained shards' queues changed.
        if mailed:
            self._flush_mail(shards)
            self._read_tops()
            if timer is not None:
                timer.lap("barrier")
        return ran

    def _leave(self, done: bool) -> None:
        """Step: hand every shard the shared clock, left at the furthest cursor.

        ``done`` is false when the dispatch ended in an error.
        """
        shared_clock = self.fabric.clock
        top_ns = shared_clock._now_ns
        for shard in self.fabric._shards:
            if shard.cursor_ns > top_ns:
                top_ns = shard.cursor_ns
            shard._exit_relaxed(shared_clock)
        if top_ns > shared_clock._now_ns:
            shared_clock._now_ns = top_ns
            shared_clock._now_s = top_ns / NANOSECONDS_PER_SECOND
        if self._timer is not None:
            self._close_telemetry()

    # ------------------------------------------------------------------
    # Telemetry (a telemetry-on dispatch only)
    # ------------------------------------------------------------------

    def _open_telemetry(self) -> None:
        """Open the dispatch's wall span when telemetry is on."""
        telemetry = self.fabric._telemetry
        if telemetry is None:
            return
        from repro.telemetry.spans import GcWatch, PhaseTimer

        self._tele = telemetry
        self._timer = PhaseTimer()
        self._gc_watch = GcWatch(telemetry.profiler)

    def _close_telemetry(self) -> None:
        """Close the wall span and count the dispatch's windows and mail."""
        telemetry = self._tele
        timer = self._timer
        self._tele = self._timer = None
        self._gc_watch.close()
        timer.finish(telemetry.profiler)
        registry = telemetry.registry
        registry.counter("fabric_windows_total").inc(self.windows)
        registry.counter("fabric_mail_entries_total").inc(self.mail_flushed)

    # ------------------------------------------------------------------
    # Barrier: canonical mailbox flush
    # ------------------------------------------------------------------

    def _flush_mail(self, shards) -> None:
        """Apply every outbox entry in ``(time, sender shard, position)`` order.

        Entry shapes (appended by the segment layer during windows, or
        decoded from a process-backend worker's serialized outbox):

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

        The sort key makes the merge independent of the order in which the
        round's shards ran; every process-backend replica applies the same
        merged batch.
        """
        entries = []
        for shard in shards:
            outbox = shard.outbox
            if outbox:
                index = shard.index
                entries.extend(
                    (entry[1], index, position, entry)
                    for position, entry in enumerate(outbox)
                )
                outbox.clear()
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

    def _count_mail(self, raw_entries) -> None:
        """Count the frames and bytes of flushed ``tx`` entries per segment.

        Only ``tx`` entries carry an identifiable frame; ``push`` entries
        (pre-bound delivery runs) and ``drop`` markers count toward
        ``fabric_mail_entries_total`` alone, which :meth:`_close_telemetry`
        folds from :attr:`mail_flushed`.
        """
        registry = self._tele.registry
        for entry in raw_entries:
            if entry[0] == "tx":
                segment = entry[2]
                registry.counter(
                    "fabric_mail_frames_total", segment=segment.name
                ).inc()
                registry.counter(
                    "fabric_mail_bytes_total", segment=segment.name
                ).inc(entry[4].wire_length)
