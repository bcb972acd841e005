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
shards) — the feedback chain through any other shard needs at least one
lookahead hop to wake it and a second to reach back.  The ``min`` with
``T + L`` is what keeps the bound conservative across barriers: an idle
shard can be woken by this window's mail at ``T + L`` and respond one hop
later, so the leader must never outrun ``T + 2L - 1``.  Shards whose next
event lies beyond their bound are skipped outright — control-heavy
topologies (e.g. ``ring/failover``) concentrate events on one shard at a
time, and skipping turns each barrier round from ``n`` queue drains into one.
The eligible shards drain their queues one after another on the calling
thread; then the executor flushes the cross-shard *mailboxes* at the
barrier.  When the shards share no cut segment (``lookahead_ns is None``)
the window is the whole run horizon and every shard free-runs.  Windows
that run in parallel, in wall time, are the process backend's job
(:mod:`repro.sim.procpool`).

**Mailboxes.**  During a window a shard never touches another shard's state.
Cross-shard interactions — a station transmitting on a cut segment homed
elsewhere, and a cut segment scheduling its per-shard delivery runs — are
appended to the *sending* shard's outbox.  At the window barrier the
coordinator merges all outboxes in the canonical ``(time_ns, sender_shard,
position)`` order and applies them: transmits replay through the segment at
their recorded times, event pushes land on the target queues.  The order in
which a round's shards ran therefore cannot influence any simulation state,
and the process backend, whose workers run a round's windows at once, gets
the same results from the same merge.

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

from typing import Optional

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


class RelaxedExecutor:
    """Drives a :class:`ShardedSimulator`'s shards through relaxed windows.

    Args:
        fabric: the owning :class:`~repro.sim.fabric.ShardedSimulator`.
    """

    def __init__(self, fabric) -> None:
        self.fabric = fabric
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

        With ``max_events`` a round drains the leader (the shard holding
        the earliest event) first, then the other eligible shards in index
        order, until the budget is spent, so ``step()`` fires the globally
        earliest event; the sole-leader fast path is off.  Budgeted
        stepping is a debugging affordance, not the hot path.
        """
        fabric = self.fabric
        shards = fabric._shards
        lookahead = fabric.lookahead_ns
        shared_clock = fabric.clock
        for shard in shards:
            shard._enter_relaxed(shared_clock, until_ns)
        self.windows = 0
        self.mail_flushed = 0
        control = fabric._control
        control_heap = control._heap
        dispatched = 0
        last_pump = None
        # Cached shard tops.  During a window only three queues can change:
        # the running shard's own queue (direct scheduling), the control ring
        # (facade scheduling), and the outboxes (cut-segment mail, applied at
        # the barrier flush) — so after a flush-free round only the drained
        # shards' cached tops need refreshing; everything else is refreshed
        # wholesale after a mail flush or control barrier.  The peek reads
        # the raw heap top instead of ``top_key``: a cancelled head can only
        # make a top look *earlier* than it really is, and an earlier top
        # merely tightens the window bounds — still sound — while the granted
        # drain physically discards the dead entries, so progress is
        # guaranteed.
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
                if max_events is not None:
                    # A budgeted round picks its leader from live tops: a
                    # cancelled head would make a later shard look earliest.
                    for shard in shards:
                        shard._queue._compact_top()
                    refresh_all = True
                if refresh_all:
                    for index in shard_range:
                        heap = shards[index]._queue._heap
                        tops[index] = heap[0][0] if heap else None
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
                # no-op barrier whose ``_run_control`` discards the dead
                # entries — one wasted round, never a wrong one.
                control_t = control_heap[0][0] if control_heap else None
                if max_events is not None and dispatched >= max_events:
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
                    dispatched += self._run_control(
                        control_t,
                        None if max_events is None else max_events - dispatched,
                    )
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
                if lookahead is None:
                    # Whole-horizon round: the shards share no cut segment,
                    # so every shard with work drains to the pump bound —
                    # also one whose cached top lies past it, whose drain
                    # then discards its cancelled heads.  ``pump_bound``
                    # stands in for each such shard's top.
                    lead_bound = base_bound = pump_bound
                    scan = [
                        pump_bound if shard._queue._heap else None
                        for shard in shards
                    ]
                else:
                    scan = tops
                    base_bound = t_min + lookahead - 1
                    if base_bound > pump_bound:
                        base_bound = pump_bound
                    if tied:
                        # Two shards share the earliest top: nobody outruns
                        # the classic global window.
                        lead_bound = base_bound
                    else:
                        # The sole leader's feedback-protected bound: no
                        # other shard can act before ``min(its own top,
                        # t_min + L)`` — an idle shard must first be woken
                        # by the leader's mail — and its reaction needs one
                        # more lookahead hop to reach back.
                        other = t_min + lookahead
                        if t_second is not None and t_second < other:
                            other = t_second
                        lead_bound = other + lookahead - 1
                        if lead_bound > pump_bound:
                            lead_bound = pump_bound
                        if max_events is None and (
                            t_second is None or t_second > base_bound
                        ):
                            # Fast path: the leader is the sole eligible
                            # shard — every other top (the earliest is
                            # ``t_second``) lies beyond the classic window
                            # (control-heavy topologies live here).  While
                            # the leader generates no mail the other shards'
                            # tops are provably static, so the drain extends
                            # its own window in place (see ``extend`` in
                            # :meth:`EngineShard._run_window`) — no rescan
                            # and no flush per window.
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
                                heap = leader._queue._heap
                                tops[leader_index] = heap[0][0] if heap else None
                            continue
                # The round: drain each eligible shard in index order (a
                # budgeted round takes the leader first) and refresh its
                # cached top in the same breath.
                if timer is not None:
                    timer.lap("plan")
                    round_base = dispatched
                order = shard_range
                if max_events is not None and leader_index > 0:
                    order = [leader_index, *range(leader_index)]
                    order.extend(range(leader_index + 1, n_shards))
                for index in order:
                    top = scan[index]
                    if top is None:
                        continue
                    bound = lead_bound if index == leader_index else base_bound
                    if top > bound:
                        # Nothing inside this shard's bound; skip the drain
                        # (and its clock churn) entirely.
                        continue
                    shard = shards[index]
                    if max_events is None:
                        dispatched += shard._run_window(bound)
                    else:
                        remaining = max_events - dispatched
                        if remaining <= 0:
                            break
                        dispatched += shard._run_window(bound, remaining)
                    heap = shard._queue._heap
                    tops[index] = heap[0][0] if heap else None
                if timer is not None:
                    wall = timer.lap("compute")
                    win_hist.observe(dispatched - round_base)
                    telemetry.flight.record(
                        leader_index, "win", (t_min, lead_bound), wall
                    )
                # A mail-free round skips the flush and the full rescan it
                # forces: only the drained shards' queues changed.
                for shard in shards:
                    if shard.outbox:
                        self._flush_mail(shards)
                        refresh_all = True
                        break
                if timer is not None:
                    timer.lap("barrier")
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
        single engine would give it.
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
        while budget is None or n < budget:
            key = control.top_key()
            if key is None or key[0] != time_ns:
                break
            control.pop_entry()[2]()
            n += 1
        fabric._control_dispatched += n
        return n

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

        The sort key makes the merge independent of the order in which the
        round's shards ran; every process-backend replica applies the same
        merged batch.
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

