"""Process-per-shard execution of the relaxed fabric: the wall-clock backend.

The in-process relaxed executor (:mod:`repro.sim.relaxed`) runs each round
of CMB lookahead windows one window after another on the calling thread.
This module runs the same window plan across worker *processes* — true
multi-core execution, so windows run in parallel in wall time — while
keeping the canonical-merge correctness contract bit-for-bit.

**Execution model (fork-at-dispatch SPMD replicas).**  At the relaxed
dispatch the parent forks one worker per shard (``fork`` start method: each
worker inherits the complete fabric object graph copy-on-write, so no
component state is ever pickled).  Worker ``k`` executes *only* shard
``k``'s :meth:`~repro.sim.shard.EngineShard._run_window` drains.  All
barrier work — control-ring execution and canonical mailbox application —
is **replicated identically in every process** (parent included): each
replica runs the same callbacks in the same order, so cut-segment service
state, fault-model RNG draws and control outcomes stay in lockstep, and a
ring push made by replicated work is simply live in the ring's owner
process and inert everywhere else.

**Transport.**  One duplex :func:`multiprocessing.Pipe` per worker.  Window
rounds are one round-trip to the *planned* workers only (the command carries
the window bound, the pump bound and the sole-leader extension cap; the
reply carries the shard's serialized outbox, its new ring top and the event
count).  Control rounds are one broadcast round-trip.  Mailbox entries are
serialized symbolically — segment name, interface indices, and the frame as
a lossless envelope (:func:`repro.core.unixnet.frame_to_envelope_bytes`) —
merged by the parent in the canonical ``(time, sender shard, position)``
order, then re-broadcast so every replica applies the identical batch; each
worker acknowledges with its post-apply ring top, since applying mail is the
one barrier action that creates worker-ring work outside a reported
round-trip.

**Parent-side planning.**  The parent runs the same per-shard-bound window
plan as :class:`~repro.sim.relaxed.RelaxedExecutor.dispatch`.  Its shard
tops come from two sources merged per round: the top each worker reported
at last contact (every contact — window, control and mail alike — reports
one), and the parent's own replica ring, cleared at every report from its
owner.  The replica ring is a conservative backstop only: once a worker
has fired cut-segment service completions the parent merely cleared, the
parent's copy of that segment's service state lags and its ring goes quiet,
so the worker's own post-apply mail reports are the authoritative signal
that mailed transmits created home-shard work.  ``min`` of the two is the
worker's true top (a cancellation can only make it conservative, which
costs an empty window, never correctness).

**Trace shipping.**  Worker ``k`` is the sole authority for recorder ``k``'s
stream: window emissions happen only there, and replicated barrier work
emits shard-``k``-homed records in every replica but only worker ``k``'s
copy ships.  Shipping is deferred: ``run()`` returns after a lightweight
cursor/stats sync, and the per-shard store rows past the dispatch's base
(lazy details rendered) transfer on the first trace query — mirroring the
counters' fold on read, and keeping serialization out of the measured
window as the in-process backends keep record views out of it.

**Single measured dispatch.**  After a process dispatch the parent's
component state and rings are stale by construction (the workers' in-window
state cannot be shipped back — it is closures all the way down).  The
fabric is therefore marked *stale*: any further dispatch raises
:class:`~repro.exceptions.FabricBackendError` until ``reset()``.  Drivers
run warm-up and setup phases on the in-process relaxed engine (canonically
identical by the relaxed contract) and spend the process backend on exactly
one measured ``run()``/``run_until()`` — see ``ScenarioRun.warm_up``.

**Failure surfacing.**  A worker crash or pipe EOF mid-window raises a
typed :class:`FabricBackendError` carrying the failing shard id and the
window bounds it was granted — never a hang at the barrier: the dead
process closes its pipe end, which turns the parent's blocking ``recv``
into ``EOFError`` immediately.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from functools import partial
from time import perf_counter
from typing import List, Optional

from repro.core.unixnet import envelope_bytes_to_frame, frame_to_envelope_bytes
from repro.exceptions import FabricBackendError
from repro.sim.clock import NANOSECONDS_PER_SECOND
from repro.telemetry.flight import FlightRecorder

#: Set in worker processes to the shard index they own; ``None`` in the
#: parent.  Exposed for diagnostics and fault-injection tests.
_WORKER_INDEX: Optional[int] = None


def worker_index() -> Optional[int]:
    """The shard index of the worker process running this interpreter, if any."""
    return _WORKER_INDEX


# ---------------------------------------------------------------------------
# Mailbox serialization
#
# Outbox entries have exactly three shapes (see RelaxedExecutor._flush_mail);
# every "push" callback the segment layer produces is a
# functools.partial(Segment._deliver, sender, frame, run, False), which
# serializes symbolically: the segment by registered name, NICs by their
# index in the segment's interface list (robust against delivery-run list
# refreshes between capture and application), the frame as an envelope.
# ---------------------------------------------------------------------------


def _encode_outbox(shard) -> list:
    """Serialize and clear one shard's outbox (runs in the worker)."""
    encoded = []
    for entry in shard.outbox:
        kind = entry[0]
        if kind == "tx":
            _, when_ns, segment, sender, frame = entry
            encoded.append(
                (
                    "tx",
                    when_ns,
                    segment.name,
                    segment._interfaces.index(sender),
                    frame_to_envelope_bytes(frame, when_ns=when_ns),
                )
            )
        elif kind == "drop":
            encoded.append(("drop", entry[1], entry[2].name))
        elif kind == "push":
            _, when_ns, target, callback = entry
            func = getattr(callback, "func", None)
            segment = getattr(func, "__self__", None)
            if (
                getattr(func, "__name__", "") != "_deliver"
                or segment is None
                or len(callback.args) != 4
            ):
                raise FabricBackendError(
                    f"process backend cannot serialize outbox push {callback!r} "
                    "(expected a Segment._deliver run partial)",
                    shard_index=shard.index,
                )
            sender, frame, run, _record = callback.args
            interfaces = segment._interfaces
            encoded.append(
                (
                    "run",
                    when_ns,
                    segment.name,
                    interfaces.index(sender),
                    frame_to_envelope_bytes(frame, when_ns=when_ns),
                    getattr(target, "index", -1),
                    tuple(interfaces.index(nic) for nic in run),
                )
            )
        else:  # pragma: no cover - new outbox kinds must be added here
            raise FabricBackendError(
                f"unknown outbox entry kind {kind!r}", shard_index=shard.index
            )
    shard.outbox.clear()
    return encoded


def _apply_mail(fabric, blob) -> None:
    """Apply a canonically ordered serialized mail batch to this replica.

    Runs in *every* process (parent and all workers) with the identical
    batch: pushes land on replica rings — live only in the ring's owner —
    while cut-segment service state advances in lockstep everywhere.
    """
    segments = fabric._segments
    shards = fabric._shards
    for entry in blob:
        kind = entry[0]
        if kind == "tx":
            _, when_ns, name, sender_index, envelope = entry
            segment = segments[name]
            frame, _meta = envelope_bytes_to_frame(envelope)
            segment._apply_relaxed_transmit(
                when_ns, segment._interfaces[sender_index], frame
            )
        elif kind == "drop":
            segments[entry[2]].frames_lost += 1
        else:  # "run"
            _, when_ns, name, sender_index, envelope, target_index, run_indices = entry
            segment = segments[name]
            interfaces = segment._interfaces
            frame, _meta = envelope_bytes_to_frame(envelope)
            run = [interfaces[i] for i in run_indices]
            callback = partial(
                segment._deliver, interfaces[sender_index], frame, run, False
            )
            target = fabric if target_index < 0 else shards[target_index]
            target._relaxed_push_fire(when_ns, callback)


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _worker_main(fabric, index, pairs) -> None:
    """The shard worker loop: obey window/control/mail commands until ``fin``."""
    global _WORKER_INDEX
    _WORKER_INDEX = index
    for k, (parent_end, child_end) in enumerate(pairs):
        parent_end.close()
        if k != index:
            child_end.close()
    conn = pairs[index][1]
    shards = fabric._shards
    shard = shards[index]
    store = shard.trace.store
    base = len(store)
    control = fabric._control
    executor = fabric._relaxed
    # Telemetry rides the fork: the worker sees the parent's enabled state
    # and accumulates into a *fresh* registry (the inherited aggregate may
    # hold pre-fork counts), shipped home with the trace suffixes at "fin".
    telemetry = fabric._telemetry
    if telemetry is not None:
        from time import perf_counter

        from repro.telemetry.metrics import MetricsRegistry

        wreg = MetricsRegistry()
        events_counter = wreg.counter("engine_events_dispatched", shard=index)
        queue_gauge = wreg.gauge("engine_queue_high_water", shard=index)
        win_hist = wreg.histogram("window_events", shard=index)
        compute_total = 0.0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            # Parent died or tore the pipe down: exit quietly.
            os._exit(0)
        try:
            kind = message[0]
            if kind == "win":
                _, bound, pump_bound, cap = message
                for other in shards:
                    other._until_ns = pump_bound
                extend = None if cap is None else (cap[0], cap[1], control, pump_bound)
                # A cancel can compact the heap, which zeroes the dead count,
                # so the discard total is compared too.
                control_state = (
                    control._live, control._dead_in_heap, control.cancelled_discarded
                )
                comp_s = 0.0
                if telemetry is not None:
                    win_start = perf_counter()
                n = shard._run_window(bound, None, extend)
                if telemetry is not None:
                    comp_s = perf_counter() - win_start
                    compute_total += comp_s
                    events_counter.inc(n)
                    win_hist.observe(n)
                    queue_gauge.set_max(len(shard._queue))
                if (
                    control._live, control._dead_in_heap, control.cancelled_discarded
                ) != control_state:
                    raise FabricBackendError(
                        "facade scheduling (or facade-event cancellation) from "
                        "window context is not supported under the process "
                        "backend: the control-ring replicas would diverge",
                        shard_index=index,
                        window=(bound, bound),
                    )
                mail = _encode_outbox(shard) if shard.outbox else None
                heap = shard._queue._heap
                # The trailing element is this round's window-drain wall
                # seconds (0.0 with telemetry off) — the parent subtracts
                # the slowest worker's share from the round-trip to split
                # pipe wait from window compute.
                conn.send(("ok", mail, heap[0][0] if heap else None, n, comp_s))
            elif kind == "mail":
                _apply_mail(fabric, message[1])
                # Reply with the post-apply ring top: applying mail can
                # create home-shard work (a mailed cut-segment transmit
                # serves inline, pushing delivery events onto this shard's
                # ring).  The parent replica applies the same mail and
                # mirrors those pushes, but this report is the worker's
                # authoritative top — without it the planner once starved
                # shards of windows when replica service state drifted,
                # stranding every later mailed frame in the pending queue
                # (service continuations now ride the control ring, which
                # keeps the replicas in lockstep; the report stays as the
                # planner's ground truth).
                heap = shard._queue._heap
                conn.send(("ok", None, heap[0][0] if heap else None, 0))
            elif kind == "ctrl":
                n = executor._run_control(message[1], None)
                for other in shards:
                    if other.outbox:
                        executor._flush_mail(shards)
                        break
                heap = shard._queue._heap
                conn.send(("ok", None, heap[0][0] if heap else None, n))
            elif kind == "sync":
                conn.send(
                    (
                        "sync",
                        shard.cursor_ns,
                        shard._dispatched,
                        shard._queue.cancelled_discarded,
                    )
                )
            elif kind == "fin":
                # Lazy details render here, before pickling: the shipped
                # rows hold plain dicts, never the frames a renderer's
                # arguments reference.
                suffix = store.rows_from(base)
                blob = None
                if telemetry is not None:
                    from repro.telemetry.report import snapshot_segment

                    # Ship this shard's registry plus the statistics of the
                    # segments homed here: after a process dispatch the
                    # parent's own Segment copies only saw replicated
                    # barrier work, so the worker's are authoritative (cut
                    # segments advance in lockstep; the home copy counts).
                    blob = {
                        "compute_s": compute_total,
                        "metrics": wreg.snapshot(),
                        "segments": {
                            name: snapshot_segment(segment)
                            for name, segment in fabric._segments.items()
                            if getattr(segment.sim, "index", None) == index
                        },
                    }
                conn.send(("fin", suffix, blob))
                conn.close()
                os._exit(0)
            else:  # pragma: no cover - protocol extension guard
                raise FabricBackendError(f"unknown worker command {kind!r}")
        except BaseException:
            try:
                conn.send(("err", index, traceback.format_exc()))
            except Exception:
                pass
            os._exit(1)


# ---------------------------------------------------------------------------
# Parent-side executor
# ---------------------------------------------------------------------------


class ProcessExecutor:
    """Drives one process-backed relaxed dispatch of a ``ShardedSimulator``.

    One instance serves exactly one dispatch: it forks the workers, runs the
    window-planning loop, syncs cursors and stats eagerly at the end, and
    then lingers (workers alive, pipes open) as ``fabric._proc_pending``
    until the first trace query pulls the per-shard record suffixes over —
    or ``reset()``/``trace.clear()`` discards them.
    """

    def __init__(self, fabric) -> None:
        self.fabric = fabric
        #: Window rounds executed (mirrors RelaxedExecutor.windows).
        self.windows = 0
        #: Canonical mailbox entries applied (counted once, at the parent).
        self.mail_flushed = 0
        self._procs: list = []
        self._conns: list = []
        self._bases: List[int] = []
        self._last_window: list = []
        self._fetched = True
        #: Always-on crash-context recorder: the last few pipe round-trip
        #: spans per shard, dumped into FabricBackendError post-mortems.
        #: Cost per round-trip is two wall-clock reads and a deque append —
        #: noise next to the pipe syscalls it brackets.
        n_shards = len(fabric._shards)
        self.flight = FlightRecorder(n_shards)
        self._send_stamp = [0.0] * n_shards
        self._send_kind = [""] * n_shards
        self._pipe_messages = 0

    # -- transport ----------------------------------------------------------

    def _send(self, index: int, message, window=None) -> None:
        if window is not None:
            self._last_window[index] = window
        self._send_kind[index] = message[0]
        self._send_stamp[index] = perf_counter()
        self._pipe_messages += 1
        try:
            self._conns[index].send(message)
        except (BrokenPipeError, EOFError, OSError) as exc:
            self._worker_failed(index, exc)

    def _recv(self, index: int):
        try:
            reply = self._conns[index].recv()
        except (EOFError, OSError) as exc:
            self._worker_failed(index, exc)
        self.flight.record(
            index,
            self._send_kind[index],
            self._last_window[index],
            perf_counter() - self._send_stamp[index],
        )
        if reply[0] == "err":
            failed, remote = reply[1], reply[2]
            window = self._last_window[failed]
            tail = self.flight.tail(failed)
            self._teardown(mark_stale=True)
            raise FabricBackendError(
                f"shard {failed} worker raised during window "
                f"[{window[0]}, {window[1]}] ns:\n{remote}\n"
                f"recent shard {failed} spans (oldest first):\n"
                f"{FlightRecorder.format_tail(tail)}",
                shard_index=failed,
                window=window,
                flight=tail,
            )
        return reply

    def _worker_failed(self, index: int, exc) -> None:
        window = self._last_window[index]
        tail = self.flight.tail(index)
        self._teardown(mark_stale=True)
        raise FabricBackendError(
            f"shard {index} worker process died (pipe EOF) while executing "
            f"window [{window[0]}, {window[1]}] ns\n"
            f"recent shard {index} spans (oldest first):\n"
            f"{FlightRecorder.format_tail(tail)}",
            shard_index=index,
            window=window,
            flight=tail,
        ) from exc

    # -- dispatch -----------------------------------------------------------

    def dispatch(self, until_ns: int, max_events: Optional[int] = None) -> int:
        """Run every pending event with ``time_ns <= until_ns`` across workers."""
        fabric = self.fabric
        if max_events is not None:
            raise FabricBackendError(
                "the process backend does not support max_events/step(); "
                "use the in-process relaxed backend for budgeted stepping"
            )
        shards = fabric._shards
        control = fabric._control
        control_heap = control._heap
        # Empty fast path: nothing due inside the horizon — no fork, and the
        # fabric stays fresh (run_until on a drained fabric is common driver
        # glue and must not consume the single measured dispatch).
        due = bool(control_heap) and control_heap[0][0] <= until_ns
        if not due:
            for shard in shards:
                heap = shard._queue._heap
                if heap and heap[0][0] <= until_ns:
                    due = True
                    break
        if not due:
            return 0
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError as exc:
            raise FabricBackendError(
                "the process backend requires the 'fork' start method, which "
                "this platform does not provide"
            ) from exc
        lookahead = fabric.lookahead_ns
        shared_clock = fabric.clock
        n_shards = len(shards)
        shard_range = range(n_shards)
        self._bases = [len(shard.trace.store) for shard in shards]
        self._last_window = [(0, 0)] * n_shards
        # Enter relaxed before forking so every worker inherits the private
        # per-shard clocks already swapped in.
        for shard in shards:
            shard._enter_relaxed(shared_clock, until_ns)
        pairs = [ctx.Pipe(duplex=True) for _ in shard_range]
        try:
            for index in shard_range:
                proc = ctx.Process(
                    target=_worker_main, args=(fabric, index, pairs), daemon=True
                )
                proc.start()
                self._procs.append(proc)
        except BaseException:
            self._teardown(mark_stale=True)
            raise
        for _parent_end, child_end in pairs:
            child_end.close()
        self._conns = [parent_end for parent_end, _child_end in pairs]
        self._fetched = False
        self.windows = 0
        self.mail_flushed = 0
        dispatched = 0
        # The worker's ring top at its last contact; between contacts the
        # parent's replica ring (cleared on every report) accumulates exactly
        # the barrier pushes the report does not yet reflect.
        reported: List[Optional[int]] = [None] * n_shards
        effective: List[Optional[int]] = [None] * n_shards
        # Telemetry (default off) is guarded once per planner round.  The
        # worker half of each "ok" reply carries that round's window-drain
        # wall seconds; the slowest worker's share is re-attributed from
        # "pipe" to "compute", which decomposes each round-trip exactly:
        # the round cannot return before its slowest window finishes.
        telemetry = fabric._telemetry
        timer = None
        gc_watch = None
        if telemetry is not None:
            from repro.telemetry.spans import GcWatch, PhaseTimer

            registry = telemetry.registry
            timer = PhaseTimer()
            gc_watch = GcWatch(telemetry.profiler)
            planner_counter = registry.counter("proc_planner_rounds_total")
        try:
            while True:
                if timer is not None:
                    planner_counter.inc()
                t_min = None
                t_second = None
                leader_index = -1
                tied = False
                for index in shard_range:
                    top = reported[index]
                    heap = shards[index]._queue._heap
                    if heap and (top is None or heap[0][0] < top):
                        top = heap[0][0]
                    effective[index] = top
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
                control_t = control_heap[0][0] if control_heap else None
                if control_t is not None and control_t <= until_ns and (
                    t_min is None or control_t <= t_min
                ):
                    # Control barrier, replicated: broadcast, run locally,
                    # then fold every worker's post-barrier top.
                    if timer is not None:
                        timer.lap("plan")
                    window = (control_t, control_t)
                    for index in shard_range:
                        self._send(index, ("ctrl", control_t), window)
                    dispatched += fabric._relaxed._run_control(control_t, None)
                    for shard in shards:
                        if shard.outbox:
                            fabric._relaxed._flush_mail(shards)
                            break
                    for index in shard_range:
                        reply = self._recv(index)
                        reported[index] = reply[2]
                        shards[index]._queue.clear()
                    if timer is not None:
                        timer.lap("barrier")
                    continue
                if t_min is None or t_min > until_ns:
                    break
                pump_bound = until_ns
                if control_t is not None and control_t - 1 < pump_bound:
                    pump_bound = control_t - 1
                self.windows += 1
                round_mail = []
                if lookahead is not None:
                    base_bound = t_min + lookahead - 1
                    if base_bound > pump_bound:
                        base_bound = pump_bound
                    if not tied and (t_second is None or t_second > base_bound):
                        # Sole-leader fast path: one round-trip; the worker
                        # extends its own window in place against its local
                        # control-ring replica (in lockstep by construction).
                        other = t_min + lookahead
                        if t_second is not None and t_second < other:
                            other = t_second
                        lead_bound = other + lookahead - 1
                        if lead_bound > pump_bound:
                            lead_bound = pump_bound
                        if timer is not None:
                            timer.lap("plan")
                        self._send(
                            leader_index,
                            ("win", lead_bound, pump_bound, (t_second, lookahead)),
                            (t_min, lead_bound),
                        )
                        reply = self._recv(leader_index)
                        reported[leader_index] = reply[2]
                        shards[leader_index]._queue.clear()
                        dispatched += reply[3]
                        if timer is not None:
                            timer.lap("pipe")
                            timer.shift("pipe", "compute", reply[4])
                            registry.counter(
                                "fabric_sole_leader_extensions_total"
                            ).inc()
                        if reply[1]:
                            round_mail.append((leader_index, reply[1]))
                            self._broadcast_mail(round_mail, reported)
                            if timer is not None:
                                timer.lap("barrier")
                        continue
                    if tied:
                        lead_bound = base_bound
                    else:
                        other = t_min + lookahead
                        if t_second is not None and t_second < other:
                            other = t_second
                        lead_bound = other + lookahead - 1
                        if lead_bound > pump_bound:
                            lead_bound = pump_bound
                    plan = []
                    for index in shard_range:
                        top = effective[index]
                        if top is None:
                            continue
                        bound = lead_bound if index == leader_index else base_bound
                        if top > bound:
                            continue
                        plan.append((index, bound))
                else:
                    plan = [
                        (index, pump_bound)
                        for index in shard_range
                        if effective[index] is not None
                    ]
                # Fan out, then collect: the windows run concurrently in the
                # workers.  All replies are folded (and the parent replica
                # rings cleared) before the round's mail is applied, so no
                # barrier push can slip between a report and its clear.
                if timer is not None:
                    timer.lap("plan")
                    round_compute = 0.0
                for index, bound in plan:
                    self._send(index, ("win", bound, pump_bound, None), (t_min, bound))
                for index, _bound in plan:
                    reply = self._recv(index)
                    reported[index] = reply[2]
                    shards[index]._queue.clear()
                    dispatched += reply[3]
                    if timer is not None and reply[4] > round_compute:
                        round_compute = reply[4]
                    if reply[1]:
                        round_mail.append((index, reply[1]))
                if timer is not None:
                    timer.lap("pipe")
                    timer.shift("pipe", "compute", round_compute)
                if round_mail:
                    self._broadcast_mail(round_mail, reported)
                    if timer is not None:
                        timer.lap("barrier")
        except FabricBackendError:
            raise
        except BaseException:
            self._teardown(mark_stale=True)
            raise
        finally:
            if gc_watch is not None:
                gc_watch.close()
        # Eager end-of-dispatch sync: cursors, dispatch counts and queue
        # stats are cheap and must be right the moment run() returns.
        top_ns = shared_clock._now_ns
        for index in shard_range:
            self._send(index, ("sync",))
        for index in shard_range:
            reply = self._recv(index)
            shard = shards[index]
            shard.cursor_ns = reply[1]
            shard._dispatched = reply[2]
            shard._queue.cancelled_discarded = reply[3]
            if reply[1] > top_ns:
                top_ns = reply[1]
        for shard in shards:
            shard._exit_relaxed(shared_clock)
        if top_ns > shared_clock._now_ns:
            shared_clock._now_ns = top_ns
            shared_clock._now_s = top_ns / NANOSECONDS_PER_SECOND
        fabric._relaxed.windows = self.windows
        fabric._relaxed.mail_flushed = self.mail_flushed
        if timer is not None:
            timer.lap("pipe")
            timer.finish(telemetry.profiler)
            telemetry.profiler.windows += self.windows
            registry.counter("fabric_windows_total").inc(self.windows)
            registry.counter("proc_pipe_messages_total").inc(self._pipe_messages)
        fabric._proc_stale = True
        fabric._proc_pending = self
        return dispatched

    def _broadcast_mail(self, round_mail, reported) -> None:
        """Merge the round's outboxes canonically, apply locally, broadcast.

        Collects every worker's post-apply ring top into ``reported``:
        mail application is the one place work appears on a worker's ring
        outside a window/control round-trip, and the parent replica ring
        stops mirroring it once the worker's cut-segment service state has
        advanced past the parent's (the worker runs service-completion
        events the parent only ever clears).  Stale tops here starved the
        home shard of windows, silently stranding every subsequent mailed
        frame — and its drop/deliver records — in the segment's queue.
        """
        merged = []
        for sender_index, entries in round_mail:
            merged.extend(
                (entry[1], sender_index, position, entry)
                for position, entry in enumerate(entries)
            )
        merged.sort(key=lambda item: item[:3])
        blob = [item[3] for item in merged]
        _apply_mail(self.fabric, blob)
        for index in range(len(self._conns)):
            self._send(index, ("mail", blob))
        for index in range(len(self._conns)):
            reported[index] = self._recv(index)[2]
        self.mail_flushed += len(blob)
        telemetry = self.fabric._telemetry
        if telemetry is not None:
            registry = telemetry.registry
            envelope_bytes = 0
            for entry in blob:
                if entry[0] == "tx":
                    registry.counter(
                        "fabric_mail_frames_total", segment=entry[2]
                    ).inc()
                    envelope_bytes += len(entry[4])
                elif entry[0] == "run":
                    envelope_bytes += len(entry[4])
            registry.counter("fabric_mail_entries_total").inc(len(blob))
            registry.counter("proc_envelope_bytes_total").inc(envelope_bytes)

    # -- deferred trace shipping -------------------------------------------

    def fetch_traces(self) -> None:
        """Pull each worker's record suffix over and splice it in.

        Replica-garbage emissions the parent accumulated while replicating
        barrier work are truncated first; the shared counters are rebuilt
        lazily from scratch (clear + re-fold) so the spliced streams are the
        single source of truth.
        """
        if self._fetched:
            return
        fabric = self.fabric
        for index in range(len(self._conns)):
            self._send(index, ("fin",))
        suffixes = []
        telemetry = fabric._telemetry
        for index in range(len(self._conns)):
            reply = self._recv(index)
            suffixes.append(reply[1])
            if telemetry is not None:
                telemetry.absorb_worker(index, reply[2])
        for shard, base, suffix in zip(fabric._shards, self._bases, suffixes):
            store = shard.trace.store
            store.truncate(base)
            store.extend(suffix, shard.index)
        self._teardown(mark_stale=False, truncate=False)

    def discard(self) -> None:
        """Drop the pending worker results without fetching (reset/clear)."""
        if self._fetched:
            return
        self._teardown(mark_stale=False)

    def _teardown(self, mark_stale: bool, truncate: bool = True) -> None:
        """Reap workers, close pipes, strip parent replica garbage."""
        fabric = self.fabric
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._procs = []
        self._conns = []
        shared_clock = fabric.clock
        for shard, base in zip(fabric._shards, self._bases):
            if shard.relaxed:
                shard._exit_relaxed(shared_clock)
            if truncate:
                shard.trace.store.truncate(base)
        fabric.trace.recount()
        if mark_stale:
            fabric._proc_stale = True
        if fabric._proc_pending is self:
            fabric._proc_pending = None
        self._fetched = True

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            for proc in self._procs:
                if proc.is_alive():
                    proc.terminate()
        except Exception:
            pass
