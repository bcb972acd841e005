"""Process-per-shard execution of the relaxed fabric: the wall-clock backend.

The in-process relaxed executor (:mod:`repro.sim.relaxed`) runs each round
of CMB lookahead windows one window after another on the calling thread.
:class:`ProcessExecutor` runs the same plan across worker *processes* — true
multi-core execution, so a round's windows run in parallel in wall time —
while keeping the canonical-merge correctness contract bit-for-bit.

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

**The parent runs** :meth:`RelaxedExecutor.dispatch
<repro.sim.relaxed.RelaxedExecutor.dispatch>`, the one window planner, and
supplies only its steps: the fork, the shard tops, the pipe round-trips of
a control barrier and of a round of planned windows, and the
end-of-dispatch sync.  A shard's top is the lower of two sources: the top
its worker reported at last contact (every contact — window, control and
mail alike — reports one), and the parent's own replica ring, cleared at
every report from its owner.  The replica ring is a conservative backstop
only: once a worker has fired cut-segment service completions the parent
merely cleared, the parent's copy of that segment's service state lags and
its ring goes quiet, so the worker's own post-apply mail reports are the
authoritative signal that mailed transmits created home-shard work.  A
cancellation can only make the lower of the two conservative, which costs
an empty window, never correctness.

**Transport.**  One duplex :func:`multiprocessing.Pipe` per worker.  A window
round is one round-trip to the *planned* workers only (the command carries
the window bound, the pump bound and the sole-leader extension cap; the
reply carries the shard's serialized outbox, its new ring top and the event
count).  A control barrier is one broadcast round-trip.  Mailbox entries are
serialized symbolically — segment name, interface indices, and the frame as
a lossless envelope (:func:`repro.core.unixnet.frame_to_envelope_bytes`).
The parent broadcasts a round's serialized outboxes, and every replica
decodes them into the senders' outboxes and applies them with
:meth:`~repro.sim.relaxed.RelaxedExecutor._flush_mail`, the one canonical
merge; each worker acknowledges with its post-apply ring top, since
applying mail is the one barrier action that creates worker-ring work
outside a reported round-trip.

**Sync and trace shipping.**  Worker ``k`` is the sole authority for
shard ``k``: window emissions and in-window component work happen only
there, and replicated barrier work emits shard-``k``-homed records in every
replica but only worker ``k``'s copy ships.  ``run()`` returns after a
lightweight sync that brings home each shard's cursor and queue counters,
the statistics and wire state of the segments homed on it (so the parent's
:class:`~repro.lan.segment.Segment` objects read as after an in-process
dispatch) and, with telemetry on, the worker's registry.  Trace shipping is
deferred: the per-shard store rows past the dispatch's base (lazy details
rendered) transfer on the first trace query — mirroring the counters' fold
on read, and keeping serialization out of the measured window as the
in-process backends keep record views out of it.

**Single measured dispatch.**  After a process dispatch the parent's
component state and rings are stale by construction (the workers' in-window
state cannot be shipped back — it is closures all the way down — beyond
the counters and segment statistics the sync carries).  The
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
from repro.sim.relaxed import RelaxedExecutor
from repro.telemetry.flight import FlightRecorder

#: How a worker that closed its pipe end failed.
_DIED = "process died (pipe EOF) while executing"

#: Set in worker processes to the shard index they own; ``None`` in the
#: parent.  Exposed for diagnostics and fault-injection tests.
_WORKER_INDEX: Optional[int] = None

#: The statistics and wire state (busy-chain end, express lane) a worker
#: syncs home for each segment homed on its shard: the parent's copy saw
#: only the replicated barrier work.
_SEGMENT_STATE = (
    "frames_carried",
    "bytes_carried",
    "cross_shard_frames",
    "frames_lost",
    "frames_corrupted",
    "frames_coalesced",
    "_busy_ns",
    "_express",
)


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
                    frame_to_envelope_bytes(frame),
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
                    "push",
                    when_ns,
                    segment.name,
                    interfaces.index(sender),
                    frame_to_envelope_bytes(frame),
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


def _decode_mail(fabric, mail) -> None:
    """Decode a round's serialized outboxes back into the senders' outboxes.

    ``mail`` holds ``(sender shard index, encoded entries)`` pairs.  Runs in
    *every* process (parent and all workers) with the identical batch, which
    :meth:`RelaxedExecutor._flush_mail` then merges and applies: pushes land
    on replica rings — live only in the ring's owner — while cut-segment
    service state advances in lockstep everywhere.
    """
    segments = fabric._segments
    shards = fabric._shards
    for sender_index, entries in mail:
        outbox = shards[sender_index].outbox
        for entry in entries:
            kind = entry[0]
            segment = segments[entry[2]]
            if kind == "drop":
                outbox.append(("drop", entry[1], segment))
                continue
            interfaces = segment._interfaces
            sender = interfaces[entry[3]]
            frame = envelope_bytes_to_frame(entry[4])
            if kind == "tx":
                outbox.append(("tx", entry[1], segment, sender, frame))
            else:  # "push": a Segment._deliver run
                target_index, run_indices = entry[5], entry[6]
                run = [interfaces[i] for i in run_indices]
                callback = partial(segment._deliver, sender, frame, run, False)
                target = fabric if target_index < 0 else shards[target_index]
                outbox.append(("push", entry[1], target, callback))


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
    # Barrier work runs through the fabric's in-process executor, exactly
    # as an in-process dispatch runs it.
    executor = fabric._relaxed
    homed = [
        segment
        for segment in fabric._segments.values()
        if getattr(segment.sim, "index", None) == index
    ]
    # Telemetry rides the fork: the worker sees the parent's enabled state
    # and accumulates into a *fresh* registry (the inherited aggregate may
    # hold pre-fork counts), sent home in the "sync" reply.
    telemetry = fabric._telemetry
    if telemetry is not None:
        from repro.telemetry.metrics import MetricsRegistry

        wreg = MetricsRegistry()
        queue_gauge = wreg.gauge("engine_queue_high_water", shard=index)
        win_hist = wreg.histogram("window_events", shard=index)
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
                _decode_mail(fabric, message[1])
                executor._flush_mail(shards)
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
                n = executor._run_barrier(message[1], None)
                heap = shard._queue._heap
                conn.send(("ok", None, heap[0][0] if heap else None, n))
            elif kind == "sync":
                segments = [
                    (segment.name, [getattr(segment, f) for f in _SEGMENT_STATE])
                    for segment in homed
                ]
                conn.send(
                    (
                        "sync",
                        shard.cursor_ns,
                        shard._dispatched,
                        shard._queue.cancelled_discarded,
                        len(shard._queue),
                        segments,
                        None if telemetry is None else wreg.snapshot(),
                    )
                )
            elif kind == "fin":
                # Lazy details render here, before pickling: the shipped
                # rows hold plain dicts, never the frames a renderer's
                # arguments reference.
                conn.send(("fin", store.rows_from(base)))
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


class ProcessExecutor(RelaxedExecutor):
    """Drives one process-backed relaxed dispatch of a ``ShardedSimulator``.

    One instance serves exactly one dispatch: the inherited planner runs
    this class's steps, which fork the workers, exchange pipe round-trips
    and sync cursors and stats eagerly at the end.  The executor then
    lingers (workers alive, pipes open) as ``fabric._proc_pending`` until
    the first trace query pulls the per-shard record suffixes over — or
    ``reset()``/``trace.clear()`` discards them.
    """

    def __init__(self, fabric) -> None:
        super().__init__(fabric)
        self._procs: list = []
        self._conns: list = []
        self._bases: List[int] = []
        self._last_window: list = []
        self._fetched = True
        # The worker's ring top at its last contact; between contacts the
        # parent's replica ring (cleared on every report) accumulates exactly
        # the barrier pushes the report does not yet reflect.
        self._reported: List[Optional[int]] = []
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
            self._worker_failed(index, _DIED, exc=exc)

    def _recv(self, index: int):
        try:
            reply = self._conns[index].recv()
        except (EOFError, OSError) as exc:
            self._worker_failed(index, _DIED, exc=exc)
        self.flight.record(
            index,
            self._send_kind[index],
            self._last_window[index],
            perf_counter() - self._send_stamp[index],
        )
        if reply[0] == "err":
            self._worker_failed(reply[1], "raised during", f":\n{reply[2]}")
        return reply

    def _worker_failed(self, index: int, what: str, detail: str = "", exc=None) -> None:
        """Tear the workers down and raise the shard's typed post-mortem."""
        window = self._last_window[index]
        tail = self.flight.tail(index)
        self._teardown(mark_stale=True)
        raise FabricBackendError(
            f"shard {index} worker {what} window [{window[0]}, {window[1]}] "
            f"ns{detail}\nrecent shard {index} spans (oldest first):\n"
            f"{FlightRecorder.format_tail(tail)}",
            shard_index=index,
            window=window,
            flight=tail,
        ) from exc

    # -- the planner's steps --------------------------------------------------

    def _enter(self, until_ns: int, max_events: Optional[int]) -> bool:
        """Step: fork one worker per shard; ``False`` when nothing is due."""
        fabric = self.fabric
        if max_events is not None:
            raise FabricBackendError(
                "the process backend does not support max_events/step(); "
                "use the in-process relaxed backend for budgeted stepping"
            )
        shards = fabric._shards
        # Empty fast path: nothing due inside the horizon — no fork, and the
        # fabric stays fresh (run_until on a drained fabric is common driver
        # glue and must not consume the single measured dispatch).
        heaps = [shard._queue._heap for shard in shards]
        heaps.append(fabric._control._heap)
        if not any(heap and heap[0][0] <= until_ns for heap in heaps):
            return False
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError as exc:
            raise FabricBackendError(
                "the process backend requires the 'fork' start method, which "
                "this platform does not provide"
            ) from exc
        n_shards = len(shards)
        self._bases = [len(shard.trace.store) for shard in shards]
        self._last_window = [(0, 0)] * n_shards
        self._reported = [None] * n_shards
        # Enter relaxed before forking so every worker inherits the private
        # per-shard clocks already swapped in.
        for shard in shards:
            shard._enter_relaxed(fabric.clock, until_ns)
        pairs = [ctx.Pipe(duplex=True) for _ in shards]
        try:
            for index in range(n_shards):
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
        # Telemetry (default off) opens after the fork, so no worker
        # inherits the parent's GC hook.
        self._open_telemetry()
        return True

    def _read_tops(self) -> None:
        """Step: each top is the lower of the worker's report and the replica ring."""
        tops = self._tops
        reported = self._reported
        for index, shard in enumerate(self.fabric._shards):
            top = reported[index]
            heap = shard._queue._heap
            if heap and (top is None or heap[0][0] < top):
                top = heap[0][0]
            tops[index] = top

    def _run_barrier(self, time_ns: int, budget: Optional[int]) -> int:
        """Step: broadcast the barrier, replicate it here, fold every worker's top."""
        window = (time_ns, time_ns)
        for index in range(len(self._conns)):
            self._send(index, ("ctrl", time_ns), window)
        n = super()._run_barrier(time_ns, None)
        shards = self.fabric._shards
        for index in range(len(self._conns)):
            self._reported[index] = self._recv(index)[2]
            shards[index]._queue.clear()
        return n

    def _run_round(
        self,
        plan: list,
        t_min: int,
        pump_bound: int,
        extend: Optional[tuple],
        budget: Optional[int],
    ) -> int:
        """Step: fan the planned windows out to their workers, then collect.

        The windows run concurrently in the workers.  All replies are folded
        (and the parent replica rings cleared) before the round's mail is
        applied, so no barrier push can slip between a report and its clear.
        The worker extends a sole leader's window against its own
        control-ring replica, in lockstep by construction.
        """
        cap = None if extend is None else extend[:2]
        for index, bound in plan:
            self._send(index, ("win", bound, pump_bound, cap), (t_min, bound))
        shards = self.fabric._shards
        tops = self._tops
        reported = self._reported
        ran = 0
        compute = 0.0
        mail = []
        for index, _bound in plan:
            reply = self._recv(index)
            tops[index] = reported[index] = reply[2]
            shards[index]._queue.clear()
            ran += reply[3]
            if reply[4] > compute:
                compute = reply[4]
            if reply[1]:
                mail.append((index, reply[1]))
        # Each reply carries its window's drain wall seconds; the slowest
        # worker's share is re-attributed from "pipe" to "compute", which
        # decomposes the round-trip exactly: the round cannot return before
        # its slowest window finishes.
        timer = self._timer
        if timer is not None:
            timer.lap("pipe")
            timer.shift("pipe", "compute", compute)
        if mail:
            self._exchange_mail(mail)
            self._read_tops()
            if timer is not None:
                timer.lap("barrier")
        return ran

    def _leave(self, done: bool) -> None:
        """Step: sync each shard's counters, homed segments and registry.

        They are cheap and must be right the moment ``run()`` returns; the
        trace rows wait for the first query.  After an error the workers
        are torn down instead.
        """
        try:
            if not done:
                self._teardown(mark_stale=True)
                return
            for index in range(len(self._conns)):
                self._send(index, ("sync",))
            segments = self.fabric._segments
            for index, shard in enumerate(self.fabric._shards):
                reply = self._recv(index)
                shard.cursor_ns = reply[1]
                shard._dispatched = reply[2]
                queue = shard._queue
                queue.cancelled_discarded = reply[3]
                # The replica ring is stale by construction; its length
                # reports the worker's.
                queue._live = reply[4]
                for name, values in reply[5]:
                    segment = segments[name]
                    for field, value in zip(_SEGMENT_STATE, values):
                        setattr(segment, field, value)
                if reply[6] is not None:
                    self._tele.registry.merge_snapshot(reply[6])
        finally:
            timer = self._timer
            if timer is not None:
                timer.lap("pipe")
                self._tele.registry.counter("proc_pipe_messages_total").inc(
                    self._pipe_messages
                )
                self._close_telemetry()
        super()._leave(done)
        self.fabric._proc_stale = True
        self.fabric._proc_pending = self

    # -- mail -----------------------------------------------------------------

    def _exchange_mail(self, mail) -> None:
        """Apply a round's mail in every replica, this parent included.

        ``mail`` holds ``(sender shard, serialized outbox)`` pairs.  Every
        worker acknowledges with its post-apply ring top: mail application
        is the one place work appears on a worker's ring outside a
        window/control round-trip, and the parent replica ring stops
        mirroring it once the worker's cut-segment service state has
        advanced past the parent's (the worker runs service-completion
        events the parent only ever clears).  Stale tops here starved the
        home shard of windows, silently stranding every subsequent mailed
        frame — and its drop/deliver records — in the segment's queue.
        """
        n_shards = len(self._conns)
        for index in range(n_shards):
            self._send(index, ("mail", mail))
        fabric = self.fabric
        _decode_mail(fabric, mail)
        self._flush_mail(fabric._shards)
        reported = self._reported
        for index in range(n_shards):
            reported[index] = self._recv(index)[2]
        if self._tele is not None:
            self._tele.registry.counter("proc_envelope_bytes_total").inc(
                sum(
                    len(entry[4])
                    for _sender, entries in mail
                    for entry in entries
                    if entry[0] != "drop"
                )
            )

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
        suffixes = [self._recv(index)[1] for index in range(len(self._conns))]
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
