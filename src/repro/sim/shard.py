"""The per-shard engine of the sharded event fabric.

:class:`EngineShard` is one shard of a
:class:`~repro.sim.fabric.ShardedSimulator`.  It is the single engine's
:class:`~repro.sim.engine.EngineCore` — the same
:class:`~repro.sim.events.EventQueue`, the same six scheduling methods and
the same drain loop — plus its own progress cursor, its own trace recorder
(a :class:`~repro.sim.trace.TraceRecorder` that stamps its shard index on
every record) and the relaxed-window state, so every existing component —
segments, NICs, hosts, active nodes, CPU queues, timers — runs on a shard
unchanged.

The fabric drives its shards through relaxed lookahead windows only (see
:mod:`repro.sim.relaxed`).  For the length of a dispatch
(:meth:`EngineShard._enter_relaxed` to :meth:`EngineShard._exit_relaxed`)
each shard runs against a **private clock**, so shards can sit at different
simulated times inside one window; :meth:`EngineShard._run_window` is the
engine's drain loop against that clock.  Between dispatches every shard
reads the fabric's shared clock, which a dispatch leaves at the furthest
point any shard reached.

**The cross-shard check.**  Inside a window a shard may schedule only onto
its own queue: another shard's private clock is somewhere else in the
window, so an event pushed onto it would fire at the wrong simulated time.
Components route such interactions through the outbox instead, and a
direct push raises :class:`~repro.exceptions.SimulationError`
(:meth:`EngineShard._check_home`).  Pushes made outside any window — while
the network is built, between runs, at control barriers and mail flushes —
are always allowed.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.exceptions import SimulationError
from repro.sim import relaxed as _relaxed
from repro.sim.clock import Clock
from repro.sim.engine import NO_BUDGET, EngineCore
from repro.sim.events import EventQueue
from repro.sim.random_source import RandomSource
from repro.sim.relaxed import sole_leader_bound
from repro.sim.trace import TraceRecorder


class EngineShard(EngineCore):
    """One shard of the fabric: the engine core behind relaxed windows.

    Components constructed "on" a shard use it exactly as they would use a
    :class:`~repro.sim.engine.Simulator`; the coordinating
    :class:`~repro.sim.fabric.ShardedSimulator` drives every shard's queue
    through relaxed lookahead windows.  The scheduling methods are the
    core's, with the cross-shard check (:meth:`_check_home`).

    Attributes:
        index: the shard's position in the fabric.
        cursor_ns: the shard's own progress cursor — the firing time of the
            last event this shard dispatched.  Always ``<=`` the fabric
            clock; per-shard lag is what the conservative synchronizer
            reasons about.
    """

    def __init__(
        self,
        fabric,
        index: int,
        clock: Clock,
        random: RandomSource,
        trace: TraceRecorder,
    ) -> None:
        self.fabric = fabric
        self.index = index
        self.clock = clock
        self.random = random
        self.trace = trace
        self._queue = EventQueue()
        self._dispatched = 0
        self.cursor_ns = 0
        # Relaxed-mode state: the shard's private clock (swapped in for the
        # duration of a relaxed dispatch so shards can sit at different
        # simulated times), its cross-shard outbox (single-writer mailbox,
        # flushed at window barriers), the active run's horizon (read by the
        # segment express lane) and the mode flag components test.
        self._own_clock = Clock()
        self.outbox: list = []
        self._until_ns = 0
        self.relaxed = False

    def auto_station_id(self, base: int) -> int:
        """Allocate the next automatic station id (fabric-wide namespace).

        Delegates to the fabric so stations on different shards never collide
        and allocation order matches the single engine's build sequence.
        """
        return self.fabric.auto_station_id(base)

    def _check_home(self) -> None:
        """Refuse a push onto this shard from another shard's window.

        The scheduling methods call this when the shard whose window is
        running is not this one; outside any window a push is allowed.
        """
        active = _relaxed._ACTIVE
        if active is not None:
            raise SimulationError(
                f"shard {active.index} scheduled an event onto shard "
                f"{self.index} inside its relaxed window; a window may only "
                "schedule onto its own shard (cross-shard work goes through "
                "the outbox, which the window barrier applies)"
            )

    # ------------------------------------------------------------------
    # Relaxed execution — see repro.sim.relaxed
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
        """Barrier-context fire-and-forget push onto this shard's queue."""
        self._queue.push_fire(when_ns, callback)

    def _run_window(
        self,
        window_end_ns: int,
        budget: Optional[int] = None,
        extend: Optional[tuple] = None,
    ) -> int:
        """Run every pending event with ``time_ns <= window_end_ns``.

        Within a conservative window this shard's events cannot interact
        with any other shard except through the outbox, so the window is
        the engine's plain drain loop against the shard's private clock.  The
        drain sets that clock to each event's time, because barrier-flushed
        mailbox entries may legitimately schedule below the shard's furthest
        point; record timestamps stay exact either way and the canonical
        merge re-sorts the streams by time.

        ``extend`` — ``(other_cap, lookahead_ns, control_queue,
        pump_bound_ns)`` — lets a *sole eligible* shard grow its own window
        in place instead of bouncing through the executor's barrier loop
        once per window (see :meth:`_extend_window`).
        """
        _relaxed._ACTIVE = self
        try:
            n = self._drain(
                window_end_ns,
                NO_BUDGET if budget is None else budget,
                None if extend is None else partial(self._extend_window, *extend),
            )
        finally:
            _relaxed._ACTIVE = None
        # Within one drain event times never decrease, and callbacks leave
        # the clock where the drain set it, so it holds the last event's time.
        if n and self.clock._now_ns > self.cursor_ns:
            self.cursor_ns = self.clock._now_ns
        return n

    def _extend_window(
        self, other_cap, lookahead_ns: int, control: EventQueue, pump_bound_ns: int,
        time_ns: int,
    ) -> Optional[int]:
        """The sole leader's next window end once its drain reaches ``time_ns``.

        While this shard has produced no mail the other shards' tops are
        provably static, so the bound is re-derived exactly as the planner
        would (:func:`~repro.sim.relaxed.sole_leader_bound`).  Returns
        ``None`` (stop) the moment mail appears, the runner-up shard
        becomes reachable or control work is due: the planner takes over
        with its full rescan.
        """
        if self.outbox or (other_cap is not None and time_ns >= other_cap):
            return None
        # Raw peek: a cancelled control head only makes the time look
        # earlier, which stops the extension early — the planner's rescan
        # then handles it; never unsound.
        heap = control._heap
        if heap and heap[0][0] <= time_ns:
            return None
        bound = sole_leader_bound(time_ns, other_cap, lookahead_ns, pump_bound_ns)
        return bound if time_ns <= bound else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EngineShard(index={self.index}, pending={len(self._queue)}, "
            f"dispatched={self._dispatched}, cursor={self.cursor_ns}ns)"
        )
