"""A single-server processing queue.

The paper's bridge is effectively a single thread of Caml code: frames are
handled one at a time, and a frame arriving while another is being processed
waits.  (Section 7.4 notes that the Caml threads run entirely in user mode,
"thus, no speedup occurs due to our multiprocessor".)  :class:`CpuQueue`
models exactly that: work items are served in FIFO order, one at a time, each
occupying the server for its submitted cost.

The same class models an end host's protocol processing and the C repeater's
loop, just with different costs.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.sim.engine import Simulator


class CpuQueue:
    """A FIFO, single-server queue of timed work items.

    Args:
        sim: owning simulator.
        name: used in traces (e.g. ``"bridge1.cpu"``).
    """

    # Every station carries one CpuQueue; slots keep the fleet's hottest
    # bookkeeping object free of per-instance __dict__ overhead.
    __slots__ = (
        "sim",
        "name",
        "_pending",
        "_busy",
        "_stall_until",
        "_in_service_callbacks",
        "items_processed",
        "busy_time",
        "max_queue_depth",
        "batches_merged",
    )

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._pending: Deque[Tuple[float, Callable[[], None]]] = deque()
        self._busy = False
        self._stall_until = 0.0
        # The callbacks of the batch currently in service (usually one;
        # back-to-back zero-cost items ride along).  Holding them here lets
        # service completion reuse one bound method instead of allocating a
        # closure per item.
        self._in_service_callbacks: Optional[Tuple[Callable[[], None], ...]] = None
        # Statistics
        self.items_processed = 0
        self.busy_time = 0.0
        self.max_queue_depth = 0
        self.batches_merged = 0

    @property
    def queue_depth(self) -> int:
        """Number of items waiting (not including the one in service)."""
        return len(self._pending)

    @property
    def busy(self) -> bool:
        """Whether an item is currently in service."""
        return self._busy

    def submit(self, cost_seconds: float, callback: Callable[[], None]) -> None:
        """Submit a work item that occupies the CPU for ``cost_seconds``.

        ``callback`` runs when the item *finishes* service.
        """
        if cost_seconds < 0:
            cost_seconds = 0.0
        self._pending.append((cost_seconds, callback))
        self.max_queue_depth = max(self.max_queue_depth, len(self._pending))
        if not self._busy:
            self._serve_next()

    def stall(self, duration_seconds: float) -> None:
        """Block the server for ``duration_seconds`` (models a GC pause).

        Items already queued wait; items submitted during the stall queue
        behind them.
        """
        if duration_seconds <= 0:
            return
        release = self.sim.now + duration_seconds
        self._stall_until = max(self._stall_until, release)
        trace = self.sim.trace
        if trace.wants("cpu.stall"):
            # Eager detail: the queue depth must be captured at stall time,
            # and stalls are rare (GC cadence), so laziness buys nothing.
            trace.emit(
                self.name,
                "cpu.stall",
                {"duration": duration_seconds, "queued": len(self._pending)},
            )

    def _serve_next(self) -> None:
        if not self._pending:
            self._busy = False
            return
        self._busy = True
        cost, callback = self._pending.popleft()
        self.busy_time += cost
        self.items_processed += 1
        # Back-to-back zero-cost items complete at the same timestamp as the
        # head item, so serving the whole run as ONE event preserves every
        # completion time while cutting the event count (see ROADMAP:
        # "batched CPU service").
        if self._pending and self._pending[0][0] == 0.0:
            batch = [callback]
            while self._pending and self._pending[0][0] == 0.0:
                _, extra = self._pending.popleft()
                batch.append(extra)
                self.items_processed += 1
            self.batches_merged += 1
            callbacks: Tuple[Callable[[], None], ...] = tuple(batch)
        else:
            callbacks = (callback,)
        stall = self._stall_until
        total = cost if stall <= 0.0 else cost + max(0.0, stall - self.sim.now)
        self._in_service_callbacks = callbacks
        # Completions are never cancelled: no event handle is needed.
        self.sim.schedule_fire_after(total, self._finish)

    def _finish(self) -> None:
        callbacks = self._in_service_callbacks
        self._in_service_callbacks = None
        remaining = list(callbacks)
        while remaining:
            callback = remaining.pop(0)
            callback()
            if remaining and self._stall_until > self.sim.now:
                # A stall landed after the batch was committed (a GC pause
                # mid-service, or this very callback stalling the server).
                # Unbatched, the still-queued items would wait it out —
                # preserve that: put them back at the head of the queue and
                # let the normal stall accounting delay them.
                self.items_processed -= len(remaining)
                self._pending.extendleft(
                    (0.0, rider) for rider in reversed(remaining)
                )
                break
        self._serve_next()

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of elapsed simulated time the server spent in service."""
        total = self.sim.now if elapsed is None else elapsed
        if total <= 0:
            return 0.0
        return min(1.0, self.busy_time / total)
