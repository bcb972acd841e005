"""Events and the event queue.

An :class:`Event` is a callback scheduled at an absolute simulated time.
The :class:`EventQueue` orders events by ``(time, sequence number)`` so that
two events scheduled for the same instant fire in the order they were
scheduled — this makes the whole simulation deterministic, which the paper's
reproducible measurements depend on.

Three hot-path properties the simulator run loop relies on:

* the heap stores ``(time_ns, sequence, callback, event)`` tuples, so heap
  sifting compares machine integers instead of calling Python comparison
  methods, and the run loop calls the callback straight from the entry;
* ``event`` is ``None`` unless the caller asked for a cancellable handle:
  :meth:`EventQueue.push` builds an :class:`Event`, while
  :meth:`EventQueue.push_fire` (work that is never cancelled — wire service,
  CPU-queue completions) allocates nothing beyond the heap tuple;
* a live-event counter makes :meth:`EventQueue.__len__` and
  :meth:`EventQueue.__bool__` O(1), so they never scan the heap.

Cancelled events stay in the heap (keeping :meth:`Event.cancel` O(1)) and
are discarded either at the top by :meth:`EventQueue._compact_top` or, when
they come to dominate the heap, by a lazy full compaction; both are counted
in :attr:`EventQueue.cancelled_discarded`.  Compaction rebuilds the heap list
in place, because the simulator's run loop holds a reference to it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from repro.exceptions import SchedulingError

#: Heaps smaller than this are never fully compacted — the O(n) rebuild only
#: pays off once scanning/popping dead entries costs more than it does.
_COMPACT_MIN_HEAP = 64


def validate_schedule_time(now_ns: int, when_ns: int) -> None:
    """Raise :class:`SchedulingError` if ``when_ns`` lies in the past.

    Shared by the single-engine :class:`EventQueue` and the per-shard queues
    of the sharded fabric so both report the identical error.
    """
    if when_ns < now_ns:
        raise SchedulingError(
            f"cannot schedule an event at t={when_ns}ns, "
            f"which is before the current time t={now_ns}ns"
        )


class Event:
    """A single scheduled event.

    Attributes:
        time_ns: absolute simulated time (nanoseconds) at which to fire.
        sequence: tie-breaker preserving scheduling order at equal times.
        callback: zero-argument callable invoked when the event fires.
        label: free-form string used by traces and debugging output.
        cancelled: set by :meth:`cancel`; cancelled events are skipped.
    """

    __slots__ = ("time_ns", "sequence", "callback", "label", "cancelled", "_queue")

    def __init__(
        self,
        time_ns: int,
        sequence: int,
        callback: Callable[[], None],
        label: str = "",
        cancelled: bool = False,
        _queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time_ns = time_ns
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = cancelled
        self._queue = _queue

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped.

        Cancelling is O(1): the event stays in its queue's heap but the
        queue's live counter is decremented immediately.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return (
            f"Event(time_ns={self.time_ns}, sequence={self.sequence}, "
            f"label={self.label!r}, {state})"
        )


class EventQueue:
    """A priority queue of callbacks keyed by ``(time, sequence)``.

    Entries scheduled through :meth:`push` carry a cancellable
    :class:`Event` handle; entries scheduled through :meth:`push_fire` carry
    none.  Both kinds share one sequence counter, so they interleave in
    exact scheduling order.

    Cancelled events are not removed eagerly — :meth:`Event.cancel` stays
    O(1), which matters because the 802.1D switchlet cancels and re-arms many
    timers.  They are discarded when they reach the top of the heap, or in
    one lazy compaction pass when dead entries outnumber live ones.

    Attributes:
        cancelled_discarded: total cancelled events physically dropped from
            the heap so far (top-skips plus compactions).
    """

    def __init__(self) -> None:
        # Entries are (time_ns, sequence, callback, event_or_None): heap
        # sifting compares the two integers at C speed and never reaches the
        # callback, since sequence numbers are unique.  (The sharded fabric's
        # per-shard queues — :class:`repro.sim.shard.ShardQueue` — share one
        # counter across shards instead, keeping (time, sequence) a global
        # order.)
        self._heap: list = []
        self._counter = itertools.count()
        self._live = 0
        self._dead_in_heap = 0
        self.cancelled_discarded = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time_ns: int, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` at absolute time ``time_ns`` and return the event."""
        sequence = next(self._counter)
        event = Event(time_ns, sequence, callback, label, False, self)
        heapq.heappush(self._heap, (time_ns, sequence, callback, event))
        self._live += 1
        return event

    def push_fire(self, time_ns: int, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` with no cancellation handle; returns its sequence."""
        sequence = next(self._counter)
        heapq.heappush(self._heap, (time_ns, sequence, callback, None))
        self._live += 1
        return sequence

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` while the event is still in the heap."""
        self._live -= 1
        self._dead_in_heap += 1
        # Lazy compaction: once cancelled entries outnumber live ones on a
        # non-trivial heap, one O(n) rebuild keeps later pushes and pops from
        # wading through the corpses.
        if len(self._heap) >= _COMPACT_MIN_HEAP and self._dead_in_heap > self._live:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from live entries only, in place (deterministic:
        entries are totally ordered by (time, sequence), so heapify
        reproduces the same pop sequence)."""
        heap = self._heap
        survivors = [
            entry for entry in heap if entry[3] is None or not entry[3].cancelled
        ]
        self.cancelled_discarded += len(heap) - len(survivors)
        heap[:] = survivors
        heapq.heapify(heap)
        self._dead_in_heap = 0

    def _compact_top(self) -> None:
        """Discard cancelled events sitting at the top of the heap."""
        heap = self._heap
        while heap:
            event = heap[0][3]
            if event is None or not event.cancelled:
                return
            heapq.heappop(heap)
            self.cancelled_discarded += 1
            self._dead_in_heap -= 1

    def pop_entry(self) -> Optional[tuple]:
        """Pop the earliest live ``(time_ns, sequence, callback, event_or_None)``
        entry, or ``None`` if the queue is empty."""
        heap = self._heap
        self._compact_top()
        if not heap:
            return None
        entry = heapq.heappop(heap)
        self._live -= 1
        if entry[3] is not None:
            # A later cancel() on an already-fired event must not touch the queue.
            entry[3]._queue = None
        return entry

    def pop(self) -> Optional[Event]:
        """Pop the earliest non-cancelled event, or ``None`` if the queue is empty.

        A handle-free entry comes back as a fresh, detached :class:`Event`.
        """
        entry = self.pop_entry()
        if entry is None:
            return None
        event = entry[3]
        if event is None:
            event = Event(entry[0], entry[1], entry[2])
        return event

    def peek_time_ns(self) -> Optional[int]:
        """Return the firing time of the earliest pending event, if any."""
        heap = self._heap
        self._compact_top()
        if not heap:
            return None
        return heap[0][0]

    def clear(self) -> None:
        """Drop every pending event."""
        for entry in self._heap:
            if entry[3] is not None:
                entry[3]._queue = None
        self._heap.clear()
        self._live = 0
        self._dead_in_heap = 0

    def validate_schedule_time(self, now_ns: int, when_ns: int) -> None:
        """Raise :class:`SchedulingError` if ``when_ns`` lies in the past."""
        validate_schedule_time(now_ns, when_ns)


def describe_event(event: Event) -> dict:
    """Return a JSON-friendly description of an event (for traces and tests)."""
    return {
        "time_ns": event.time_ns,
        "sequence": event.sequence,
        "label": event.label,
        "cancelled": event.cancelled,
    }
