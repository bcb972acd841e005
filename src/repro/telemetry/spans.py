"""Out-of-band wall-clock spans: phase timers and span profiles.

Everything in this module measures *wall* time and lives strictly outside
the simulated world: no simulated timestamp, event, or RNG ever observes a
span.  The determinism contract is structural — the executors consult
``perf_counter`` only on code paths guarded by a telemetry check, so the
overhead smoke test can patch :data:`perf_counter` here to raise and prove
the default-off path never calls it.

Phases are attributed *contiguously*: :class:`PhaseTimer` laps from one
transition to the next with no unattributed gaps, which is what lets the
wall-report assert that per-phase seconds sum to the total dispatch wall
time within 5%.

Garbage collection is measured beside the phases, not as one of them: a
:class:`GcWatch` hook counts the cyclic collector's runs per generation and
their wall seconds while a dispatch is in flight.  A collection fires inside
whatever phase happened to be allocating, so its seconds are already part of
that phase and of the total.
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Dict, List, Optional

#: The phase names the executors attribute dispatch wall time to.
#: ``compute`` — shard window drains (worker-side for the process backend);
#: ``barrier`` — waiting on mail flushes and control-ring barriers;
#: ``pipe``    — process-backend round-trip time net of worker compute;
#: ``plan``    — parent-side window planning (top scans, bound folding).
PHASES = ("compute", "barrier", "pipe", "plan")


class SpanProfiler:
    """Accumulates wall seconds per phase across a whole dispatch.

    One profiler lives on the fabric's :class:`~repro.telemetry.Telemetry`
    state and survives across dispatch calls; ``total`` is recorded
    independently of the phases so a breakdown consumer can check that the
    attribution actually covers the wall it claims to.
    """

    def __init__(self) -> None:
        self.phase_seconds: Dict[str, float] = {}
        self.total_seconds = 0.0
        self.windows = 0
        #: Wall seconds spent in cyclic garbage collections during dispatch.
        self.gc_seconds = 0.0
        #: Collections during dispatch, indexed by generation (0, 1, 2).
        self.gc_collections: List[int] = [0, 0, 0]

    def add(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    def add_total(self, seconds: float) -> None:
        self.total_seconds += seconds

    def breakdown(self) -> dict:
        """Plain-data phase breakdown for reports and the wall sweep.

        ``gc_s`` and ``gc_collections`` sit beside the phases: collector
        time is already inside whichever phase it interrupted, so it is
        not part of ``attributed_s``.
        """
        out = {f"{phase}_s": self.phase_seconds.get(phase, 0.0) for phase in PHASES}
        out["total_s"] = self.total_seconds
        out["windows"] = self.windows
        attributed = sum(self.phase_seconds.get(phase, 0.0) for phase in PHASES)
        out["attributed_s"] = attributed
        out["gc_s"] = self.gc_seconds
        out["gc_collections"] = list(self.gc_collections)
        return out


class GcWatch:
    """A ``gc.callbacks`` hook that charges collections to a profiler.

    Executors install one where a telemetry-on dispatch's wall span starts
    and :meth:`close` it in the same ``finally``, so the hook never outlives
    the dispatch and the telemetry-off path installs none.  It sees only the
    collector of the process it runs in: process-backend workers collect
    unobserved.
    """

    __slots__ = ("_profiler", "_started")

    def __init__(self, profiler: SpanProfiler) -> None:
        self._profiler = profiler
        self._started = 0.0
        gc.callbacks.append(self)

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
            return
        profiler = self._profiler
        profiler.gc_seconds += perf_counter() - self._started
        profiler.gc_collections[info["generation"]] += 1

    def close(self) -> None:
        """Uninstall the hook."""
        gc.callbacks.remove(self)


class PhaseTimer:
    """Contiguous phase attribution for one dispatch call.

    Usage::

        timer = PhaseTimer()
        ...plan a window...
        timer.lap("plan")
        ...drain shard windows...
        timer.lap("compute")
        ...flush mail / run control barrier...
        timer.lap("barrier")
        timer.finish(profiler)

    Every wall second between construction and :meth:`finish` lands in
    exactly one phase — laps measure *since the previous lap*, so there are
    no gaps and no double counting.
    """

    __slots__ = ("_start", "_mark", "_seconds")

    def __init__(self) -> None:
        now = perf_counter()
        self._start = now
        self._mark = now
        self._seconds: Dict[str, float] = {}

    def lap(self, phase: str) -> float:
        """Attribute the time since the last lap to ``phase``."""
        now = perf_counter()
        elapsed = now - self._mark
        self._mark = now
        self._seconds[phase] = self._seconds.get(phase, 0.0) + elapsed
        return elapsed

    def split(self) -> float:
        """Seconds since the last lap, without attributing them."""
        return perf_counter() - self._mark

    def shift(self, source: str, target: str, seconds: float) -> None:
        """Re-attribute ``seconds`` from one phase to another.

        The process backend laps a whole pipe round into one phase, then
        moves the worker-reported compute share out of it — keeping the
        no-gaps invariant while splitting a round that interleaves both.
        """
        if seconds <= 0.0:
            return
        self._seconds[source] = self._seconds.get(source, 0.0) - seconds
        self._seconds[target] = self._seconds.get(target, 0.0) + seconds

    def finish(self, profiler: Optional[SpanProfiler]) -> float:
        """Close the timer, folding phases and total into ``profiler``."""
        now = perf_counter()
        tail = now - self._mark
        total = now - self._start
        if profiler is not None:
            for phase, seconds in self._seconds.items():
                profiler.add(phase, seconds)
            if tail > 0.0:
                # Anything after the final lap is bookkeeping on the way
                # out of dispatch; attribute it to planning.
                profiler.add("plan", tail)
            profiler.add_total(total)
        return total
