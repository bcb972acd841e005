"""A quantizing timer wheel for population-scale timer churn.

Fifty thousand on/off traffic sources each keep one pending timer alive.
The wheel quantizes each fire time **up** to the next tick boundary and
schedules through the engine's ordinary API, so the sources' timers fire
on a shared tick grid.  The grid is part of the population model: it sets
the simulated time at which every traffic timer fires, so a different tick
gives different (equally valid) traffic.

Crucially the wheel adds **no dispatch machinery of its own** — no
aggregated callbacks, no private ordering.  One timer is still one
engine event, executed by the engine's normal same-timestamp FIFO
discipline.  That is what keeps the determinism contract intact: the
quantized fire times are computed from integers only, so single-engine,
relaxed and process runs schedule bit-identical timelines, and
same-tick ordering is the engine's own seq order everywhere.

Cancellation is the engine's own: :meth:`TimerWheel.schedule` returns
the underlying :class:`~repro.sim.events.Event`, whose ``cancel()`` is
O(1) on every engine.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.clock import seconds_to_ns

#: Default tick: 100 µs.  Traffic timers run at millisecond scales, so a
#: 100 µs grid perturbs an individual source's schedule by less than one
#: part in ten while collapsing thousands of timers onto shared instants.
DEFAULT_TICK_NS = 100_000


class TimerWheel:
    """Quantizes timer fire times onto a shared tick grid.

    One wheel serves one engine (a :class:`~repro.sim.engine.Simulator`,
    one :class:`~repro.sim.shard.EngineShard`, or a fabric facade — any
    object with ``clock`` and ``schedule_at_ns``).  Sharded populations
    build one wheel per home engine so scheduling stays shard-local.
    """

    __slots__ = ("sim", "tick_ns", "scheduled", "quantized")

    def __init__(self, sim, tick_ns: int = DEFAULT_TICK_NS) -> None:
        if tick_ns <= 0:
            raise ValueError("timer wheel tick must be positive")
        self.sim = sim
        self.tick_ns = int(tick_ns)
        #: Timers scheduled through the wheel (diagnostics).
        self.scheduled = 0
        #: Timers whose fire time actually moved to reach the grid.
        self.quantized = 0

    def quantize_ns(self, when_ns: int) -> int:
        """``when_ns`` rounded *up* to the next tick boundary.

        Rounding up (never down) preserves the "no earlier than asked"
        timer contract, so a wheel-scheduled timeout can never fire
        before the duration it was given.
        """
        tick = self.tick_ns
        remainder = when_ns % tick
        if remainder:
            return when_ns + (tick - remainder)
        return when_ns

    def schedule_at_ns(self, when_ns: int, callback: Callable[[], None], label: str = ""):
        """Schedule ``callback`` at ``when_ns`` quantized up to the grid."""
        fire_ns = self.quantize_ns(when_ns)
        self.scheduled += 1
        if fire_ns != when_ns:
            self.quantized += 1
        return self.sim.schedule_at_ns(fire_ns, callback, label)

    def schedule(self, delay_seconds: float, callback: Callable[[], None], label: str = ""):
        """Schedule ``callback`` ``delay_seconds`` from now, on the grid.

        The delay is converted to integer nanoseconds with the engine's
        own rounding before quantization, so the resulting timestamp is
        identical on every engine mode.
        """
        if delay_seconds < 0:
            raise ValueError("timer delay cannot be negative")
        when_ns = self.sim.clock.now_ns + seconds_to_ns(delay_seconds)
        return self.schedule_at_ns(when_ns, callback, label)
