"""Bounded flight recorder: the last N pipe round-trips per shard.

A crash post-mortem aid, not a metrics store.  The process backend keeps a
small ring of recent per-shard spans (window bounds, message kind, wall
seconds) so that when a worker dies mid-window the resulting
``FabricBackendError`` can say what the fabric was doing in the seconds
before — which window each shard was in, which pipe rounds completed, and
how long they took — instead of just naming the crash window.

The process backend runs it *always on* (parent side only): the cost is a
deque append per pipe round-trip, which is noise next to the pipe syscalls
themselves.  Nothing else records into one.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

#: (kind, window, wall_seconds) — window is an (start_ns, bound_ns) tuple
#: or None for rounds that carry no window (control, sync, fin).
FlightEntry = Tuple[str, Optional[tuple], float]


class FlightRecorder:
    """Per-shard rings of recent span entries, bounded by ``limit``."""

    def __init__(self, shards: int, limit: int = 16) -> None:
        self.limit = limit
        self._rings: List[Deque[FlightEntry]] = [
            deque(maxlen=limit) for _ in range(shards)
        ]

    def record(
        self,
        shard: int,
        kind: str,
        window: Optional[tuple],
        wall_seconds: float,
    ) -> None:
        self._rings[shard].append((kind, window, wall_seconds))

    def tail(self, shard: int) -> list:
        """One shard's recent entries as plain data, oldest first."""
        return [
            {"kind": kind, "window": window, "wall_s": wall_seconds}
            for kind, window, wall_seconds in self._rings[shard]
        ]

    @staticmethod
    def format_tail(entries: list) -> str:
        """Render one shard's tail for embedding in an error message."""
        if not entries:
            return "  (no recorded spans)"
        lines = []
        for entry in entries:
            window = entry.get("window")
            span = (
                f"[{window[0]}, {window[1]}]" if window else "-"
            )
            lines.append(
                f"  {entry['kind']:<5} window={span:<26} "
                f"wall={entry['wall_s'] * 1e3:.3f}ms"
            )
        return "\n".join(lines)
