"""Deterministic-by-construction metrics: counters, gauges, histograms.

The registry records *simulated* quantities only — event counts, frame and
byte tallies, queue depths, window counts.  Every value is a pure function
of the deterministic event stream, so two runs of the same scenario produce
identical snapshots in every engine mode, and enabling the registry can
never change a simulation outcome: metrics are written by the execution
machinery *about* the simulation, never read by it.

Wall-clock timing lives in :mod:`repro.telemetry.spans` instead — the two
families are deliberately separate types so a wall-clock number can never
be folded into a deterministic metric by accident.

Naming follows the Prometheus conventions (``snake_case``, ``_total`` for
monotonic counters); :data:`METRIC_FAMILIES` is the documented family list,
held to a docs-coverage contract by ``tools/docs_check.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

#: Every metric family the instrumentation can emit, with a one-line
#: description.  ``tools/docs_check.py`` requires each name to appear in
#: ``docs/telemetry.md`` — adding a family without documenting it fails CI.
METRIC_FAMILIES: Dict[str, str] = {
    "engine_events_dispatched": "events dispatched, per engine/shard",
    "engine_queue_high_water": "peak pending-event count observed per engine",
    "fabric_windows_total": "relaxed lookahead windows executed",
    "fabric_sole_leader_extensions_total": (
        "sole-leader fast-path windows (extended in place)"
    ),
    "fabric_control_barriers_total": "control-ring barrier rounds executed",
    "fabric_mail_entries_total": "cross-shard mailbox entries applied",
    "fabric_mail_frames_total": "frames carried by mailbox entries, per cut segment",
    "fabric_mail_bytes_total": "wire bytes carried by mailbox entries, per cut segment",
    "proc_pipe_messages_total": "process-backend pipe messages sent by the parent",
    "proc_envelope_bytes_total": "serialized frame-envelope bytes broadcast to workers",
    "segment_frames_carried": "frames the segment carried (snapshot)",
    "segment_bytes_carried": "wire bytes the segment carried (snapshot)",
    "segment_frames_lost": "frames dropped by faults/failures (snapshot)",
    "segment_frames_corrupted": "frames delivered corrupted (snapshot)",
    "segment_frames_coalesced": "frames served through coalesced batch drains",
    "segment_cross_shard_frames": "frames that crossed a shard cut",
    "segment_busy_seconds": "end of the segment's wire busy chain (snapshot)",
    "segment_utilization": "fraction of wire capacity used since time zero",
    "express_frames": "frames carried, grouped by the segment's express mode",
    "window_events": "events per relaxed window (histogram)",
}

#: Default histogram bounds for events-per-window (events, not seconds).
WINDOW_EVENT_BUCKETS: Tuple[float, ...] = (1, 2, 5, 10, 25, 50, 100, 250, 1000)


def _key(name: str, labels: tuple) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value; :meth:`set_max` keeps the high-water mark."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """A fixed-bucket histogram: cumulative-style counts plus sum/count.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    overflow bucket catches everything beyond the last bound.  Bounds are
    fixed at construction, so two runs observing identical samples produce
    identical bucket vectors — the determinism contract for histograms.
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Iterable[float]) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        self.counts[index] += 1
        self.total += value
        self.count += 1

    def as_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """A labelled metric store, one per engine, mergeable fabric-wide.

    Metrics are created on first touch and cached by ``(name, labels)``;
    the hot-path pattern is to hold the returned object and call ``inc``
    directly, so steady-state cost is one attribute add.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str, **labels) -> Counter:
        key = _key(name, tuple(sorted(labels.items())))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        key = _key(name, tuple(sorted(labels.items())))
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(
        self, name: str, bounds: Optional[Iterable[float]] = None, **labels
    ) -> Histogram:
        key = _key(name, tuple(sorted(labels.items())))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(
                bounds if bounds is not None else WINDOW_EVENT_BUCKETS
            )
        return metric

    # -- aggregation --------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-data copy, sorted by key (deterministic serialization)."""
        return {
            "counters": {
                key: self._counters[key].value for key in sorted(self._counters)
            },
            "gauges": {key: self._gauges[key].value for key in sorted(self._gauges)},
            "histograms": {
                key: self._histograms[key].as_dict()
                for key in sorted(self._histograms)
            },
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's snapshot in.

        Counters and histogram buckets add; gauges keep the maximum (the
        fabric-wide high-water of per-shard high-waters).  This is how
        process-backend workers' registries aggregate into the parent's.
        """
        for key, value in (snapshot.get("counters") or {}).items():
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter()
            metric.value += value
        for key, value in (snapshot.get("gauges") or {}).items():
            gauge = self._gauges.get(key)
            if gauge is None:
                gauge = self._gauges[key] = Gauge()
            gauge.set_max(value)
        for key, data in (snapshot.get("histograms") or {}).items():
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram(data["bounds"])
            if tuple(data["bounds"]) != histogram.bounds:
                raise ValueError(
                    f"histogram {key!r} bounds mismatch on merge: "
                    f"{data['bounds']} vs {list(histogram.bounds)}"
                )
            for index, count in enumerate(data["counts"]):
                histogram.counts[index] += count
            histogram.total += data["sum"]
            histogram.count += data["count"]
