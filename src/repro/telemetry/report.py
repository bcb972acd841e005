"""Structured run reports: one JSON-able document per scenario run.

:func:`build_report` folds everything a run knows about itself — engine
configuration, native event/fabric counters, segment statistics (shipped
from workers when the process backend ran), the telemetry registry
snapshot, and the wall-clock phase breakdown — into a :class:`RunReport`
dataclass.  ``tools/report.py`` renders it as a console table or exports
the metrics section in Prometheus text format.

Everything here is read-only over the run: building a report never mutates
simulation state (segment statistics are snapshotted, not reset).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

from .metrics import METRIC_FAMILIES

#: Segment statistic fields shipped from process-backend workers and
#: snapshotted from live segments — one shape for both sources.
SEGMENT_STAT_FIELDS = (
    "frames_carried",
    "bytes_carried",
    "cross_shard_frames",
    "frames_lost",
    "frames_corrupted",
    "frames_coalesced",
)


def snapshot_segment(segment) -> dict:
    """A plain-data statistics snapshot of a live :class:`Segment`."""
    stats = {name: getattr(segment, name) for name in SEGMENT_STAT_FIELDS}
    stats["busy_seconds"] = segment.busy_until
    stats["utilization"] = segment.utilization()
    stats["express_mode"] = segment.express_mode
    return stats


@dataclass
class RunReport:
    """The structured report attached to a :class:`ScenarioRun`."""

    scenario: str
    seed: int
    engine: Dict[str, object]
    sim_time_s: float
    events: Dict[str, int]
    fabric: Dict[str, int]
    segments: Dict[str, dict]
    express: Dict[str, object]
    drops: Dict[str, int]
    telemetry_enabled: bool
    wall: Optional[dict] = None
    latency_ns: Optional[Dict[str, float]] = None
    metrics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """The metrics section in Prometheus text exposition format.

        Registry keys are already ``family{label="value"}`` sample names;
        ``# HELP``/``# TYPE`` headers come from :data:`METRIC_FAMILIES`.
        """
        lines = []
        seen = set()

        def header(sample_key: str, kind: str) -> None:
            family = sample_key.split("{", 1)[0]
            if family in seen:
                return
            seen.add(family)
            help_text = METRIC_FAMILIES.get(family, "")
            if help_text:
                lines.append(f"# HELP {family} {help_text}")
            lines.append(f"# TYPE {family} {kind}")

        for key, value in (self.metrics.get("counters") or {}).items():
            header(key, "counter")
            lines.append(f"{key} {value}")
        for key, value in (self.metrics.get("gauges") or {}).items():
            header(key, "gauge")
            lines.append(f"{key} {value}")
        for key, data in (self.metrics.get("histograms") or {}).items():
            header(key, "histogram")
            family, _, labels = key.partition("{")
            labels = labels[:-1] if labels else ""
            cumulative = 0
            for bound, count in zip(data["bounds"], data["counts"]):
                cumulative += count
                extra = f'le="{bound:g}"'
                inner = f"{labels},{extra}" if labels else extra
                lines.append(f"{family}_bucket{{{inner}}} {cumulative}")
            cumulative += data["counts"][-1]
            inner = f'{labels},le="+Inf"' if labels else 'le="+Inf"'
            lines.append(f"{family}_bucket{{{inner}}} {cumulative}")
            suffix = f"{{{labels}}}" if labels else ""
            lines.append(f"{family}_sum{suffix} {data['sum']}")
            lines.append(f"{family}_count{suffix} {data['count']}")
        return "\n".join(lines) + ("\n" if lines else "")


def _express_summary(segments: Dict[str, dict]) -> dict:
    """Express-lane hit rates aggregated over a segment-stats snapshot."""
    frames_by_mode = {"off": 0, "inline": 0, "deferred": 0}
    coalesced = 0
    for stats in segments.values():
        mode = stats.get("express_mode", "off")
        frames_by_mode[mode] = frames_by_mode.get(mode, 0) + stats["frames_carried"]
        coalesced += stats["frames_coalesced"]
    total = sum(frames_by_mode.values())
    summary: Dict[str, object] = {
        "frames_by_mode": frames_by_mode,
        "frames_coalesced": coalesced,
        "frames_total": total,
    }
    if total:
        summary["hit_rates"] = {
            mode: count / total for mode, count in frames_by_mode.items()
        }
        summary["coalesced_rate"] = coalesced / total
    return summary


def build_report(run, latency_ns=None) -> RunReport:
    """Build the structured report for a compiled scenario run.

    ``latency_ns`` is an optional iterable of round-trip samples (ns) from
    the caller's own measurement loop; when given, the report carries a
    p50/p95/p99 summary via :func:`repro.measurement.analysis.latency_summary`.
    """
    from repro.measurement.analysis import latency_summary

    sim = run.sim
    telemetry = getattr(sim, "_telemetry", None)
    n_shards = run.n_shards

    engine = {
        "mode": "single" if n_shards == 1 else "relaxed",
        "shards": n_shards,
        "backend": run.backend,
    }

    events: Dict[str, int] = {"dispatched": sim.events_dispatched}
    fabric: Dict[str, int] = {}
    if n_shards > 1:
        fabric.update(sim.relaxed_stats)

    # Segment statistics: when a process dispatch ran, the parent's Segment
    # objects only saw the replicated barrier work — the authoritative
    # numbers are the ones the workers shipped home with their trace
    # suffixes.  Force the lazy fetch so they are present.
    segments: Dict[str, dict] = {}
    shipped = None
    if telemetry is not None and n_shards > 1:
        proc_fetch = getattr(sim, "_proc_fetch", None)
        if proc_fetch is not None:
            proc_fetch()
        shipped = telemetry.shipped_segments or None
    if shipped:
        segments = {name: dict(stats) for name, stats in sorted(shipped.items())}
    else:
        for name in sorted(run.network.segments):
            segments[name] = snapshot_segment(run.network.segments[name])

    drops = {
        "frames_lost": sum(s["frames_lost"] for s in segments.values()),
        "frames_corrupted": sum(s["frames_corrupted"] for s in segments.values()),
    }

    wall = None
    metrics: dict = {}
    if telemetry is not None:
        wall = telemetry.profiler.breakdown()
        metrics = telemetry.registry.snapshot()
        high_waters = [
            value
            for key, value in (metrics.get("gauges") or {}).items()
            if key.split("{", 1)[0] == "engine_queue_high_water"
        ]
        if high_waters:
            events["queue_high_water"] = int(max(high_waters))

    return RunReport(
        scenario=run.spec.name,
        seed=getattr(run, "seed", 0),
        engine=engine,
        sim_time_s=sim.now,
        events=events,
        fabric=fabric,
        segments=segments,
        express=_express_summary(segments),
        drops=drops,
        telemetry_enabled=telemetry is not None,
        wall=wall,
        latency_ns=latency_summary(latency_ns) if latency_ns is not None else None,
        metrics=metrics,
    )
