"""Structured run reports: one JSON-able document per scenario run.

:func:`build_report` folds everything a run knows about itself into a
:class:`RunReport`: the engine configuration, one metrics snapshot, the
wall-clock phase breakdown and an optional latency summary.  The snapshot
holds the telemetry registry's families when telemetry is on, and, with
telemetry on or off, the quantities the engines and segments already
count — ``engine_events_dispatched`` and the segment families — read from
their live counters when the report is built.  Each quantity therefore has
one source: nothing the report reads is also counted on the hot path.

``tools/report.py`` renders a report as a console table, reading every
section through :meth:`RunReport.family`, or exports the metrics in
Prometheus text format.

Everything here is read-only over the run: building a report never mutates
simulation state.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from .metrics import METRIC_FAMILIES, MetricsRegistry

#: One ``name="value"`` pair of a registry sample key.
_LABEL = re.compile(r'(\w+)="([^"]*)"')


@dataclass
class RunReport:
    """The structured report attached to a :class:`ScenarioRun`."""

    scenario: str
    seed: int
    engine: Dict[str, object]
    sim_time_s: float
    telemetry_enabled: bool
    wall: Optional[dict] = None
    latency_ns: Optional[Dict[str, float]] = None
    metrics: dict = field(default_factory=dict)

    def family(self, name: str) -> List[Tuple[Dict[str, str], object]]:
        """Every sample of one metric family as ``(labels, value)`` pairs.

        ``labels`` is a plain dict (empty for an unlabelled sample) and
        ``value`` a number, or the bucket dict of a histogram.  Samples come
        in snapshot (sorted key) order; a family the report does not carry
        yields an empty list.
        """
        samples = []
        for kind in ("counters", "gauges", "histograms"):
            for key, value in (self.metrics.get(kind) or {}).items():
                family, _, labels = key.partition("{")
                if family == name:
                    samples.append((dict(_LABEL.findall(labels)), value))
        return samples

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
    registry = MetricsRegistry()
    if telemetry is not None:
        registry.merge_snapshot(telemetry.registry.snapshot())

    # Events: one sample per event ring, summing to sim.events_dispatched.
    if n_shards == 1:
        registry.counter("engine_events_dispatched").inc(sim.events_dispatched)
    else:
        in_shards = 0
        for shard in sim.shards:
            registry.counter("engine_events_dispatched", shard=shard.index).inc(
                shard.events_dispatched
            )
            in_shards += shard.events_dispatched
        registry.counter("engine_events_dispatched", shard="control").inc(
            sim.events_dispatched - in_shards
        )

    # Segments: the live counters, exact on every backend (a process
    # dispatch syncs each worker's homed segments into the parent's).
    for name, segment in run.network.segments.items():
        for family, value in (
            ("segment_frames_carried", segment.frames_carried),
            ("segment_bytes_carried", segment.bytes_carried),
            ("segment_frames_lost", segment.frames_lost),
            ("segment_frames_corrupted", segment.frames_corrupted),
            ("segment_frames_coalesced", segment.frames_coalesced),
            ("segment_cross_shard_frames", segment.cross_shard_frames),
            ("segment_busy_seconds", segment.busy_until),
            ("segment_utilization", segment.utilization()),
        ):
            registry.gauge(family, segment=name).set(value)
        registry.gauge(
            "express_frames", segment=name, mode=segment.express_mode
        ).set(segment.frames_carried)

    return RunReport(
        scenario=run.spec.name,
        seed=getattr(run, "seed", 0),
        engine={
            "mode": "single" if n_shards == 1 else "relaxed",
            "shards": n_shards,
            "backend": run.backend,
        },
        sim_time_s=sim.now,
        telemetry_enabled=telemetry is not None,
        wall=telemetry.profiler.breakdown() if telemetry is not None else None,
        latency_ns=latency_summary(latency_ns) if latency_ns is not None else None,
        metrics=registry.snapshot(),
    )
