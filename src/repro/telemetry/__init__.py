"""Fabric telemetry: deterministic metrics, wall-clock spans, post-mortems.

Two strictly separated signal families:

* **Deterministic metrics** (:mod:`.metrics`) — counters, gauges and
  fixed-bucket histograms derived purely from the simulated event stream.
  Identical across runs and engine modes by construction; never read by
  the simulation, so enabling them cannot change an outcome.
* **Out-of-band wall-clock spans** (:mod:`.spans`) — phase timers and span
  profiles.  Wall time never touches simulated state; the overhead
  contract is that the default-off hot path performs no ``perf_counter``
  calls at all.  The process backend's always-on flight recorder
  (:mod:`.flight`) is a crash post-mortem aid, not telemetry.

Telemetry is **off by default**.  ``Simulator.enable_telemetry()`` /
``ShardedSimulator.enable_telemetry()`` (or ``telemetry=True`` on
``run_scenario``/``compile_spec``) attach a :class:`Telemetry` state object
to the engine; the executors check for it once per window round, not per
event.  ``ScenarioRun.report()`` builds a
:class:`~repro.telemetry.report.RunReport` whose one metrics snapshot holds
this registry's families plus the quantities the engines and segments
already count, read at report time with telemetry on or off.
"""

from __future__ import annotations

from .flight import FlightRecorder
from .metrics import (
    METRIC_FAMILIES,
    WINDOW_EVENT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .report import RunReport, build_report
from .spans import PHASES, PhaseTimer, SpanProfiler

__all__ = [
    "METRIC_FAMILIES",
    "PHASES",
    "WINDOW_EVENT_BUCKETS",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseTimer",
    "RunReport",
    "SpanProfiler",
    "Telemetry",
    "build_report",
]


class Telemetry:
    """Per-engine telemetry state: a metrics registry and a span profiler.

    One instance hangs off a :class:`Simulator` or :class:`ShardedSimulator`
    as ``_telemetry`` (``None`` when telemetry is off — the only thing the
    hot paths ever test).  For a sharded fabric this is the fabric-wide
    aggregate; process-backend workers record into registries of their
    own, which the end-of-dispatch sync merges in.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.profiler = SpanProfiler()
