"""Telemetry: determinism, overhead, post-mortems and run reports.

The two contracts under test:

* **Determinism** — enabling telemetry changes no simulation outcome.
  Catalog-wide, every non-tie-prone scenario runs telemetry-on versus
  telemetry-off in every engine mode (single, strict, relaxed, process)
  and the traces must match: bit-identical for single/strict, canonical-
  merge-identical for relaxed/process.  Metric snapshots themselves are
  also deterministic: two identical runs produce identical registries.
* **Overhead** — the default-off path is the pre-telemetry code path.
  The proof is structural, not statistical: executors read the wall clock
  only through ``repro.telemetry.spans.perf_counter``, so patching that
  binding to raise and driving every mode telemetry-off proves the off
  path performs no telemetry work at all.  (CI's perf gate holds the
  measured off-path rates to the committed baseline on top of this.)

Plus the supporting machinery: registry merge semantics, contiguous phase
attribution, the bounded flight recorder and its ``FabricBackendError``
post-mortem tail, worker metric shipping, and the RunReport document and
its renderers.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import FabricBackendError
from repro.measurement.analysis import fixed_histogram, latency_summary
from repro.measurement.ping import PingRunner
from repro.measurement.stats import mean, percentile
from repro.scenario import run_scenario
from repro.scenario.registry import list_scenarios
from repro.sim import procpool
from repro.sim.fabric import ShardedSimulator
from repro.telemetry import (
    METRIC_FAMILIES,
    PHASES,
    FlightRecorder,
    Histogram,
    MetricsRegistry,
    PhaseTimer,
    SpanProfiler,
)
from repro.telemetry import spans

REPO_ROOT = Path(__file__).resolve().parent.parent

NEEDS_FORK = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="process backend requires fork()"
)

CATALOG = sorted(
    entry.name for entry in list_scenarios() if not entry.tie_prone
)

#: Engine configurations the determinism contract covers.
MODES = {
    "single": {"shards": 1},
    "strict": {"shards": 2, "sync": "strict"},
    "relaxed": {"shards": 2, "sync": "relaxed"},
    "process": {"shards": 2, "sync": "relaxed", "backend": "process"},
}


def _drive(name, shards=1, sync="strict", backend="thread", telemetry=False):
    """The fixed workload (mirrors test_procpool): warm up, ping, settle."""
    params = {"n_bridges": 2} if name in ("ring", "chain") else None
    run = run_scenario(
        name, params=params, shards=shards, sync=sync, backend=backend,
        telemetry=telemetry,
    )
    run.warm_up()
    hosts = run.hosts
    if len(hosts) >= 2:
        count, interval = 2, 0.05
        runner = PingRunner(
            run.sim, hosts[0], hosts[1].ip, payload_size=96,
            count=count, interval=interval,
        )
        start = run.sim.now
        runner.start(start)
        run.sim.run_until(start + count * interval + 2.0)
    return run


def _canonical(run):
    trace = run.sim.trace
    if hasattr(trace, "canonical_records"):
        return trace.canonical_records()
    return list(trace)


def _observables(run):
    return (dict(run.sim.trace.counters.by_category_source), run.sim.now)


# ---------------------------------------------------------------------------
# The headline: telemetry is outcome-invisible, catalog-wide
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", CATALOG)
def test_catalog_telemetry_on_is_identical_to_off(name, mode):
    if mode == "process" and not hasattr(os, "fork"):
        pytest.skip("process backend requires fork()")
    kwargs = MODES[mode]
    off = _drive(name, **kwargs)
    on = _drive(name, telemetry=True, **kwargs)
    assert on.sim._telemetry is not None
    if mode in ("single", "strict"):
        # Strict modes promise bit-identical emission order, so the raw
        # stream must match, not just the canonical merge.
        assert list(on.sim.trace) == list(off.sim.trace), (name, mode)
    assert _canonical(on) == _canonical(off), (name, mode)
    assert _observables(on) == _observables(off), (name, mode)


def test_metric_snapshots_are_run_deterministic():
    first = _drive("chain", shards=2, sync="relaxed", telemetry=True)
    second = _drive("chain", shards=2, sync="relaxed", telemetry=True)
    snapshot = first.sim._telemetry.registry.snapshot()
    assert snapshot == second.sim._telemetry.registry.snapshot()
    assert snapshot["counters"]["fabric_windows_total"] > 0
    assert snapshot["counters"]["engine_events_dispatched"] > 0


@NEEDS_FORK
def test_process_metric_snapshots_are_run_deterministic():
    runs = []
    for _ in range(2):
        run = _drive(
            "chain", shards=2, sync="relaxed", backend="process",
            telemetry=True,
        )
        run.sim._proc_fetch()  # absorb worker blobs into the registry
        runs.append(run.sim._telemetry.registry.snapshot())
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Overhead: the default-off path is the pre-telemetry path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", sorted(MODES))
def test_metrics_off_path_never_reads_the_wall_clock(mode, monkeypatch):
    """Telemetry-off runs must not execute a single telemetry clock read.

    Every executor imports ``perf_counter`` through the spans module on
    telemetry-guarded paths only; with the binding replaced by a tripwire,
    a full warm-up + ping drive in each mode proves the off path carries
    zero added instrumentation.  (The process backend's always-on flight
    recorder deliberately binds ``time.perf_counter`` directly — it is a
    crash post-mortem aid, not part of the default-off contract.)  Nor may
    it install a garbage-collection hook: ``gc.callbacks`` is swapped for a
    list that refuses additions.
    """
    if mode == "process" and not hasattr(os, "fork"):
        pytest.skip("process backend requires fork()")

    def tripwire():
        raise AssertionError("telemetry-off path called spans.perf_counter")

    class NoHooks(list):
        def append(self, hook):
            raise AssertionError("telemetry-off path installed a gc hook")

    monkeypatch.setattr(spans, "perf_counter", tripwire)
    monkeypatch.setattr(gc, "callbacks", NoHooks(gc.callbacks))
    run = _drive("ring", **MODES[mode])
    assert run.sim._telemetry is None
    assert run.sim.events_dispatched > 0


@pytest.mark.parametrize("mode", ["single", "strict", "relaxed"])
def test_dispatch_counts_collections_and_removes_its_hook(mode):
    """A telemetry-on dispatch charges a collection to ``gc_s``, then unhooks."""
    hooks_before = list(gc.callbacks)
    run = run_scenario(
        "ring", params={"n_bridges": 2}, telemetry=True, **MODES[mode]
    )
    run.sim.schedule(0.001, gc.collect)
    run.sim.run_until(0.01)
    breakdown = run.sim._telemetry.profiler.breakdown()
    assert breakdown["gc_collections"][2] >= 1
    assert breakdown["gc_s"] > 0.0
    assert breakdown["gc_s"] <= breakdown["total_s"]
    assert gc.callbacks == hooks_before


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_labels_are_sorted_into_stable_keys(self):
        registry = MetricsRegistry()
        registry.counter("frames", segment="seg0", shard="1").inc(3)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {
            'frames{segment="seg0",shard="1"}': 3
        }

    def test_counter_and_gauge_are_cached_per_key(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(4)
        gauge = registry.gauge("depth")
        gauge.set_max(7)
        gauge.set_max(3)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["hits"] == 5
        assert snapshot["gauges"]["depth"] == 7

    def test_histogram_buckets_and_overflow(self):
        histogram = Histogram((1, 5, 10))
        for value in (0, 1, 2, 7, 50):
            histogram.observe(value)
        data = histogram.as_dict()
        assert data["counts"] == [2, 1, 1, 1]
        assert data["count"] == 5
        assert data["sum"] == 60.0

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram((5, 1))

    def test_merge_adds_counters_and_buckets_keeps_gauge_max(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("events", shard="0").inc(10)
        right.counter("events", shard="0").inc(5)
        left.gauge("high").set_max(3)
        right.gauge("high").set_max(9)
        left.histogram("win", bounds=(1, 2)).observe(1)
        right.histogram("win", bounds=(1, 2)).observe(2)
        left.merge_snapshot(right.snapshot())
        snapshot = left.snapshot()
        assert snapshot["counters"]['events{shard="0"}'] == 15
        assert snapshot["gauges"]["high"] == 9
        assert snapshot["histograms"]["win"]["counts"] == [1, 1, 0]
        assert snapshot["histograms"]["win"]["count"] == 2

    def test_merge_rejects_mismatched_histogram_bounds(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.histogram("win", bounds=(1, 2)).observe(1)
        right.histogram("win", bounds=(1, 3)).observe(1)
        with pytest.raises(ValueError):
            left.merge_snapshot(right.snapshot())

    def test_snapshot_keys_are_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.counter("alpha").inc()
        assert list(registry.snapshot()["counters"]) == ["alpha", "zeta"]


# ---------------------------------------------------------------------------
# Spans: contiguous phase attribution
# ---------------------------------------------------------------------------


class TestPhaseTimer:
    def test_laps_cover_the_total_with_no_gaps(self):
        profiler = SpanProfiler()
        timer = PhaseTimer()
        timer.lap("plan")
        sum(range(1000))  # some work
        timer.lap("compute")
        timer.lap("barrier")
        timer.finish(profiler)
        breakdown = profiler.breakdown()
        assert breakdown["attributed_s"] == pytest.approx(
            breakdown["total_s"], abs=1e-9
        )
        assert all(breakdown[f"{phase}_s"] >= 0.0 for phase in PHASES)

    def test_shift_preserves_the_attribution_sum(self):
        profiler = SpanProfiler()
        timer = PhaseTimer()
        sum(range(1000))
        elapsed = timer.lap("pipe")
        timer.shift("pipe", "compute", elapsed / 2)
        timer.finish(profiler)
        breakdown = profiler.breakdown()
        assert breakdown["attributed_s"] == pytest.approx(
            breakdown["total_s"], abs=1e-9
        )
        assert breakdown["compute_s"] == pytest.approx(elapsed / 2)

    def test_breakdown_ignores_non_phase_buckets(self):
        profiler = SpanProfiler()
        profiler.add("compute", 1.0)
        profiler.add("worker_compute", 5.0)  # informational, not a phase
        profiler.add_total(1.0)
        breakdown = profiler.breakdown()
        assert breakdown["attributed_s"] == 1.0
        assert breakdown["total_s"] == 1.0

    def test_gc_figures_sit_beside_the_phase_sum(self):
        profiler = SpanProfiler()
        profiler.add("compute", 1.0)
        profiler.add_total(1.0)
        watch = spans.GcWatch(profiler)
        try:
            gc.collect()
        finally:
            watch.close()
        breakdown = profiler.breakdown()
        assert breakdown["gc_collections"][2] == 1
        assert breakdown["gc_s"] > 0.0
        assert breakdown["attributed_s"] == 1.0
        assert watch not in gc.callbacks


def test_live_relaxed_breakdown_sums_to_dispatch_total():
    run = _drive("ring", shards=4, sync="relaxed", telemetry=True)
    breakdown = run.sim._telemetry.profiler.breakdown()
    assert breakdown["windows"] > 0
    assert breakdown["attributed_s"] == pytest.approx(
        breakdown["total_s"], rel=0.05
    )


# ---------------------------------------------------------------------------
# Flight recorder and the crash post-mortem
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded_and_keeps_the_newest(self):
        recorder = FlightRecorder(2, limit=3)
        for index in range(5):
            recorder.record(1, "win", (index, index + 10), 0.001)
        tail = recorder.tail(1)
        assert len(tail) == 3
        assert tail[-1]["window"] == (4, 14)
        assert recorder.tail(0) == []
        assert recorder.tail() == [(1, tail)]

    def test_format_tail_renders_windows_and_walls(self):
        recorder = FlightRecorder(1, limit=4)
        recorder.record(0, "win", (100, 200), 0.0015)
        recorder.record(0, "ctrl", None, 0.0005)
        text = FlightRecorder.format_tail(recorder.tail(0))
        assert "win" in text and "[100, 200]" in text
        assert "ctrl" in text and "wall=0.500ms" in text
        assert FlightRecorder.format_tail([]) == "  (no recorded spans)"


@NEEDS_FORK
def test_worker_kill_postmortem_carries_the_flight_tail():
    fabric = ShardedSimulator(
        shards=2, sync="relaxed", backend="process", lookahead_ns=1000
    )

    def boom():
        if procpool.worker_index() == 1:
            os.kill(os.getpid(), signal.SIGKILL)

    # A few quiet windows first, so the recorder has rounds to show.
    for when in (0.001, 0.002, 0.003):
        fabric.shards[0].schedule(when, lambda: None)
        fabric.shards[1].schedule(when, lambda: None)
    fabric.shards[1].schedule(0.004, boom)
    with pytest.raises(FabricBackendError) as err:
        fabric.run_until(0.01)
    assert err.value.shard_index == 1
    assert err.value.flight, "post-mortem carried no flight tail"
    for entry in err.value.flight:
        assert set(entry) == {"kind", "window", "wall_s"}
        assert entry["wall_s"] >= 0.0
    assert "recent shard 1 spans (oldest first):" in str(err.value)


# ---------------------------------------------------------------------------
# Worker metric shipping (process backend)
# ---------------------------------------------------------------------------


@NEEDS_FORK
def test_process_workers_ship_shard_labelled_metrics():
    run = _drive(
        "chain", shards=2, sync="relaxed", backend="process", telemetry=True
    )
    report = run.report()
    counters = report.metrics["counters"]
    assert counters['engine_events_dispatched{shard="0"}'] > 0
    assert counters['engine_events_dispatched{shard="1"}'] > 0
    assert counters["proc_planner_rounds_total"] > 0
    assert counters["proc_pipe_messages_total"] > 0
    assert counters["proc_envelope_bytes_total"] > 0
    # Segment statistics come from the workers, not the parent's stale
    # replicas, and cover the whole topology.
    assert report.segments
    assert any(
        stats["frames_carried"] > 0 for stats in report.segments.values()
    )
    assert report.engine["backend"] == "process"


# ---------------------------------------------------------------------------
# Analysis helpers
# ---------------------------------------------------------------------------


class TestAnalysis:
    def test_latency_summary_matches_the_shared_estimator(self):
        samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
        summary = latency_summary(samples)
        assert summary["count"] == 6
        assert summary["min"] == 1.0
        assert summary["max"] == 9.0
        assert summary["mean"] == pytest.approx(mean(samples))
        for key, fraction in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            assert summary[key] == pytest.approx(
                percentile(samples, fraction)
            )

    def test_latency_summary_of_nothing_is_zeros(self):
        summary = latency_summary([])
        assert summary == {
            "count": 0, "min": 0.0, "max": 0.0, "mean": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_fixed_histogram_matches_registry_histogram_layout(self):
        samples = [0.5, 1.0, 4.0, 20.0]
        bounds = (1, 5, 10)
        summary = fixed_histogram(samples, bounds)
        histogram = Histogram(bounds)
        for value in samples:
            histogram.observe(value)
        assert summary == histogram.as_dict()

    def test_fixed_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            fixed_histogram([1.0], (5, 1))


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------


def _report_run():
    run = run_scenario(
        "chain", params={"n_bridges": 2}, shards=2, sync="relaxed",
        telemetry=True,
    )
    run.warm_up()
    hosts = run.hosts
    runner = PingRunner(
        run.sim, hosts[0], hosts[1].ip, payload_size=96, count=3,
        interval=0.05,
    )
    start = run.sim.now
    runner.start(start)
    run.sim.run_until(start + 3 * 0.05 + 2.0)
    rtts = [int(rtt * 1e9) for rtt in runner.result.rtts]
    return run, run.report(latency_ns=rtts)


class TestRunReport:
    def test_document_shape_and_json_round_trip(self):
        run, report = _report_run()
        assert report.scenario == run.spec.name
        assert report.telemetry_enabled
        assert report.engine == {
            "mode": "relaxed", "shards": 2, "sync": "relaxed",
            "backend": "thread",
        }
        assert report.events["dispatched"] == run.sim.events_dispatched
        assert report.events["queue_high_water"] >= 1
        assert report.metrics["counters"]["fabric_windows_total"] > 0
        assert set(report.latency_ns) == {
            "count", "min", "max", "mean", "p50", "p95", "p99",
        }
        assert report.wall["attributed_s"] == pytest.approx(
            report.wall["total_s"], rel=0.05
        )
        decoded = json.loads(report.to_json())
        assert decoded["scenario"] == report.scenario
        assert decoded["segments"] == report.segments

    def test_prometheus_exposition_format(self):
        _, report = _report_run()
        text = report.to_prometheus()
        assert "# TYPE fabric_windows_total counter" in text
        assert "# HELP fabric_windows_total" in text
        assert 'window_events_bucket{le="+Inf"}' in text
        assert "window_events_sum" in text
        # Every emitted family is a documented one.
        for line in text.splitlines():
            if line.startswith("#"):
                family = line.split()[2]
                base = family
                for suffix in ("_bucket", "_sum", "_count"):
                    if base.endswith(suffix):
                        base = base[: -len(suffix)]
                assert base in METRIC_FAMILIES, line

    def test_report_tool_renders_table_and_prometheus(self, tmp_path):
        _, report = _report_run()
        path = tmp_path / "run.json"
        path.write_text(report.to_json())
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        table = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "report.py"),
             str(path)],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        assert "wall breakdown" in table
        assert "gc collections  gen0 " in table
        assert "segments" in table
        assert "latency (rtt)" in table
        prom = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "report.py"),
             str(path), "--prometheus"],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        assert "# TYPE fabric_windows_total counter" in prom
