"""Process-backed relaxed execution: the wall-clock backend's contracts.

Identity under test: ``backend="process"`` produces canonical records, live
counters and a final clock identical to the single engine and to the
in-process (``"thread"``) backend — catalog-wide and across fault episodes
— under the backend's single-measured-dispatch model (warm-up runs
in-process, then one process dispatch; trace queries fetch worker results
lazily).

Component statistics (host/segment attributes) are *not* compared for
process runs: workers advance copy-on-write replicas, so the parent's
component objects are intentionally stale — the trace streams and counters
shipped back are the backend's observables (see ``sim/procpool.py``).
"""

from __future__ import annotations

import os
import pickle
import signal

import pytest

from repro.exceptions import FabricBackendError, SimulationError
from repro.faults import FaultSpec
from repro.measurement.ping import PingRunner
from repro.scenario import run_scenario
from repro.scenario.spec import PartitionSpec
from repro.sim import procpool
from repro.sim.fabric import ShardedSimulator

#: Compressed 802.1D timers (mirrors test_faults): episodes in seconds.
FAST_TIMERS = {"hello_time": 0.5, "max_age": 2.5, "forward_delay": 1.0}
FAILOVER_PARAMS = {
    "n_bridges": 5, "fail_at": 5.0, "recover_at": 11.0, **FAST_TIMERS,
}

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="process backend requires fork()"
)


# ---------------------------------------------------------------------------
# Helpers: single-measured-dispatch driving
# ---------------------------------------------------------------------------


def _drive(name, shards, backend="thread"):
    """Compile, warm up and ping with exactly one post-warm-up dispatch.

    The process backend supports one measured dispatch per run, so the ping
    train is scheduled first (pre-dispatch) and a single ``run_until`` spans
    send + settle — the same horizon for every engine configuration.
    """
    params = {"n_bridges": 2} if name in ("ring", "chain") else None
    run = run_scenario(name, params=params, shards=shards, backend=backend)
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


def _trace_observables(run):
    """The observables a process run ships back: counters, records, clock."""
    return (
        dict(run.sim.trace.counters.by_category_source),
        run.sim.now,
    )


def _assert_identical(reference, candidate, context=""):
    assert (
        candidate.sim.trace.canonical_records()
        == reference.sim.trace.canonical_records()
    ), context
    assert _trace_observables(candidate) == _trace_observables(reference), context


def _fabric(shards=2, **kwargs):
    kwargs.setdefault("lookahead_ns", 1000)
    return ShardedSimulator(shards=shards, backend="process", **kwargs)


# ---------------------------------------------------------------------------
# The headline: catalog-wide canonical-merge identity
# ---------------------------------------------------------------------------


from repro.scenario.registry import list_scenarios  # noqa: E402


@pytest.mark.parametrize(
    "name",
    sorted(entry.name for entry in list_scenarios() if not entry.tie_prone),
)
@pytest.mark.parametrize("shards", [2, 4])
def test_catalog_process_backend_is_canonical_merge_identical(name, shards):
    reference = _drive(name, 1)
    candidate = _drive(name, shards, backend="process")
    if candidate.n_shards > 1:
        assert candidate.backend == "process"
    _assert_identical(reference, candidate, (name, shards))


@pytest.mark.parametrize(
    "name", sorted(entry.name for entry in list_scenarios())
)
def test_process_equals_threaded_relaxed(name):
    """The two backends run one plan: same records and the same windows."""
    threaded = _drive(name, 4)
    process = _drive(name, 4, backend="process")
    _assert_identical(threaded, process, name)
    if threaded.n_shards > 1:
        assert process.sim.relaxed_stats == threaded.sim.relaxed_stats, name


def test_process_repeated_runs_are_deterministic():
    first = _drive("ring", 4, backend="process")
    second = _drive("ring", 4, backend="process")
    _assert_identical(first, second)


def test_shipped_trace_suffixes_hold_plain_dicts(monkeypatch):
    """Workers render lazy details before pickling: no frame crosses the pipe."""
    shipped = []
    recv = procpool.ProcessExecutor._recv

    def spy(self, index):
        reply = recv(self, index)
        if reply[0] == "fin":
            shipped.append(reply[1])
        return reply

    monkeypatch.setattr(procpool.ProcessExecutor, "_recv", spy)
    run = _drive("chain", 4, backend="process")
    assert run.sim._proc_pending is not None  # one measured process dispatch
    run.sim.trace.canonical_records()  # the first query fetches the suffixes
    entries = [entry for suffix in shipped for entry in suffix]
    assert any(entry[2] == "nic.tx" for entry in entries)
    for _time, _source, _category, detail in entries:
        assert detail is None or type(detail) is dict
    # A shipped row is (time, source, category, detail): no emit arguments.
    assert all(len(entry) == 4 for entry in entries)
    assert b"EthernetFrame" not in pickle.dumps(shipped)


@pytest.mark.parametrize("name", ["ring", "ring/failover", "pair/active-bridge"])
def test_process_shard_stats_match_threaded(name):
    """Regression: the sync reply carries each worker's queue length, so
    ``pending_events`` survives a process dispatch."""
    threaded = _drive(name, 4)
    process = _drive(name, 4, backend="process")
    assert process.sim.shard_stats() == threaded.sim.shard_stats()
    assert process.sim.events_dispatched == threaded.sim.events_dispatched


# ---------------------------------------------------------------------------
# Fault episodes under the process backend
# ---------------------------------------------------------------------------


def _drive_failover(shards, backend="thread"):
    run = run_scenario(
        "ring/failover", params=FAILOVER_PARAMS, shards=shards, backend=backend,
    )
    run.warm_up()
    runner = PingRunner(
        run.sim, run.host("left"), run.host("right").ip, payload_size=64,
        count=30, interval=0.25, identifier=7,
    )
    runner.start(run.sim.now + 0.01)
    run.sim.run_until(14.0)
    return run


def _drive_lossy(shards, backend="thread"):
    run = run_scenario(
        "pair/lossy", params={"loss_rate": 0.25, "corrupt_rate": 0.05},
        shards=shards, backend=backend,
    )
    run.warm_up()
    count, interval = 40, 0.05
    runner = PingRunner(
        run.sim, run.hosts[0], run.hosts[1].ip, payload_size=64,
        count=count, interval=interval,
    )
    start = run.sim.now
    runner.start(start)
    run.sim.run_until(start + count * interval + 2.0)
    return run


@pytest.mark.parametrize("shards", [2, 4])
def test_failover_episode_process_identical(shards):
    single = _drive_failover(1)
    process = _drive_failover(shards, backend="process")
    assert process.partition.cut_segments
    # The outage really happened in the reference run.
    assert single.segment("seg1").frames_lost > 0
    _assert_identical(single, process, shards)


def test_lossy_pair_process_identical():
    single = _drive_lossy(1)
    process = _drive_lossy(2, backend="process")
    assert process.n_shards == 2
    assert single.segment("lan1").frames_lost > 0
    assert single.segment("lan1").frames_corrupted > 0
    _assert_identical(single, process)


def test_extra_fault_timeline_process_identical():
    """Driver-supplied faults (link flaps mid-ping) survive the backend."""
    faults = [FaultSpec("link-down", 31.05, "seg1"), FaultSpec("link-up", 31.15, "seg1")]

    def drive(shards, backend="thread"):
        run = run_scenario(
            "ring", params={"n_bridges": 2, "hosts_per_segment": 1},
            shards=shards, backend=backend, faults=faults,
        )
        run.warm_up()
        count, interval = 4, 0.05
        runner = PingRunner(
            run.sim, run.hosts[0], run.hosts[1].ip, payload_size=96,
            count=count, interval=interval,
        )
        start = run.sim.now
        runner.start(start)
        run.sim.run_until(start + count * interval + 2.0)
        return run

    single = drive(1)
    process = drive(2, backend="process")
    _assert_identical(single, process)


# ---------------------------------------------------------------------------
# Worker crash surfacing (the barrier must never hang)
# ---------------------------------------------------------------------------


class TestWorkerFailure:
    def test_worker_kill_mid_window_raises_typed_error(self):
        fabric = _fabric(shards=2)

        def boom():
            if procpool.worker_index() == 1:
                os.kill(os.getpid(), signal.SIGKILL)

        fabric.shards[0].schedule(0.001, lambda: None)
        fabric.shards[1].schedule(0.001, boom)
        with pytest.raises(FabricBackendError) as err:
            fabric.run_until(0.01)
        assert err.value.shard_index == 1
        assert err.value.window is not None
        start_ns, bound_ns = err.value.window
        assert start_ns <= bound_ns
        assert "shard 1" in str(err.value)
        # The failure latches the fabric; reset() unlatches it.
        with pytest.raises(FabricBackendError):
            fabric.run_until(0.02)
        fabric.reset()
        fabric.shards[0].schedule(0.001, lambda: None)
        assert fabric.run_until(0.01) == 1

    def test_worker_exception_carries_remote_traceback(self):
        fabric = _fabric(shards=2)

        def fail():
            raise RuntimeError("window went sideways")

        fabric.shards[1].schedule(0.001, fail)
        with pytest.raises(FabricBackendError) as err:
            fabric.run_until(0.01)
        assert err.value.shard_index == 1
        assert "window went sideways" in str(err.value)


# ---------------------------------------------------------------------------
# Single-measured-dispatch semantics
# ---------------------------------------------------------------------------


class TestDispatchLatch:
    def test_second_dispatch_raises_until_reset(self):
        fabric = _fabric()
        fabric.shards[0].schedule(0.001, lambda: None)
        assert fabric.run_until(0.01) == 1
        with pytest.raises(FabricBackendError):
            fabric.run_until(0.02)
        fabric.reset()
        fabric.shards[0].schedule(0.001, lambda: None)
        assert fabric.run_until(0.01) == 1

    def test_empty_dispatch_does_not_consume_the_measured_run(self):
        fabric = _fabric()
        assert fabric.run_until(0.01) == 0  # nothing due: no fork, no latch
        fabric.shards[0].schedule(0.02, lambda: None)
        assert fabric.run_until(0.05) == 1

    def test_empty_dispatch_reports_no_windows(self):
        """An empty process dispatch reads like an empty in-process one."""
        fabric = _fabric()
        fabric.set_backend("thread")
        fabric.shards[0].schedule(0.001, lambda: None)
        fabric.run_until(0.002)
        assert fabric.relaxed_stats["windows"] == 1
        fabric.set_backend("process")
        assert fabric.run_until(0.003) == 0
        assert fabric.relaxed_stats == {"windows": 0, "mail_flushed": 0}

    def test_budgeted_stepping_unsupported(self):
        fabric = _fabric()
        fabric.shards[0].schedule(0.001, lambda: None)
        with pytest.raises(FabricBackendError):
            fabric.run(max_events=1)
        with pytest.raises(FabricBackendError):
            fabric.step()

    def test_trace_clear_discards_pending_worker_results(self):
        fabric = _fabric()
        fabric.shards[0].schedule(0.001, lambda: fabric.shards[0].trace.emit("s", "x"))
        fabric.run_until(0.01)
        fabric.trace.clear()
        assert fabric.trace.canonical_records() == []
        assert len(fabric.trace) == 0

    def test_facade_now_correct_immediately_after_run(self):
        """The eager sync ships clocks before any trace query."""
        fabric = _fabric()
        fabric.shards[1].schedule(0.004, lambda: None)
        fabric.run_until(0.01)
        assert fabric.now == 0.01
        assert fabric.pending_events == 0


# ---------------------------------------------------------------------------
# Plumbing: spec / compile / facade validation
# ---------------------------------------------------------------------------


class TestBackendPlumbing:
    def test_partition_spec_validates_backend(self):
        assert PartitionSpec(shards=2, backend="process").backend == "process"
        with pytest.raises(ValueError):
            PartitionSpec(shards=2, backend="fibers")

    def test_fabric_rejects_unknown_backend(self):
        with pytest.raises(SimulationError):
            ShardedSimulator(shards=2, backend="fibers")
        fabric = ShardedSimulator(shards=2)
        with pytest.raises(SimulationError):
            fabric.set_backend("fibers")

    def test_compile_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            run_scenario(
                "chain", params={"n_bridges": 3}, shards=2, backend="fibers"
            )

    def test_run_scenario_backend_overrides_partition_spec(self):
        run = run_scenario(
            "chain",
            params={"n_bridges": 3},
            shards=PartitionSpec(shards=2, backend="process"),
            backend="thread",
        )
        assert run.backend == "thread"
        assert run.partition.backend == "thread"

    def test_partition_spec_backend_threads_through(self):
        run = run_scenario(
            "chain",
            params={"n_bridges": 3},
            shards=PartitionSpec(shards=2, backend="process"),
        )
        assert run.backend == "process"
        assert run.sim.relaxed_backend == "process"

    def test_process_backend_runs_windows_in_workers(self):
        fabric = ShardedSimulator(shards=2, backend="process")
        fired = []
        fabric.shards[0].schedule(0.001, lambda: fired.append(1))
        assert fabric.run_until(0.01) == 1
        assert fired == []  # the callback ran in a worker's copy

    def test_warm_up_preserves_the_measured_dispatch(self):
        run = run_scenario(
            "ring", params={"n_bridges": 2, "hosts_per_segment": 1},
            shards=2, backend="process",
        )
        run.warm_up()  # runs on the in-process backend
        assert run.backend == "process"  # restored
        # The measured dispatch is still available.
        sim = run.sim
        hosts = run.hosts
        runner = PingRunner(
            sim, hosts[0], hosts[1].ip, payload_size=96, count=1, interval=0.05
        )
        runner.start(sim.now)
        assert sim.run_until(sim.now + 1.0) > 0
