"""Relaxed execution of the sharded fabric, against the single engine.

The correctness contract under test: a fabric run's canonical trace records
— ``canonical_records()``, keyed ``(time, source, category)`` with ties in
stream order — plus every live counter and component statistic are
identical to the single engine's, across the scenario catalog (every entry
not flagged ``tie_prone``), and reproducibly across repeated runs in one
process.
"""

from __future__ import annotations

import pytest

from repro.ethernet.frame import EthernetFrame
from repro.exceptions import SimulationError, TopologyError
from repro.lan.topology import NetworkBuilder
from repro.measurement.ping import PingRunner
from repro.scenario import run_scenario
from repro.scenario.compile import plan_partition
from repro.scenario.registry import get_scenario, list_scenarios
from repro.scenario.spec import (
    DeviceSpec,
    HostSpec,
    PartitionSpec,
    PortSpec,
    ScenarioSpec,
    SegmentSpec,
    SwitchletSpec,
)
from repro.sim.fabric import ShardedSimulator
from repro.sim.trace import RingBufferSink


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _drive(name, shards):
    """Compile, warm up and (when possible) ping across a catalog scenario."""
    params = {"n_bridges": 2} if name in ("ring", "chain") else None
    run = run_scenario(name, params=params, shards=shards)
    run.warm_up()
    hosts = run.hosts
    if len(hosts) >= 2:
        PingRunner(
            run.sim, hosts[0], hosts[1].ip, payload_size=96, count=2, interval=0.05
        ).run(start_time=run.sim.now)
    return run


def _observables(run):
    counters = dict(run.sim.trace.counters.by_category_source)
    host_stats = {host.name: host.statistics() for host in run.hosts}
    segment_stats = {
        name: (segment.frames_carried, segment.bytes_carried)
        for name, segment in run.network.segments.items()
    }
    return counters, host_stats, segment_stats, run.sim.now


def _assert_equivalent(reference, candidate, context=""):
    assert (
        candidate.sim.trace.canonical_records()
        == reference.sim.trace.canonical_records()
    ), context
    assert _observables(candidate) == _observables(reference), context


# ---------------------------------------------------------------------------
# The headline: catalog-wide canonical equivalence with the single engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    sorted(entry.name for entry in list_scenarios() if not entry.tie_prone),
)
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_catalog_relaxed_is_canonical_merge_identical(name, shards):
    """Fabric runs equal the single engine in the canonical order, catalog-wide."""
    reference = _drive(name, 1)
    assert reference.partition is None
    candidate = _drive(name, shards)
    _assert_equivalent(reference, candidate, (name, shards))


def _express_modes(run):
    """Express-lane mode per segment, from the report's ``express_frames``."""
    return {
        labels["segment"]: labels["mode"]
        for labels, _frames in run.report().family("express_frames")
    }


@pytest.mark.parametrize("name", sorted(entry.name for entry in list_scenarios()))
def test_catalog_express_report_is_stable(name):
    """Express-lane eligibility is declaration- and topology-driven.

    For a given scenario and shard count the per-segment modes in the run
    report's ``express_frames`` labels must be identical across independent
    compiles and reproducible after warm-up (scheduled fault-model
    activations may legitimately move a segment off the lane, but two
    identical runs must agree on where it lands).
    """
    params = {"n_bridges": 2} if name in ("ring", "chain") else None

    def compiled():
        return run_scenario(name, params=params, shards=4)

    first = compiled()
    second = compiled()
    report = _express_modes(first)
    assert report == _express_modes(second)
    assert set(report) == set(first.network.segments)
    assert set(report.values()) <= {"off", "inline", "deferred"}
    first.warm_up()
    second.warm_up()
    assert _express_modes(first) == _express_modes(second)


@pytest.mark.parametrize("shards", [2, 4])
def test_relaxed_repeated_runs_are_deterministic(shards):
    """Two relaxed runs in one process produce identical canonical traces."""
    first = _drive("ring", shards)
    second = _drive("ring", shards)
    _assert_equivalent(first, second, shards)


# ---------------------------------------------------------------------------
# Cross-shard stress: chain with hosts on every segment
# ---------------------------------------------------------------------------


def _populated_chain_spec(n_bridges=5):
    """A learning-bridge chain with a host on *every* segment.

    Neighbouring hosts ping across every bridge, so frames cross every cut
    segment in both directions — cross-shard traffic dominates the run.
    """
    segments = tuple(SegmentSpec(f"seg{i}") for i in range(n_bridges + 1))
    hosts = tuple(HostSpec(f"h{i}", f"seg{i}") for i in range(n_bridges + 1))
    devices = tuple(
        DeviceSpec(
            f"bridge{i + 1}",
            kind="active-node",
            ports=(PortSpec("eth0", f"seg{i}"), PortSpec("eth1", f"seg{i + 1}")),
            switchlets=(
                SwitchletSpec("dumb-bridge"),
                SwitchletSpec("learning-bridge"),
            ),
        )
        for i in range(n_bridges)
    )
    return ScenarioSpec(
        name="chain/populated",
        description="bridge chain with per-segment hosts (cross-shard stress)",
        segments=segments,
        hosts=hosts,
        devices=devices,
    )


def _drive_populated_chain(shards):
    run = run_scenario(_populated_chain_spec(), shards=shards)
    run.warm_up()
    hosts = run.hosts
    # Every neighbouring pair pings across its bridge; staggered starts keep
    # several flights crossing different cuts at once.
    for index in range(len(hosts) - 1):
        PingRunner(
            run.sim,
            hosts[index],
            hosts[index + 1].ip,
            payload_size=64,
            count=2,
            interval=0.02,
        ).run(start_time=run.sim.now + 0.001 * index)
    return run


@pytest.mark.parametrize("shards", [2, 4])
def test_cross_shard_dominated_chain_is_equivalent(shards):
    reference = _drive_populated_chain(1)
    candidate = _drive_populated_chain(shards)
    assert candidate.partition.cut_segments  # the stress premise holds
    assert any(
        segment.cross_shard_frames
        for segment in candidate.network.segments.values()
    )
    _assert_equivalent(reference, candidate, shards)


# ---------------------------------------------------------------------------
# The express lane (inline-safe handlers)
# ---------------------------------------------------------------------------


def _build_blast(segments, shards, frames):
    """The wire-speed workload: raw ping-pong pairs, bridge ports down."""
    run = run_scenario(
        "ring",
        params={"n_bridges": segments - 1, "hosts_per_segment": 2},
        shards=shards,
    )
    run.warm_up()
    for device in run.devices:
        for nic in device.interfaces.values():
            nic.set_up(False)
    states = []
    for segment_spec in run.spec.segments:
        left = run.host(f"{segment_spec.name}h1")
        right = run.host(f"{segment_spec.name}h2")
        forward = EthernetFrame(
            destination=right.mac, source=left.mac, ethertype=0x88B5,
            payload=b"\x00" * 64,
        )
        backward = EthernetFrame(
            destination=left.mac, source=right.mac, ethertype=0x88B5,
            payload=b"\x00" * 64,
        )
        state = [frames]
        states.append(state)

        def bounce(nic, reply, state=state):
            def handler(_nic, _frame):
                state[0] -= 1
                if state[0] > 0:
                    nic.send(reply)

            return handler

        # The single engine ignores inline_safe, which is exactly what makes
        # the comparison with the fabric's express lanes meaningful.
        left.nic.set_handler(bounce(left.nic, forward), inline_safe=True)
        right.nic.set_handler(bounce(right.nic, backward), inline_safe=True)
    seeds = [
        run.host(f"{segment_spec.name}h1") for segment_spec in run.spec.segments
    ]
    forwards = [
        EthernetFrame(
            destination=run.host(f"{s.name}h2").mac,
            source=run.host(f"{s.name}h1").mac,
            ethertype=0x88B5,
            payload=b"\x00" * 64,
        )
        for s in run.spec.segments
    ]
    return run, states, seeds, forwards


def _blast(run, states, seeds, forwards, frames, horizon=None):
    for state in states:
        state[0] = frames
    sim = run.sim
    for host, frame in zip(seeds, forwards):
        host.nic.send(frame)
    sim.run_until(horizon if horizon is not None else sim.now + frames * 40e-6)


def test_express_lane_blast_is_equivalent():
    frames = 30
    single_run, s_states, s_seeds, s_fwd = _build_blast(8, 1, frames)
    relaxed_run, r_states, r_seeds, r_fwd = _build_blast(8, 4, frames)
    # The express precondition: shard-local segments with only inline-safe /
    # downed receivers.
    assert any(
        segment._express for segment in relaxed_run.network.segments.values()
    )
    _blast(single_run, s_states, s_seeds, s_fwd, frames)
    _blast(relaxed_run, r_states, r_seeds, r_fwd, frames)
    assert all(state[0] <= 0 for state in r_states)
    _assert_equivalent(single_run, relaxed_run)


def test_express_lane_horizon_straddling_resumes_exactly():
    """Cutting a run mid-cascade and resuming matches the single engine at
    every stop."""
    frames = 20
    single_run, s_states, s_seeds, s_fwd = _build_blast(6, 1, frames)
    relaxed_run, r_states, r_seeds, r_fwd = _build_blast(6, 3, frames)
    # Stop mid-exchange: the horizon lands inside every pair's ping-pong.
    mid = single_run.sim.now + frames * 40e-6 / 3
    end = single_run.sim.now + frames * 40e-6
    _blast(single_run, s_states, s_seeds, s_fwd, frames, horizon=mid)
    _blast(relaxed_run, r_states, r_seeds, r_fwd, frames, horizon=mid)
    assert dict(single_run.sim.trace.counters.by_category_source) == dict(
        relaxed_run.sim.trace.counters.by_category_source
    )
    single_run.sim.run_until(end)
    relaxed_run.sim.run_until(end)
    assert all(state[0] <= 0 for state in r_states)
    _assert_equivalent(single_run, relaxed_run)


def test_express_pump_stops_at_control_barriers():
    """A driver callback mid-blast observes exactly the single engine's state.

    Regression: the pump used to run whole cascades to the dispatch horizon,
    past pending control-ring events, so a facade-scheduled observer saw
    future traffic.
    """
    frames = 30
    observations = {}

    def drive(shards):
        run, states, seeds, forwards = _build_blast(6, shards, frames)
        seg = run.segment("seg0")
        sim = run.sim
        at = sim.now + 0.0001  # mid-blast (the exchange takes ~0.3 ms)
        sim.schedule_at(
            at, lambda: observations.setdefault(shards, seg.frames_carried)
        )
        _blast(run, states, seeds, forwards, frames)
        return run

    single_run = drive(1)
    relaxed_run = drive(3)
    assert observations[3] == observations[1]
    assert 0 < observations[1] < single_run.segment("seg0").frames_carried
    _assert_equivalent(single_run, relaxed_run)


def test_express_pump_respects_horizon_with_future_control_event():
    """A control event beyond the horizon must not extend express cascades.

    Regression: the pump bound was control_t - 1 unclamped, so a pending
    driver timeout far in the future let cascades overrun run_until().
    """
    frames = 30

    def drive(shards):
        run, states, seeds, forwards = _build_blast(6, shards, frames)
        run.sim.schedule(5.0, lambda: None)  # a far-future driver timeout
        # The 64-byte exchange cycles every ~10.6 us; land inside it.
        mid = run.sim.now + frames * 40e-6 / 8
        _blast(run, states, seeds, forwards, frames, horizon=mid)
        return run, states

    single_run, single_states = drive(1)
    relaxed_run, relaxed_states = drive(3)
    assert [s[0] for s in relaxed_states] == [s[0] for s in single_states]
    assert any(s[0] > 0 for s in relaxed_states)  # genuinely cut mid-exchange
    assert relaxed_run.sim.now == single_run.sim.now
    assert dict(relaxed_run.sim.trace.counters.by_category_source) == dict(
        single_run.sim.trace.counters.by_category_source
    )


def test_cut_segment_stats_survive_horizon_cut():
    """Segment statistics on express cut segments are exact mid-run.

    Every frame served on a cut segment crosses the cut, so a cut segment's
    ``cross_shard_frames`` must equal the frames the single engine carried
    on that segment by the same instant.
    """
    frames = 20
    single_run, s_states, s_seeds, s_fwd = _build_blast(6, 1, frames)
    relaxed_run, r_states, r_seeds, r_fwd = _build_blast(6, 3, frames)
    mid = single_run.sim.now + frames * 40e-6 / 3
    _blast(single_run, s_states, s_seeds, s_fwd, frames, horizon=mid)
    _blast(relaxed_run, r_states, r_seeds, r_fwd, frames, horizon=mid)
    single_carried = {
        name: seg.frames_carried for name, seg in single_run.network.segments.items()
    }
    assert {
        name: seg.frames_carried for name, seg in relaxed_run.network.segments.items()
    } == single_carried
    cut = relaxed_run.partition.cut_segments
    crossed = {name: relaxed_run.segment(name).cross_shard_frames for name in cut}
    assert crossed == {name: single_carried[name] for name in cut}
    assert any(crossed.values())


def test_facade_homed_segment_transmits():
    """A segment built directly against the fabric facade still transmits."""
    from repro.ethernet.mac import MacAddress
    from repro.lan.nic import NetworkInterface
    from repro.lan.segment import Segment

    fabric = ShardedSimulator(shards=2)
    segment = Segment(fabric, "facade-lan")
    a = NetworkInterface(fabric, "a", MacAddress.from_string("02:00:00:aa:00:01"))
    b = NetworkInterface(fabric, "b", MacAddress.from_string("02:00:00:aa:00:02"))
    a.attach(segment)
    b.attach(segment)
    got = []
    b.set_handler(lambda nic, frame: got.append(frame))
    a.send(
        EthernetFrame(
            destination=b.mac, source=a.mac, ethertype=0x88B5, payload=b"hi"
        )
    )
    fabric.run_until(0.01)
    assert len(got) == 1


def test_facade_homed_nic_on_cut_segment_relaxed():
    """A monitoring NIC built against ``run.sim`` works on a cut segment."""
    from repro.ethernet.mac import MacAddress
    from repro.lan.nic import NetworkInterface

    params = {"n_bridges": 3, "hosts_per_segment": 1}

    def drive(shards, segment_name):
        run = run_scenario("ring", params=params, shards=shards)
        monitor = NetworkInterface(
            run.sim, "monitor.eth0", MacAddress.from_string("02:00:00:ff:00:01")
        )
        monitor.set_promiscuous(True)
        monitor.attach(run.segment(segment_name))
        run.warm_up()
        return run, monitor

    cut_name = run_scenario("ring", params=params, shards=2).partition.cut_segments[0]
    single_run, single_monitor = drive(1, cut_name)
    relaxed_run, relaxed_monitor = drive(2, cut_name)
    assert single_monitor.frames_received > 0
    assert relaxed_monitor.statistics() == single_monitor.statistics()
    assert dict(relaxed_run.sim.trace.counters.by_category_source) == dict(
        single_run.sim.trace.counters.by_category_source
    )


def test_express_refresh_follows_handler_and_link_state():
    run = run_scenario(
        "ring",
        params={"n_bridges": 3, "hosts_per_segment": 2},
        shards=2,
    )
    run.warm_up()
    segment = run.segment("seg0")
    # Bridge demux handlers are not inline-safe, but every station on the
    # segment is segment-local, so a shard-local segment earns the deferred
    # lane (batched wire service; deliveries stay on the ring).
    assert segment.express_mode == "deferred"
    for device in run.devices:
        for nic in device.interfaces.values():
            nic.set_up(False)
    host = run.host("seg0h1")
    other = run.host("seg0h2")
    host.nic.set_handler(lambda n, f: None, inline_safe=True)
    other.nic.set_handler(lambda n, f: None, inline_safe=True)
    assert segment.express_mode == "inline"
    # Bringing a bridge port back up demotes the lane: its demux handler is
    # segment-local (deferred stays legal) but not inline-safe.
    bridge_nic = next(iter(run.device("bridge1").interfaces.values()))
    if bridge_nic.segment is segment:
        bridge_nic.set_up(True)
        assert segment.express_mode == "deferred"
    # A handler declaring neither contract kills the lane outright.
    host.nic.set_handler(lambda n, f: None)
    assert segment.express_mode == "off"
    # And revoking the segment-local declaration alone does the same for the
    # remaining stations.
    other.nic.set_handler(lambda n, f: None, segment_local=True)
    assert segment.express_mode == "off"


# ---------------------------------------------------------------------------
# Facade semantics
# ---------------------------------------------------------------------------


class TestRelaxedFacade:
    def _fabric(self, shards=3, **kwargs):
        return ShardedSimulator(shards=shards, **kwargs)

    def test_run_until_advances_clock_and_drains(self):
        fabric = self._fabric()
        fired = []
        for index, shard in enumerate(fabric.shards):
            shard.schedule(0.001 * (index + 1), lambda i=index: fired.append(i))
        dispatched = fabric.run_until(0.01)
        assert dispatched == 3
        assert sorted(fired) == [0, 1, 2]
        assert fabric.now == 0.01
        assert fabric.pending_events == 0

    def test_run_drains_and_clock_reaches_last_event(self):
        fabric = self._fabric()
        fabric.shards[2].schedule(0.5, lambda: None)
        fabric.shards[0].schedule(0.25, lambda: None)
        assert fabric.run() == 2
        assert fabric.now == 0.5

    def test_max_events_budget_and_step(self):
        fabric = self._fabric()
        for shard in fabric.shards:
            shard.schedule(0.001, lambda: None)
            shard.schedule(0.002, lambda: None)
        assert fabric.run(max_events=4) == 4
        assert fabric.pending_events == 2
        assert fabric.step() is True
        assert fabric.run() == 1
        assert fabric.step() is False

    def test_whole_horizon_round_drains_every_shard_with_work(self):
        """With no cut segment a round drains every shard whose heap holds
        anything — here a cancelled event past the horizon, which the drain
        discards."""
        fabric = self._fabric(shards=2)
        fabric.shards[0].schedule(0.001, lambda: None)
        fabric.shards[1].schedule(0.005, lambda: None).cancel()
        fabric.run_until(0.002)
        assert fabric.relaxed_stats["windows"] == 1
        assert [s["cancelled_discarded"] for s in fabric.shard_stats()] == [0, 1]

    @pytest.mark.parametrize("other", [None, 0.002], ids=["idle", "past-horizon"])
    def test_sole_leader_extends_its_window_in_place(self, other):
        """A sole leader's drain extends its own window: 50 events 10 µs
        apart under a 1 µs lookahead run in one window, whether the other
        shard is idle or holds one event past the horizon."""
        fabric = self._fabric(shards=2, lookahead_ns=1_000)
        for k in range(50):
            fabric.shards[0].schedule_fire_ns((k + 1) * 10_000, lambda: None)
        if other is not None:
            fabric.shards[1].schedule(other, lambda: None)
        assert fabric.run_until(0.001) == 50
        assert fabric.relaxed_stats["windows"] == 1

    @pytest.mark.parametrize("budget", range(1, 9))
    def test_budgeted_run_returns_after_its_budget(self, budget):
        """``run(max_events=n)`` fires the n earliest events, then returns.

        Regression: each window round subtracted the events already run from
        the budget twice, so once a round left ``n / 2 <= dispatched < n``
        no shard had budget left and the dispatch looped forever.
        """
        fabric = self._fabric(shards=2, lookahead_ns=1_000)
        fired = []
        times = []
        for k in range(4):
            for shard, offset in zip(fabric.shards, (1, 5_000)):
                when = k * 10_000 + offset
                times.append(when)
                shard.schedule_fire_ns(when, lambda when=when: fired.append(when))
        assert fabric.run(max_events=budget) == budget
        assert fired == sorted(times)[:budget]

    def test_relaxed_stats_and_mode_report(self):
        fabric = self._fabric()
        fabric.shards[0].schedule(0.001, lambda: None)
        fabric.run_until(0.01)
        assert fabric.relaxed is True
        assert fabric.relaxed_stats["windows"] >= 1
        assert all(not shard.outbox for shard in fabric.shards)
        assert all(not shard.relaxed for shard in fabric.shards)

    def test_reset_clears_relaxed_state(self):
        fabric = self._fabric()
        fabric.shards[1].schedule(0.75, lambda: None)
        fabric.run()
        fabric.reset()
        assert fabric.now == 0.0
        assert fabric.pending_events == 0
        assert len(fabric.trace) == 0

    def test_facade_now_is_context_local_during_windows(self):
        """Measurement callbacks fired mid-window read their shard's present.

        Regression: ping RTTs are computed from ``facade.now`` inside a
        reply handler running in component context; a stale shared clock
        made every relaxed RTT zero.
        """
        run = run_scenario("pair/active-bridge", shards=2)
        run.warm_up()
        relaxed = PingRunner(
            run.sim, run.hosts[0], run.hosts[1].ip, payload_size=512, count=3,
            interval=0.1,
        ).run(start_time=run.sim.now)
        twin = run_scenario("pair/active-bridge")
        twin.warm_up()
        single = PingRunner(
            twin.sim, twin.hosts[0], twin.hosts[1].ip, payload_size=512,
            count=3, interval=0.1,
        ).run(start_time=twin.sim.now)
        assert relaxed.received == 3
        assert min(relaxed.rtts) > 0
        assert relaxed.rtts == single.rtts
        assert relaxed.bridge_forwards == single.bridge_forwards

    def test_canonical_records_break_same_instant_ties_by_source(self):
        # Same instant, two shards: the source name orders the records, not
        # the shard that happened to write them.
        fabric = ShardedSimulator(shards=2)
        fabric.shards[0].schedule(0.001, lambda: fabric.shards[0].trace.emit("b", "x"))
        fabric.shards[1].schedule(0.001, lambda: fabric.shards[1].trace.emit("a", "x"))
        fabric.run()
        canonical = fabric.trace.canonical_records()
        assert [record.source for record in canonical] == ["a", "b"]
        assert [record.shard for record in canonical] == [1, 0]


# ---------------------------------------------------------------------------
# Option validation and plumbing
# ---------------------------------------------------------------------------


class TestSyncPlumbing:
    def test_sync_option_is_gone(self):
        """Every fabric runs relaxed windows; nothing selects a sync mode."""
        with pytest.raises(TypeError):
            PartitionSpec(shards=2, sync="relaxed")
        with pytest.raises(TypeError):
            ShardedSimulator(shards=2, sync="relaxed")
        assert not hasattr(ShardedSimulator(shards=2), "set_sync")

    def test_worker_threads_are_gone(self):
        """Relaxed windows run on the calling thread; nothing sizes a pool."""
        with pytest.raises(TypeError):
            PartitionSpec(shards=2, workers=1)
        with pytest.raises(TypeError):
            ShardedSimulator(shards=2, workers=1)

    def test_sharded_run_refuses_trace_sinks(self):
        with pytest.raises(SimulationError, match="trace_sinks"):
            run_scenario(
                "chain", params={"n_bridges": 3}, shards=2,
                trace_sinks=[RingBufferSink(16)],
            )
        with pytest.raises(TypeError):
            ShardedSimulator(shards=2, trace_sinks=[RingBufferSink(16)])
        # A network too small to shard runs on the single engine, sinks and all.
        ring = RingBufferSink(16)
        run = run_scenario("pair/direct", shards=2, trace_sinks=[ring])
        assert run.n_shards == 1
        assert run.sim.trace.store is ring

    def test_run_scenario_sync_is_only_a_guard(self):
        for sync in (None, "relaxed"):
            run = run_scenario("chain", params={"n_bridges": 3}, shards=2, sync=sync)
            assert run.n_shards == 2
        with pytest.raises(ValueError, match="sync"):
            run_scenario("chain", params={"n_bridges": 3}, shards=2, sync="strict")

    def test_compile_rejects_unknown_sync(self):
        with pytest.raises(ValueError):
            run_scenario("chain", params={"n_bridges": 3}, shards=2, sync="nope")

    def test_phased_runs_equal_one_run(self):
        """A warm-up phase then two measurement phases equal one long run,
        and both equal the single engine."""
        params = {"n_bridges": 3, "hosts_per_segment": 1}
        run = run_scenario("ring", params=params, shards=2)
        run.warm_up()
        run.sim.run_for(2.0)
        run.sim.run_for(2.0)
        twin = run_scenario("ring", params=params, shards=2)
        twin.warm_up()
        twin.sim.run_for(4.0)
        single = run_scenario("ring", params=params)
        single.warm_up()
        single.sim.run_for(4.0)
        records = run.sim.trace.canonical_records()
        assert records == twin.sim.trace.canonical_records()
        assert records == single.sim.trace.canonical_records()


# ---------------------------------------------------------------------------
# Partitioner force-advance and the widened IP allocator
# ---------------------------------------------------------------------------


class TestPartitionerAndAddressing:
    def test_every_shard_gets_a_segment(self):
        spec = get_scenario("ring")  # 3 bridges -> 4 segments
        plan = plan_partition(spec, 4)
        segment_shards = [
            plan.assignments[segment.name] for segment in spec.segments
        ]
        assert segment_shards == [0, 1, 2, 3]
        assert plan.lookahead_ns is not None

    def test_large_ring_balances_across_shards(self):
        spec = get_scenario("ring", n_bridges=255, hosts_per_segment=2)
        plan = plan_partition(spec, 4)
        from collections import Counter

        sizes = Counter(
            plan.assignments[segment.name] for segment in spec.segments
        )
        assert set(sizes) == {0, 1, 2, 3}
        assert max(sizes.values()) - min(sizes.values()) <= 2

    def test_ip_allocation_rolls_into_next_subnet(self):
        builder = NetworkBuilder()
        addresses = [str(builder.allocate_ip()) for _ in range(300)]
        assert addresses[0] == "10.0.0.1"
        assert addresses[253] == "10.0.0.254"
        assert addresses[254] == "10.0.1.1"
        assert addresses[299] == "10.0.1.46"
        assert len(set(addresses)) == 300

    def test_ip_allocation_rolls_into_next_slash16(self):
        # Exhausting the third octet no longer fails: allocation rolls into
        # the next /16 so 65k+-station populations keep allocating.
        builder = NetworkBuilder(subnet_prefix="10.0.254")
        for _ in range(254):
            builder.allocate_ip()
        rolled = builder.allocate_ip()
        assert str(rolled) == "10.1.0.1"

    def test_ip_allocation_exhaustion_still_raises(self):
        # True exhaustion — nowhere left to roll past the second octet.
        builder = NetworkBuilder(subnet_prefix="10.254.254")
        for _ in range(254):
            builder.allocate_ip()
        with pytest.raises(TopologyError):
            builder.allocate_ip()

    def test_256_lan_ring_compiles_with_hosts(self):
        run = run_scenario(
            "ring",
            params={"n_bridges": 255, "hosts_per_segment": 2},
            shards=4,
        )
        assert run.n_shards == 4
        assert len(run.spec.hosts) == 512
        ips = {str(host.ip) for host in run.hosts}
        assert len(ips) == 512
