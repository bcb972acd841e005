"""The sharded event fabric: partitioning, relaxed windows, determinism.

Three layers are covered (the shards' event queue is the single engine's
``EventQueue``, tested in ``test_sim.py``):

* the **segment-graph partitioner** — balanced contiguous placement, cut
  segments, the positive-lookahead requirement, explicit overrides;
* the **coordinator facade** — Simulator API parity (run/run_until/step,
  validation errors, counters), the cross-shard check and the merged trace
  plane;
* cross-shard frame handoff, whose catalog-wide equivalence with the single
  engine ``test_relaxed_fabric.py`` proves.
"""

from __future__ import annotations

import pytest

from repro.exceptions import SchedulingError, SimulationError
from repro.measurement.ping import PingRunner
from repro.scenario import (
    HostSpec,
    PartitionSpec,
    ScenarioSpec,
    SegmentSpec,
    get_scenario,
    list_scenarios,
    plan_partition,
    run_scenario,
)
from repro.sim.engine import Simulator
from repro.sim.fabric import ShardedSimulator
from repro.sim.trace import CounterWindow


# ---------------------------------------------------------------------------
# The partitioner
# ---------------------------------------------------------------------------


def _chain_spec(n_bridges=4):
    return get_scenario("chain", n_bridges=n_bridges)


class TestPartitionPlanner:
    def test_single_shard_plan_is_trivial(self):
        plan = plan_partition(_chain_spec(), 1)
        assert plan.n_shards == 1
        assert set(plan.assignments.values()) == {0}
        assert plan.cut_segments == ()

    def test_contiguous_balanced_chunks(self):
        plan = plan_partition(_chain_spec(4), 2)
        segments = [f"seg{i}" for i in range(5)]
        shards = [plan.assignments[name] for name in segments]
        assert shards == sorted(shards), "chunks must be contiguous"
        assert set(shards) == {0, 1}

    def test_hosts_follow_their_segment(self):
        plan = plan_partition(_chain_spec(4), 2)
        assert plan.assignments["left"] == plan.assignments["seg0"]
        assert plan.assignments["right"] == plan.assignments["seg4"]

    def test_devices_follow_first_port(self):
        plan = plan_partition(_chain_spec(4), 2)
        for index in range(1, 5):
            bridge = f"bridge{index}"
            assert plan.assignments[bridge] == plan.assignments[f"seg{index - 1}"]

    def test_cut_segments_and_lookahead(self):
        plan = plan_partition(_chain_spec(4), 2)
        assert plan.cut_segments, "a split chain must have at least one cut"
        # Minimum-frame wire time (84 bytes at 100 Mb/s = 6720 ns) plus the
        # default 2 us propagation delay, minus 1 ns of rounding headroom.
        assert plan.lookahead_ns == 8719

    def test_shards_clamped_to_segment_count(self):
        plan = plan_partition(_chain_spec(1), 16)
        assert plan.n_shards == 2  # two segments

    def test_zero_lookahead_cut_rejected(self):
        from dataclasses import replace

        spec = get_scenario("chain", n_bridges=1)
        zero = replace(
            spec,
            segments=tuple(
                replace(segment, propagation_delay=0.0) for segment in spec.segments
            ),
        )
        with pytest.raises(ValueError, match="zero"):
            plan_partition(zero, 2)

    def test_explicit_assignments_override(self):
        plan = plan_partition(
            _chain_spec(4), PartitionSpec(shards=2, assignments={"bridge2": 1})
        )
        assert plan.assignments["bridge2"] == 1

    def test_partition_spec_validation(self):
        with pytest.raises(ValueError, match="at least one shard"):
            PartitionSpec(shards=0)
        with pytest.raises(ValueError, match="outside"):
            PartitionSpec(shards=2, assignments={"x": 5})

    def test_explicit_assignment_beyond_clamped_shards_rejected(self):
        # Two segments clamp a 4-shard request to 2 shards; an explicit
        # placement on shard 3 must fail loudly, not IndexError at build.
        with pytest.raises(ValueError, match="only 2 shard"):
            plan_partition(
                _chain_spec(1), PartitionSpec(shards=4, assignments={"seg1": 3})
            )

    def test_explicit_assignment_of_unknown_component_rejected(self):
        with pytest.raises(ValueError, match="unknown component"):
            plan_partition(
                _chain_spec(4), PartitionSpec(shards=2, assignments={"bridg1": 1})
            )


# ---------------------------------------------------------------------------
# The coordinator facade
# ---------------------------------------------------------------------------


def _idle_relaxed_fabric(connected: bool):
    """A two-shard fabric with nothing pending, built by the scenario layer.

    ``connected`` joins the two LANs with a repeater, which cuts a segment
    and gives the fabric a lookahead; otherwise the shards share nothing.
    ``sync="relaxed"`` names the fabric's one mode.
    """
    if connected:
        spec = get_scenario("pair/repeater")
    else:
        spec = ScenarioSpec(
            name="split",
            segments=(SegmentSpec("a"), SegmentSpec("b")),
            hosts=(HostSpec("ha", "a"), HostSpec("hb", "b")),
        )
    run = run_scenario(spec, shards=2, sync="relaxed")
    fabric = run.sim
    fabric.run()
    assert fabric.n_shards == 2 and fabric.pending_events == 0
    assert (fabric.lookahead_ns is not None) == connected
    return fabric


#: The engine's scheduling entry points, each of which a push can take.
SCHEDULING_ENTRIES = (
    "schedule", "schedule_at", "schedule_at_ns", "call_soon",
    "schedule_fire_ns", "schedule_fire_after",
)


def _push(engine, entry, delay_ns, callback):
    """Schedule ``callback`` ``delay_ns`` from now through one entry point."""
    now_ns = engine.now_ns
    if entry == "schedule":
        engine.schedule(delay_ns * 1e-9, callback)
    elif entry == "schedule_at":
        engine.schedule_at((now_ns + delay_ns) * 1e-9, callback)
    elif entry == "schedule_at_ns":
        engine.schedule_at_ns(now_ns + delay_ns, callback)
    elif entry == "call_soon":
        engine.call_soon(callback)
    elif entry == "schedule_fire_ns":
        engine.schedule_fire_ns(now_ns + delay_ns, callback)
    else:
        engine.schedule_fire_after(delay_ns * 1e-9, callback)


class TestShardedSimulatorFacade:
    def test_run_until_matches_single_engine(self):
        def drive(sim, engines):
            fired = []

            def ticker(tag, engine):
                def cb():
                    fired.append((tag, sim.now_ns))
                    engine.schedule(1e-6, cb)

                return cb

            for tag, engine in engines:
                engine.schedule(0.0, ticker(tag, engine))
            sim.run_until(5e-6)
            return fired

        single = Simulator()
        fabric = ShardedSimulator(shards=2)
        expected = drive(single, [("a", single), ("b", single)])
        actual = drive(fabric, [("a", fabric.shards[0]), ("b", fabric.shards[1])])
        # Each shard fires its own ticks at the single engine's times; the
        # fabric does not promise the interleaving across shards.
        assert sorted(actual) == sorted(expected)
        assert fabric.now == single.now == 5e-6

    @pytest.mark.parametrize("entry", SCHEDULING_ENTRIES)
    @pytest.mark.parametrize("connected", [False, True], ids=["no-lookahead", "lookahead"])
    def test_push_onto_another_shard_inside_a_window_raises(self, connected, entry):
        """A window may schedule only onto its own shard, by any entry point.

        Shard 1's private clock is not shard 0's present, so a push from
        shard 0's window at 3,000 ns onto shard 1 would fire 1 us after
        shard 1's clock (1,000 ns), not at 4,000 ns.
        """
        fabric = _idle_relaxed_fabric(connected)
        base = fabric.now_ns
        fired = []
        target = fabric.shards[1]

        def push():
            _push(target, entry, 1_000, lambda: fired.append(fabric.now_ns - base))

        fabric.shards[0].schedule_at_ns(base + 3_000, push)
        with pytest.raises(SimulationError, match="shard 0 .*onto shard 1"):
            fabric.run()
        assert fired == []

    def test_push_onto_a_shard_outside_windows_is_allowed(self):
        # Control barriers (facade work) and the idle fabric may schedule
        # onto any shard: every shard clock reads the same present there.
        fabric = ShardedSimulator(shards=2, lookahead_ns=1_000)
        fired = []
        record = lambda: fired.append(fabric.now_ns)  # noqa: E731
        fabric.shards[1].schedule_at_ns(500, record)
        fabric.schedule_at(3e-6, lambda: fabric.shards[1].schedule(1e-6, record))
        assert fabric.run() == 3
        assert fired == [500, 4_000]

    @pytest.mark.parametrize("connected", [False, True], ids=["no-lookahead", "lookahead"])
    def test_step_fires_the_globally_earliest_event(self, connected):
        """``step()`` runs the earliest event of all shards, not shard 0's."""
        fabric = _idle_relaxed_fabric(connected)
        base = fabric.now_ns
        fired = []
        fabric.shards[1].schedule_at_ns(base + 1_000, lambda: fired.append(1_000))
        fabric.shards[0].schedule_at_ns(base + 2_000, lambda: fired.append(2_000))
        assert fabric.step() is True
        assert fired == [1_000]
        assert fabric.now_ns == base + 1_000
        assert fabric.run() == 1
        assert fired == [1_000, 2_000]

    def test_step_skips_a_cancelled_head_when_picking_the_leader(self):
        fabric = ShardedSimulator(shards=2, lookahead_ns=10_000)
        fired = []
        fabric.shards[0].schedule_at_ns(500, lambda: fired.append(500)).cancel()
        fabric.shards[0].schedule_at_ns(3_000, lambda: fired.append(3_000))
        fabric.shards[1].schedule_at_ns(1_000, lambda: fired.append(1_000))
        assert fabric.step() is True
        assert fired == [1_000]
        assert fabric.run() == 1
        assert fired == [1_000, 3_000]

    def test_step_and_run_and_reset(self):
        fabric = ShardedSimulator(shards=2)
        hits = []
        fabric.shards[1].schedule(2e-6, lambda: hits.append("late"))
        fabric.shards[0].schedule(1e-6, lambda: hits.append("early"))
        assert fabric.step() is True
        assert hits == ["early"]
        assert fabric.run() == 1
        assert hits == ["early", "late"]
        assert fabric.step() is False
        fabric.reset()
        assert fabric.now == 0.0
        assert fabric.pending_events == 0

    def test_max_events_budget(self):
        """Budgeted slices end in the same state as one run."""

        def build():
            fabric = ShardedSimulator(shards=2)
            hits = []
            for i in range(6):
                fabric.shards[i % 2].schedule(i * 1e-6, lambda i=i: hits.append(i))
            return fabric, hits

        sliced, sliced_hits = build()
        assert sliced.run(max_events=4) == 4
        assert len(sliced_hits) == 4
        assert sliced.run(max_events=0) == 0  # parity with Simulator
        assert len(sliced_hits) == 4
        assert sliced.run() == 2
        whole, whole_hits = build()
        assert whole.run() == 6
        assert sorted(sliced_hits) == sorted(whole_hits) == list(range(6))
        assert sliced.now_ns == whole.now_ns == 5_000
        assert sliced.pending_events == whole.pending_events == 0

    def test_past_scheduling_rejected_like_single_engine(self):
        single = Simulator()
        fabric = ShardedSimulator(shards=2)
        single.run_until(1.0)
        fabric.run_until(1.0)
        with pytest.raises(SchedulingError) as single_err:
            single.schedule_at(0.5, lambda: None)
        with pytest.raises(SchedulingError) as fabric_err:
            fabric.shards[1].schedule_at(0.5, lambda: None)
        assert str(single_err.value) == str(fabric_err.value)

    @pytest.mark.parametrize("engine", ["single", "fabric", "fabric-lookahead"])
    @pytest.mark.parametrize(
        "entry", ["schedule", "schedule_fire_after", "schedule_fire_ns"]
    )
    def test_facade_rejects_past_times_in_every_mode(self, engine, entry):
        if engine == "single":
            sim = Simulator()
        elif engine == "fabric":
            sim = ShardedSimulator(shards=2)
        else:
            sim = ShardedSimulator(shards=2, lookahead_ns=1_000)
        sim.run_until(1.0)
        fired = []
        schedule = getattr(sim, entry)
        with pytest.raises(SchedulingError):
            if entry == "schedule_fire_ns":
                schedule(500_000_000, lambda: fired.append(sim.now))
            else:
                schedule(-0.5, lambda: fired.append(sim.now))
        assert sim.pending_events == 0
        sim.run()
        assert fired == []
        assert sim.now == 1.0

    def test_run_until_backwards_rejected(self):
        fabric = ShardedSimulator(shards=2)
        fabric.run_until(1.0)
        with pytest.raises(SimulationError, match="earlier"):
            fabric.run_until(0.5)

    def test_auto_station_ids_are_fabric_wide(self):
        fabric = ShardedSimulator(shards=2)
        first = fabric.shards[0].auto_station_id(0xB0_0000)
        second = fabric.shards[1].auto_station_id(0xB0_0000)
        assert (first, second) == (0xB0_0000, 0xB0_0001)

    def test_reset_rewinds_station_ids(self):
        single = Simulator()
        single.auto_station_id(0xB0_0000)
        single.reset()
        assert single.auto_station_id(0xB0_0000) == 0xB0_0000
        fabric = ShardedSimulator(shards=2)
        fabric.shards[1].auto_station_id(0xB0_0000)
        fabric.reset()
        assert fabric.shards[0].auto_station_id(0xB0_0000) == 0xB0_0000

    def test_schedule_fire_orders_with_cancellable_events(self):
        fabric = ShardedSimulator(shards=1)
        shard = fabric.shards[0]
        fired = []
        shard.schedule_at(1e-6, lambda: fired.append("event"))
        shard.schedule_fire_ns(1_000, lambda: fired.append("fire"))
        fabric.run()
        assert fired == ["event", "fire"]


class TestFabricTrace:
    def _emitting_fabric(self):
        fabric = ShardedSimulator(shards=2)

        def make_tick(shard, index):
            def tick():
                shard.trace.emit(f"s{index}", "tick", {"shard": index})
                shard.schedule(1e-6, tick)

            return tick

        for index, shard in enumerate(fabric.shards):
            shard.schedule(0.0, make_tick(shard, index))
        return fabric

    def test_merged_stream_is_in_canonical_order(self):
        fabric = self._emitting_fabric()
        fabric.run_until(3e-6)
        records = list(fabric.trace)
        assert [record.source for record in records] == ["s0", "s1"] * 4
        assert [record.shard for record in records] == [0, 1] * 4
        times = [record.time for record in records]
        assert times == sorted(times)
        assert records == fabric.trace.canonical_records()

    def test_counters_and_queries(self):
        fabric = self._emitting_fabric()
        fabric.run_until(2e-6)
        assert len(fabric.trace) == 6
        assert fabric.trace.count(source="s0") == 3
        assert fabric.trace.count(category="tick") == 6
        assert fabric.trace.last(source="s1").detail == {"shard": 1}
        assert len(fabric.trace.filter(category="tick", since=1e-6)) == 4

    def test_counter_window_sees_live_totals(self):
        fabric = self._emitting_fabric()
        fabric.run_until(1e-6)
        window = CounterWindow(fabric.trace)
        fabric.run_until(3e-6)
        assert window.count(category="tick") == 4

    def test_gating_fans_out_to_all_shards(self):
        fabric = self._emitting_fabric()
        fabric.trace.disable_category("tick")
        fabric.run_until(2e-6)
        assert len(fabric.trace) == 0
        assert not fabric.shards[0].trace.wants("tick")
        fabric.trace.enable_category("tick")
        fabric.run_until(4e-6)
        assert len(fabric.trace) > 0

    def test_clear_resets_everything(self):
        fabric = self._emitting_fabric()
        fabric.run_until(2e-6)
        fabric.trace.clear()
        assert len(fabric.trace) == 0
        assert list(fabric.trace) == []


# ---------------------------------------------------------------------------
# Cross-shard frame handoff
# ---------------------------------------------------------------------------


class TestInterShardChannel:
    def test_cut_segment_counts_cross_shard_frames(self):
        run = run_scenario("chain", params={"n_bridges": 4}, shards=2)
        left, right = run.host("left"), run.host("right")
        result = PingRunner(
            run.sim, left, right.ip, payload_size=64, count=2, interval=0.05
        ).run(start_time=run.ready_time)
        assert result.received == 2
        crossed = sum(
            run.segment(name).cross_shard_frames
            for name in run.partition.cut_segments
        )
        assert crossed > 0
        assert run.sim.relaxed_stats["mail_flushed"] > 0

    def test_facade_homed_nic_receives_on_a_sharded_segment(self):
        # A monitoring NIC built against the facade (run.sim) must work on a
        # sharded run exactly as it does on a single-engine run.
        from repro.ethernet.ethertype import EtherType
        from repro.ethernet.frame import EthernetFrame
        from repro.ethernet.mac import MacAddress
        from repro.lan.nic import NetworkInterface

        run = run_scenario("chain", params={"n_bridges": 2}, shards=2)
        run.warm_up()
        seen = []
        spy = NetworkInterface(
            run.sim, "spy", MacAddress.from_string("02:aa:00:00:00:08")
        )
        spy.attach(run.segment("seg1"))
        spy.set_promiscuous(True)
        spy.set_handler(lambda _nic, frame: seen.append(frame))
        result = PingRunner(
            run.sim, run.host("left"), run.host("right").ip,
            payload_size=64, count=1, interval=0.05,
        ).run(start_time=run.sim.now)
        assert result.received == 1
        assert seen, "the facade-homed spy saw no frames"

    def test_delivery_runs_refresh_on_attach_detach(self):
        fabric = ShardedSimulator(shards=2)
        from repro.ethernet.mac import MacAddress
        from repro.lan.nic import NetworkInterface
        from repro.lan.segment import Segment

        segment = Segment(fabric.shards[0], "lan")
        local = NetworkInterface(
            fabric.shards[0], "local", MacAddress.locally_administered(1)
        )
        remote = NetworkInterface(
            fabric.shards[1], "remote", MacAddress.locally_administered(2)
        )
        local.attach(segment)
        assert segment._delivery_runs is None
        remote.attach(segment)
        assert segment._delivery_runs is not None
        assert [engine for engine, _ in segment._delivery_runs] == [
            fabric.shards[0],
            fabric.shards[1],
        ]
        remote.detach()
        assert segment._delivery_runs is None


# ---------------------------------------------------------------------------
# Catalog-wide determinism, the partition report and the benchmark topology
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


def _fabric_state(run):
    counters = dict(run.sim.trace.counters.by_category_source)
    segment_stats = {
        name: (segment.frames_carried, segment.bytes_carried, segment.cross_shard_frames)
        for name, segment in run.network.segments.items()
    }
    shard_stats = run.sim.shard_stats() if run.n_shards > 1 else None
    return (
        run.sim.trace.canonical_records(), counters, segment_stats, shard_stats,
        run.sim.now,
    )


@pytest.mark.parametrize("name", sorted(entry.name for entry in list_scenarios()))
def test_catalog_scenarios_are_deterministic_when_sharded(name):
    """Every catalog scenario, tie-prone ones included, runs the same twice
    at shards=2 and 4, and its shard statistics account for every event and
    record.  (Equality with the single engine, for every entry not flagged
    ``tie_prone``, is ``test_relaxed_fabric.py``'s headline.)"""
    for shards in (2, 4):
        first = _drive(name, shards)
        assert _fabric_state(first) == _fabric_state(_drive(name, shards)), shards
        fabric = first.sim
        if first.n_shards > 1:
            stats = fabric.shard_stats()
            assert sum(entry["records"] for entry in stats) == len(fabric.trace)
            assert sum(entry["events_dispatched"] for entry in stats) == (
                fabric.events_dispatched - fabric._control_dispatched
            )


def test_sharded_run_reports_partition():
    run = run_scenario("chain", params={"n_bridges": 4}, shards=2)
    assert run.n_shards == 2
    assert run.partition is not None
    assert run.partition.lookahead_ns == 8719
    assert run.network.sim.lookahead_ns == 8719


def test_ring_with_hosts_is_deterministic_when_sharded():
    """The benchmark topology itself: hosts on every LAN, STP across shards."""
    single = run_scenario("ring", params={"n_bridges": 7, "hosts_per_segment": 1})
    single.warm_up()
    sharded = run_scenario(
        "ring", params={"n_bridges": 7, "hosts_per_segment": 1}, shards=4
    )
    sharded.warm_up()
    assert single.sim.trace.canonical_records() == sharded.sim.trace.canonical_records()
    assert dict(single.sim.trace.counters.by_category_source) == dict(
        sharded.sim.trace.counters.by_category_source
    )
