"""Edge cases of the segment-graph partitioner and the partition spec.

``plan_partition`` carries the invariants the sharded engines rely on: the
shard count is clamped so no shard sits segment-less, hosts ride with their
segment and devices with their first port's segment, cut segments are
exactly the cross-shard coupling points, and the conservative lookahead is
the minimum cross-shard handoff latency.  These tests pin each of those at
the boundaries.
"""

import pytest

from repro.ethernet.frame import MIN_WIRE_LENGTH
from repro.scenario import (
    DeviceSpec,
    HostSpec,
    PartitionSpec,
    PortSpec,
    ScenarioSpec,
    SegmentSpec,
    SwitchletSpec,
    plan_partition,
)
from repro.sim.clock import seconds_to_ns

BRIDGE_STACK = (SwitchletSpec("dumb-bridge"), SwitchletSpec("learning-bridge"))


def _bridge(name, left, right):
    return DeviceSpec(
        name=name,
        ports=(PortSpec("eth0", left), PortSpec("eth1", right)),
        switchlets=BRIDGE_STACK,
    )


def _chain(n_segments, hosts_per_segment=1, propagation_delay=2e-6,
           bandwidth_bps=1e8):
    """``s0 -b0- s1 -b1- s2 ...`` with hosts spread over the segments."""
    segments = tuple(
        SegmentSpec(f"s{index}", bandwidth_bps=bandwidth_bps,
                    propagation_delay=propagation_delay)
        for index in range(n_segments)
    )
    hosts = tuple(
        HostSpec(f"h{index}-{k}", f"s{index}")
        for index in range(n_segments)
        for k in range(hosts_per_segment)
    )
    devices = tuple(
        _bridge(f"b{index}", f"s{index}", f"s{index + 1}")
        for index in range(n_segments - 1)
    )
    return ScenarioSpec(
        name=f"chain-{n_segments}", segments=segments, hosts=hosts,
        devices=devices,
    )


class TestShardClamping:
    def test_shards_are_clamped_to_the_segment_count(self):
        plan = plan_partition(_chain(2), 8)
        assert plan.n_shards == 2
        assert set(plan.assignments.values()) == {0, 1}

    def test_single_segment_falls_back_to_the_single_engine(self):
        plan = plan_partition(_chain(1), 4)
        assert plan.n_shards == 1
        assert set(plan.assignments.values()) == {0}
        assert plan.cut_segments == ()
        assert plan.lookahead_ns is None

    def test_segmentless_spec_falls_back_to_the_single_engine(self):
        spec = ScenarioSpec(name="empty")
        plan = plan_partition(spec, 3)
        assert plan.n_shards == 1
        assert plan.assignments == {}

    def test_fewer_than_one_shard_is_rejected(self):
        with pytest.raises(ValueError, match="at least one shard"):
            plan_partition(_chain(2), 0)

    def test_int_partition_matches_default_partition_spec(self):
        spec = _chain(3)
        assert plan_partition(spec, 2) == plan_partition(
            spec, PartitionSpec(shards=2)
        )


class TestPlacement:
    def test_every_shard_gets_a_segment_despite_skewed_weights(self):
        # s0 carries almost all the attachment weight; without the
        # force-advance rule the balancer would give every segment to
        # shard 0 and leave the rest idle.
        spec = _chain(4)
        heavy = spec.hosts + tuple(HostSpec(f"extra{k}", "s0") for k in range(20))
        spec = ScenarioSpec(name=spec.name, segments=spec.segments, hosts=heavy,
                            devices=spec.devices)
        plan = plan_partition(spec, 4)
        assert plan.n_shards == 4
        segment_shards = {plan.assignments[f"s{index}"] for index in range(4)}
        assert segment_shards == {0, 1, 2, 3}

    def test_hosts_follow_their_segment(self):
        plan = plan_partition(_chain(4, hosts_per_segment=2), 4)
        for host_index in range(4):
            for k in range(2):
                assert (
                    plan.assignments[f"h{host_index}-{k}"]
                    == plan.assignments[f"s{host_index}"]
                )

    def test_devices_follow_their_first_port_segment(self):
        plan = plan_partition(_chain(4), 4)
        for index in range(3):
            assert plan.assignments[f"b{index}"] == plan.assignments[f"s{index}"]

    def test_disjoint_segments_produce_no_cuts(self):
        spec = ScenarioSpec(
            name="islands",
            segments=(SegmentSpec("s0"), SegmentSpec("s1")),
            hosts=(HostSpec("h0", "s0"), HostSpec("h1", "s1")),
        )
        plan = plan_partition(spec, 2)
        assert plan.n_shards == 2
        assert plan.cut_segments == ()
        assert plan.lookahead_ns is None

    def test_bridge_chain_cuts_exactly_at_chunk_boundaries(self):
        plan = plan_partition(_chain(4), 2)
        cut = set(plan.cut_segments)
        for segment in plan.cut_segments:
            owner = plan.assignments[segment]
            attached = {
                plan.assignments[f"b{index}"]
                for index in range(3)
                if segment in (f"s{index}", f"s{index + 1}")
            }
            assert attached - {owner}
        # Non-cut segments are touched only by their own shard.
        for index in range(4):
            if f"s{index}" not in cut:
                owner = plan.assignments[f"s{index}"]
                for bridge_index in range(3):
                    if index in (bridge_index, bridge_index + 1):
                        assert plan.assignments[f"b{bridge_index}"] == owner


class TestLookahead:
    def test_lookahead_is_the_minimum_cut_handoff_latency(self):
        spec = _chain(3, propagation_delay=5e-6)
        plan = plan_partition(spec, 3)
        assert plan.cut_segments
        expected = min(
            seconds_to_ns(
                segment.propagation_delay + MIN_WIRE_LENGTH * 8.0 / segment.bandwidth_bps
            ) - 1
            for segment in spec.segments
            if segment.name in plan.cut_segments
        )
        assert plan.lookahead_ns == expected

    def test_zero_propagation_cut_segment_is_rejected(self):
        with pytest.raises(ValueError, match="zero propagation delay"):
            plan_partition(_chain(2, propagation_delay=0.0), 2)

    def test_zero_propagation_is_fine_when_not_cut(self):
        plan = plan_partition(_chain(2, propagation_delay=0.0), 1)
        assert plan.n_shards == 1
        assert plan.lookahead_ns is None


class TestExplicitAssignments:
    def test_explicit_assignment_overrides_automatic_placement(self):
        spec = _chain(2)
        automatic = plan_partition(spec, 2)
        moved = plan_partition(
            spec, PartitionSpec(shards=2, assignments={"h0-0": 1})
        )
        assert automatic.assignments["h0-0"] == 0
        assert moved.assignments["h0-0"] == 1
        # Moving the host off its segment's shard turns s0 into a cut.
        assert "s0" in moved.cut_segments

    def test_unknown_component_is_rejected(self):
        with pytest.raises(ValueError, match="unknown component 'ghost'"):
            plan_partition(
                _chain(2), PartitionSpec(shards=2, assignments={"ghost": 1})
            )

    def test_assignment_beyond_the_clamped_shard_count_is_rejected(self):
        # shards=4 is legal in the spec, but the plan clamps to 2 segments;
        # an index valid for the request but not the clamp must fail loudly.
        with pytest.raises(ValueError, match="uses only 2 shard"):
            plan_partition(
                _chain(2), PartitionSpec(shards=4, assignments={"s0": 3})
            )


class TestPartitionSpecValidation:
    def test_zero_shards_is_rejected(self):
        with pytest.raises(ValueError, match="at least one shard"):
            PartitionSpec(shards=0)

    def test_sync_mode_is_no_partition_field(self):
        # Every fabric runs relaxed windows; an interchange document's old
        # ``sync`` key is read and dropped (see test_interchange.py).
        with pytest.raises(TypeError):
            PartitionSpec(sync="relaxed")

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="unknown relaxed backend"):
            PartitionSpec(backend="fiber")

    def test_out_of_range_assignment_is_rejected(self):
        with pytest.raises(ValueError, match="outside 0..1"):
            PartitionSpec(shards=2, assignments={"s0": 2})
