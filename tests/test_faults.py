"""The fault & dynamics subsystem.

The headline contract under test: one fault timeline — scripted link/port
failures, loss models, degradations — produces the same results on the
single engine and on the sharded fabric: canonical records
(``canonical_records()``), counters and component statistics, whole and in
budgeted slices, proven over the ``ring/failover`` and ``pair/lossy``
catalog scenarios driven through a whole failure → reconvergence →
recovery episode.

Also covered: the spanning tree genuinely failing over (blocked port walks
to forwarding, traffic reroutes), express-lane re-evaluation when ports or
loss models change mid-run, the :class:`ConvergenceProbe`, and the
measurement probes' zero-delivery-window robustness.
"""

from __future__ import annotations

import pytest

from repro.ethernet.frame import EthernetFrame
from repro.exceptions import TopologyError
from repro.faults import FAULT_KINDS, FaultError, FaultSpec, FaultTimeline, FrameLossModel
from repro.measurement import ConvergenceProbe
from repro.measurement.framerate import CounterRateProbe
from repro.measurement.ping import PingRunner
from repro.scenario import run_scenario
from repro.scenario.spec import (
    DeviceSpec,
    HostSpec,
    PortSpec,
    ScenarioSpec,
    SegmentSpec,
    SwitchletSpec,
)

#: Compressed 802.1D timers: whole failover episodes in seconds of sim time.
FAST_TIMERS = {"hello_time": 0.5, "max_age": 2.5, "forward_delay": 1.0}

#: ring/failover parameters driven by the equivalence tests.
FAILOVER_PARAMS = {
    "n_bridges": 5, "fail_at": 5.0, "recover_at": 11.0, **FAST_TIMERS,
}


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _observables(run):
    counters = dict(run.sim.trace.counters.by_category_source)
    host_stats = {host.name: host.statistics() for host in run.hosts}
    segment_stats = {
        name: (
            segment.frames_carried,
            segment.bytes_carried,
            segment.frames_lost,
            segment.frames_corrupted,
        )
        for name, segment in run.network.segments.items()
    }
    return counters, host_stats, segment_stats, run.sim.now


def _run_until(sim, until, budget=None):
    """``sim.run_until(until)``, in slices of ``budget`` events if given."""
    if budget is None:
        sim.run_until(until)
        return
    while sim.run_until(until, max_events=budget) == budget:
        pass


def _drive_failover(shards, budget=None):
    """Warm up, ping across the whole outage, run to recovery + settle.

    With ``budget`` every dispatch runs as ``run_until(..., max_events=
    budget)`` slices, which must not change anything.
    """
    run = run_scenario(
        "ring/failover", params=FAILOVER_PARAMS, shards=shards,
    )
    _run_until(run.sim, run.ready_time, budget)
    start = run.sim.now + 0.01
    pings = PingRunner(
        run.sim, run.host("left"), run.host("right").ip, payload_size=64,
        count=30, interval=0.25, identifier=7,
    )
    pings.start(start)
    _run_until(run.sim, start + pings.count * pings.interval + 2.0, budget)
    _run_until(run.sim, 14.0, budget)
    return run


def _drive_lossy(shards):
    run = run_scenario(
        "pair/lossy", params={"loss_rate": 0.25, "corrupt_rate": 0.05},
        shards=shards,
    )
    run.warm_up()
    PingRunner(
        run.sim, run.hosts[0], run.hosts[1].ip, payload_size=64,
        count=40, interval=0.05,
    ).run(start_time=run.sim.now)
    return run


# ---------------------------------------------------------------------------
# The headline: fault timelines are engine-mode invariant
# ---------------------------------------------------------------------------


class TestFailoverEquivalence:
    @pytest.fixture(scope="class")
    def reference(self):
        return _drive_failover(1)

    def test_outage_really_happened(self, reference):
        seg1 = reference.segment("seg1")
        assert seg1.frames_lost > 0
        assert seg1.link_up  # recovered by the end of the run
        assert reference.faults.applied == [
            (5.0, "t=5s link-down seg1"), (11.0, "t=11s link-up seg1"),
        ]

    @pytest.mark.parametrize("shards", [2, 4])
    def test_relaxed_is_canonical_merge_identical(self, reference, shards):
        relaxed = _drive_failover(shards)
        assert relaxed.partition.cut_segments  # the loop really is cut
        records = relaxed.sim.trace.canonical_records()
        assert records == reference.sim.trace.canonical_records()
        assert _observables(relaxed) == _observables(reference)

    def test_budgeted_relaxed_slices_equal_one_run(self, reference):
        whole = _drive_failover(4)
        sliced = _drive_failover(4, budget=7)
        records = sliced.sim.trace.canonical_records()
        assert records == whole.sim.trace.canonical_records()
        assert records == reference.sim.trace.canonical_records()
        assert sliced.sim.shard_stats() == whole.sim.shard_stats()
        assert _observables(sliced) == _observables(reference)


class TestLossyEquivalence:
    @pytest.fixture(scope="class")
    def reference(self):
        return _drive_lossy(1)

    def test_loss_model_really_dropped(self, reference):
        lan1 = reference.segment("lan1")
        assert lan1.frames_lost > 0
        assert lan1.frames_corrupted > 0

    def test_relaxed_equivalent(self, reference):
        relaxed = _drive_lossy(2)
        assert relaxed.n_shards == 2
        records = relaxed.sim.trace.canonical_records()
        assert records == reference.sim.trace.canonical_records()
        assert _observables(relaxed) == _observables(reference)


# ---------------------------------------------------------------------------
# The failover story itself
# ---------------------------------------------------------------------------


class TestSpanningTreeFailover:
    def _stp(self, run, name):
        return run.device(name).func.lookup("stp.ieee")

    def test_blocked_port_fails_over_and_traffic_reroutes(self):
        run = run_scenario(
            "ring/failover",
            params={"n_bridges": 4, "fail_at": 5.0, "recover_at": 0.0,
                    **FAST_TIMERS},
        )
        run.warm_up()
        blocked_before = {
            (name, port)
            for name in ("bridge1", "bridge2", "bridge3", "bridge4")
            for port, state in self._stp(run, name).snapshot()["port_states"].items()
            if state == "blocking"
        }
        assert len(blocked_before) == 1  # a physical loop: exactly one blocked port
        before = PingRunner(
            run.sim, run.host("left"), run.host("right").ip,
            payload_size=64, count=3, interval=0.1, identifier=1,
        ).run(start_time=run.sim.now)
        assert before.received == before.sent == 3
        # Through the failure, detection (max_age) and both forward delays.
        run.sim.run_until(5.0 + 2.5 + 2.0 * 1.0 + 1.0)
        states_after = {
            (name, port): state
            for name in ("bridge1", "bridge2", "bridge3", "bridge4")
            for port, state in self._stp(run, name).snapshot()["port_states"].items()
        }
        for name_port in blocked_before:
            assert states_after[name_port] == "forwarding"
        after = PingRunner(
            run.sim, run.host("left"), run.host("right").ip,
            payload_size=64, count=3, interval=0.1, identifier=2,
        ).run(start_time=run.sim.now)
        assert after.received == after.sent == 3  # rerouted the long way

    def test_convergence_probe_reports_the_episode(self):
        run = run_scenario(
            "ring/failover",
            params={"n_bridges": 5, "fail_at": 5.0, "recover_at": 0.0,
                    **FAST_TIMERS},
        )
        run.warm_up()
        probe = ConvergenceProbe(run.sim, network=run.network, fault_time=5.0)
        probe.start()
        PingRunner(
            run.sim, run.host("left"), run.host("right").ip, payload_size=64,
            count=30, interval=0.25, identifier=3,
        ).run(start_time=run.sim.now + 0.01)
        report = probe.report()
        # Detection rides on max-age expiry; reconvergence adds the two
        # forward-delay transitions.
        assert report.detection_s == pytest.approx(2.5, abs=0.3)
        assert report.reconvergence_s == pytest.approx(4.5, abs=0.3)
        assert report.transitions >= 3
        assert report.frames_lost > 0
        assert report.forwarding_restored_at == pytest.approx(9.5, abs=0.3)

    def test_node_crash_triggers_root_reelection(self):
        run = run_scenario(
            "ring/failover",
            params={"n_bridges": 4, "fail_at": 1e9, **FAST_TIMERS},
        )
        timeline = FaultTimeline().node_crash(5.0, "bridge1")
        timeline.install(run.network)
        run.warm_up()
        old_root = self._stp(run, "bridge1").snapshot()["root_mac"]
        assert self._stp(run, "bridge1").snapshot()["bridge_mac"] == old_root
        run.sim.run_until(5.0 + 2.5 + 2.0 * 1.0 + 1.5)
        # The surviving bridges agree on a new root that is not bridge1.
        roots = {
            self._stp(run, name).snapshot()["root_mac"]
            for name in ("bridge2", "bridge3", "bridge4")
        }
        assert len(roots) == 1
        assert roots.pop() != old_root
        assert all(
            not nic.up for nic in run.device("bridge1").interfaces.values()
        )


# ---------------------------------------------------------------------------
# Express-lane re-evaluation under faults (relaxed mode)
# ---------------------------------------------------------------------------


def _build_blast_ring(shards, frames, timeline_builder):
    """Host-populated ring blast with a fault timeline installed pre-run."""
    run = run_scenario(
        "ring",
        params={"n_bridges": 3, "hosts_per_segment": 2},
        shards=shards,
    )
    timeline = timeline_builder()
    timeline.install(run.network)
    run.warm_up()
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

        # The single engine ignores inline_safe.
        left.nic.set_handler(bounce(left.nic, forward), inline_safe=True)
        right.nic.set_handler(bounce(right.nic, backward), inline_safe=True)
    seeds = [
        (run.host(f"{s.name}h1"),
         EthernetFrame(
             destination=run.host(f"{s.name}h2").mac,
             source=run.host(f"{s.name}h1").mac,
             ethertype=0x88B5, payload=b"\x00" * 64,
         ))
        for s in run.spec.segments
    ]
    return run, states, seeds, timeline


class TestExpressLaneReevaluation:
    """A segment whose remote ports go down mid-run must fall back /
    re-express deterministically on the fabric (and match the single
    engine)."""

    def _drive(self, shards):
        frames = 400
        warm = 31.0

        def build_timeline():
            timeline = FaultTimeline()
            # Mid-blast: every bridge crashes (all remote ports of the cut
            # segments go down -> segments become express-eligible), then
            # restarts (eligibility revoked again).
            for bridge in ("bridge1", "bridge2", "bridge3"):
                timeline.node_crash(warm + 0.002, bridge)
                timeline.node_restart(warm + 0.009, bridge)
            return timeline

        run, states, seeds, timeline = _build_blast_ring(
            shards, frames, build_timeline
        )
        express_log = []
        sim = run.sim
        cut = run.partition.cut_segments if run.partition else ()

        def snapshot(label):
            express_log.append(
                (label, {name: run.segment(name)._express for name in cut})
            )

        sim.schedule_at(warm + 0.004, lambda: snapshot("crashed"))
        sim.schedule_at(warm + 0.011, lambda: snapshot("restarted"))
        for host, frame in seeds:
            host.nic.send(frame)
        sim.run_until(warm + 0.016)
        return run, states, express_log, timeline

    def test_fall_back_and_re_express_matches_single_engine(self):
        single_run, single_states, _, _ = self._drive(1)
        relaxed_run, relaxed_states, relaxed_log, timeline = self._drive(2)
        # On the fabric the cut segments flip to express while the bridges
        # are down and back off it after the restart.
        relaxed_flags = dict(relaxed_log)
        assert relaxed_flags["crashed"]
        assert all(relaxed_flags["crashed"].values())
        assert not any(relaxed_flags["restarted"].values())
        assert timeline.stats()["applied"] == 6
        # ...and the run remains canonically identical to the single engine.
        assert [s[0] for s in relaxed_states] == [s[0] for s in single_states]
        assert (
            relaxed_run.sim.trace.canonical_records()
            == single_run.sim.trace.canonical_records()
        )
        assert dict(relaxed_run.sim.trace.counters.by_category_source) == dict(
            single_run.sim.trace.counters.by_category_source
        )

    def test_loss_model_vetoes_express_and_detach_restores(self):
        run = run_scenario(
            "ring",
            params={"n_bridges": 3, "hosts_per_segment": 2},
            shards=2,
        )
        run.warm_up()
        segment = run.segment("seg0")
        for device in run.devices:
            for nic in device.interfaces.values():
                nic.set_up(False)
        for host_name in ("seg0h1", "seg0h2"):
            run.host(host_name).nic.set_handler(lambda n, f: None, inline_safe=True)
        assert segment._express
        segment.set_fault_model(FrameLossModel(loss_rate=0.5, seed=1))
        assert not segment._express
        segment.set_fault_model(None)
        assert segment._express
        segment.set_link(False)
        assert not segment._express
        segment.set_link(True)
        assert segment._express


class TestCutDrainLinkDown:
    """Batched cut-segment service straddling a mid-window link failure.

    On the fabric a cut segment's mailed transmits are serviced in one
    batch at the barrier (``Segment._drain``), so at the instant a
    scripted ``link-down`` fires the busy chain may extend *past* the fault:
    exactly the frames the classic path would still hold queued must be
    killed (parked deliveries cancelled, busy chain and counters rolled
    back) while already-popped frames keep arriving.  The episode below
    keeps the target segment's wire saturated (each bounce answers twice)
    and cycles the link three times, so several outages land inside a busy
    chain — and the run must stay canonically identical to the single
    engine.
    """

    WARM = 31.0
    OUTAGES = (
        (WARM + 0.0021, WARM + 0.0034),
        (WARM + 0.0052, WARM + 0.0063),
        (WARM + 0.0081, WARM + 0.0092),
    )
    TARGET = "seg2"  # cut at shards=2 and shards=4 (deterministic partition)

    def _drive(self, shards, frames=400):
        run = run_scenario(
            "ring",
            params={"n_bridges": 3, "hosts_per_segment": 2},
            shards=shards,
        )
        timeline = FaultTimeline()
        for down, up in self.OUTAGES:
            timeline.link_down(down, self.TARGET)
            timeline.link_up(up, self.TARGET)
        timeline.install(run.network)
        run.warm_up()
        states = []
        for spec in run.spec.segments:
            left = run.host(f"{spec.name}h1")
            right = run.host(f"{spec.name}h2")
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
            # The target pair answers every delivery with *two* frames, so
            # its segment always has a queued frame behind the one on the
            # wire — the faults land mid-busy-chain instead of between
            # exchanges.
            burst = 2 if spec.name == self.TARGET else 1

            def bounce(nic, reply, state=state, burst=burst):
                def handler(_nic, _frame):
                    state[0] -= 1
                    if state[0] > 0:
                        for _ in range(burst):
                            nic.send(reply)

                return handler

            left.nic.set_handler(bounce(left.nic, forward), inline_safe=True)
            right.nic.set_handler(bounce(right.nic, backward), inline_safe=True)
            left.nic.send(forward)
        segment = run.segment(self.TARGET)
        stats = {"drains": 0, "kills": 0}
        if run.n_shards > 1:
            assert self.TARGET in run.partition.cut_segments
            original_drain = segment._drain
            original_set_link = segment.set_link

            def spying_drain():
                stats["drains"] += 1
                original_drain()

            def spying_set_link(up):
                before = len(segment._inflight)
                original_set_link(up)
                if not up:
                    stats["kills"] += before - len(segment._inflight)

            segment._drain = spying_drain
            segment.set_link = spying_set_link
        run.sim.run_until(self.WARM + 0.012)
        return run, states, stats, segment

    @pytest.mark.parametrize("shards", [2, 4])
    def test_straddling_outage_matches_single_engine(self, shards):
        single_run, single_states, _, single_seg = self._drive(1)
        relaxed_run, relaxed_states, stats, relaxed_seg = self._drive(shards)
        # The path under test genuinely ran: batched barrier service, and at
        # least one outage killed in-flight entries mid-chain.
        assert stats["drains"] > 0
        assert stats["kills"] > 0
        assert relaxed_seg.frames_lost == single_seg.frames_lost > 0
        assert [s[0] for s in relaxed_states] == [s[0] for s in single_states]
        assert (
            relaxed_run.sim.trace.canonical_records()
            == single_run.sim.trace.canonical_records()
        )
        assert _observables(relaxed_run) == _observables(single_run)


# ---------------------------------------------------------------------------
# Segment-level fault semantics
# ---------------------------------------------------------------------------


class TestSegmentFaults:
    def _pair(self):
        spec = ScenarioSpec(
            name="pair/plain",
            segments=(SegmentSpec("lan1"),),
            hosts=(HostSpec("a", "lan1"), HostSpec("b", "lan1")),
        )
        run = run_scenario(spec)
        run.warm_up()
        return run

    def test_link_down_drops_at_sender_and_link_up_restores(self):
        run = self._pair()
        a, b = run.hosts
        segment = run.segment("lan1")
        segment.set_link(False)
        sent = EthernetFrame(
            destination=b.mac, source=a.mac, ethertype=0x88B5, payload=b"x" * 32
        )
        a.nic.send(sent)
        run.sim.run_for(0.01)
        assert segment.frames_lost == 1
        assert b.nic.frames_received == 0
        assert segment.sim.trace.count(category="segment.drop") == 1
        segment.set_link(True)
        a.nic.send(sent)
        run.sim.run_for(0.01)
        assert b.nic.frames_received == 1
        assert segment.frames_lost == 1

    def test_link_down_drains_queued_frames(self):
        run = self._pair()
        a, b = run.hosts
        segment = run.segment("lan1")
        frame = EthernetFrame(
            destination=b.mac, source=a.mac, ethertype=0x88B5,
            payload=b"x" * 1000,
        )
        # Queue several frames back-to-back, then cut the link while they
        # are still waiting for the medium.
        for _ in range(5):
            a.nic.send(frame)
        segment.set_link(False)
        run.sim.run_for(0.01)
        assert segment.frames_lost > 0
        assert b.nic.frames_received < 5

    def test_loss_model_is_seed_deterministic(self):
        def trial(seed):
            run = self._pair()
            segment = run.segment("lan1")
            segment.set_fault_model(FrameLossModel(loss_rate=0.5, seed=seed))
            a, b = run.hosts
            frame = EthernetFrame(
                destination=b.mac, source=a.mac, ethertype=0x88B5,
                payload=b"y" * 64,
            )
            pattern = []
            for _ in range(40):
                a.nic.send(frame)
                run.sim.run_for(0.001)
                pattern.append(b.nic.frames_received)
            return tuple(pattern)

        assert trial(3) == trial(3)
        assert trial(3) != trial(4)

    def test_corrupt_frames_counted_separately_and_not_delivered(self):
        run = self._pair()
        segment = run.segment("lan1")
        segment.set_fault_model(FrameLossModel(corrupt_rate=1.0, seed=0))
        a, b = run.hosts
        frame = EthernetFrame(
            destination=b.mac, source=a.mac, ethertype=0x88B5, payload=b"z" * 64
        )
        a.nic.send(frame)
        run.sim.run_for(0.01)
        assert segment.frames_corrupted == 1
        assert segment.frames_lost == 0
        assert segment.frames_carried == 1  # it did occupy the wire
        assert b.nic.frames_received == 0

    def test_degrade_slows_the_wire_and_restore_resets(self):
        run = self._pair()
        segment = run.segment("lan1")
        nominal = segment.serialization_delay(
            EthernetFrame(
                destination=run.hosts[1].mac, source=run.hosts[0].mac,
                ethertype=0x88B5, payload=b"p" * 1000,
            )
        )
        segment.set_degrade(bandwidth_scale=0.1, extra_delay=1e-3)
        frame = EthernetFrame(
            destination=run.hosts[1].mac, source=run.hosts[0].mac,
            ethertype=0x88B5, payload=b"p" * 1000,
        )
        assert segment.serialization_delay(frame) == pytest.approx(nominal * 10)
        assert segment.propagation_delay == pytest.approx(
            segment._nominal_propagation_delay + 1e-3
        )
        segment.set_degrade()  # neutral arguments restore nominal
        assert segment.serialization_delay(frame) == pytest.approx(nominal)
        assert segment.propagation_delay == segment._nominal_propagation_delay

    def test_degrade_validation(self):
        run = self._pair()
        segment = run.segment("lan1")
        with pytest.raises(TopologyError):
            segment.set_degrade(bandwidth_scale=0.0)
        with pytest.raises(TopologyError):
            segment.set_degrade(bandwidth_scale=1.5)
        with pytest.raises(TopologyError):
            segment.set_degrade(extra_delay=-1e-6)


# ---------------------------------------------------------------------------
# Specs, timelines, validation
# ---------------------------------------------------------------------------


class TestFaultSpecsAndTimeline:
    def test_fault_spec_validation(self):
        with pytest.raises(FaultError):
            FaultSpec("meteor-strike", 1.0, "lan1")
        with pytest.raises(FaultError):
            FaultSpec("link-down", -1.0, "lan1")
        with pytest.raises(FaultError):
            FaultSpec("frame-loss", 1.0, "lan1", rate=1.5)
        with pytest.raises(FaultError):
            FaultSpec("frame-loss", 1.0, "lan1", rate=0.7, corrupt_rate=0.7)
        with pytest.raises(FaultError):
            FaultSpec("degrade", 1.0, "lan1", bandwidth_scale=0.0)
        with pytest.raises(FaultError):
            FaultSpec("link-down", 1.0, "lan1", port="eth0")
        # frame-corrupt must be spelled with corrupt_rate: a mismatched
        # rate= would otherwise silently run a pure-loss experiment.
        with pytest.raises(FaultError):
            FaultSpec("frame-corrupt", 1.0, "lan1", rate=0.5)
        assert set(FAULT_KINDS) >= {"link-down", "node-crash", "degrade"}

    def test_scenario_spec_validates_fault_targets(self):
        base = dict(
            name="x",
            segments=(SegmentSpec("lan1"),),
            hosts=(HostSpec("h", "lan1"),),
            devices=(
                DeviceSpec(
                    "dev", kind="active-node", ports=(PortSpec("eth0", "lan1"),)
                ),
            ),
        )
        with pytest.raises(ValueError):
            ScenarioSpec(faults=(FaultSpec("link-down", 1.0, "nope"),), **base)
        with pytest.raises(ValueError):
            ScenarioSpec(faults=(FaultSpec("port-down", 1.0, "dev", port="eth9"),), **base)
        with pytest.raises(ValueError):
            ScenarioSpec(faults=(FaultSpec("node-crash", 1.0, "ghost"),), **base)
        ok = ScenarioSpec(
            faults=(
                FaultSpec("link-down", 1.0, "lan1"),
                FaultSpec("port-down", 1.0, "dev", port="eth0"),
                FaultSpec("node-crash", 1.0, "h"),
            ),
            **base,
        )
        assert len(ok.faults) == 3

    def test_timeline_resolution_errors(self):
        run = run_scenario("pair/direct")
        with pytest.raises(FaultError):
            FaultTimeline().link_down(1.0, "nope").install(run.network)
        run = run_scenario("pair/active-bridge", params={"include_spanning_tree": False})
        with pytest.raises(FaultError):
            FaultTimeline().port_down(1.0, "bridge").install(run.network)  # no port name
        with pytest.raises(FaultError):
            FaultTimeline().port_down(1.0, "bridge", "eth9").install(run.network)
        with pytest.raises(FaultError):
            FaultTimeline().node_crash(1.0, "ghost").install(run.network)

    def test_timeline_installs_once_and_orders_events(self):
        run = run_scenario("pair/direct")
        timeline = (
            FaultTimeline()
            .link_up(2.0, "lan1")
            .link_down(1.0, "lan1")
        )
        assert [event.kind for event in timeline.events] == ["link-down", "link-up"]
        timeline.install(run.network)
        with pytest.raises(FaultError):
            timeline.install(run.network)
        run.sim.run_until(3.0)
        assert [kind for _, kind in
                [(at, desc.split()[1]) for at, desc in timeline.applied]] == [
            "link-down", "link-up",
        ]
        assert run.segment("lan1").link_up

    def test_host_port_name_must_match_when_given(self):
        run = run_scenario("pair/direct")
        with pytest.raises(FaultError):
            FaultTimeline().port_down(0.5, "host1", "eth99").install(run.network)
        # The NIC's own name (full or short form) is accepted.
        FaultTimeline().port_down(0.5, "host1", "eth0").install(run.network)
        run.sim.run_until(0.7)
        assert not run.host("host1").nic.up

    def test_failover_ring_rejects_faulting_a_host_segment(self):
        with pytest.raises(ValueError):
            run_scenario(
                "ring/failover",
                params={"n_bridges": 4, "failed_segment": "seg0", **FAST_TIMERS},
            )
        # The minimum ring size defaults the fault away from the far host.
        run = run_scenario("ring/failover", params={"n_bridges": 3, **FAST_TIMERS})
        failed = run.faults.events[0].target
        host_segments = {host.segment for host in run.spec.hosts}
        assert failed not in host_segments

    def test_port_events_on_hosts_use_their_single_nic(self):
        run = run_scenario("pair/direct")
        FaultTimeline().port_down(0.5, "host1").port_up(1.0, "host1").install(
            run.network
        )
        run.sim.run_until(0.7)
        assert not run.host("host1").nic.up
        run.sim.run_until(1.2)
        assert run.host("host1").nic.up
        assert run.host("host1").nic.link_transitions == 2

    def test_run_scenario_faults_argument_extends_spec(self):
        run = run_scenario(
            "pair/direct", faults=[FaultSpec("link-down", 0.5, "lan1")]
        )
        run.sim.run_until(1.0)
        assert run.faults is not None
        assert not run.segment("lan1").link_up

    def test_matrix_expansion_sweeps_fault_axes(self):
        from repro.scenario import expand_matrix

        specs = expand_matrix("pair/lossy", {"loss_rate": [0.0, 0.2, 0.4]})
        rates = [spec.faults[0].rate for spec in specs]
        assert rates == [0.0, 0.2, 0.4]


# ---------------------------------------------------------------------------
# Zero-delivery windows: probes stay total during outages
# ---------------------------------------------------------------------------


class TestOutageRobustProbes:
    def test_ping_across_total_outage_reports_full_loss(self):
        run = run_scenario(
            "pair/direct", faults=[FaultSpec("link-down", 0.2, "lan1")]
        )
        run.warm_up()
        result = PingRunner(
            run.sim, run.hosts[0], run.hosts[1].ip, payload_size=64,
            count=5, interval=0.2,
        ).run(start_time=0.25)
        assert result.sent == 5
        assert result.received == 0
        assert result.loss_fraction == 1.0
        # No empty-mean() surprises: the summary of zero samples is zeros.
        assert result.mean_rtt_ms() == 0.0
        assert result.summary()["count"] == 0.0

    def test_counter_rate_probe_over_zero_delivery_window(self):
        run = run_scenario("pair/direct")
        run.warm_up()
        probe = CounterRateProbe(run.sim, category="node.forward")
        probe.start()
        run.sim.run_for(1.0)
        sample = probe.stop()
        assert sample.frames == 0
        assert sample.frames_per_second == 0.0

    def test_counter_rate_probe_clamps_after_trace_clear(self):
        run = run_scenario("pair/direct")
        run.warm_up()
        PingRunner(
            run.sim, run.hosts[0], run.hosts[1].ip, payload_size=64,
            count=2, interval=0.05,
        ).run(start_time=run.sim.now)
        probe = CounterRateProbe(run.sim, category="nic.rx")
        probe.start()
        run.sim.trace.clear()  # rewinds the live counters below the snapshot
        run.sim.run_for(0.5)
        sample = probe.stop()
        assert sample.frames == 0
        assert sample.frames_per_second == 0.0

    def test_zero_length_window_rate_is_zero(self):
        run = run_scenario("pair/direct")
        probe = CounterRateProbe(run.sim, category="nic.rx")
        probe.start()
        sample = probe.stop()  # no simulated time elapsed at all
        assert sample.frames_per_second == 0.0

    def test_convergence_probe_is_total_on_empty_episodes(self):
        run = run_scenario("pair/direct")
        run.warm_up()
        probe = ConvergenceProbe(run.sim, network=run.network)
        probe.start()
        run.sim.run_for(0.5)
        report = probe.report()
        assert report.detection_s is None
        assert report.reconvergence_s is None
        assert report.transitions == 0
        assert report.frames_lost == 0
        assert report.nic_frames_dropped == 0
