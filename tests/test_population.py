"""Population layer: typed fleets, synthetic traffic and the pooled hot path.

Identity under test: the seeded population scenarios produce the same
canonical event history (``canonical_records()``) on every engine mode —
single engine, relaxed in-process windows and the process backend — and
repeated runs of the same seed are stable.
"""

from __future__ import annotations

import os

import pytest

from repro.ethernet.ethertype import EtherType
from repro.ethernet.mac import MacAddress
from repro.ethernet.pool import FILLER_BYTE, FramePool
from repro.population import (
    SERVICES,
    STATION_ROLES,
    TRAFFIC_DEFAULTS,
    TRAFFIC_KINDS,
    HostFactory,
    install_traffic,
    role_of,
)
from repro.scenario import run_scenario
from repro.sim.engine import Simulator
from repro.sim.wheel import TimerWheel

SMALL_OFFICE = {"floors": 2, "hosts_per_floor": 6, "duration": 0.3}
SMALL_DATACENTER = {"racks": 2, "hosts_per_rack": 6, "duration": 0.3}


def _drive(name, params, **kw):
    run = run_scenario(name, params=params, **kw)
    traffic = install_traffic(run)
    run.warm_up()
    run.sim.run_until(traffic.horizon)
    return run, traffic


def _observables(run, traffic):
    return (
        run.sim.trace.canonical_records(),
        dict(run.sim.trace.counters.by_category_source),
        run.sim.now,
        traffic.service_rtts(),
    )


class TestRolesAndFactory:
    def test_role_decoding(self):
        assert role_of("ws-f3n7").name == "workstation"
        assert role_of("srv-f0").name == "server"
        assert role_of("db-core1").name == "database"
        assert role_of("gw-spine").name == "gateway"
        assert role_of("host1") is None
        assert role_of("probe") is None

    def test_roles_declare_known_services(self):
        for role in STATION_ROLES.values():
            for key in role.serves + role.consumes:
                assert key in SERVICES

    def test_factory_is_seed_deterministic(self):
        a = HostFactory(7).office(floors=3, hosts_per_floor=10)
        b = HostFactory(7).office(floors=3, hosts_per_floor=10)
        assert a == b
        c = HostFactory(8).office(floors=3, hosts_per_floor=10)
        assert a != c

    def test_office_shape(self):
        plan = HostFactory(0).office(floors=3, hosts_per_floor=10)
        counts = plan.role_counts()
        assert counts["gateway"] == 1
        assert counts["database"] == 2
        # One server per floor plus the seeded sprinkling.
        assert counts["server"] >= 3
        assert sum(counts.values()) == 3 * 10 + 3
        assert len(plan.devices) == 3
        assert plan.core_segment == "backbone"

    def test_datacenter_shape(self):
        plan = HostFactory(0).datacenter(racks=2, hosts_per_rack=8)
        counts = plan.role_counts()
        assert counts["gateway"] == 1
        # Spine databases plus one per rack.
        assert counts["database"] == 2 + 2
        assert sum(counts.values()) == 2 * 8 + 3
        assert plan.core_segment == "spine"

    def test_propagation_delays_are_staggered(self):
        plan = HostFactory(0).office(floors=4, hosts_per_floor=4)
        delays = {s.name: s.propagation_delay for s in plan.segments}
        assert len(set(delays.values())) == len(delays)


class TestTimerWheel:
    def test_quantizes_up_to_grid(self):
        sim = Simulator()
        wheel = TimerWheel(sim, tick_ns=1000)
        assert wheel.quantize_ns(0) == 0
        assert wheel.quantize_ns(1) == 1000
        assert wheel.quantize_ns(999) == 1000
        assert wheel.quantize_ns(1000) == 1000
        assert wheel.quantize_ns(1001) == 2000

    def test_same_tick_timers_share_a_bucket(self):
        sim = Simulator()
        wheel = TimerWheel(sim, tick_ns=1_000_000)
        fired = []
        for i in range(10):
            wheel.schedule(1e-6 * (i + 1), lambda i=i: fired.append(i))
        assert wheel.scheduled == 10
        assert wheel.quantized == 10
        sim.run_until(0.01)
        # All quantized onto one tick, fired in scheduling (FIFO) order.
        assert fired == list(range(10))

    def test_cancel_via_engine_event(self):
        sim = Simulator()
        wheel = TimerWheel(sim, tick_ns=1000)
        fired = []
        event = wheel.schedule(1e-6, lambda: fired.append("a"))
        wheel.schedule(2e-6, lambda: fired.append("b"))
        event.cancel()
        sim.run_until(0.01)
        assert fired == ["b"]

    def test_rejects_bad_arguments(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TimerWheel(sim, tick_ns=0)
        wheel = TimerWheel(sim, tick_ns=1000)
        with pytest.raises(ValueError):
            wheel.schedule(-1.0, lambda: None)


class TestFramePool:
    def test_filler_buffers_are_shared(self):
        pool = FramePool()
        a = pool.filler(64)
        b = pool.filler(64)
        assert a is b
        assert a == bytes([FILLER_BYTE]) * 64
        assert pool.hits == 1 and pool.misses == 1

    def test_frames_are_shared_by_shape(self):
        pool = FramePool()
        dest = MacAddress.locally_administered(1)
        src = MacAddress.locally_administered(2)
        f1 = pool.frame(dest, src, EtherType.MEASUREMENT, 128)
        f2 = pool.frame(dest, src, EtherType.MEASUREMENT, 128)
        assert f1 is f2
        f3 = pool.frame(dest, src, EtherType.MEASUREMENT, 256)
        assert f3 is not f1
        stats = pool.statistics()
        assert stats["frames"] == 2
        assert stats["hits"] >= 1


class TestSlotsAndFreeList:
    def test_station_chain_has_no_instance_dict(self):
        run = run_scenario("population/office", params=SMALL_OFFICE)
        host = run.hosts[0]
        bridge = run.device("br-floor0")
        for obj in (host, host.nic, host.cpu, bridge, bridge.cpu):
            with pytest.raises(AttributeError):
                obj.this_attribute_does_not_exist = 1


class TestPopulationTraffic:
    def test_traffic_flows_and_rtts_recorded(self):
        run, traffic = _drive("population/office", SMALL_OFFICE)
        stats = traffic.traffic_statistics()
        assert stats["requests_sent"] > 0
        assert stats["responses_received"] > 0
        rtts = traffic.service_rtts()
        assert len(rtts) == stats["responses_received"]
        assert all(rtt > 0 for rtt in rtts)
        pool = traffic.pool_statistics()
        assert pool["hits"] > 0

    def test_unknown_traffic_axis_rejected(self):
        run = run_scenario("population/office", params=SMALL_OFFICE)
        with pytest.raises(ValueError):
            install_traffic(run, not_a_real_axis=1)

    def test_traffic_kinds_contract(self):
        assert set(TRAFFIC_KINDS) == {
            "request-response",
            "onoff-burst",
            "pareto-flow",
            "diurnal",
        }
        # Every kind's knobs are sweepable scenario axes.
        for knob in ("request_rate", "burst_rate", "flow_alpha", "diurnal_period"):
            assert knob in TRAFFIC_DEFAULTS

    def test_repeated_runs_are_stable(self):
        first = _observables(*_drive("population/office", SMALL_OFFICE))
        second = _observables(*_drive("population/office", SMALL_OFFICE))
        assert first == second

    def test_coalesced_multi_source_drain_fires(self):
        # Every workstation a burst source on a coarse shared tick: many
        # same-instant transmits per floor segment under relaxed windows.
        params = dict(
            SMALL_OFFICE,
            onoff_fraction=1.0,
            wheel_tick_ns=10_000_000,
            off_mean=0.05,
        )
        run, traffic = _drive("population/office", params, shards=2)
        coalesced = sum(
            run.segment(spec.name).frames_coalesced for spec in run.spec.segments
        )
        assert coalesced > 0


class TestWorkersKeyword:
    """What is left of ``run_scenario(workers=)``: office5k's ``workers=0``."""

    def test_workers_zero_changes_nothing(self):
        def canonical(**kw):
            run, _ = _drive(
                "population/office", SMALL_OFFICE, shards=2, sync="relaxed", **kw
            )
            return run.sim.trace.canonical_records()

        assert canonical(workers=0) == canonical()

    def test_asking_for_worker_threads_is_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_scenario(
                "population/office", params=SMALL_OFFICE, shards=2,
                sync="relaxed", workers=2,
            )


@pytest.mark.parametrize(
    "name,params",
    [("population/office", SMALL_OFFICE), ("population/datacenter", SMALL_DATACENTER)],
)
class TestEngineModeIdentity:
    def test_fabric_matches_single(self, name, params):
        base = _observables(*_drive(name, params))
        assert base[3], "identity test needs completed exchanges"
        for shards in (2, 4):
            candidate = _observables(*_drive(name, params, shards=shards))
            assert candidate == base, shards

    @pytest.mark.skipif(
        not hasattr(os, "fork"), reason="process backend needs fork()"
    )
    def test_process_backend_matches_single(self, name, params):
        base = _observables(*_drive(name, params))
        candidate = _observables(
            *_drive(name, params, shards=4, backend="process")
        )
        assert candidate == base
