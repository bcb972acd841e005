"""Tests for the LAN substrate: segments, NICs, hosts, topology builder."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.costs.model import CostModel
from repro.ethernet.ethertype import EtherType
from repro.ethernet.frame import EthernetFrame
from repro.ethernet.mac import BROADCAST, MacAddress
from repro.exceptions import InterfaceError, TopologyError
from repro.lan.host import Host
from repro.lan.nic import NetworkInterface
from repro.lan.segment import Segment
from repro.lan.topology import NetworkBuilder
from repro.netstack.ip import IPv4Address
from repro.sim.engine import Simulator
from repro.sim.fabric import ShardedSimulator


def _frame(src="02:00:00:00:00:01", dst="02:00:00:00:00:02", payload=b"x" * 64):
    return EthernetFrame(
        destination=MacAddress.from_string(dst),
        source=MacAddress.from_string(src),
        ethertype=int(EtherType.MEASUREMENT),
        payload=payload,
    )


def _nic(sim, name, mac_suffix):
    return NetworkInterface(sim, name, MacAddress.locally_administered(mac_suffix))


# ---------------------------------------------------------------------------
# Segment
# ---------------------------------------------------------------------------


class TestSegment:
    def test_delivers_to_all_other_stations(self, sim):
        segment = Segment(sim, "lan")
        sender = _nic(sim, "a", 1)
        receiver1 = _nic(sim, "b", 2)
        receiver2 = _nic(sim, "c", 3)
        got = []
        for nic in (sender, receiver1, receiver2):
            nic.attach(segment)
            nic.set_promiscuous(True)
            nic.set_handler(lambda n, f: got.append(n.name))
        sender.send(_frame())
        sim.run()
        assert sorted(got) == ["b", "c"]

    def test_serialization_delay(self, sim):
        segment = Segment(sim, "lan", bandwidth_bps=100_000_000)
        frame = _frame(payload=b"x" * 1000)
        expected = frame.wire_length * 8 / 100_000_000
        assert segment.serialization_delay(frame) == pytest.approx(expected)

    def test_delivery_time_accounts_for_wire(self, sim):
        segment = Segment(sim, "lan", bandwidth_bps=10_000_000, propagation_delay=1e-5)
        sender = _nic(sim, "a", 1)
        receiver = _nic(sim, "b", 2)
        times = []
        sender.attach(segment)
        receiver.attach(segment)
        receiver.set_promiscuous(True)
        receiver.set_handler(lambda n, f: times.append(sim.now))
        frame = _frame(payload=b"x" * 1000)
        sender.send(frame)
        sim.run()
        expected = segment.serialization_delay(frame) + 1e-5
        assert times[0] == pytest.approx(expected, rel=1e-6)

    def test_medium_serializes_back_to_back_frames(self, sim):
        segment = Segment(sim, "lan", bandwidth_bps=10_000_000)
        sender = _nic(sim, "a", 1)
        receiver = _nic(sim, "b", 2)
        times = []
        sender.attach(segment)
        receiver.attach(segment)
        receiver.set_promiscuous(True)
        receiver.set_handler(lambda n, f: times.append(sim.now))
        frame = _frame(payload=b"x" * 1000)
        sender.send(frame)
        sender.send(frame)
        sim.run()
        gap = times[1] - times[0]
        assert gap == pytest.approx(segment.serialization_delay(frame), rel=1e-6)

    def test_detached_sender_rejected(self, sim):
        segment = Segment(sim, "lan")
        outsider = _nic(sim, "x", 9)
        with pytest.raises(TopologyError):
            segment.transmit(outsider, _frame())

    def test_double_attach_rejected(self, sim):
        segment = Segment(sim, "lan")
        nic = _nic(sim, "a", 1)
        nic.attach(segment)
        with pytest.raises(TopologyError):
            segment.attach(nic)

    def test_utilization_and_counters(self, sim):
        segment = Segment(sim, "lan")
        sender = _nic(sim, "a", 1)
        receiver = _nic(sim, "b", 2)
        sender.attach(segment)
        receiver.attach(segment)
        sender.send(_frame())
        sim.run()
        assert segment.frames_carried == 1
        assert segment.bytes_carried > 0
        assert 0.0 <= segment.utilization(elapsed_seconds=1.0) <= 1.0

    def test_invalid_parameters(self, sim):
        with pytest.raises(TopologyError):
            Segment(sim, "lan", bandwidth_bps=0)
        with pytest.raises(TopologyError):
            Segment(sim, "lan", propagation_delay=-1)


# ---------------------------------------------------------------------------
# NIC
# ---------------------------------------------------------------------------


class TestNic:
    def test_address_filter_without_promiscuous(self, sim):
        segment = Segment(sim, "lan")
        sender = _nic(sim, "a", 1)
        mine = NetworkInterface(sim, "b", MacAddress.from_string("02:00:00:00:00:02"))
        other = NetworkInterface(sim, "c", MacAddress.from_string("02:00:00:00:00:03"))
        got = {"b": 0, "c": 0}
        for nic in (sender, mine, other):
            nic.attach(segment)
        mine.set_handler(lambda n, f: got.__setitem__("b", got["b"] + 1))
        other.set_handler(lambda n, f: got.__setitem__("c", got["c"] + 1))
        sender.send(_frame(dst="02:00:00:00:00:02"))
        sim.run()
        assert got == {"b": 1, "c": 0}

    def test_broadcast_accepted_by_everyone(self, sim):
        segment = Segment(sim, "lan")
        sender = _nic(sim, "a", 1)
        receiver = _nic(sim, "b", 2)
        got = []
        sender.attach(segment)
        receiver.attach(segment)
        receiver.set_handler(lambda n, f: got.append(True))
        sender.send(_frame(dst=str(BROADCAST)))
        sim.run()
        assert got == [True]

    def test_promiscuous_accepts_everything(self, sim):
        segment = Segment(sim, "lan")
        sender = _nic(sim, "a", 1)
        snooper = _nic(sim, "b", 2)
        got = []
        sender.attach(segment)
        snooper.attach(segment)
        snooper.set_promiscuous(True)
        snooper.set_handler(lambda n, f: got.append(True))
        sender.send(_frame(dst="02:00:00:00:00:77"))
        sim.run()
        assert got == [True]

    def test_down_interface_drops(self, sim):
        segment = Segment(sim, "lan")
        sender = _nic(sim, "a", 1)
        receiver = _nic(sim, "b", 2)
        sender.attach(segment)
        receiver.attach(segment)
        receiver.set_promiscuous(True)
        receiver.set_up(False)
        got = []
        receiver.set_handler(lambda n, f: got.append(True))
        sender.send(_frame())
        sim.run()
        assert got == []
        assert receiver.frames_dropped == 1

    def test_send_without_attachment_rejected(self, sim):
        nic = _nic(sim, "a", 1)
        with pytest.raises(InterfaceError):
            nic.send(_frame())

    def test_statistics(self, sim):
        segment = Segment(sim, "lan")
        sender = _nic(sim, "a", 1)
        receiver = _nic(sim, "b", 2)
        sender.attach(segment)
        receiver.attach(segment)
        receiver.set_promiscuous(True)
        receiver.set_handler(lambda n, f: None)
        sender.send(_frame())
        sim.run()
        assert sender.statistics()["frames_sent"] == 1
        assert receiver.statistics()["frames_received"] == 1

    def test_detach(self, sim):
        segment = Segment(sim, "lan")
        nic = _nic(sim, "a", 1)
        nic.attach(segment)
        nic.detach()
        assert nic.segment is None
        with pytest.raises(InterfaceError):
            nic.detach()


# ---------------------------------------------------------------------------
# Host
# ---------------------------------------------------------------------------


class TestHost:
    def _pair(self, sim):
        segment = Segment(sim, "lan")
        host_a = Host(
            sim, "a", MacAddress.locally_administered(1), IPv4Address.from_string("10.0.0.1")
        )
        host_b = Host(
            sim, "b", MacAddress.locally_administered(2), IPv4Address.from_string("10.0.0.2")
        )
        host_a.attach(segment)
        host_b.attach(segment)
        return host_a, host_b

    def test_arp_resolution_then_udp(self, sim):
        host_a, host_b = self._pair(sim)
        got = []
        host_b.bind_udp(7, lambda payload, remote: got.append((payload, str(remote[0]))))
        host_a.send_udp(host_b.ip, 7, 1234, b"hello over udp")
        sim.run()
        assert got == [(b"hello over udp", "10.0.0.1")]

    def test_ping_echo_reply(self, sim):
        host_a, host_b = self._pair(sim)
        replies = []
        host_a.stack.add_icmp_handler(
            lambda message, source: replies.append((message.is_reply, message.sequence))
        )
        host_a.ping(host_b.ip, identifier=7, sequence=3, payload=b"abc")
        sim.run()
        assert (True, 3) in replies

    def test_static_arp_skips_resolution(self, sim):
        host_a, host_b = self._pair(sim)
        host_a.stack.add_static_arp(host_b.ip, host_b.mac)
        got = []
        host_b.bind_udp(9, lambda payload, remote: got.append(payload))
        host_a.send_udp(host_b.ip, 9, 1, b"direct")
        sim.run()
        assert got == [b"direct"]
        # No ARP broadcast should have been needed.
        arp_frames = [
            record
            for record in sim.trace.filter(category="nic.tx")
            if "ARP" in record.detail["frame"]
        ]
        assert arp_frames == []

    def test_host_processing_adds_latency(self):
        fast = Simulator(seed=1)
        slow = Simulator(seed=1)
        results = {}
        for label, simulator, model in (
            ("fast", fast, CostModel(host_frame_cost=1e-6, host_byte_cost=0.0)),
            ("slow", slow, CostModel(host_frame_cost=2e-3, host_byte_cost=0.0)),
        ):
            segment = Segment(simulator, "lan")
            host_a = Host(
                simulator,
                "a",
                MacAddress.locally_administered(1),
                IPv4Address.from_string("10.0.0.1"),
                cost_model=model,
            )
            host_b = Host(
                simulator,
                "b",
                MacAddress.locally_administered(2),
                IPv4Address.from_string("10.0.0.2"),
                cost_model=model,
            )
            host_a.attach(segment)
            host_b.attach(segment)
            host_a.stack.add_static_arp(host_b.ip, host_b.mac)
            host_b.stack.add_static_arp(host_a.ip, host_a.mac)
            rtts = []
            host_a.stack.add_icmp_handler(
                lambda message, source, simulator=simulator: rtts.append(simulator.now)
            )
            host_a.ping(host_b.ip, 1, 1, b"x" * 64)
            simulator.run()
            results[label] = rtts[0]
        assert results["slow"] > results["fast"]

    def test_raw_listener_sees_frames(self, sim):
        host_a, host_b = self._pair(sim)
        seen = []
        host_b.add_raw_listener(lambda frame: seen.append(int(frame.ethertype)))
        host_a.stack.add_static_arp(host_b.ip, host_b.mac)
        host_a.send_udp(host_b.ip, 5, 5, b"x")
        sim.run()
        assert int(EtherType.IPV4) in seen

    def test_listener_added_during_dispatch_misses_the_frame_in_flight(self, sim):
        host_a, host_b = self._pair(sim)
        seen = []

        def late(frame):
            seen.append(("late", frame.payload))

        def first(frame):
            seen.append(("first", frame.payload))
            if len(seen) == 1:
                host_b.add_raw_listener(late)

        host_b.add_raw_listener(first)
        for payload in (b"one", b"two"):
            host_a.send_raw_frame(
                EthernetFrame(host_b.mac, host_a.mac, 0x88B5, payload),
                charge_cost=False,
            )
            sim.run()
        payloads = [(who, payload[:3]) for who, payload in seen]
        assert payloads == [("first", b"one"), ("first", b"two"), ("late", b"two")]

    def test_statistics_keys(self, sim):
        host_a, _ = self._pair(sim)
        stats = host_a.statistics()
        for key in ("frames_sent", "ip_packets_sent", "ip_packets_received"):
            assert key in stats


# ---------------------------------------------------------------------------
# NetworkBuilder
# ---------------------------------------------------------------------------


class TestNetworkBuilder:
    def test_builds_segments_and_hosts(self):
        builder = NetworkBuilder(seed=1)
        builder.add_segment("lan1")
        builder.add_host("h1", "lan1")
        builder.add_host("h2", "lan1")
        network = builder.build()
        assert set(network.segments) == {"lan1"}
        assert set(network.hosts) == {"h1", "h2"}

    def test_unique_addresses(self):
        builder = NetworkBuilder(seed=1)
        builder.add_segment("lan1")
        hosts = [builder.add_host(f"h{i}", "lan1") for i in range(10)]
        macs = {str(host.mac) for host in hosts}
        ips = {str(host.ip) for host in hosts}
        assert len(macs) == 10
        assert len(ips) == 10

    def test_duplicate_names_rejected(self):
        builder = NetworkBuilder(seed=1)
        builder.add_segment("lan1")
        with pytest.raises(TopologyError):
            builder.add_segment("lan1")
        builder.add_host("h1", "lan1")
        with pytest.raises(TopologyError):
            builder.add_host("h1", "lan1")

    def test_unknown_segment_rejected(self):
        builder = NetworkBuilder(seed=1)
        with pytest.raises(TopologyError):
            builder.add_host("h1", "nowhere")

    def test_populate_static_arp(self):
        builder = NetworkBuilder(seed=1)
        builder.add_segment("lan1")
        host1 = builder.add_host("h1", "lan1")
        host2 = builder.add_host("h2", "lan1")
        builder.populate_static_arp()
        assert host1.stack.arp_lookup(host2.ip) == host2.mac
        assert host2.stack.arp_lookup(host1.ip) == host1.mac

    def test_explicit_ip(self):
        builder = NetworkBuilder(seed=1)
        builder.add_segment("lan1")
        host = builder.add_host("h1", "lan1", ip="10.5.5.5")
        assert str(host.ip) == "10.5.5.5"

    def test_station_registration_and_lookup(self):
        builder = NetworkBuilder(seed=1)
        builder.add_segment("lan1")
        network = builder.build()
        builder.register_station("thing", object())
        assert network.station("thing") is not None
        with pytest.raises(TopologyError):
            network.station("missing")
        with pytest.raises(TopologyError):
            builder.register_station("thing", object())

    def test_network_lookup_errors(self):
        builder = NetworkBuilder(seed=1)
        network = builder.build()
        with pytest.raises(TopologyError):
            network.segment("nope")
        with pytest.raises(TopologyError):
            network.host("nope")



# ---------------------------------------------------------------------------
# Fan-out plans
# ---------------------------------------------------------------------------


def _full_scan(segment):
    """Delivery without plans: every NIC but the sender sees every frame."""

    def deliver(sender, frame):
        trace = segment._trace
        if trace.wants("segment.deliver"):
            trace.emit(
                segment.name,
                "segment.deliver",
                lambda: {"sender": sender.name, "frame": frame.describe()},
            )
        for interface in segment._receivers:
            if interface is sender:
                continue
            interface.deliver(frame)

    return deliver


#: Five MACs for at most nine NICs, so stations share addresses.
_MACS = [MacAddress.locally_administered(1 + index) for index in range(5)]

_nic_spec = st.tuples(
    st.integers(min_value=0, max_value=len(_MACS) - 1),  # MAC index
    st.booleans(),  # up
    st.booleans(),  # promiscuous
)
# Three up, filtering NICs added to the extras make the segment plan its
# fan-outs; the permutation mixes them into the attach order.
_FILTERING = [(0, True, False), (1, True, False), (2, True, False)]
_nic_specs = st.lists(_nic_spec, max_size=6).flatmap(
    lambda extra: st.permutations(_FILTERING + extra)
)
_frame_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15),  # sender
        st.sampled_from(["attached", "foreign", "multicast", "broadcast"]),
        st.integers(min_value=0, max_value=15),  # destination pick
        st.integers(min_value=0, max_value=200),  # payload filler
    ),
    min_size=1,
    max_size=24,
)
# (acting NIC, on its n-th accepted frame, target NIC, what it does)
_action_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=15),
        st.sampled_from(["down", "promiscuous", "up", "filtering", "send"]),
    ),
    max_size=8,
)


def _destination(kind, pick):
    if kind == "attached":
        return _MACS[pick % len(_MACS)]
    if kind == "foreign":
        return MacAddress.locally_administered(0x100 + pick)
    if kind == "multicast":
        return MacAddress.from_string("01:80:c2:00:00:00")
    return BROADCAST


def _run_fan_out_case(nic_specs, frames, actions, oracle):
    """Run one generated segment and return everything a fan-out can change."""
    sim = Simulator(seed=3)
    segment = Segment(sim, "lan")
    if oracle:
        segment._deliver = _full_scan(segment)
    nics = []
    for position, (mac_index, up, promiscuous) in enumerate(nic_specs):
        nic = NetworkInterface(sim, f"n{position}", _MACS[mac_index])
        nic.attach(segment)
        nic.set_promiscuous(promiscuous)
        nic.set_up(up)
        nics.append(nic)
    calls = []
    accepted = {}

    def handler(nic, frame):
        calls.append((nic.name, frame.payload[:4]))
        count = accepted[nic.name] = accepted.get(nic.name, 0) + 1
        for who, nth, target, op in actions:
            if nics[who % len(nics)] is not nic or nth != count:
                continue
            victim = nics[target % len(nics)]
            if op == "down":
                victim.set_up(False)
            elif op == "up":
                victim.set_up(True)
            elif op == "promiscuous":
                victim.set_promiscuous(True)
            elif op == "filtering":
                victim.set_promiscuous(False)
            else:
                echo = EthernetFrame(
                    frame.source, victim.mac, int(EtherType.MEASUREMENT), b"echo"
                )
                victim.send(echo)

    for nic in nics:
        nic.set_handler(handler)
    for index, (sender, kind, pick, filler) in enumerate(frames):
        source = nics[sender % len(nics)]
        frame = EthernetFrame(
            _destination(kind, pick),
            source.mac,
            int(EtherType.MEASUREMENT),
            b"f%03d" % index + b"x" * filler,
        )
        sim.schedule_at(
            index * 1e-3, lambda source=source, frame=frame: source.send(frame)
        )
    sim.run()
    counters = [
        (nic.name, nic.frames_received, nic.frames_dropped, nic.bytes_received)
        for nic in nics
    ]
    records = [(r.time, r.source, r.category, r.detail) for r in sim.trace]
    return counters, calls, records, sim.events_dispatched


class TestFanOutPlans:
    @given(_nic_specs, _frame_specs, _action_specs)
    @settings(max_examples=200, deadline=None)
    # n0 sends to n1, whose handler downs n3 and makes n2 promiscuous
    # before the fan-out reaches them.
    @example(
        [(0, True, False), (1, True, False), (2, True, False), (3, True, False)],
        [(0, "attached", 1, 0)],
        [(1, 1, 3, "down"), (1, 1, 2, "promiscuous")],
    )
    def test_planned_fan_out_equals_full_scan(self, nic_specs, frames, actions):
        planned = _run_fan_out_case(nic_specs, frames, actions, oracle=False)
        assert planned == _run_fan_out_case(nic_specs, frames, actions, oracle=True)

    def _segment(self, sim, count, promiscuous=()):
        segment = Segment(sim, "lan")
        nics = []
        for index in range(count):
            nic = _nic(sim, f"n{index}", index + 1)
            nic.attach(segment)
            nic.set_promiscuous(index in promiscuous)
            nics.append(nic)
        return segment, nics

    def test_plans_skip_filtered_nics(self, sim):
        segment, nics = self._segment(sim, 5, promiscuous={4})
        nics[0].send(_frame(src=str(nics[0].mac), dst=str(nics[2].mac)))
        sim.run()
        plans = segment._plans
        assert plans[nics[2].mac.octets] == (nics[2], nics[4])
        assert [nic.frames_received for nic in nics] == [0, 0, 1, 0, 1]

    def test_small_segments_keep_the_plain_scan(self, sim):
        segment, nics = self._segment(sim, 4, promiscuous={2, 3})
        nics[0].send(_frame(src=str(nics[0].mac), dst=str(nics[1].mac)))
        sim.run()
        assert segment._plans is None
        nics[2].set_promiscuous(False)
        assert segment._plans == {}

    def test_cut_segments_never_plan(self):
        fabric = ShardedSimulator(seed=1, shards=2)
        segment = Segment(fabric.shards[0], "lan")
        for index in range(4):
            _nic(fabric.shards[index % 2], f"n{index}", index + 1).attach(segment)
        assert segment._plans is None

    def test_plan_table_is_bounded_by_attached_macs(self, sim):
        segment, nics = self._segment(sim, 6, promiscuous={5})
        sender = nics[0]
        for index in range(10_000):
            destination = MacAddress.locally_administered(0x10000 + index)
            segment._deliver(sender, _frame(src=str(sender.mac), dst=str(destination)))
        for group in range(100):
            destination = MacAddress.from_int(0x0100_5E00_0000 + group)
            segment._deliver(sender, _frame(src=str(sender.mac), dst=str(destination)))
        assert len(segment._plans) <= len({nic.mac for nic in nics}) + 1
        assert nics[5].frames_received == 10_100
        assert [nic.frames_received for nic in nics[1:5]] == [100] * 4
