"""Tests for the LAN substrate: segments, NICs, hosts, topology builder."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.costs.model import CostModel
from repro.ethernet.ethertype import EtherType
from repro.ethernet.frame import EthernetFrame
from repro.ethernet.mac import (
    ALL_BRIDGES_MULTICAST,
    BROADCAST,
    DEC_MANAGEMENT_MULTICAST,
    MacAddress,
)
from repro.exceptions import InterfaceError, TopologyError
from repro.lan.host import Host
from repro.lan.nic import NetworkInterface
from repro.lan.segment import Segment
from repro.lan.topology import NetworkBuilder
from repro.netstack.arp import ArpPacket
from repro.netstack.ip import IPv4Address
from repro.scenario import run_scenario
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

    def test_group_filter_passes_joined_groups_only(self, sim):
        segment = Segment(sim, "lan")
        sender = _nic(sim, "a", 1)
        receiver = _nic(sim, "b", 2)
        sender.attach(segment)
        receiver.attach(segment)
        got = []
        receiver.set_handler(lambda n, f: got.append(f.destination))
        receiver.set_group_filter([ALL_BRIDGES_MULTICAST])
        destinations = [
            ALL_BRIDGES_MULTICAST, DEC_MANAGEMENT_MULTICAST, BROADCAST, receiver.mac
        ]
        frames = [_frame(dst=str(destination)) for destination in destinations]
        assert [receiver.accepts(frame) for frame in frames] == [True, False, True, True]
        for frame in frames:
            sender.send(frame)
        sim.run()
        # The unjoined group is a silent drop: no counter, no record.
        assert got == [ALL_BRIDGES_MULTICAST, BROADCAST, receiver.mac]
        assert (receiver.frames_received, receiver.frames_dropped) == (3, 0)
        assert len(sim.trace.filter(category="nic.rx", source="b")) == 3
        receiver.set_group_filter(None)
        assert receiver.accepts(frames[1])
        receiver.set_group_filter([])
        assert not receiver.accepts(frames[0])
        receiver.set_promiscuous(True)
        assert receiver.accepts(frames[0])

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


class TestHostGroupFilter:
    """A host's NIC passes up only the multicast groups its software joined."""

    def _lan(self, sim, hosts=2):
        segment = Segment(sim, "lan")
        bridge_port = _nic(sim, "bridge.eth0", 100)
        bridge_port.attach(segment)
        members = []
        for index in range(hosts):
            host = Host(
                sim, f"h{index}", MacAddress.locally_administered(1 + index),
                IPv4Address.from_string(f"10.0.0.{1 + index}"),
            )
            host.attach(segment)
            members.append(host)
        return bridge_port, members

    def _send_groups(self, sim, port, groups):
        # BPDU-shaped: an 802.3 length field and the spanning-tree LLC header.
        for group in groups:
            port.send(EthernetFrame(group, port.mac, 38, b"\x42\x42\x03" + bytes(43)))
        sim.run()

    def _received(self, sim, host):
        return [
            record.detail["frame"].split(" -> ")[1].split(" ")[0]
            for record in sim.trace.filter(category="nic.rx", source=host.nic.name)
        ]

    def test_a_bpdu_costs_a_host_nothing(self, sim):
        port, (host, _) = self._lan(sim)
        self._send_groups(sim, port, [ALL_BRIDGES_MULTICAST, DEC_MANAGEMENT_MULTICAST])
        assert host.cpu.items_processed == 0
        assert self._received(sim, host) == []
        assert host.nic.statistics()["frames_received"] == 0
        assert host.nic.frames_dropped == 0

    def test_a_raw_listener_sees_every_bpdu(self, sim):
        port, (host, _) = self._lan(sim)
        seen = []
        host.add_raw_listener(lambda frame: seen.append(frame.destination))
        self._send_groups(sim, port, [ALL_BRIDGES_MULTICAST, DEC_MANAGEMENT_MULTICAST])
        assert seen == [ALL_BRIDGES_MULTICAST, DEC_MANAGEMENT_MULTICAST]
        assert host.cpu.items_processed == 2

    def test_a_destination_handler_joins_its_group_only(self, sim):
        port, (host, other) = self._lan(sim)
        claimed = []

        def handler(frame):
            claimed.append(frame.destination)

        host.stack.demux.register_destination(ALL_BRIDGES_MULTICAST, handler)
        self._send_groups(sim, port, [ALL_BRIDGES_MULTICAST, DEC_MANAGEMENT_MULTICAST])
        assert claimed == [ALL_BRIDGES_MULTICAST]
        assert self._received(sim, host) == [str(ALL_BRIDGES_MULTICAST)]
        assert self._received(sim, other) == []
        host.stack.demux.unregister_destination(ALL_BRIDGES_MULTICAST, handler)
        self._send_groups(sim, port, [ALL_BRIDGES_MULTICAST])
        assert claimed == [ALL_BRIDGES_MULTICAST]
        assert host.nic.frames_received == 1

    def test_a_default_handler_keeps_every_group(self, sim):
        port, (host, _) = self._lan(sim)
        seen = []
        host.stack.demux.register_default(lambda frame: seen.append(frame.destination))
        self._send_groups(sim, port, [ALL_BRIDGES_MULTICAST, DEC_MANAGEMENT_MULTICAST])
        assert seen == [ALL_BRIDGES_MULTICAST, DEC_MANAGEMENT_MULTICAST]

    def test_broadcast_arp_reaches_every_host(self, sim):
        _, hosts = self._lan(sim, hosts=4)
        got = []
        hosts[3].bind_udp(7, lambda payload, remote: got.append(payload))
        hosts[0].send_udp(hosts[3].ip, 7, 1, b"after arp")
        sim.run()
        assert got == [b"after arp"]
        for host in hosts[1:]:
            assert str(BROADCAST) in self._received(sim, host)


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
# Static ARP directories
# ---------------------------------------------------------------------------


def _arp_builder(count=4):
    builder = NetworkBuilder(seed=1)
    builder.add_segment("lan1")
    hosts = [builder.add_host(f"h{index}", "lan1") for index in range(count)]
    return builder, hosts


def _pairwise_static_arp(hosts):
    """Static ARP as one add_static_arp call per ordered pair of hosts."""
    for host in hosts:
        for other in hosts:
            if other is not host:
                host.stack.add_static_arp(other.ip, other.mac)


class TestStaticArpDirectory:
    def test_a_scope_shares_one_directory(self):
        builder, hosts = _arp_builder()
        builder.populate_static_arp()
        (directory,) = hosts[0].stack._arp_directories
        for host in hosts:
            (held,) = host.stack._arp_directories
            assert held is directory
        assert all(not host.stack._arp_table for host in hosts)
        assert len(directory) == len(hosts)

    def test_each_host_resolves_the_others_and_not_itself(self):
        builder, hosts = _arp_builder()
        builder.populate_static_arp()
        for host in hosts:
            for other in hosts:
                expected = None if other is host else other.mac
                assert host.stack.arp_lookup(other.ip) == expected

    def test_later_entries_win_over_the_directory(self):
        builder, hosts = _arp_builder()
        builder.populate_static_arp()
        a, b, c = hosts[:3]
        forged = MacAddress.locally_administered(0x777)
        a.stack.add_static_arp(b.ip, forged)
        assert a.stack.arp_lookup(b.ip) == forged
        # A learned entry: c announces a new MAC for itself to a.
        moved = MacAddress.locally_administered(0x778)
        a.stack._handle_arp_frame(
            EthernetFrame(
                BROADCAST, moved, int(EtherType.ARP),
                ArpPacket.request(moved, c.ip, a.ip).encode(),
            )
        )
        assert a.stack.arp_lookup(c.ip) == moved
        # The other stacks still read the shared directory.
        assert hosts[3].stack.arp_lookup(b.ip) == b.mac
        assert hosts[3].stack.arp_lookup(c.ip) == c.mac

    def test_a_directory_replaces_what_was_learned_before(self):
        builder, hosts = _arp_builder()
        a, b = hosts[:2]
        a.stack.add_static_arp(b.ip, MacAddress.locally_administered(0x777))
        builder.populate_static_arp()
        assert a.stack.arp_lookup(b.ip) == b.mac

    def test_a_second_scope_keeps_the_first_scopes_entries(self):
        builder, hosts = _arp_builder(5)
        names = [host.name for host in hosts]
        builder.populate_static_arp(names[:3])
        builder.populate_static_arp(names[2:])
        shared = hosts[2]
        for other in hosts:
            expected = None if other is shared else other.mac
            assert shared.stack.arp_lookup(other.ip) == expected
        assert hosts[0].stack.arp_lookup(hosts[4].ip) is None
        assert hosts[4].stack.arp_lookup(hosts[0].ip) is None

    def test_pending_packets_go_out_as_pairwise_entries_send_them(self):
        """A directory installed mid-run flushes waiting packets in scope order."""

        def drive(install):
            builder, hosts = _arp_builder()
            sim = builder.sim
            a, b, c, d = hosts

            def send():
                # Waiting on ARP: c's packet is sent first, b's second.
                a.send_udp(c.ip, 9, 1, b"to c")
                a.send_udp(b.ip, 9, 1, b"to b")
                d.send_udp(b.ip, 9, 2, b"d to b")

            sim.schedule_at(0.01, send)
            sim.schedule_at(0.01, lambda: install(builder, hosts))
            sim.run()
            records = [(r.time, r.source, r.category, r.detail) for r in sim.trace]
            return records, [str(host.mac) for host in hosts]

        shared, macs = drive(lambda builder, hosts: builder.populate_static_arp())
        pairwise, _ = drive(lambda builder, hosts: _pairwise_static_arp(hosts))
        assert shared == pairwise
        # h0's packets leave in scope order, b before c.
        sent = [
            detail["frame"].split(" -> ")[1].split()[0]
            for _, source, category, detail in shared
            if source == "h0.eth0" and category == "nic.tx"
            and "type=IPV4" in detail["frame"]
        ]
        assert sent == [macs[1], macs[2]]


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

#: The multicast groups frames go to and group filters draw from.
_GROUPS = [
    MacAddress.from_string(text)
    for text in ("01:80:c2:00:00:00", "09:00:2b:01:00:00", "01:00:5e:00:00:01")
]

_nic_spec = st.tuples(
    st.integers(min_value=0, max_value=len(_MACS) - 1),  # MAC index
    st.booleans(),  # up
    st.booleans(),  # promiscuous
    # group filter: None passes every group, else the joined group indices
    st.none() | st.frozensets(st.integers(min_value=0, max_value=len(_GROUPS) - 1)),
)
# Three up, filtering NICs added to the extras make the segment plan its
# fan-outs; the permutation mixes them into the attach order.
_FILTERING = [(0, True, False, None), (1, True, False, None), (2, True, False, None)]
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
        st.sampled_from(
            ["down", "promiscuous", "up", "filtering", "send", "join", "leave",
             "all-groups"]
        ),
    ),
    max_size=8,
)


def _destination(kind, pick):
    if kind == "attached":
        return _MACS[pick % len(_MACS)]
    if kind == "foreign":
        return MacAddress.locally_administered(0x100 + pick)
    if kind == "multicast":
        return _GROUPS[pick % len(_GROUPS)]
    return BROADCAST


def _run_fan_out_case(nic_specs, frames, actions, oracle):
    """Run one generated segment and return everything a fan-out can change."""
    sim = Simulator(seed=3)
    segment = Segment(sim, "lan")
    if oracle:
        segment._deliver = _full_scan(segment)
    nics = []
    # Each NIC's group filter, restricted to _GROUPS: None is every group.
    filters = {}
    for position, (mac_index, up, promiscuous, groups) in enumerate(nic_specs):
        nic = NetworkInterface(sim, f"n{position}", _MACS[mac_index])
        nic.attach(segment)
        nic.set_promiscuous(promiscuous)
        nic.set_up(up)
        if groups is not None:
            filters[nic] = {_GROUPS[index] for index in groups}
            nic.set_group_filter(filters[nic])
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
            elif op in ("join", "leave"):
                # The frame's group (the first one for unicast and broadcast).
                group = frame.destination if frame.destination in _GROUPS else _GROUPS[0]
                joined = filters.get(victim)
                if op == "join" and joined is not None:
                    filters[victim] = joined | {group}
                elif op == "leave":
                    filters[victim] = (set(_GROUPS) if joined is None else joined) - {group}
                victim.set_group_filter(filters.get(victim))
            elif op == "all-groups":
                filters.pop(victim, None)
                victim.set_group_filter(None)
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
        [(0, True, False, None), (1, True, False, None), (2, True, False, None),
         (3, True, False, None)],
        [(0, "attached", 1, 0)],
        [(1, 1, 3, "down"), (1, 1, 2, "promiscuous")],
    )
    # n0 sends to the first group; n1's handler makes n3, a member, leave
    # it before the scan reaches n3, and n2 join it.
    @example(
        [(0, True, False, None), (1, True, False, frozenset({0})),
         (2, True, False, frozenset()), (3, True, False, frozenset({0, 1}))],
        [(0, "multicast", 0, 0)],
        [(1, 1, 3, "leave"), (1, 1, 2, "join")],
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
        """A cut segment delivers by run, and a run never builds a plan."""
        fabric = ShardedSimulator(seed=1, shards=2)
        segment = Segment(fabric.shards[0], "lan")
        nics = []
        for index in range(4):
            nic = _nic(fabric.shards[index % 2], f"n{index}", index + 1)
            nic.attach(segment)
            nics.append(nic)
        nics[0].send(_frame(src=str(nics[0].mac), dst=str(nics[2].mac)))
        fabric.run()
        assert segment._plans == {}
        assert [nic.frames_received for nic in nics] == [0, 0, 1, 0]

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


# ---------------------------------------------------------------------------
# Express-lane fold on attach
# ---------------------------------------------------------------------------


class _LossModel:
    """A duck-typed fault model that judges nothing (only ``active`` matters)."""

    def __init__(self, active):
        self.active = active

    def judge(self, frame):
        return None


#: Each NIC's state before its first attach: (up, handler kind, promiscuous).
#: Handler kinds: 0 none, 1 undeclared, 2 inline_safe, 3 segment_local.
_lane_nics = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=3), st.booleans()),
    min_size=5,
    max_size=5,
)

#: (operation, NIC index, variant)
_lane_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["attach", "detach", "up", "handler", "promiscuous", "link", "fault"]
        ),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=30,
)


class _LaneWorld:
    """A segment and five NICs; on a fabric the fourth lives on another shard."""

    def __init__(self, fabric, nic_states, rescan):
        if fabric:
            engine = ShardedSimulator(seed=1, shards=2)
            home, other = engine.shards
        else:
            home = other = Simulator(seed=1)
        self.rescan = rescan
        self.segment = Segment(home, "lan")
        self.calls = []
        self.nics = [
            _nic(other if index == 3 else home, f"n{index}", index + 1)
            for index in range(5)
        ]
        self.outsider = _nic(home, "outsider", 99)
        for nic, (up, handler, promiscuous) in zip(self.nics, nic_states):
            nic.set_up(up)
            self.set_handler(nic, handler)
            nic.set_promiscuous(promiscuous)
        if rescan:
            self.segment._refresh_delivery_runs()

    def record(self, nic, frame):
        self.calls.append((nic.name, frame.destination))

    def set_handler(self, nic, kind):
        nic.set_handler(
            None if kind == 0 else self.record,
            inline_safe=kind == 2,
            segment_local=kind == 3,
        )

    def apply(self, op, index, variant):
        nic = self.nics[index]
        segment = self.segment
        if op == "attach" and nic.segment is None:
            nic.attach(segment)
        elif op == "detach" and nic.segment is segment:
            nic.detach()
        elif op == "up":
            nic.set_up(variant % 2 == 0)
        elif op == "handler":
            self.set_handler(nic, variant)
        elif op == "promiscuous":
            nic.set_promiscuous(variant % 2 == 1)
        elif op == "link":
            segment.set_link(variant % 2 == 0)
        elif op == "fault":
            segment.set_fault_model(None if variant == 0 else _LossModel(variant == 1))
        if self.rescan:
            segment._refresh_delivery_runs()

    def state(self):
        """The lane, the delivery runs and what unicast fan-outs reach."""
        segment = self.segment
        runs = segment._delivery_runs
        if runs is not None:
            runs = [
                (engine is segment.sim, [nic.name for nic in run])
                for engine, run in runs
            ]
        del self.calls[:]
        foreign = MacAddress.locally_administered(0x100)
        for destination in [*(nic.mac for nic in self.nics), foreign]:
            frame = _frame(src=str(self.outsider.mac), dst=str(destination))
            segment._deliver(self.outsider, frame)
        counters = [(nic.frames_received, nic.frames_dropped) for nic in self.nics]
        return segment.express_mode, runs, list(self.calls), counters


_PLAIN = (True, 0, False)


class TestExpressLaneFold:
    @given(st.booleans(), _lane_nics, _lane_ops)
    @settings(max_examples=200, deadline=None)
    # A segment with no NIC.
    @example(False, [_PLAIN] * 5, [])
    # Down and inline-safe NICs with handlers do not narrow the lane.
    @example(False, [(False, 1, False), (True, 2, False)] + [_PLAIN] * 3,
             [("attach", 0, 0), ("attach", 1, 0)])
    # A new NIC joins the fan-out plans of a planning segment...
    @example(False, [_PLAIN] * 5,
             [("attach", index, 0) for index in range(3)]
             + [("up", 0, 0), ("attach", 4, 0)])
    # ...and so does a NIC that turns promiscuous.
    @example(False, [_PLAIN] * 5,
             [("attach", index, 0) for index in range(4)]
             + [("up", 0, 0), ("promiscuous", 2, 1)])
    # A NIC on another shard cuts the segment.
    @example(True, [(True, 3, False)] * 5,
             [("attach", 0, 0), ("attach", 3, 0), ("attach", 1, 0)])
    def test_attach_fold_equals_a_full_rescan(self, fabric, nic_states, ops):
        folded = _LaneWorld(fabric, nic_states, rescan=False)
        rescanned = _LaneWorld(fabric, nic_states, rescan=True)
        assert folded.state() == rescanned.state()
        for step, (op, index, variant) in enumerate(ops):
            folded.apply(op, index, variant)
            rescanned.apply(op, index, variant)
            assert folded.state() == rescanned.state(), (step, op, index, variant)

    def test_compile_rescans_do_not_grow_with_the_floor(self, monkeypatch):
        calls = []
        refresh = Segment._refresh_express

        def counting(segment):
            calls.append(segment.name)
            refresh(segment)

        monkeypatch.setattr(Segment, "_refresh_express", counting)
        counts = []
        for hosts_per_floor in (25, 100):
            del calls[:]
            run_scenario(
                "population/office",
                params={"floors": 4, "hosts_per_floor": hosts_per_floor},
            )
            counts.append(len(calls))
        assert counts[0] == counts[1]
