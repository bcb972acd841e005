"""Tests for the ``Unixnet`` port API (Figure 4 of the paper)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.safeunix import SockAddr
from repro.core.unixnet import (
    Packet,
    Unixnet,
    frame_to_packet_bytes,
    packet_bytes_to_frame,
)
from repro.ethernet.ethertype import EtherType
from repro.ethernet.frame import EthernetFrame
from repro.ethernet.mac import MacAddress
from repro.exceptions import AlreadyBound, FrameError, NoInterface
from repro.lan.nic import NetworkInterface
from repro.switchlets.framefmt import FrameFmt
from repro.switchlets.packaging import (
    dumb_bridge_package,
    learning_bridge_package,
    spanning_tree_package,
)

MAC0 = MacAddress.locally_administered(100)
MAC1 = MacAddress.locally_administered(101)
HOST_MAC = MacAddress.locally_administered(200)
MULTICAST = "01:80:c2:00:00:00"


def _make_unixnet():
    sent = []
    promiscuous = {"eth0": False, "eth1": False}
    unixnet = Unixnet("node", transmit=lambda name, frame: sent.append((name, frame)))
    unixnet.add_interface("eth0", MAC0, lambda value: promiscuous.__setitem__("eth0", value))
    unixnet.add_interface("eth1", MAC1, lambda value: promiscuous.__setitem__("eth1", value))
    return unixnet, sent, promiscuous


def _frame(dst, payload=b"payload", ethertype=EtherType.MEASUREMENT):
    return EthernetFrame(
        destination=dst if isinstance(dst, MacAddress) else MacAddress.from_string(dst),
        source=HOST_MAC,
        ethertype=int(ethertype),
        payload=payload,
    )


# ---------------------------------------------------------------------------
# Packet byte conversion
# ---------------------------------------------------------------------------


class TestPacketBytes:
    def test_roundtrip(self):
        frame = _frame(MAC0, payload=b"abcdef")
        rebuilt = packet_bytes_to_frame(frame_to_packet_bytes(frame))
        assert rebuilt.destination == frame.destination
        assert rebuilt.source == frame.source
        assert rebuilt.ethertype == frame.ethertype
        assert rebuilt.payload == frame.payload

    def test_too_short_rejected(self):
        with pytest.raises(FrameError):
            packet_bytes_to_frame(b"\x00" * 10)


# ---------------------------------------------------------------------------
# Input ports
# ---------------------------------------------------------------------------


class TestInputPorts:
    def test_bind_in_puts_interface_into_promiscuous_mode(self):
        unixnet, _, promiscuous = _make_unixnet()
        unixnet.bind_in("eth0")
        assert promiscuous["eth0"] is True
        assert promiscuous["eth1"] is False

    def test_first_bind_wins(self):
        unixnet, _, _ = _make_unixnet()
        unixnet.bind_in("eth0")
        with pytest.raises(AlreadyBound):
            unixnet.bind_in("eth0")

    def test_unknown_interface(self):
        unixnet, _, _ = _make_unixnet()
        with pytest.raises(NoInterface):
            unixnet.bind_in("eth9")

    def test_get_iport_iterates_unbound(self):
        unixnet, _, _ = _make_unixnet()
        first = unixnet.get_iport()
        second = unixnet.get_iport()
        assert {first.name, second.name} == {"eth0", "eth1"}
        with pytest.raises(NoInterface):
            unixnet.get_iport()

    def test_unbind_allows_rebinding_and_clears_promiscuous(self):
        unixnet, _, promiscuous = _make_unixnet()
        iport = unixnet.bind_in("eth0")
        unixnet.unbind_in(iport)
        assert promiscuous["eth0"] is False
        unixnet.bind_in("eth0")  # must not raise

    def test_pull_mode_queueing(self):
        unixnet, _, _ = _make_unixnet()
        iport = unixnet.bind_in("eth0")
        assert not unixnet.pkts_waiting_p_in(iport)
        unixnet.deliver_frame("eth0", _frame(MAC0))
        assert unixnet.pkts_waiting_p_in(iport)
        packet = unixnet.get_next_pkt_in(iport)
        assert isinstance(packet, Packet)
        assert packet.iport == "eth0"
        assert packet.len == len(packet.pkt)
        with pytest.raises(NoInterface):
            unixnet.get_next_pkt_in(iport)

    def test_push_handler(self):
        unixnet, _, _ = _make_unixnet()
        iport = unixnet.bind_in("eth0")
        got = []
        unixnet.set_handler_in(iport, got.append)
        unixnet.deliver_frame("eth0", _frame(MAC0, payload=b"pushed"))
        assert len(got) == 1
        assert got[0].addr.interface == "eth0"
        assert got[0].addr.mac == str(HOST_MAC)

    def test_unclaimed_frames_counted(self):
        unixnet, _, _ = _make_unixnet()
        assert unixnet.deliver_frame("eth0", _frame(MAC0)) is None
        assert unixnet.packets_unclaimed == 1


class TestAddressBindings:
    def test_address_binding_takes_precedence(self):
        unixnet, _, _ = _make_unixnet()
        iport = unixnet.bind_in("eth0")
        interface_packets = []
        unixnet.set_handler_in(iport, interface_packets.append)
        addr_port = unixnet.bind_addr(MULTICAST)
        addr_packets = []
        unixnet.set_handler_in(addr_port, addr_packets.append)
        unixnet.deliver_frame("eth0", _frame(MULTICAST))
        unixnet.deliver_frame("eth0", _frame(MAC0))
        assert len(addr_packets) == 1
        assert len(interface_packets) == 1

    def test_address_binding_receives_from_any_interface(self):
        unixnet, _, _ = _make_unixnet()
        addr_port = unixnet.bind_addr(MULTICAST)
        got = []
        unixnet.set_handler_in(addr_port, got.append)
        unixnet.deliver_frame("eth0", _frame(MULTICAST))
        unixnet.deliver_frame("eth1", _frame(MULTICAST))
        assert [packet.iport for packet in got] == ["eth0", "eth1"]

    def test_address_first_bind_wins_and_rebind_after_unbind(self):
        unixnet, _, _ = _make_unixnet()
        addr_port = unixnet.bind_addr(MULTICAST)
        with pytest.raises(AlreadyBound):
            unixnet.bind_addr(MULTICAST)
        unixnet.unbind_addr(addr_port)
        unixnet.bind_addr(MULTICAST)  # must not raise


# ---------------------------------------------------------------------------
# Output ports
# ---------------------------------------------------------------------------


class TestOutputPorts:
    def test_bind_out_and_send(self):
        unixnet, sent, _ = _make_unixnet()
        oport = unixnet.bind_out("eth1")
        frame = _frame(MAC0, payload=b"forward me")
        data = frame_to_packet_bytes(frame)
        written = unixnet.send_pkt_out(oport, data, 0, len(data), None)
        assert written == len(data)
        assert sent[0][0] == "eth1"
        assert sent[0][1].payload == b"forward me"

    def test_send_respects_offset_and_length(self):
        unixnet, sent, _ = _make_unixnet()
        oport = unixnet.bind_out("eth0")
        frame = _frame(MAC0, payload=b"0123456789")
        data = b"JUNK" + frame_to_packet_bytes(frame)
        unixnet.send_pkt_out(oport, data, 4, len(data) - 4, None)
        assert sent[0][1].payload == b"0123456789"

    def test_first_bind_wins_for_output(self):
        unixnet, _, _ = _make_unixnet()
        unixnet.bind_out("eth0")
        with pytest.raises(AlreadyBound):
            unixnet.bind_out("eth0")

    def test_get_oport_and_exhaustion(self):
        unixnet, _, _ = _make_unixnet()
        unixnet.get_oport()
        unixnet.get_oport()
        with pytest.raises(NoInterface):
            unixnet.get_oport()

    def test_send_on_unbound_port_rejected(self):
        unixnet, _, _ = _make_unixnet()
        oport = unixnet.bind_out("eth0")
        unixnet.unbind_out(oport)
        data = frame_to_packet_bytes(_frame(MAC0))
        with pytest.raises(NoInterface):
            unixnet.send_pkt_out(oport, data, 0, len(data), None)

    def test_iport_to_oport_reuses_existing_binding(self):
        unixnet, _, _ = _make_unixnet()
        iport = unixnet.bind_in("eth0")
        first = unixnet.iport_to_oport(iport)
        second = unixnet.iport_to_oport(iport)
        assert first is second
        assert unixnet.ready_to_send_p_out(first)

    def test_debug_helpers(self):
        unixnet, _, _ = _make_unixnet()
        iport = unixnet.bind_in("eth0")
        oport = unixnet.bind_out("eth1")
        assert "eth0" in unixnet.debug_iport_to_string(iport)
        assert "eth1" in unixnet.debug_oport_to_string(oport)
        assert unixnet.debug_demux_num_devs() == 2

    def test_interface_metadata(self):
        unixnet, _, _ = _make_unixnet()
        assert unixnet.interface_names() == ["eth0", "eth1"]
        assert unixnet.interface_mac("eth0") == MAC0
        with pytest.raises(NoInterface):
            unixnet.interface_mac("eth7")


# ---------------------------------------------------------------------------
# Records, MAC interning and frame reuse on the output path
# ---------------------------------------------------------------------------


class TestRecords:
    def test_packet_and_sockaddr_construction(self):
        addr = SockAddr("eth0", "aa:bb:cc:dd:ee:ff")
        assert addr == SockAddr(interface="eth0", mac="aa:bb:cc:dd:ee:ff")
        positional = Packet(3, addr, b"abc", "eth0")
        keyword = Packet(len=3, addr=addr, pkt=b"abc", iport="eth0")
        assert positional == keyword
        assert (keyword.len, keyword.addr.mac, keyword.pkt, keyword.iport) == (
            3, "aa:bb:cc:dd:ee:ff", b"abc", "eth0"
        )

    def test_records_refuse_attribute_assignment(self):
        addr = SockAddr("eth0", "aa:bb:cc:dd:ee:ff")
        packet = Packet(3, addr, b"abc", "eth0")
        for record, name in ((addr, "mac"), (addr, "other"), (packet, "pkt"), (packet, "other")):
            with pytest.raises(AttributeError):
                setattr(record, name, "changed")

    def test_parsed_addresses_are_interned(self):
        data = frame_to_packet_bytes(_frame(MAC0, payload=b"one"))
        first = packet_bytes_to_frame(data)
        second = packet_bytes_to_frame(bytes(bytearray(data)))
        assert first is not second
        assert first.destination is second.destination
        assert first.source is second.source

    @given(st.binary(min_size=6, max_size=6))
    def test_framefmt_renders_macs_like_macaddress(self, octets):
        assert FrameFmt.mac_to_str(octets) == str(MacAddress(octets))


def _capture(segment, name, station_id):
    """A NIC on ``segment`` recording every frame object it accepts."""
    nic = NetworkInterface(segment.sim, name, MacAddress.locally_administered(station_id))
    nic.attach(segment)
    got = []
    nic.set_handler(lambda _nic, frame: got.append(frame))
    return nic, got


class TestFrameReuse:
    def test_learning_bridge_forwards_the_received_frame_object(self, programmed_bridge):
        network = programmed_bridge["network"]
        sender, _ = _capture(network.segment("lan1"), "sender", 900)
        receiver, got = _capture(network.segment("lan2"), "receiver", 901)
        frame = EthernetFrame(receiver.mac, sender.mac, int(EtherType.MEASUREMENT), b"x" * 64)
        sender.send(frame)
        programmed_bridge["sim"].run_until(1.0)
        assert len(got) == 1
        assert got[0] is frame

    def test_untagged_8100_frame_is_reparsed_as_tagged(self, two_lan_bridge):
        # pkt bytes cannot tell an untagged 0x8100 frame from a tagged one;
        # the bridge forwards what the bytes say, so it is never reused.
        bridge = two_lan_bridge["bridge"]
        bridge.load_switchlet(dumb_bridge_package(bridge.environment.modules))
        network = two_lan_bridge["network"]
        sender, _ = _capture(network.segment("lan1"), "sender", 900)
        receiver, got = _capture(network.segment("lan2"), "receiver", 901)
        payload = b"\x00\x05\x08\x06" + b"y" * 60
        sender.send(EthernetFrame(receiver.mac, sender.mac, 0x8100, payload))
        two_lan_bridge["sim"].run_until(1.0)
        assert len(got) == 1
        assert got[0].vlan is not None and got[0].vlan.vid == 5
        assert got[0].ethertype == 0x0806
        assert got[0].payload == payload[4:]

    def test_unchanged_pdus_on_a_port_are_one_frame_object(self, two_lan_bridge):
        bridge = two_lan_bridge["bridge"]
        environment = bridge.environment.modules
        bridge.load_switchlet(dumb_bridge_package(environment))
        bridge.load_switchlet(learning_bridge_package(environment))
        bridge.load_switchlet(spanning_tree_package(environment, autostart=True))
        _, got = _capture(two_lan_bridge["network"].segment("lan1"), "monitor", 900)
        two_lan_bridge["sim"].run_until(7.0)
        hellos = [frame for frame in got if frame.source == bridge.interface("eth0").mac]
        assert len(hellos) >= 3
        assert all(frame is hellos[0] for frame in hellos)

    def test_delivered_bytes_reuse_the_frame_but_an_offset_send_parses(self):
        unixnet, sent, _ = _make_unixnet()
        iport = unixnet.bind_in("eth0")
        oport = unixnet.iport_to_oport(iport)
        frame = _frame(MAC1, payload=b"forward me")
        unixnet.deliver_frame("eth0", frame)
        pkt = unixnet.get_next_pkt_in(iport).pkt
        unixnet.send_pkt_out(oport, pkt, 0, len(pkt), None)
        assert unixnet.send_pkt_out(oport, b"xx" + pkt, 2, len(pkt), None) == len(pkt)
        assert sent[0][1] is frame
        assert sent[1][1] is not frame
        assert sent[1][1] == frame

    def test_resending_parsed_bytes_reuses_the_frame(self):
        unixnet, sent, _ = _make_unixnet()
        oport = unixnet.bind_out("eth1")
        data = frame_to_packet_bytes(_frame(MAC0))
        for _ in range(2):
            unixnet.send_pkt_out(oport, data, 0, len(data), None)
        unixnet.send_pkt_out(oport, bytes(bytearray(data)), 0, len(data), None)
        assert sent[0][1] is sent[1][1]
        assert sent[2][1] is not sent[0][1]
        assert sent[2][1] == sent[0][1]
