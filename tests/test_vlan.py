"""802.1Q VLAN support: frame tagging, switchlet semantics, isolation.

Three layers are covered:

* the **wire format** — :class:`VlanTag` and the tagged
  :class:`EthernetFrame` (lengths, encode/decode, pkt-bytes round trip,
  the ``FrameFmt`` helpers shipped inside switchlets);
* the **VLAN-aware learning bridge switchlet** — access/trunk discipline,
  per-VLAN learning tables, drop counters;
* the **trunked scenario family** — tagged frames never cross VLANs and
  trunk flooding stays scoped per VLAN, across the matrix expansion.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.unixnet import frame_to_packet_bytes, packet_bytes_to_frame
from repro.ethernet.ethertype import EtherType
from repro.ethernet.frame import (
    EthernetFrame,
    FCS_LENGTH,
    HEADER_LENGTH,
    MIN_PAYLOAD,
    VLAN_TAG_LENGTH,
    VlanTag,
    WIRE_OVERHEAD,
)
from repro.ethernet.mac import BROADCAST, MacAddress
from repro.exceptions import FrameError
from repro.lan.nic import NetworkInterface
from repro.measurement.ping import PingRunner
from repro.scenario import expand_matrix, run_scenario
from repro.switchlets.framefmt import FrameFmt

SRC = MacAddress.from_string("02:00:00:00:00:01")
DST = MacAddress.from_string("02:00:00:00:00:02")


def _frame(payload=b"hello", vlan=None):
    return EthernetFrame(
        destination=DST,
        source=SRC,
        ethertype=int(EtherType.IPV4),
        payload=payload,
        vlan=vlan,
    )


class TestVlanTag:
    def test_tci_round_trip(self):
        tag = VlanTag(vid=123, priority=5)
        assert VlanTag.from_tci(tag.tci) == tag

    @pytest.mark.parametrize("vid", [0, 0xFFF, 4095, -1])
    def test_reserved_vids_rejected(self, vid):
        with pytest.raises(FrameError):
            VlanTag(vid=vid)

    def test_priority_range(self):
        with pytest.raises(FrameError):
            VlanTag(vid=1, priority=8)

    def test_str(self):
        assert str(VlanTag(vid=10)) == "10"
        assert str(VlanTag(vid=10, priority=3)) == "10(p3)"


class TestTaggedFrame:
    def test_tag_adds_four_bytes_to_both_lengths(self):
        plain = _frame()
        tagged = plain.tagged(10)
        assert tagged.frame_length == plain.frame_length + VLAN_TAG_LENGTH
        assert tagged.wire_length == plain.wire_length + VLAN_TAG_LENGTH
        expected = HEADER_LENGTH + VLAN_TAG_LENGTH + MIN_PAYLOAD + FCS_LENGTH
        assert tagged.frame_length == expected
        assert tagged.wire_length == expected + WIRE_OVERHEAD

    def test_encode_decode_round_trip(self):
        tagged = _frame(payload=b"x" * 100).tagged(42, priority=6)
        decoded = EthernetFrame.decode(tagged.encode())
        assert decoded.vlan == VlanTag(vid=42, priority=6)
        assert decoded.ethertype == int(EtherType.IPV4)
        assert decoded.payload == b"x" * 100
        assert decoded == tagged

    def test_encode_places_tpid_after_source(self):
        data = _frame().tagged(7).encode()
        assert data[12:14] == b"\x81\x00"
        assert int.from_bytes(data[14:16], "big") & 0x0FFF == 7
        assert data[16:18] == int(EtherType.IPV4).to_bytes(2, "big")

    def test_untagged_decode_unchanged(self):
        plain = _frame(payload=b"y" * 60)
        decoded = EthernetFrame.decode(plain.encode())
        assert decoded.vlan is None
        assert decoded == plain

    def test_untagged_helper(self):
        tagged = _frame().tagged(9)
        assert tagged.untagged().vlan is None
        assert tagged.untagged().payload == tagged.payload
        plain = _frame()
        assert plain.untagged() is plain

    def test_describe_mentions_vlan(self):
        assert "vlan=10" in _frame().tagged(10).describe()
        assert "vlan" not in _frame().describe()

    def test_packet_bytes_round_trip(self):
        tagged = _frame(payload=b"z" * 33).tagged(100)
        pkt = frame_to_packet_bytes(tagged)
        # The tag rides in-line: TPID right after the source address.
        assert pkt[12:14] == b"\x81\x00"
        rebuilt = packet_bytes_to_frame(pkt)
        assert rebuilt == tagged

    def test_truncated_tagged_packet_bytes_rejected(self):
        with pytest.raises(FrameError):
            packet_bytes_to_frame(SRC.octets + DST.octets + b"\x81\x00\x00")


class TestPriorityTaggedFrame:
    """A tag word whose VLAN id names no VLAN is not a tag: VLAN id 0 is an
    802.1p priority-only tag, which is not modelled, and 4095 is reserved.
    Both parsers read the frame as its sender built it, untagged, of
    EtherType 0x8100, with the tag word as the start of its payload."""

    @settings(max_examples=60, deadline=None)
    @given(
        vid=st.sampled_from([0, 0xFFF]),
        priority=st.integers(min_value=0, max_value=7),
        dei=st.integers(min_value=0, max_value=1),
        # At least an inner EtherType after the tag word: shorter pkt bytes
        # fail the 802.1Q truncation check, which runs first.
        rest=st.binary(min_size=2, max_size=200),
    )
    def test_round_trips_through_both_parsers(self, vid, priority, dei, rest):
        tci = (priority << 13) | (dei << 12) | vid
        frame = EthernetFrame(
            DST, SRC, int(EtherType.VLAN_8021Q), tci.to_bytes(2, "big") + rest
        )
        decoded = EthernetFrame.decode(frame.encode())
        rebuilt = packet_bytes_to_frame(frame_to_packet_bytes(frame))
        assert rebuilt == frame
        assert rebuilt.frame_length == frame.frame_length
        assert frame_to_packet_bytes(rebuilt) == frame_to_packet_bytes(frame)
        # decode() cannot tell padding from payload, so it keeps the padded
        # payload; everything else, and the bytes, survive.
        assert decoded == frame.with_payload(frame.padded_payload)
        assert decoded.vlan is None
        assert decoded.encode() == frame.encode()
        assert decoded.frame_length == frame.frame_length

    @pytest.mark.parametrize("tag_word", ["a000", "0fff"], ids=["vid-0", "vid-4095"])
    def test_crosses_an_active_bridge_unchanged(self, tag_word):
        """Forwarding such a frame used to raise out of run_until."""
        run = run_scenario("pair/active-bridge")
        run.warm_up()
        host1, host2 = run.hosts
        frame = EthernetFrame(
            host2.mac, host1.mac, int(EtherType.VLAN_8021Q),
            bytes.fromhex(tag_word + "0800") + bytes(60),
        )
        received = []
        host2.add_raw_listener(received.append)
        host1.send_raw_frame(frame)
        run.sim.run_until(run.sim.now + 0.1)
        assert received == [frame]


class TestFrameFmtVlanHelpers:
    def test_add_strip_round_trip(self):
        pkt = FrameFmt.build(DST.octets, SRC.octets, int(EtherType.IPV4), b"data")
        tagged = FrameFmt.add_vlan(pkt, 20, priority=2)
        assert FrameFmt.is_tagged(tagged)
        assert FrameFmt.vlan_id(tagged) == 20
        assert FrameFmt.strip_vlan(tagged) == pkt
        assert FrameFmt.vlan_id(pkt) is None
        assert FrameFmt.strip_vlan(pkt) == pkt

    def test_double_tagging_rejected(self):
        pkt = FrameFmt.build(DST.octets, SRC.octets, int(EtherType.IPV4), b"")
        tagged = FrameFmt.add_vlan(pkt, 5)
        with pytest.raises(ValueError):
            FrameFmt.add_vlan(tagged, 6)

    def test_addresses_survive_tagging(self):
        pkt = FrameFmt.build(DST.octets, SRC.octets, int(EtherType.IPV4), b"q")
        tagged = FrameFmt.add_vlan(pkt, 11)
        assert FrameFmt.dst_bytes(tagged) == DST.octets
        assert FrameFmt.src_bytes(tagged) == SRC.octets

    def test_priority_round_trip(self):
        pkt = FrameFmt.build(DST.octets, SRC.octets, int(EtherType.IPV4), b"q")
        tagged = FrameFmt.add_vlan(pkt, 11, priority=5)
        assert FrameFmt.vlan_priority(tagged) == 5
        assert FrameFmt.vlan_id(tagged) == 11
        assert FrameFmt.vlan_priority(pkt) is None


def _segment_rx(run, name):
    """Total frames delivered onto a segment."""
    return run.segment(name).frames_carried


class TestVlanTrunkScenario:
    def test_same_vlan_ping_crosses_the_trunk(self):
        run = run_scenario("vlan/trunk", seed=5)
        near, far = run.host("h1v10n1"), run.host("h2v10n1")
        result = PingRunner(
            run.sim, near, far.ip, payload_size=256, count=3, interval=0.1
        ).run(start_time=run.ready_time)
        assert result.received == result.sent == 3

    def test_cross_vlan_ping_never_arrives(self):
        run = run_scenario("vlan/trunk", seed=5)
        near, wrong = run.host("h1v10n1"), run.host("h2v20n1")
        # Static ARP is VLAN-scoped; install an entry manually so the echo
        # request is genuinely transmitted and must be dropped at L2.
        near.stack.add_static_arp(wrong.ip, wrong.mac)
        result = PingRunner(
            run.sim, near, wrong.ip, payload_size=256, count=3, interval=0.1
        ).run(start_time=run.ready_time)
        assert result.sent == 3
        assert result.received == 0
        # The frames died inside the VLAN discipline, not in transit: the
        # destination host's NIC never saw them.
        assert run.host("h2v20n1").nic.frames_received == 0

    def test_trunk_flooding_is_scoped_per_vlan(self):
        run = run_scenario("vlan/trunk", seed=6)
        run.warm_up()
        # An unknown-destination broadcast from a VLAN-10 host floods through
        # both switches — but only VLAN-10 segments ever carry it.
        sender = run.host("h1v10n1")
        probe = NetworkInterface(run.sim, "probe", MacAddress.from_string("02:aa:00:00:00:01"))
        probe.attach(run.segment("sw1-v10"))
        probe.send(
            EthernetFrame(
                destination=BROADCAST,
                source=probe.mac,
                ethertype=int(EtherType.MEASUREMENT),
                payload=b"flood",
            )
        )
        run.run_until(run.sim.now + 1.0)
        assert _segment_rx(run, "trunk") >= 1  # crossed the trunk, tagged
        assert _segment_rx(run, "sw2-v10") >= 1  # delivered to the far VLAN-10 LAN
        assert _segment_rx(run, "sw1-v20") == 0  # never leaked into VLAN 20
        assert _segment_rx(run, "sw2-v20") == 0
        assert sender.nic.frames_received >= 1  # fellow VLAN-10 station got it

    def test_frames_on_trunk_are_tagged(self):
        run = run_scenario("vlan/trunk", seed=7)
        seen = []
        spy = NetworkInterface(run.sim, "spy", MacAddress.from_string("02:aa:00:00:00:02"))
        spy.attach(run.segment("trunk"))
        spy.set_promiscuous(True)
        spy.set_handler(lambda _nic, frame: seen.append(frame))
        near, far = run.host("h1v10n1"), run.host("h2v10n1")
        PingRunner(run.sim, near, far.ip, payload_size=64, count=2, interval=0.1).run(
            start_time=run.ready_time
        )
        assert seen, "trunk carried no frames"
        assert all(frame.vlan is not None for frame in seen)
        assert {frame.vlan.vid for frame in seen} == {10}

    def test_access_port_drops_tagged_frames(self):
        run = run_scenario("vlan/trunk", seed=8)
        run.warm_up()
        app = run.device("switch1").func.lookup("switchlet.vlan-bridge")
        rogue = NetworkInterface(run.sim, "rogue", MacAddress.from_string("02:aa:00:00:00:03"))
        rogue.attach(run.segment("sw1-v10"))
        rogue.send(
            EthernetFrame(
                destination=BROADCAST,
                source=rogue.mac,
                ethertype=int(EtherType.MEASUREMENT),
                payload=b"tagged-on-access",
                vlan=VlanTag(vid=10),
            )
        )
        run.run_until(run.sim.now + 0.5)
        assert app.stats()["dropped_tagged_on_access"] == 1
        assert _segment_rx(run, "trunk") == 0

    def test_trunk_port_drops_untagged_and_disallowed_vlans(self):
        run = run_scenario("vlan/trunk", seed=9)
        run.warm_up()
        app = run.device("switch1").func.lookup("switchlet.vlan-bridge")
        rogue = NetworkInterface(run.sim, "rogue", MacAddress.from_string("02:aa:00:00:00:04"))
        rogue.attach(run.segment("trunk"))
        base = dict(
            destination=BROADCAST,
            source=rogue.mac,
            ethertype=int(EtherType.MEASUREMENT),
            payload=b"x",
        )
        rogue.send(EthernetFrame(**base))  # untagged on trunk
        rogue.send(EthernetFrame(**base, vlan=VlanTag(vid=999)))  # not allowed
        run.run_until(run.sim.now + 0.5)
        stats = app.stats()
        assert stats["dropped_untagged_on_trunk"] == 1
        assert stats["dropped_vlan_not_allowed"] == 1
        assert _segment_rx(run, "sw1-v10") == 0
        assert _segment_rx(run, "sw1-v20") == 0

    def test_learning_tables_are_per_vlan(self):
        run = run_scenario("vlan/trunk", seed=10)
        for near, far in (("h1v10n1", "h2v10n1"), ("h1v20n1", "h2v20n1")):
            PingRunner(
                run.sim,
                run.host(near),
                run.host(far).ip,
                payload_size=64,
                count=2,
                interval=0.05,
            ).run(start_time=run.sim.now + 0.1)
        snapshot = run.device("switch1").func.lookup("switchlet.vlan-bridge").snapshot()
        assert set(snapshot) == {10, 20}
        v10_macs = set(snapshot[10])
        v20_macs = set(snapshot[20])
        assert str(run.host("h1v10n1").mac) in v10_macs
        assert str(run.host("h1v20n1").mac) in v20_macs
        # No address appears in both VLANs' tables.
        assert not (v10_macs & v20_macs)

    def test_reserved_vlan_ids_rejected_at_configuration(self):
        run = run_scenario("vlan/trunk", seed=12)
        app = run.device("switch1").func.lookup("switchlet.vlan-bridge")
        with pytest.raises(ValueError, match="VLAN id out of range"):
            app.configure_ports({"eth0": {"mode": "access", "vlan": 0}})
        with pytest.raises(ValueError, match="VLAN id out of range"):
            app.configure_ports({"eth0": {"mode": "trunk", "allowed": [10, 4095]}})

    def test_priority_preserved_across_trunk_to_trunk_forwarding(self):
        from repro.scenario import DeviceSpec, PortSpec, ScenarioSpec, SegmentSpec, SwitchletSpec

        spec = ScenarioSpec(
            name="t/dual-trunk",
            segments=(SegmentSpec("trunkA"), SegmentSpec("trunkB")),
            devices=(
                DeviceSpec(
                    "sw",
                    ports=(
                        PortSpec("eth0", "trunkA", mode="trunk", allowed_vlans=(10,)),
                        PortSpec("eth1", "trunkB", mode="trunk", allowed_vlans=(10,)),
                    ),
                    switchlets=(
                        SwitchletSpec("dumb-bridge"),
                        SwitchletSpec("vlan-bridge"),
                    ),
                ),
            ),
        )
        run = run_scenario(spec, seed=13)
        run.warm_up()
        seen = []
        spy = NetworkInterface(run.sim, "spy", MacAddress.from_string("02:aa:00:00:00:05"))
        spy.attach(run.segment("trunkB"))
        spy.set_promiscuous(True)
        spy.set_handler(lambda _nic, frame: seen.append(frame))
        sender = NetworkInterface(run.sim, "tx", MacAddress.from_string("02:aa:00:00:00:06"))
        sender.attach(run.segment("trunkA"))
        sender.send(
            EthernetFrame(
                destination=BROADCAST,
                source=sender.mac,
                ethertype=int(EtherType.MEASUREMENT),
                payload=b"qos",
                vlan=VlanTag(vid=10, priority=5),
            )
        )
        run.run_until(run.sim.now + 0.5)
        assert seen, "frame never crossed the dual-trunk switch"
        assert seen[0].vlan == VlanTag(vid=10, priority=5)

    def test_isolation_holds_across_the_matrix(self):
        for spec in expand_matrix(
            "vlan/trunk", {"n_vlans": [2, 3], "hosts_per_vlan": [1, 2]}
        ):
            assert len(spec.segments) >= 3
            assert spec.params["n_vlans"] * spec.params["hosts_per_vlan"] * 2 == len(
                spec.hosts
            )
        # Compile one of the larger points and spot-check isolation.
        run = run_scenario("vlan/trunk", seed=11, params={"n_vlans": 3, "hosts_per_vlan": 2})
        near, far = run.host("h1v30n1"), run.host("h2v30n2")
        result = PingRunner(
            run.sim, near, far.ip, payload_size=64, count=2, interval=0.05
        ).run(start_time=run.ready_time)
        assert result.received == 2
        wrong = run.host("h2v10n1")
        near.stack.add_static_arp(wrong.ip, wrong.mac)
        result = PingRunner(
            run.sim, near, wrong.ip, payload_size=64, count=2, interval=0.05
        ).run(start_time=run.sim.now + 0.1)
        assert result.received == 0


class TestNativeVlanTrunk:
    """Native-VLAN trunks: untagged trunk traffic maps to the native VLAN."""

    def _native_run(self, seed=20):
        return run_scenario("vlan/trunk", seed=seed, params={"native_vlan": 10})

    def test_native_vlan_ping_crosses_the_trunk(self):
        run = self._native_run()
        near, far = run.host("h1v10n1"), run.host("h2v10n1")
        result = PingRunner(
            run.sim, near, far.ip, payload_size=128, count=3, interval=0.1
        ).run(start_time=run.ready_time)
        assert result.received == result.sent == 3

    def test_native_vlan_egresses_untagged_others_stay_tagged(self):
        run = self._native_run(seed=21)
        seen = []
        spy = NetworkInterface(run.sim, "spy", MacAddress.from_string("02:aa:00:00:00:05"))
        spy.attach(run.segment("trunk"))
        spy.set_promiscuous(True)
        spy.set_handler(lambda _nic, frame: seen.append(frame))
        near10, far10 = run.host("h1v10n1"), run.host("h2v10n1")
        near20, far20 = run.host("h1v20n1"), run.host("h2v20n1")
        PingRunner(
            run.sim, near10, far10.ip, payload_size=64, count=2, interval=0.1
        ).run(start_time=run.ready_time)
        PingRunner(
            run.sim, near20, far20.ip, payload_size=64, count=2, interval=0.1,
            identifier=0x4321,
        ).run(start_time=run.sim.now + 0.1)
        native_frames = [frame for frame in seen if frame.vlan is None]
        tagged_frames = [frame for frame in seen if frame.vlan is not None]
        assert native_frames, "native VLAN traffic should cross the trunk untagged"
        assert {frame.vlan.vid for frame in tagged_frames} == {20}

    def test_isolation_holds_with_a_native_vlan(self):
        run = self._native_run(seed=22)
        near, wrong = run.host("h1v10n1"), run.host("h2v20n1")
        near.stack.add_static_arp(wrong.ip, wrong.mac)
        result = PingRunner(
            run.sim, near, wrong.ip, payload_size=64, count=2, interval=0.1
        ).run(start_time=run.ready_time)
        assert result.sent == 2
        assert result.received == 0
        assert run.host("h2v20n1").nic.frames_received == 0

    def test_tagged_native_frames_are_dropped_and_counted(self):
        run = self._native_run(seed=23)
        run.warm_up()
        app = run.device("switch1").func.lookup("switchlet.vlan-bridge")
        rogue = NetworkInterface(run.sim, "rogue", MacAddress.from_string("02:aa:00:00:00:06"))
        rogue.attach(run.segment("trunk"))
        rogue.send(
            EthernetFrame(
                destination=BROADCAST,
                source=rogue.mac,
                ethertype=int(EtherType.MEASUREMENT),
                payload=b"tagged-native",
                vlan=VlanTag(vid=10),
            )
        )
        run.run_until(run.sim.now + 0.5)
        stats = app.stats()
        assert stats["dropped_tagged_on_native"] == 1
        # The mismatch frame never reached either VLAN's access segments.
        assert _segment_rx(run, "sw1-v10") == 0
        assert _segment_rx(run, "sw1-v20") == 0

    def test_untagged_trunk_frames_without_native_still_drop(self):
        run = run_scenario("vlan/trunk", seed=24)
        run.warm_up()
        app = run.device("switch1").func.lookup("switchlet.vlan-bridge")
        rogue = NetworkInterface(run.sim, "rogue", MacAddress.from_string("02:aa:00:00:00:07"))
        rogue.attach(run.segment("trunk"))
        rogue.send(
            EthernetFrame(
                destination=BROADCAST,
                source=rogue.mac,
                ethertype=int(EtherType.MEASUREMENT),
                payload=b"untagged",
            )
        )
        run.run_until(run.sim.now + 0.5)
        stats = app.stats()
        assert stats["dropped_untagged_on_trunk"] == 1
        assert stats["dropped_tagged_on_native"] == 0

    def test_native_trunk_scenario_is_shard_deterministic(self):
        single = self._native_run(seed=25)
        single.warm_up()
        sharded = run_scenario(
            "vlan/trunk", seed=25, params={"native_vlan": 10}, shards=3
        )
        sharded.warm_up()
        assert single.sim.trace.canonical_records() == sharded.sim.trace.canonical_records()
