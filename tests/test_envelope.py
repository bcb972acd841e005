"""Lossless frame serialization: wire ``pkt`` bytes and the fabric envelope.

Two encodings, two contracts:

* :func:`frame_to_packet_bytes` / :func:`packet_bytes_to_frame` is the wire
  format switchlets see — 802.1Q tags ride in-line via the TPID, so it is
  deliberately ambiguous for the one corner of an *untagged* frame whose
  EtherType is 0x8100 (it re-parses as tagged, as on real hardware).
* :func:`frame_to_envelope_bytes` / :func:`envelope_bytes_to_frame` is the
  process backend's mailbox transport and must round-trip **every** frame
  field exactly — VLAN tag presence included.

Both are property-tested over randomized frames when Hypothesis is
available; hand-picked corner frames keep the file meaningful without it.
"""

from __future__ import annotations

import pytest

from repro.core.unixnet import (
    envelope_bytes_to_frame,
    frame_to_envelope_bytes,
    frame_to_packet_bytes,
    packet_bytes_to_frame,
)
from repro.ethernet.frame import MAX_PAYLOAD, EthernetFrame, VlanTag
from repro.ethernet.mac import MacAddress
from repro.exceptions import FrameError

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - property tests become no-ops
    HAVE_HYPOTHESIS = False

needs_hypothesis = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed"
)


def _mac(octets: bytes) -> MacAddress:
    return MacAddress(octets)


if HAVE_HYPOTHESIS:
    macs = st.binary(min_size=6, max_size=6).map(_mac)
    vlans = st.builds(
        VlanTag,
        vid=st.integers(min_value=1, max_value=0xFFE),
        priority=st.integers(min_value=0, max_value=7),
    )
    frames = st.builds(
        EthernetFrame,
        destination=macs,
        source=macs,
        ethertype=st.integers(min_value=0, max_value=0xFFFF),
        payload=st.binary(min_size=0, max_size=MAX_PAYLOAD),
        vlan=st.one_of(st.none(), vlans),
    )
    # The wire format cannot represent an untagged frame whose EtherType is
    # the 802.1Q TPID (see module docstring); the envelope can.
    wire_safe_frames = frames.filter(
        lambda frame: frame.vlan is not None or int(frame.ethertype) != 0x8100
    )


def _assert_frames_equal(rebuilt: EthernetFrame, original: EthernetFrame) -> None:
    assert rebuilt == original
    assert rebuilt.vlan == original.vlan
    assert rebuilt.payload == original.payload
    assert rebuilt.frame_length == original.frame_length
    assert rebuilt.wire_length == original.wire_length


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@needs_hypothesis
class TestRandomizedRoundTrips:
    @settings(max_examples=200, deadline=None)
    @given(frame=frames)
    def test_envelope_round_trips_every_frame(self, frame):
        rebuilt = envelope_bytes_to_frame(frame_to_envelope_bytes(frame))
        _assert_frames_equal(rebuilt, frame)

    @settings(max_examples=200, deadline=None)
    @given(frame=wire_safe_frames)
    def test_packet_bytes_round_trip(self, frame):
        rebuilt = packet_bytes_to_frame(frame_to_packet_bytes(frame))
        _assert_frames_equal(rebuilt, frame)

    @settings(max_examples=100, deadline=None)
    @given(frame=frames)
    def test_envelope_is_deterministic(self, frame):
        assert frame_to_envelope_bytes(frame) == frame_to_envelope_bytes(frame)


# ---------------------------------------------------------------------------
# Corner frames (runnable without hypothesis)
# ---------------------------------------------------------------------------


SRC = MacAddress.from_string("02:00:00:00:00:01")
DST = MacAddress.from_string("02:00:00:00:00:02")


def _corner_frames():
    return [
        EthernetFrame(destination=DST, source=SRC, ethertype=0x0800, payload=b""),
        EthernetFrame(destination=DST, source=SRC, ethertype=0x88B5, payload=b"x"),
        EthernetFrame(
            destination=DST, source=SRC, ethertype=0x0800,
            payload=b"\x00" * MAX_PAYLOAD,
        ),
        EthernetFrame(
            destination=DST, source=SRC, ethertype=0x0800, payload=b"tagged",
            vlan=VlanTag(vid=0xFFE, priority=7),
        ),
        EthernetFrame(
            destination=DST, source=SRC, ethertype=0x0800, payload=b"v1",
            vlan=VlanTag(vid=1, priority=0),
        ),
        # The wire-ambiguous corner: a *tagged* frame whose inner EtherType
        # is itself 0x8100 still round-trips through both encodings.
        EthernetFrame(
            destination=DST, source=SRC, ethertype=0x8100, payload=b"!",
            vlan=VlanTag(vid=5),
        ),
    ]


class TestCornerFrames:
    @pytest.mark.parametrize("frame", _corner_frames())
    def test_envelope_round_trip(self, frame):
        rebuilt = envelope_bytes_to_frame(frame_to_envelope_bytes(frame))
        _assert_frames_equal(rebuilt, frame)

    @pytest.mark.parametrize("frame", _corner_frames())
    def test_packet_bytes_round_trip(self, frame):
        rebuilt = packet_bytes_to_frame(frame_to_packet_bytes(frame))
        _assert_frames_equal(rebuilt, frame)

    def test_untagged_tpid_ethertype_is_the_documented_wire_ambiguity(self):
        """The envelope resolves the corner the wire format cannot."""
        frame = EthernetFrame(
            destination=DST, source=SRC, ethertype=0x8100, payload=b"\x00\x05ok"
        )
        # Wire bytes re-parse as tagged: vid comes from the payload head.
        wire_rebuilt = packet_bytes_to_frame(frame_to_packet_bytes(frame))
        assert wire_rebuilt.vlan is not None
        assert wire_rebuilt != frame
        # The envelope's explicit presence flag keeps the frame intact.
        env_rebuilt = envelope_bytes_to_frame(frame_to_envelope_bytes(frame))
        _assert_frames_equal(env_rebuilt, frame)


# ---------------------------------------------------------------------------
# Malformed envelopes
# ---------------------------------------------------------------------------


class TestEnvelopeValidation:
    def test_rejects_short_buffer(self):
        with pytest.raises(FrameError):
            envelope_bytes_to_frame(b"\x01\x00" + b"\x00" * 10)

    def test_rejects_unknown_version(self):
        frame = _corner_frames()[0]
        data = frame_to_envelope_bytes(frame)
        with pytest.raises(FrameError):
            envelope_bytes_to_frame(b"\x7f" + data[1:])

    def test_rejects_truncated_payload(self):
        frame = EthernetFrame(
            destination=DST, source=SRC, ethertype=0x0800, payload=b"truncate-me"
        )
        data = frame_to_envelope_bytes(frame)
        with pytest.raises(FrameError):
            envelope_bytes_to_frame(data[:-3])
