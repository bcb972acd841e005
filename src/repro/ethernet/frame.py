"""The Ethernet II frame wire format.

Frames are represented as an immutable dataclass and can be serialized to and
parsed from bytes.  The paper represents packets as ``{len; addr; pkt}``
records whose data the switchlet must unmarshal itself; our
:class:`EthernetFrame` plays the role of that record, and the switchlets
still do their own unmarshalling of the payloads they care about (BPDUs, IP
headers, ...).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.ethernet.crc import crc32_ethernet
from repro.ethernet.ethertype import EtherType
from repro.ethernet.mac import MacAddress
from repro.exceptions import FrameError

#: Minimum Ethernet payload (frames shorter than this are padded on the wire).
MIN_PAYLOAD = 46

#: Maximum Ethernet payload (the classic 1500-byte MTU).
MAX_PAYLOAD = 1500

#: Header: destination (6) + source (6) + type (2).
HEADER_LENGTH = 14

#: Trailer: the 4-byte frame check sequence.
FCS_LENGTH = 4

#: Preamble + SFD + inter-frame gap, counted when computing wire occupancy.
WIRE_OVERHEAD = 8 + 12

#: The 802.1Q tag inserted after the source address: TPID (2) + TCI (2).
VLAN_TAG_LENGTH = 4

#: The smallest possible wire occupancy of any frame (minimum frame plus
#: preamble, SFD and inter-frame gap) — a hard lower bound on serialization
#: time that the sharded fabric's partitioner folds into its cut-segment
#: lookahead.
MIN_WIRE_LENGTH = HEADER_LENGTH + MIN_PAYLOAD + FCS_LENGTH + WIRE_OVERHEAD


@dataclass(frozen=True)
class VlanTag:
    """An IEEE 802.1Q tag: VLAN identifier plus priority code point.

    Attributes:
        vid: the 12-bit VLAN identifier (1–4094 for real VLANs; 0 means
            "priority tag only" and 4095 is reserved, both rejected here).
        priority: the 3-bit priority code point (0 by default).
    """

    vid: int
    priority: int = 0

    def __post_init__(self) -> None:
        if not 1 <= int(self.vid) <= 0xFFE:
            raise FrameError(f"VLAN id out of range: {self.vid}")
        if not 0 <= int(self.priority) <= 7:
            raise FrameError(f"VLAN priority out of range: {self.priority}")

    @property
    def tci(self) -> int:
        """The 16-bit tag control information word (priority | DEI=0 | vid)."""
        return (int(self.priority) << 13) | int(self.vid)

    @classmethod
    def from_tci(cls, tci: int) -> "VlanTag":
        """Parse a tag control information word."""
        return cls(vid=tci & 0x0FFF, priority=(tci >> 13) & 0x7)

    def __str__(self) -> str:
        if self.priority:
            return f"{self.vid}(p{self.priority})"
        return str(self.vid)


@dataclass(frozen=True)
class EthernetFrame:
    """An Ethernet II frame, optionally 802.1Q-tagged.

    Attributes:
        destination: destination MAC address.
        source: source MAC address.
        ethertype: 16-bit protocol identifier (see :class:`EtherType`); for
            tagged frames this is the *inner* type, after the tag.
        payload: the payload bytes (not yet padded to the 46-byte minimum).
        vlan: optional 802.1Q tag; tagged frames carry 4 extra header bytes
            on the wire, reflected in both length properties.
        frame_length: length on the wire excluding preamble/IFG
            (header + tag + padded payload + FCS); precomputed in
            ``__post_init__``.
        wire_length: total wire occupancy including preamble, SFD and
            inter-frame gap; precomputed in ``__post_init__``.
    """

    destination: MacAddress
    source: MacAddress
    ethertype: int
    payload: bytes = field(default=b"")
    vlan: "VlanTag | None" = None

    def __post_init__(self) -> None:
        payload_length = len(self.payload)
        if payload_length > MAX_PAYLOAD:
            raise FrameError(
                f"payload of {payload_length} bytes exceeds the "
                f"{MAX_PAYLOAD}-byte Ethernet MTU"
            )
        if not 0 <= int(self.ethertype) <= 0xFFFF:
            raise FrameError(f"ethertype out of range: {self.ethertype}")
        # The size accounting is read several times per hop (NIC counters,
        # serialization delay, cost model); precompute it once.  Plain
        # attributes, not fields: they never enter __eq__/__repr__.
        padded = payload_length if payload_length >= MIN_PAYLOAD else MIN_PAYLOAD
        tag = 0 if self.vlan is None else VLAN_TAG_LENGTH
        object.__setattr__(
            self, "frame_length", HEADER_LENGTH + tag + padded + FCS_LENGTH
        )
        object.__setattr__(
            self,
            "wire_length",
            HEADER_LENGTH + tag + padded + FCS_LENGTH + WIRE_OVERHEAD,
        )

    # -- size accounting -----------------------------------------------------

    @cached_property
    def padded_payload(self) -> bytes:
        """The payload padded with zero bytes up to the 46-byte minimum.

        Cached: the frame is immutable and the LAN substrate reads the size
        properties several times per hop.
        """
        if len(self.payload) >= MIN_PAYLOAD:
            return self.payload
        return self.payload + b"\x00" * (MIN_PAYLOAD - len(self.payload))

    @property
    def is_multicast(self) -> bool:
        """True if addressed to a multicast group (including broadcast)."""
        return self.destination.is_multicast

    @property
    def is_broadcast(self) -> bool:
        """True if addressed to the broadcast address."""
        return self.destination.is_broadcast

    # -- serialization -------------------------------------------------------

    def encode(self) -> bytes:
        """Serialize to wire bytes (header, optional 802.1Q tag, padded payload, FCS)."""
        header = self.destination.octets + self.source.octets
        if self.vlan is not None:
            header += struct.pack(
                "!HH", int(EtherType.VLAN_8021Q), self.vlan.tci
            )
        header += struct.pack("!H", int(self.ethertype))
        body = header + self.padded_payload
        fcs = struct.pack("!I", crc32_ethernet(body))
        return body + fcs

    @classmethod
    def decode(cls, data: bytes, verify_fcs: bool = True) -> "EthernetFrame":
        """Parse wire bytes back into a frame.

        An outer type field of 0x8100 is recognized as an 802.1Q tag: the
        following TCI word becomes :attr:`vlan` and the real EtherType is
        read after it.  A TCI word whose VLAN id names no VLAN (0, an 802.1p
        priority-only tag, which the simulator does not model, or the
        reserved 4095) reads as what its sender built: an untagged frame of
        EtherType 0x8100 whose payload starts with that word.

        Args:
            data: encoded frame bytes.
            verify_fcs: if true (default), a bad frame check sequence raises
                :class:`FrameError` — this is how the simulated NIC drops
                corrupted frames.

        Note:
            Padding cannot be distinguished from genuine payload at this
            layer (exactly as on real Ethernet); higher layers carry their
            own length fields.
        """
        if len(data) < HEADER_LENGTH + MIN_PAYLOAD + FCS_LENGTH:
            raise FrameError(f"frame too short: {len(data)} bytes")
        destination = MacAddress(data[0:6])
        source = MacAddress(data[6:12])
        (outer_type,) = struct.unpack("!H", data[12:14])
        vlan = None
        body_start = HEADER_LENGTH
        ethertype = outer_type
        if outer_type == int(EtherType.VLAN_8021Q):
            (tci,) = struct.unpack("!H", data[14:16])
            if 0 < (tci & 0x0FFF) < 0x0FFF:
                vlan = VlanTag.from_tci(tci)
                (ethertype,) = struct.unpack("!H", data[16:18])
                body_start = HEADER_LENGTH + VLAN_TAG_LENGTH
        payload = data[body_start:-FCS_LENGTH]
        (fcs,) = struct.unpack("!I", data[-FCS_LENGTH:])
        if verify_fcs and crc32_ethernet(data[:-FCS_LENGTH]) != fcs:
            raise FrameError("frame check sequence mismatch")
        return cls(
            destination=destination,
            source=source,
            ethertype=ethertype,
            payload=payload,
            vlan=vlan,
        )

    # -- convenience ---------------------------------------------------------

    def with_payload(self, payload: bytes) -> "EthernetFrame":
        """Return a copy of this frame carrying a different payload."""
        return replace(self, payload=payload)

    def tagged(self, vid: int, priority: int = 0) -> "EthernetFrame":
        """Return a copy of this frame carrying an 802.1Q tag."""
        return replace(self, vlan=VlanTag(vid=vid, priority=priority))

    def untagged(self) -> "EthernetFrame":
        """Return a copy of this frame with any 802.1Q tag removed."""
        if self.vlan is None:
            return self
        return replace(self, vlan=None)

    def describe(self) -> str:
        """One-line human-readable summary used by logs and debug output."""
        vlan = "" if self.vlan is None else f"vlan={self.vlan} "
        return (
            f"{self.source} -> {self.destination} "
            f"{vlan}type={EtherType.describe(int(self.ethertype))} "
            f"len={len(self.payload)}"
        )
