"""Frame unmarshalling helpers used inside switchlets.

The paper is explicit that switchlets receive raw bytes and "the user must
unmarshall the data from the string" (Section 6).  :class:`FrameFmt` is the
small set of helpers the bridge switchlets use to do that unmarshalling.

This class is *shipped as part of every bridge switchlet*: the packaging
layer extracts its source and prepends it to each switchlet's source text, so
the loaded code is self-contained and uses nothing beyond safe builtins.
(That is also why it uses ``int.from_bytes`` instead of the ``struct``
module, which switchlets cannot import.)
"""

from __future__ import annotations


class FrameFmt:
    """Static helpers for picking apart and building Ethernet frame bytes.

    The ``pkt`` byte strings handled here are the format defined by
    :mod:`repro.core.unixnet`: destination (6) + source (6) + EtherType (2) +
    payload, with no frame check sequence.
    """

    HEADER_LEN = 14
    BROADCAST = "ff:ff:ff:ff:ff:ff"
    VLAN_TPID = 0x8100

    @staticmethod
    def dst_bytes(pkt):
        """Destination MAC address as 6 raw bytes."""
        return bytes(pkt[0:6])

    @staticmethod
    def src_bytes(pkt):
        """Source MAC address as 6 raw bytes."""
        return bytes(pkt[6:12])

    @staticmethod
    def ethertype(pkt):
        """The 16-bit EtherType field."""
        return int.from_bytes(bytes(pkt[12:14]), "big")

    @staticmethod
    def payload(pkt):
        """The frame payload (everything after the 14-byte header)."""
        return bytes(pkt[14:])

    @staticmethod
    def mac_to_str(mac_bytes):
        """Render 6 raw bytes as the usual colon-separated string."""
        return bytes(mac_bytes).hex(":")

    @staticmethod
    def str_to_mac(text):
        """Parse a colon-separated MAC string back into 6 raw bytes."""
        parts = str(text).split(":")
        if len(parts) != 6:
            raise ValueError("malformed MAC string: %r" % (text,))
        return bytes(int(part, 16) for part in parts)

    @staticmethod
    def is_group(mac_bytes):
        """Whether the address has the multicast/broadcast group bit set."""
        data = bytes(mac_bytes)
        return bool(data[0] & 0x01)

    @staticmethod
    def dst_str(pkt):
        """Destination MAC as a string."""
        return FrameFmt.mac_to_str(FrameFmt.dst_bytes(pkt))

    @staticmethod
    def src_str(pkt):
        """Source MAC as a string."""
        return FrameFmt.mac_to_str(FrameFmt.src_bytes(pkt))

    @staticmethod
    def build(dst_bytes, src_bytes, ethertype, payload):
        """Assemble header + payload bytes for ``Unixnet.send_pkt_out``."""
        return (
            bytes(dst_bytes)
            + bytes(src_bytes)
            + int(ethertype).to_bytes(2, "big")
            + bytes(payload)
        )

    # -- 802.1Q tag handling -------------------------------------------------
    #
    # A tagged ``pkt`` carries TPID (2) + TCI (2) between the source address
    # and the real EtherType, exactly as on the wire.

    @staticmethod
    def is_tagged(pkt):
        """Whether the frame bytes carry an 802.1Q tag."""
        return int.from_bytes(bytes(pkt[12:14]), "big") == FrameFmt.VLAN_TPID

    @staticmethod
    def vlan_id(pkt):
        """The 12-bit VLAN id, or ``None`` for untagged frames."""
        if not FrameFmt.is_tagged(pkt):
            return None
        return int.from_bytes(bytes(pkt[14:16]), "big") & 0x0FFF

    @staticmethod
    def vlan_priority(pkt):
        """The 3-bit priority code point, or ``None`` for untagged frames."""
        if not FrameFmt.is_tagged(pkt):
            return None
        return int.from_bytes(bytes(pkt[14:16]), "big") >> 13

    @staticmethod
    def add_vlan(pkt, vid, priority=0):
        """Insert an 802.1Q tag into untagged frame bytes."""
        if FrameFmt.is_tagged(pkt):
            raise ValueError("frame is already 802.1Q-tagged")
        data = bytes(pkt)
        tci = ((int(priority) & 0x7) << 13) | (int(vid) & 0x0FFF)
        return (
            data[0:12]
            + FrameFmt.VLAN_TPID.to_bytes(2, "big")
            + tci.to_bytes(2, "big")
            + data[12:]
        )

    @staticmethod
    def strip_vlan(pkt):
        """Remove the 802.1Q tag from tagged frame bytes (no-op if untagged)."""
        data = bytes(pkt)
        if not FrameFmt.is_tagged(data):
            return data
        return data[0:12] + data[16:]
