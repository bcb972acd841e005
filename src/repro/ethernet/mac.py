"""48-bit IEEE MAC addresses.

The paper's bridge is address-driven: the learning switchlet keys its table
by source MAC, the spanning-tree switchlet registers for the *All Bridges*
multicast address, and the DEC-style protocol uses the DEC management
multicast address instead.  Those two well-known group addresses are exported
here as constants.
"""

from __future__ import annotations

from functools import total_ordering

from repro.exceptions import FrameError

MAC_LENGTH = 6

_BROADCAST_OCTETS = b"\xff" * MAC_LENGTH

#: Shared address objects by octets (see :meth:`MacAddress.interned`).
_INTERNED: dict = {}

#: The intern table starts over once it holds this many addresses.
_INTERN_LIMIT = 1 << 16


@total_ordering
class MacAddress:
    """An immutable 48-bit MAC address.

    Instances are hashable (they key the learning bridge's table) and ordered
    (802.1D breaks bridge-priority ties by comparing bridge MAC addresses).
    """

    __slots__ = ("_octets", "_text")

    def __init__(self, octets: bytes) -> None:
        if len(octets) != MAC_LENGTH:
            raise FrameError(
                f"MAC address must be {MAC_LENGTH} octets, got {len(octets)}"
            )
        self._octets = bytes(octets)
        self._text: str = ""

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_string(cls, text: str) -> "MacAddress":
        """Parse ``aa:bb:cc:dd:ee:ff`` (also accepts ``-`` separators)."""
        cleaned = text.strip().replace("-", ":").lower()
        parts = cleaned.split(":")
        if len(parts) != MAC_LENGTH:
            raise FrameError(f"malformed MAC address string: {text!r}")
        try:
            octets = bytes(int(part, 16) for part in parts)
        except ValueError as exc:
            raise FrameError(f"malformed MAC address string: {text!r}") from exc
        return cls(octets)

    @classmethod
    def interned(cls, octets: bytes) -> "MacAddress":
        """The shared address object for ``octets``.

        Frames parsed from switchlet output reuse one object per address,
        so its text form (read on every packet record) is rendered once.
        """
        mac = _INTERNED.get(octets)
        if mac is None:
            if len(_INTERNED) >= _INTERN_LIMIT:
                _INTERNED.clear()
            mac = _INTERNED[octets] = cls(octets)
        return mac

    @classmethod
    def from_int(cls, value: int) -> "MacAddress":
        """Build an address from its 48-bit integer value."""
        if not 0 <= value < (1 << 48):
            raise FrameError(f"MAC integer out of range: {value}")
        return cls(value.to_bytes(MAC_LENGTH, "big"))

    @classmethod
    def locally_administered(cls, station_id: int) -> "MacAddress":
        """Deterministically derive a unicast, locally-administered address.

        The topology builder uses this to give every NIC in a simulated
        network a unique, stable address: ``02:00:00`` plus a 24-bit station
        identifier.
        """
        if not 0 <= station_id < (1 << 24):
            raise FrameError(f"station_id out of range: {station_id}")
        return cls(b"\x02\x00\x00" + station_id.to_bytes(3, "big"))

    # -- queries -------------------------------------------------------------

    @property
    def octets(self) -> bytes:
        """The raw six octets."""
        return self._octets

    def to_int(self) -> int:
        """The 48-bit integer value (used for 802.1D bridge-ID comparisons)."""
        return int.from_bytes(self._octets, "big")

    @property
    def is_broadcast(self) -> bool:
        """True for ff:ff:ff:ff:ff:ff."""
        return self._octets == _BROADCAST_OCTETS

    @property
    def is_multicast(self) -> bool:
        """True if the group bit (least-significant bit of the first octet) is set."""
        return bool(self._octets[0] & 0x01)

    @property
    def is_unicast(self) -> bool:
        """True if the address is neither multicast nor broadcast."""
        return not self.is_multicast

    @property
    def is_locally_administered(self) -> bool:
        """True if the locally-administered bit is set."""
        return bool(self._octets[0] & 0x02)

    # -- dunder --------------------------------------------------------------

    def __str__(self) -> str:
        # Rendered once per address: the text form is read on every packet
        # record and in every describe() string.
        text = self._text
        if not text:
            text = self._text = self._octets.hex(":")
        return text

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"

    def __hash__(self) -> int:
        return hash(self._octets)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MacAddress):
            return self._octets == other._octets
        return NotImplemented

    def __lt__(self, other: "MacAddress") -> bool:
        if isinstance(other, MacAddress):
            return self._octets < other._octets
        return NotImplemented


#: The Ethernet broadcast address.
BROADCAST = MacAddress(_BROADCAST_OCTETS)

#: IEEE 802.1D "All Bridges" / STP multicast address.  The spanning-tree
#: switchlet registers with the node's demultiplexer for this address.
ALL_BRIDGES_MULTICAST = MacAddress.from_string("01:80:c2:00:00:00")

#: DEC management multicast address used by the DEC-style ("old") spanning
#: tree protocol the paper transitions away from.
DEC_MANAGEMENT_MULTICAST = MacAddress.from_string("09:00:2b:01:00:00")
