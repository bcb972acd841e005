"""``Safeunix`` — the heavily thinned Unix module.

The paper (Section 5.2.1): "``Safeunix`` is a very heavily thinned version of
the Unix module from Caml.  Our version of Safeunix provides access to some
time related functions and to some types that are needed for networking.
Since we provide no functions for generating output as part of Safeunix, we
provide a module called Log ..."

Accordingly the reproduction's ``Safeunix`` exposes only:

* ``gettimeofday`` — simulated wall-clock time (the agility measurement in
  Section 7.5 is built from exactly this call);
* ``SockAddr`` — the address record attached to every received packet
  (Figure 4's ``Safeunix.sockaddr``).

There is no file, process, socket or environment access.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.sim.engine import Simulator


class SockAddr(NamedTuple):
    """The address record carried in :class:`repro.core.unixnet.Packet`.

    An immutable record, built for every received packet.

    Attributes:
        interface: name of the interface the packet arrived on or is sent to
            (e.g. ``"eth0"``).
        mac: the peer MAC address rendered as a string (``"aa:bb:..."``);
            strings keep the type trivially safe to hand to switchlets.
    """

    interface: str
    mac: str

    def describe(self) -> str:
        """Human-readable rendering used in logs."""
        return f"{self.interface}/{self.mac}"


class SafeunixImplementation:
    """Implementation object behind the thinned ``Safeunix`` module."""

    #: Exported so switchlets can construct addresses for outbound packets.
    SockAddr = SockAddr

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim

    def gettimeofday(self) -> float:
        """Current simulated time in seconds (the only clock switchlets get)."""
        return self._sim.now

    #: Names exported when this implementation is thinned into ``Safeunix``.
    THINNED_EXPORTS = ("SockAddr", "gettimeofday")
