"""The ping measurement tool (Section 7.2, Figure 9).

"We measured latency with the ping facility for generating ICMP ECHOs, using
various packet sizes to generate frames on the LANs."

:class:`PingRunner` sends a train of ICMP echo requests from one host to
another and records the round-trip time of each reply.  The payload size
parameter plays the role of ping's packet-size option.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.lan.host import Host
from repro.measurement.stats import summarize
from repro.netstack.icmp import IcmpMessage
from repro.netstack.ip import IPv4Address
from repro.netstack.stack import MAX_ICMP_PAYLOAD
from repro.sim.engine import Simulator
from repro.sim.trace import CounterWindow


@dataclass
class PingResult:
    """The outcome of one ping trial.

    Attributes:
        payload_size: ICMP data bytes per echo.
        sent: number of requests sent.
        received: number of replies received.
        rtts: round-trip times, in seconds, in arrival order.
        bridge_forwards: frames forwarded by active nodes during the trial,
            read from the trace hub's live counters (0 on unbridged paths,
            and also 0 if tracing is disabled or the ``node.forward``
            category is gated off — the counters only see captured records).
    """

    payload_size: int
    sent: int = 0
    received: int = 0
    rtts: List[float] = field(default_factory=list)
    bridge_forwards: int = 0

    @property
    def loss_fraction(self) -> float:
        """Fraction of requests that were never answered."""
        if self.sent == 0:
            return 0.0
        return 1.0 - self.received / self.sent

    def summary(self) -> Dict[str, float]:
        """Summary statistics of the RTT sample (seconds).

        Total for zero-delivery trials: a train that lost every echo (the
        link was down) summarizes to all-zero statistics rather than
        raising on the empty sample.
        """
        return summarize(self.rtts)

    def mean_rtt_ms(self) -> float:
        """Mean round-trip time in milliseconds (``0.0`` when nothing came back)."""
        return self.summary()["mean"] * 1000.0


class PingRunner:
    """Send ICMP echoes from ``source`` to ``destination_ip`` and collect RTTs.

    Args:
        sim: the simulator everything runs on.
        source: the pinging host.
        destination_ip: the target address (its host's stack answers echoes).
        payload_size: ICMP data bytes (clamped to the single-frame maximum,
            since the minimal IP layer does not fragment).
        count: number of echo requests.
        interval: seconds between requests (classic ping uses 1 s; the
            latency benchmark uses a shorter interval to keep runs quick).
        identifier: ICMP echo identifier distinguishing concurrent runners.
    """

    def __init__(
        self,
        sim: Simulator,
        source: Host,
        destination_ip: IPv4Address,
        payload_size: int,
        count: int = 10,
        interval: float = 0.2,
        identifier: int = 0x1234,
    ) -> None:
        self.sim = sim
        self.source = source
        self.destination_ip = destination_ip
        self.payload_size = max(0, min(int(payload_size), MAX_ICMP_PAYLOAD))
        self.count = count
        self.interval = interval
        self.identifier = identifier
        self.result = PingResult(payload_size=self.payload_size)
        self._send_times: Dict[int, float] = {}
        self._installed = False

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def start(self, at_time: float = 0.0) -> None:
        """Schedule the echo train to start at ``at_time`` (simulated seconds)."""
        if not self._installed:
            self.source.stack.add_icmp_handler(self._on_icmp)
            self._installed = True
        # The send timers ride the *source host's* own engine, not the run
        # facade: everything a send touches (the host stack, its CPU queue,
        # the runner's tallies — which the reply handler already mutates from
        # the host's context) lives on the host's home shard, so on a
        # sharded fabric the facade's control ring — a global barrier per
        # event under relaxed sync — would synchronize every shard 4x per
        # second for a callback only one shard can observe.  On a single
        # engine ``source.sim`` is the same simulator.
        home = self.source.sim
        for index in range(self.count):
            when = at_time + index * self.interval
            home.schedule_at(
                when, lambda seq=index: self._send(seq), label="ping.send"
            )

    def run(self, start_time: float, settle_time: float = 2.0) -> PingResult:
        """Start at ``start_time``, run the simulator until the train completes."""
        self.start(start_time)
        # Live-counter window: O(1) reads at the end of the trial instead of
        # a post-hoc scan over the whole trace.
        window = CounterWindow(self.sim.trace)
        end_time = start_time + self.count * self.interval + settle_time
        self.sim.run_until(end_time)
        self.result.bridge_forwards = window.count(category="node.forward")
        return self.result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _send(self, sequence: int) -> None:
        payload = bytes((sequence + index) & 0xFF for index in range(self.payload_size))
        self._send_times[sequence] = self.sim.now
        self.result.sent += 1
        self.source.ping(self.destination_ip, self.identifier, sequence, payload)

    def _on_icmp(self, message: IcmpMessage, source_ip: IPv4Address) -> None:
        if not message.is_reply or message.identifier != self.identifier:
            return
        if source_ip != self.destination_ip:
            return
        sent_at = self._send_times.pop(message.sequence, None)
        if sent_at is None:
            return
        self.result.received += 1
        self.result.rtts.append(self.sim.now - sent_at)


def ping_sweep(
    sim: Simulator,
    source: Host,
    destination_ip: IPv4Address,
    payload_sizes: List[int],
    start_time: float,
    count: int = 10,
    interval: float = 0.2,
) -> Dict[int, PingResult]:
    """Run one ping trial per payload size, back to back, and return results by size."""
    results: Dict[int, PingResult] = {}
    when = start_time
    for index, size in enumerate(payload_sizes):
        runner = PingRunner(
            sim,
            source,
            destination_ip,
            payload_size=size,
            count=count,
            interval=interval,
            identifier=0x1000 + index,
        )
        results[size] = runner.run(start_time=when)
        when = sim.now + 0.5
    return results
